//! Attributed evidence: `D = (O, F)` with `F = {(Vi⊕, Vi, Ei) | i ∈ O}`.
//!
//! Attributed evidence records, for each information object, which nodes
//! were sources, which nodes became active, and — crucially — which
//! *edges* carried the flow. This is the data type the paper trains
//! betaICMs from (§II-A); the Twitter substrate produces it by
//! reconstructing retweet chains.

use crate::state::ActiveState;
use flow_graph::{BitSet, DiGraph, EdgeId, NodeId};

/// One information object's attributed flow: `(Vi⊕, Vi, Ei)`.
#[derive(Clone, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AttributedRecord {
    /// Source nodes `Vi⊕` (active by fiat).
    pub sources: Vec<NodeId>,
    /// All active nodes `Vi` (must include the sources).
    pub active_nodes: BitSet,
    /// Traversed edges `Ei` (each must have an active parent).
    pub active_edges: BitSet,
}

/// Validation failures for a record against a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvidenceError {
    /// A source node is not marked active.
    SourceNotActive(NodeId),
    /// An active edge's parent node is not active.
    EdgeParentInactive(EdgeId),
    /// An active edge's child node is not active.
    EdgeChildInactive(EdgeId),
    /// A non-source active node has no active incoming edge.
    UnexplainedActivation(NodeId),
    /// Bitset sizes do not match the graph.
    ShapeMismatch,
}

impl std::fmt::Display for EvidenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvidenceError::SourceNotActive(v) => write!(f, "source {v} not marked active"),
            EvidenceError::EdgeParentInactive(e) => {
                write!(f, "active edge {e} has an inactive parent")
            }
            EvidenceError::EdgeChildInactive(e) => {
                write!(f, "active edge {e} has an inactive child")
            }
            EvidenceError::UnexplainedActivation(v) => {
                write!(f, "active non-source {v} has no active incoming edge")
            }
            EvidenceError::ShapeMismatch => write!(f, "bitset sizes do not match the graph"),
        }
    }
}

impl std::error::Error for EvidenceError {}

impl From<EvidenceError> for flow_core::FlowError {
    fn from(e: EvidenceError) -> Self {
        flow_core::FlowError::GraphInconsistency {
            detail: e.to_string(),
        }
    }
}

impl AttributedRecord {
    /// Builds a record directly from a simulated or derived
    /// [`ActiveState`] (always valid by construction).
    pub fn from_active_state(state: &ActiveState) -> Self {
        AttributedRecord {
            sources: state
                .sources()
                .iter_ones()
                .map(|i| NodeId(i as u32))
                .collect(),
            active_nodes: state.active_nodes().clone(),
            active_edges: state.active_edges().clone(),
        }
    }

    /// Builds a record from explicit node/edge lists.
    pub fn from_lists(
        graph: &DiGraph,
        sources: Vec<NodeId>,
        active_nodes: &[NodeId],
        active_edges: &[EdgeId],
    ) -> Self {
        let mut nodes = BitSet::new(graph.node_count());
        for &v in active_nodes {
            nodes.set(v.index(), true);
        }
        for &s in &sources {
            nodes.set(s.index(), true);
        }
        let mut edges = BitSet::new(graph.edge_count());
        for &e in active_edges {
            edges.set(e.index(), true);
        }
        AttributedRecord {
            sources,
            active_nodes: nodes,
            active_edges: edges,
        }
    }

    /// Checks the ICM consistency rules against `graph`:
    /// sources are active; every active edge has active endpoints; every
    /// active non-source has at least one active incoming edge.
    pub fn validate(&self, graph: &DiGraph) -> Result<(), EvidenceError> {
        if self.active_nodes.len() != graph.node_count()
            || self.active_edges.len() != graph.edge_count()
        {
            return Err(EvidenceError::ShapeMismatch);
        }
        for &s in &self.sources {
            if !self.active_nodes.get(s.index()) {
                return Err(EvidenceError::SourceNotActive(s));
            }
        }
        for e_idx in self.active_edges.iter_ones() {
            let e = EdgeId(e_idx as u32);
            let (u, v) = graph.endpoints(e);
            if !self.active_nodes.get(u.index()) {
                return Err(EvidenceError::EdgeParentInactive(e));
            }
            if !self.active_nodes.get(v.index()) {
                return Err(EvidenceError::EdgeChildInactive(e));
            }
        }
        let mut is_source = BitSet::new(graph.node_count());
        for &s in &self.sources {
            is_source.set(s.index(), true);
        }
        for v_idx in self.active_nodes.iter_ones() {
            if is_source.get(v_idx) {
                continue;
            }
            let v = NodeId(v_idx as u32);
            let explained = graph
                .in_edges(v)
                .iter()
                .any(|&e| self.active_edges.get(e.index()));
            if !explained {
                return Err(EvidenceError::UnexplainedActivation(v));
            }
        }
        Ok(())
    }

    /// True iff node `v` is active in this record.
    pub fn is_node_active(&self, v: NodeId) -> bool {
        self.active_nodes.get(v.index())
    }

    /// True iff edge `e` carried flow in this record.
    pub fn is_edge_active(&self, e: EdgeId) -> bool {
        self.active_edges.get(e.index())
    }
}

/// A collection of attributed records over a common graph.
#[derive(Clone, Debug, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AttributedEvidence {
    records: Vec<AttributedRecord>,
}

impl AttributedEvidence {
    /// Empty evidence set.
    pub fn new() -> Self {
        AttributedEvidence::default()
    }

    /// Adds one record.
    pub fn push(&mut self, record: AttributedRecord) {
        self.records.push(record);
    }

    /// Number of information objects.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if there are no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates the records.
    pub fn iter(&self) -> impl Iterator<Item = &AttributedRecord> {
        self.records.iter()
    }

    /// Validates every record; returns the index of the first invalid
    /// record with its error.
    pub fn validate(&self, graph: &DiGraph) -> Result<(), (usize, EvidenceError)> {
        for (i, r) in self.records.iter().enumerate() {
            r.validate(graph).map_err(|e| (i, e))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Icm;
    use crate::state::simulate_cascade;
    use flow_graph::graph::graph_from_edges;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn diamond() -> DiGraph {
        graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn simulated_cascades_validate() {
        let icm = Icm::with_uniform_probability(diamond(), 0.6);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let s = simulate_cascade(&icm, &[NodeId(0)], &mut rng);
            let r = AttributedRecord::from_active_state(&s);
            assert_eq!(r.validate(icm.graph()), Ok(()));
        }
    }

    #[test]
    fn from_lists_roundtrip() {
        let g = diamond();
        let e01 = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let r = AttributedRecord::from_lists(&g, vec![NodeId(0)], &[NodeId(1)], &[e01]);
        assert_eq!(r.validate(&g), Ok(()));
        assert!(r.is_node_active(NodeId(0)), "sources auto-marked active");
        assert!(r.is_node_active(NodeId(1)));
        assert!(!r.is_node_active(NodeId(3)));
        assert!(r.is_edge_active(e01));
    }

    #[test]
    fn validation_catches_unexplained_activation() {
        let g = diamond();
        let r = AttributedRecord::from_lists(&g, vec![NodeId(0)], &[NodeId(3)], &[]);
        assert_eq!(
            r.validate(&g),
            Err(EvidenceError::UnexplainedActivation(NodeId(3)))
        );
    }

    #[test]
    fn validation_catches_inactive_edge_endpoints() {
        let g = diamond();
        let e13 = g.find_edge(NodeId(1), NodeId(3)).unwrap();
        // Edge 1->3 active but node 1 inactive.
        let mut r = AttributedRecord::from_lists(&g, vec![NodeId(0)], &[NodeId(3)], &[e13]);
        assert_eq!(r.validate(&g), Err(EvidenceError::EdgeParentInactive(e13)));
        // Parent active, child missing.
        r = AttributedRecord::from_lists(&g, vec![NodeId(0)], &[NodeId(1)], &[e13]);
        assert_eq!(r.validate(&g), Err(EvidenceError::EdgeChildInactive(e13)));
    }

    #[test]
    fn validation_catches_shape_mismatch() {
        let g = diamond();
        let other = graph_from_edges(2, &[(0, 1)]);
        let r = AttributedRecord::from_lists(&other, vec![NodeId(0)], &[], &[]);
        assert_eq!(r.validate(&g), Err(EvidenceError::ShapeMismatch));
    }

    #[test]
    fn evidence_collection_validates_all() {
        let g = diamond();
        let good = AttributedRecord::from_lists(&g, vec![NodeId(0)], &[], &[]);
        let bad = AttributedRecord::from_lists(&g, vec![NodeId(0)], &[NodeId(3)], &[]);
        let mut ev = AttributedEvidence::new();
        ev.push(good);
        ev.push(bad);
        assert_eq!(ev.len(), 2);
        let err = ev.validate(&g).unwrap_err();
        assert_eq!(err.0, 1);
    }
}

//! Sub-model projection for sharded serving.
//!
//! A [`SubIcm`] is an [`Icm`] restricted to a subset of its parent's
//! edges. Two design constraints from DESIGN.md §16 shape it:
//!
//! * **Node ids are preserved.** The sub-graph keeps the parent's node
//!   count and node-id space, so query coordinates (sources, targets,
//!   condition endpoints) need no translation — only *edge* indices
//!   remap, and the chain's multinomial shrinks to the projected edge
//!   count.
//! * **Edge order is the parent's.** Edges are added in ascending
//!   parent edge-id order, making the projection — and its
//!   [`model_fingerprint`](crate::model_fingerprint) — a pure function
//!   of `(parent model, edge set)`.

use crate::{model_fingerprint, Icm};
use flow_core::{FlowError, FlowResult};
use flow_graph::{EdgeId, GraphBuilder};

/// An ICM projected onto a subset of its parent's edges.
#[derive(Clone, Debug)]
pub struct SubIcm {
    icm: Icm,
}

impl SubIcm {
    /// Projects `parent` onto `edges`, which must be strictly ascending
    /// parent edge ids (duplicates and out-of-range ids are a typed
    /// [`FlowError::GraphInconsistency`]).
    pub fn project(parent: &Icm, edges: &[EdgeId]) -> FlowResult<SubIcm> {
        let g = parent.graph();
        let mut builder = GraphBuilder::new(g.node_count());
        let mut probs = Vec::with_capacity(edges.len());
        let mut prev: Option<EdgeId> = None;
        for &e in edges {
            if e.index() >= g.edge_count() {
                return Err(FlowError::GraphInconsistency {
                    detail: format!(
                        "sub-model edge {} out of range (parent has {} edges)",
                        e.index(),
                        g.edge_count()
                    ),
                });
            }
            if prev.is_some_and(|p| p.index() >= e.index()) {
                return Err(FlowError::GraphInconsistency {
                    detail: format!(
                        "sub-model edge list must be strictly ascending (edge {} after {})",
                        e.index(),
                        prev.map_or(0, |p| p.index())
                    ),
                });
            }
            prev = Some(e);
            let (u, v) = g.endpoints(e);
            builder.add_edge(u, v)?;
            probs.push(parent.probability(e));
        }
        Ok(SubIcm {
            icm: Icm::try_new(builder.build(), probs)?,
        })
    }

    /// The projected model (same node-id space as the parent).
    #[inline]
    pub fn icm(&self) -> &Icm {
        &self.icm
    }

    /// Number of edges in the sub-model (`m_shard`).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.icm.edge_count()
    }

    /// Fingerprint of the projected model — what per-shard cache
    /// entries key on, so an epoch that leaves this shard's
    /// probabilities untouched leaves its cache valid. The projected
    /// model keeps it once computed.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        model_fingerprint(&self.icm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_graph::graph::graph_from_edges;
    use flow_graph::NodeId;

    fn parent() -> Icm {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        Icm::new(g, vec![0.1, 0.2, 0.3, 0.4, 0.5])
    }

    #[test]
    fn projection_preserves_nodes_and_remaps_edges() {
        let p = parent();
        let sub = SubIcm::project(&p, &[EdgeId(1), EdgeId(3), EdgeId(4)]).unwrap();
        assert_eq!(sub.icm().node_count(), 5);
        assert_eq!(sub.edge_count(), 3);
        assert_eq!(sub.icm().probabilities(), &[0.2, 0.4, 0.5]);
        // Endpoints survive untranslated.
        let g = sub.icm().graph();
        assert_eq!(g.endpoints(EdgeId(0)), (NodeId(0), NodeId(2)));
        assert_eq!(g.endpoints(EdgeId(1)), (NodeId(2), NodeId(3)));
    }

    #[test]
    fn full_projection_is_bit_identical_to_parent() {
        let p = parent();
        let all: Vec<EdgeId> = p.graph().edges().collect();
        let sub = SubIcm::project(&p, &all).unwrap();
        assert_eq!(sub.fingerprint(), model_fingerprint(&p));
        for (a, b) in sub.icm().probabilities().iter().zip(p.probabilities()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn fingerprint_tracks_the_edge_set() {
        let p = parent();
        let a = SubIcm::project(&p, &[EdgeId(0), EdgeId(2)]).unwrap();
        let b = SubIcm::project(&p, &[EdgeId(0), EdgeId(3)]).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        let a2 = SubIcm::project(&p, &[EdgeId(0), EdgeId(2)]).unwrap();
        assert_eq!(a.fingerprint(), a2.fingerprint());
    }

    #[test]
    fn rejects_out_of_range_and_unordered_edges() {
        let p = parent();
        match SubIcm::project(&p, &[EdgeId(9)]) {
            Err(FlowError::GraphInconsistency { detail }) => {
                assert!(detail.contains("out of range"), "{detail}");
            }
            other => panic!("expected GraphInconsistency, got {other:?}"),
        }
        match SubIcm::project(&p, &[EdgeId(2), EdgeId(1)]) {
            Err(FlowError::GraphInconsistency { detail }) => {
                assert!(detail.contains("ascending"), "{detail}");
            }
            other => panic!("expected GraphInconsistency, got {other:?}"),
        }
        match SubIcm::project(&p, &[EdgeId(1), EdgeId(1)]) {
            Err(FlowError::GraphInconsistency { .. }) => {}
            other => panic!("expected GraphInconsistency, got {other:?}"),
        }
    }

    #[test]
    fn empty_projection_is_a_valid_model() {
        let p = parent();
        let sub = SubIcm::project(&p, &[]).unwrap();
        assert_eq!(sub.edge_count(), 0);
        assert_eq!(sub.icm().node_count(), 5);
    }
}

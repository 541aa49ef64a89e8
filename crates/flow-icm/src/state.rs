//! Pseudo-states and active-states (§II, §III-A of the paper).
//!
//! A **pseudo-state** assigns every edge of the model an activity bit,
//! *irrespective of whether its parent node is active* — this is the
//! computationally convenient object the Metropolis–Hastings chain walks
//! over (Eq. 3 gives its probability). Given a source set, a pseudo-state
//! *gives rise to* an **active-state**: the set of nodes the information
//! actually reaches and the edges it actually traverses.
//!
//! Several pseudo-states give rise to the same active-state (they differ
//! only on edges whose parents never activate), which is why sampling
//! pseudo-states and deriving active-states yields correctly-distributed
//! flows (Eq. 4).

use crate::model::Icm;
use flow_graph::{BitSet, DiGraph, EdgeId, NodeId};
use rand::Rng;

/// A boolean activity assignment for every edge of a model.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PseudoState {
    bits: BitSet,
}

impl PseudoState {
    /// All-inactive pseudo-state for a graph with `edge_count` edges.
    pub fn all_inactive(edge_count: usize) -> Self {
        PseudoState {
            bits: BitSet::new(edge_count),
        }
    }

    /// Builds from an explicit bitset (one bit per edge).
    pub fn from_bits(bits: BitSet) -> Self {
        PseudoState { bits }
    }

    /// Samples each edge independently with its activation probability —
    /// a direct draw from Eq. 3.
    pub fn sample<R: Rng + ?Sized>(icm: &Icm, rng: &mut R) -> Self {
        let mut bits = BitSet::new(icm.edge_count());
        for e in icm.graph().edges() {
            if rng.random::<f64>() < icm.probability(e) {
                bits.set(e.index(), true);
            }
        }
        PseudoState { bits }
    }

    /// Number of edges the state covers.
    pub fn edge_count(&self) -> usize {
        self.bits.len()
    }

    /// Activity of edge `e`.
    #[inline]
    pub fn is_active(&self, e: EdgeId) -> bool {
        self.bits.get(e.index())
    }

    /// Sets the activity of edge `e`.
    pub fn set(&mut self, e: EdgeId, active: bool) {
        self.bits.set(e.index(), active);
    }

    /// Flips edge `e`, returning its new activity.
    pub fn flip(&mut self, e: EdgeId) -> bool {
        self.bits.flip(e.index())
    }

    /// The underlying bitset.
    pub fn bits(&self) -> &BitSet {
        &self.bits
    }

    /// Log-probability of this pseudo-state under `icm` (Eq. 3):
    /// `ln Π p_e^{x_e} (1-p_e)^{1-x_e}`.
    ///
    /// Returns `-inf` when the state sets an edge of probability 0
    /// active (or probability 1 inactive).
    pub fn ln_probability(&self, icm: &Icm) -> f64 {
        assert_eq!(self.bits.len(), icm.edge_count(), "state/model mismatch");
        let mut acc = 0.0;
        for e in icm.graph().edges() {
            let p = icm.probability(e);
            let q = if self.is_active(e) { p } else { 1.0 - p };
            if q <= 0.0 {
                return f64::NEG_INFINITY;
            }
            acc += q.ln();
        }
        acc
    }

    /// Probability of this pseudo-state under `icm` (Eq. 3).
    pub fn probability(&self, icm: &Icm) -> f64 {
        self.ln_probability(icm).exp()
    }

    /// Derives the active-state this pseudo-state gives rise to for the
    /// given source set: BFS from the sources over pseudo-active edges.
    pub fn derive_active_state(&self, graph: &DiGraph, sources: &[NodeId]) -> ActiveState {
        assert_eq!(self.bits.len(), graph.edge_count(), "state/graph mismatch");
        let mut active_nodes = BitSet::new(graph.node_count());
        let mut active_edges = BitSet::new(graph.edge_count());
        let mut queue = std::collections::VecDeque::new();
        let mut source_set = BitSet::new(graph.node_count());
        for &s in sources {
            source_set.set(s.index(), true);
            if !active_nodes.get(s.index()) {
                active_nodes.set(s.index(), true);
                queue.push_back(s);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &e in graph.out_edges(u) {
                if !self.is_active(e) {
                    continue;
                }
                // The edge has an active parent and is pseudo-active, so
                // it is truly active: the atom traverses it.
                active_edges.set(e.index(), true);
                let v = graph.dst(e);
                if !active_nodes.get(v.index()) {
                    active_nodes.set(v.index(), true);
                    queue.push_back(v);
                }
            }
        }
        ActiveState {
            sources: source_set,
            active_nodes,
            active_edges,
        }
    }

    /// True iff this pseudo-state carries a flow from `source` to `sink`
    /// — the indicator `I(u, v; x)` of Eq. 5.
    pub fn carries_flow(&self, graph: &DiGraph, source: NodeId, sink: NodeId) -> bool {
        let mut scratch = flow_graph::traverse::BfsScratch::new(graph.node_count());
        scratch.is_reachable(graph, source, sink, |e| self.is_active(e))
    }
}

/// The flows an information object actually realizes: source nodes,
/// active (reached) nodes, and traversed edges. This is the `(Vi⊕, Vi,
/// Ei)` triple of the paper's attributed evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ActiveState {
    sources: BitSet,
    active_nodes: BitSet,
    active_edges: BitSet,
}

impl ActiveState {
    /// True iff `v` is a source (`v ∈ Vi⊕`).
    pub fn is_source(&self, v: NodeId) -> bool {
        self.sources.get(v.index())
    }

    /// True iff `v` is active (`v ∈ Vi`).
    pub fn is_node_active(&self, v: NodeId) -> bool {
        self.active_nodes.get(v.index())
    }

    /// True iff edge `e` was traversed (`e ∈ Ei`).
    pub fn is_edge_active(&self, e: EdgeId) -> bool {
        self.active_edges.get(e.index())
    }

    /// Source-node bitset (`Vi⊕`).
    pub fn sources(&self) -> &BitSet {
        &self.sources
    }

    /// Active-node bitset (`Vi`).
    pub fn active_nodes(&self) -> &BitSet {
        &self.active_nodes
    }

    /// Active-edge bitset (`Ei`).
    pub fn active_edges(&self) -> &BitSet {
        &self.active_edges
    }

    /// Number of active nodes (including sources).
    pub fn active_node_count(&self) -> usize {
        self.active_nodes.count_ones()
    }

    /// Number of active nodes excluding the sources — the paper's
    /// "impact" measure (Fig. 4 counts retweeting users).
    pub fn impact(&self) -> usize {
        self.active_nodes
            .iter_ones()
            .filter(|&i| !self.sources.get(i))
            .count()
    }

    /// True iff there is an end-to-end flow from a source to `v`
    /// (i.e. `v` is active and not itself a source).
    pub fn has_flow_to(&self, v: NodeId) -> bool {
        self.is_node_active(v) && !self.is_source(v)
    }
}

/// Simulates a cascade directly: BFS from `sources`, sampling each
/// considered edge's Bernoulli lazily. Distributionally identical to
/// `PseudoState::sample(...).derive_active_state(...)` but touches only
/// the frontier (the usual simulation used for ground-truth data
/// generation and for the naive Monte-Carlo baseline).
pub fn simulate_cascade<R: Rng + ?Sized>(
    icm: &Icm,
    sources: &[NodeId],
    rng: &mut R,
) -> ActiveState {
    let graph = icm.graph();
    let mut active_nodes = BitSet::new(graph.node_count());
    let mut active_edges = BitSet::new(graph.edge_count());
    let mut source_set = BitSet::new(graph.node_count());
    let mut queue = std::collections::VecDeque::new();
    for &s in sources {
        source_set.set(s.index(), true);
        if !active_nodes.get(s.index()) {
            active_nodes.set(s.index(), true);
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &e in graph.out_edges(u) {
            if rng.random::<f64>() < icm.probability(e) {
                active_edges.set(e.index(), true);
                let v = graph.dst(e);
                if !active_nodes.get(v.index()) {
                    active_nodes.set(v.index(), true);
                    queue.push_back(v);
                }
            }
        }
    }
    ActiveState {
        sources: source_set,
        active_nodes,
        active_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_graph::graph::graph_from_edges;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn diamond_icm(p: f64) -> Icm {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        Icm::with_uniform_probability(g, p)
    }

    #[test]
    fn pseudo_state_probability_eq3() {
        let icm = diamond_icm(0.3);
        let mut x = PseudoState::all_inactive(4);
        // All inactive: (0.7)^4
        assert!((x.probability(&icm) - 0.7f64.powi(4)).abs() < 1e-12);
        x.set(EdgeId(0), true);
        assert!((x.probability(&icm) - 0.3 * 0.7f64.powi(3)).abs() < 1e-12);
        let full = PseudoState::from_bits(BitSet::from_indices(4, 0..4));
        assert!((full.probability(&icm) - 0.3f64.powi(4)).abs() < 1e-12);
    }

    #[test]
    fn ln_probability_degenerate_edges() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let icm = Icm::new(g, vec![0.0]);
        let mut x = PseudoState::all_inactive(1);
        assert_eq!(x.ln_probability(&icm), 0.0); // (1-0) = 1
        x.set(EdgeId(0), true);
        assert_eq!(x.ln_probability(&icm), f64::NEG_INFINITY);
    }

    #[test]
    fn pseudo_state_probabilities_sum_to_one() {
        let icm = diamond_icm(0.42);
        let mut total = 0.0;
        for code in 0..16u64 {
            let x = PseudoState::from_bits(BitSet::from_u64(4, code));
            total += x.probability(&icm);
        }
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn derive_active_state_respects_parent_activity() {
        let icm = diamond_icm(0.5);
        let g = icm.graph();
        // Pseudo-active: 0->2 and 1->3 only. 1 never activates, so edge
        // 1->3 is pseudo-active but NOT truly active.
        let e02 = g.find_edge(NodeId(0), NodeId(2)).unwrap();
        let e13 = g.find_edge(NodeId(1), NodeId(3)).unwrap();
        let mut x = PseudoState::all_inactive(4);
        x.set(e02, true);
        x.set(e13, true);
        let s = x.derive_active_state(g, &[NodeId(0)]);
        assert!(s.is_node_active(NodeId(0)));
        assert!(s.is_node_active(NodeId(2)));
        assert!(!s.is_node_active(NodeId(1)));
        assert!(!s.is_node_active(NodeId(3)));
        assert!(s.is_edge_active(e02));
        assert!(!s.is_edge_active(e13));
        assert!(s.is_source(NodeId(0)));
        assert!(!s.is_source(NodeId(2)));
        assert_eq!(s.impact(), 1);
        assert!(s.has_flow_to(NodeId(2)));
        assert!(!s.has_flow_to(NodeId(0))); // sources have no flow *to* them
    }

    #[test]
    fn carries_flow_matches_active_state() {
        let icm = diamond_icm(0.5);
        let g = icm.graph();
        for code in 0..16u64 {
            let x = PseudoState::from_bits(BitSet::from_u64(4, code));
            let s = x.derive_active_state(g, &[NodeId(0)]);
            assert_eq!(
                x.carries_flow(g, NodeId(0), NodeId(3)),
                s.has_flow_to(NodeId(3)),
                "code {code}"
            );
        }
    }

    #[test]
    fn cascade_and_pseudo_state_sampling_agree_in_distribution() {
        // Marginal P(node 3 active) from both samplers should agree with
        // the exact value 1 - (1 - p^2)^2 on the diamond.
        let p = 0.6;
        let icm = diamond_icm(p);
        let exact = 1.0 - (1.0 - p * p) * (1.0 - p * p);
        let n = 60_000;
        let mut rng = StdRng::seed_from_u64(31);
        let mut hits_cascade = 0;
        let mut hits_pseudo = 0;
        for _ in 0..n {
            if simulate_cascade(&icm, &[NodeId(0)], &mut rng).is_node_active(NodeId(3)) {
                hits_cascade += 1;
            }
            let x = PseudoState::sample(&icm, &mut rng);
            if x.carries_flow(icm.graph(), NodeId(0), NodeId(3)) {
                hits_pseudo += 1;
            }
        }
        let f_cascade = hits_cascade as f64 / n as f64;
        let f_pseudo = hits_pseudo as f64 / n as f64;
        assert!(
            (f_cascade - exact).abs() < 0.01,
            "cascade {f_cascade} vs {exact}"
        );
        assert!(
            (f_pseudo - exact).abs() < 0.01,
            "pseudo {f_pseudo} vs {exact}"
        );
    }

    #[test]
    fn multi_source_cascade() {
        let icm = diamond_icm(1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let s = simulate_cascade(&icm, &[NodeId(1), NodeId(2)], &mut rng);
        assert!(s.is_node_active(NodeId(3)));
        assert!(!s.is_node_active(NodeId(0)));
        assert_eq!(s.active_node_count(), 3);
        assert_eq!(s.impact(), 1);
    }

    #[test]
    fn flip_roundtrip() {
        let mut x = PseudoState::all_inactive(3);
        assert!(x.flip(EdgeId(1)));
        assert!(x.is_active(EdgeId(1)));
        assert_eq!(x.bits().count_ones(), 1);
        assert!(!x.flip(EdgeId(1)));
        assert_eq!(x.bits().count_ones(), 0);
    }
}

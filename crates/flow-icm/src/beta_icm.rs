//! The betaICM of §II-A: an ICM whose edge activation probabilities are
//! Beta distributions rather than points.
//!
//! Training from attributed evidence is pure counting (the paper's
//! three-step algorithm): start every edge at `Beta(1, 1)`; for each
//! object and each edge `e_{j,k}`, increment `α` when the edge carried
//! the flow (`e ∈ Ei`) and `β` when it had the *opportunity* but did not
//! (`v_j ∈ Vi` but `e ∉ Ei`).

use crate::evidence::AttributedEvidence;
use crate::model::Icm;
use flow_graph::{DiGraph, EdgeId};
use flow_stats::Beta;
use rand::Rng;

/// A graph with one Beta distribution per edge — a probability
/// distribution over point-probability ICMs.
#[derive(Clone, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct BetaIcm {
    graph: DiGraph,
    params: Vec<Beta>,
}

/// Loads the `graph` and `params` fields, each Beta through
/// [`Beta::try_new`], and rejects a file without exactly one Beta per
/// edge.
#[cfg(feature = "serde")]
impl serde::Deserialize for BetaIcm {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let graph: DiGraph = serde::field(v, "graph")?;
        let params: Vec<Beta> = serde::field(v, "params")?;
        if params.len() != graph.edge_count() {
            return Err(serde::Error::msg(format!(
                "{} Beta parameters for {} edges",
                params.len(),
                graph.edge_count()
            )));
        }
        Ok(BetaIcm { graph, params })
    }
}

impl BetaIcm {
    /// Builds a betaICM from explicit per-edge Beta distributions.
    pub fn new(graph: DiGraph, params: Vec<Beta>) -> Self {
        assert_eq!(params.len(), graph.edge_count(), "need one Beta per edge");
        BetaIcm { graph, params }
    }

    /// The uninformed model: every edge `Beta(1, 1)`.
    pub fn uniform_prior(graph: DiGraph) -> Self {
        let m = graph.edge_count();
        BetaIcm {
            graph,
            params: vec![Beta::uniform(); m],
        }
    }

    /// Trains a betaICM from attributed evidence (§II-A).
    ///
    /// Equivalent to the paper's per-edge scan but iterates only the
    /// out-edges of active nodes, making each object `O(Σ deg(Vi))`
    /// rather than `O(m)`.
    pub fn train(graph: DiGraph, evidence: &AttributedEvidence) -> Self {
        let m = graph.edge_count();
        let mut alpha = vec![1.0f64; m];
        let mut beta = vec![1.0f64; m];
        for record in evidence.iter() {
            for j_idx in record.active_nodes.iter_ones() {
                let j = flow_graph::NodeId(j_idx as u32);
                for &e in graph.out_edges(j) {
                    if record.is_edge_active(e) {
                        alpha[e.index()] += 1.0;
                    } else {
                        beta[e.index()] += 1.0;
                    }
                }
            }
        }
        let params = alpha
            .into_iter()
            .zip(beta)
            .map(|(a, b)| Beta::new(a, b))
            .collect();
        BetaIcm { graph, params }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// The Beta distribution of edge `e`.
    pub fn edge_beta(&self, e: EdgeId) -> Beta {
        self.params[e.index()]
    }

    /// All per-edge Beta parameters.
    pub fn params(&self) -> &[Beta] {
        &self.params
    }

    /// The *expected point-probability ICM*: each edge takes its Beta
    /// mean `α/(α+β)`. This is the model the paper runs
    /// Metropolis–Hastings on when a single point model is wanted.
    pub fn expected_icm(&self) -> Icm {
        let probs = self.params.iter().map(|b| b.mean()).collect();
        Icm::new(self.graph.clone(), probs)
    }

    /// Samples a point-probability ICM: every edge draws independently
    /// from its Beta. Used by nested Metropolis–Hastings (§III-E) to
    /// expose uncertainty over flow probabilities.
    pub fn sample_icm<R: Rng + ?Sized>(&self, rng: &mut R) -> Icm {
        let probs = self.params.iter().map(|b| b.sample(rng)).collect();
        Icm::new(self.graph.clone(), probs)
    }

    /// Absorbs a network change without retraining: `extended` must
    /// contain this model's graph as an id-stable prefix (see
    /// [`flow_graph::GraphBuilder::from_graph`]). Existing edges keep
    /// their trained posteriors; new edges start at `prior`.
    ///
    /// Returns an error naming the first mismatched edge if `extended`
    /// is not a proper extension.
    pub fn extended(self, extended: DiGraph, prior: Beta) -> Result<BetaIcm, ExtendError> {
        if extended.node_count() < self.graph.node_count() {
            return Err(ExtendError::FewerNodes {
                had: self.graph.node_count(),
                got: extended.node_count(),
            });
        }
        if extended.edge_count() < self.graph.edge_count() {
            return Err(ExtendError::FewerEdges {
                had: self.graph.edge_count(),
                got: extended.edge_count(),
            });
        }
        for e in self.graph.edges() {
            if self.graph.endpoints(e) != extended.endpoints(e) {
                return Err(ExtendError::EdgeMismatch { edge: e });
            }
        }
        let mut params = self.params;
        params.resize(extended.edge_count(), prior);
        Ok(BetaIcm {
            graph: extended,
            params,
        })
    }

    /// Online training update: folds one additional attributed record
    /// into the per-edge posteriors (the §II-A counting rule applied
    /// incrementally), so streams of evidence can be absorbed without
    /// retraining from scratch.
    pub fn absorb(&mut self, record: &crate::evidence::AttributedRecord) {
        for j_idx in record.active_nodes.iter_ones() {
            let j = flow_graph::NodeId(j_idx as u32);
            for &e in self.graph.out_edges(j) {
                let b = self.params[e.index()];
                self.params[e.index()] = if record.is_edge_active(e) {
                    Beta::new(b.alpha() + 1.0, b.beta())
                } else {
                    Beta::new(b.alpha(), b.beta() + 1.0)
                };
            }
        }
    }
}

/// Failure to extend a model with a changed graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExtendError {
    /// The new graph has fewer nodes than the model's.
    FewerNodes {
        /// Node count of the existing model.
        had: usize,
        /// Node count of the proposed replacement graph.
        got: usize,
    },
    /// The new graph has fewer edges than the model's.
    FewerEdges {
        /// Edge count of the existing model.
        had: usize,
        /// Edge count of the proposed replacement graph.
        got: usize,
    },
    /// An existing edge id maps to different endpoints in the new graph.
    EdgeMismatch {
        /// The edge whose endpoints changed.
        edge: EdgeId,
    },
}

impl std::fmt::Display for ExtendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtendError::FewerNodes { had, got } => {
                write!(f, "extension removed nodes ({had} -> {got})")
            }
            ExtendError::FewerEdges { had, got } => {
                write!(f, "extension removed edges ({had} -> {got})")
            }
            ExtendError::EdgeMismatch { edge } => {
                write!(f, "edge {edge} has different endpoints in the extension")
            }
        }
    }
}

impl std::error::Error for ExtendError {}

impl From<ExtendError> for flow_core::FlowError {
    fn from(e: ExtendError) -> Self {
        flow_core::FlowError::GraphInconsistency {
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::AttributedRecord;
    use crate::state::simulate_cascade;
    use flow_graph::graph::graph_from_edges;
    use flow_graph::NodeId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn diamond() -> DiGraph {
        graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn uniform_prior_is_beta_one_one() {
        let b = BetaIcm::uniform_prior(diamond());
        for e in b.graph().edges() {
            assert_eq!(b.edge_beta(e), Beta::uniform());
        }
        let icm = b.expected_icm();
        assert!(icm.probabilities().iter().all(|&p| (p - 0.5).abs() < 1e-12));
    }

    #[test]
    fn training_counts_match_paper_rule() -> flow_core::FlowResult<()> {
        let g = diamond();
        let e01 = g.require_edge(NodeId(0), NodeId(1))?;
        let e02 = g.require_edge(NodeId(0), NodeId(2))?;
        let e13 = g.require_edge(NodeId(1), NodeId(3))?;
        let e23 = g.require_edge(NodeId(2), NodeId(3))?;
        // Object: source 0, flows 0->1->3; node 2 never active.
        let r =
            AttributedRecord::from_lists(&g, vec![NodeId(0)], &[NodeId(1), NodeId(3)], &[e01, e13]);
        assert_eq!(r.validate(&g), Ok(()));
        let mut ev = AttributedEvidence::new();
        ev.push(r);
        let model = BetaIcm::train(g, &ev);
        // e01 fired: alpha 2, beta 1.
        assert_eq!(model.edge_beta(e01), Beta::new(2.0, 1.0));
        // e02 had the opportunity (0 active) but did not fire: (1, 2).
        assert_eq!(model.edge_beta(e02), Beta::new(1.0, 2.0));
        // e13 fired: (2, 1).
        assert_eq!(model.edge_beta(e13), Beta::new(2.0, 1.0));
        // e23's parent was never active: untouched prior (1, 1).
        assert_eq!(model.edge_beta(e23), Beta::uniform());
        Ok(())
    }

    #[test]
    fn training_recovers_ground_truth_probabilities() -> flow_core::FlowResult<()> {
        // Generate many cascades from a known ICM and check the trained
        // means approach the truth.
        let g = diamond();
        let truths = [0.8, 0.2, 0.6, 0.4];
        let icm = Icm::new(g.clone(), truths.to_vec());
        let mut rng = StdRng::seed_from_u64(9);
        let mut ev = AttributedEvidence::new();
        for _ in 0..4000 {
            let s = simulate_cascade(&icm, &[NodeId(0)], &mut rng);
            ev.push(AttributedRecord::from_active_state(&s));
        }
        let model = BetaIcm::train(g.clone(), &ev);
        for e in g.edges() {
            let want = truths[e.index()];
            let got = model.edge_beta(e).mean();
            assert!(
                (got - want).abs() < 0.05,
                "edge {e}: trained {got}, truth {want}"
            );
        }
        // Edges whose parent activates more often carry tighter (higher
        // pseudo-count) posteriors: edges out of the source have seen
        // every object.
        let e01 = g.require_edge(NodeId(0), NodeId(1))?;
        let b = model.edge_beta(e01);
        assert_eq!(b.alpha() + b.beta(), 2.0 + 4000.0);
        Ok(())
    }

    #[test]
    fn expected_icm_uses_means() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let model = BetaIcm::new(g, vec![Beta::new(3.0, 1.0)]);
        let icm = model.expected_icm();
        assert!((icm.probability(EdgeId(0)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn sampled_icms_follow_edge_betas() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let model = BetaIcm::new(g, vec![Beta::new(16.0, 4.0)]);
        let mut rng = StdRng::seed_from_u64(13);
        let mut acc = 0.0;
        let n = 5000;
        for _ in 0..n {
            let icm = model.sample_icm(&mut rng);
            let p = icm.probability(EdgeId(0));
            assert!((0.0..=1.0).contains(&p));
            acc += p;
        }
        assert!((acc / n as f64 - 0.8).abs() < 0.01);
    }

    #[test]
    fn extended_keeps_posteriors_and_adds_priors() -> flow_core::FlowResult<()> {
        let g = diamond();
        let trained = {
            let mut rng = StdRng::seed_from_u64(70);
            let icm = Icm::with_uniform_probability(g.clone(), 0.5);
            let mut ev = AttributedEvidence::new();
            for _ in 0..100 {
                let s = simulate_cascade(&icm, &[NodeId(0)], &mut rng);
                ev.push(AttributedRecord::from_active_state(&s));
            }
            BetaIcm::train(g.clone(), &ev)
        };
        let old_beta = trained.edge_beta(EdgeId(0));
        // Grow the graph: one new node, two new edges.
        let mut b = flow_graph::GraphBuilder::from_graph(&g);
        let v4 = b.add_node();
        b.add_edge(NodeId(3), v4)?;
        b.add_edge(v4, NodeId(0))?;
        let bigger = b.build();
        let grown = trained.extended(bigger, Beta::uniform())?;
        assert_eq!(grown.edge_count(), 6);
        assert_eq!(grown.edge_beta(EdgeId(0)), old_beta, "posterior kept");
        assert_eq!(
            grown.edge_beta(EdgeId(4)),
            Beta::uniform(),
            "new edge at prior"
        );
        // Shrinking is rejected: fewer nodes, or fewer edges.
        let fewer_nodes = flow_graph::graph::graph_from_edges(4, &[(0, 1)]);
        assert!(matches!(
            grown.clone().extended(fewer_nodes, Beta::uniform()),
            Err(ExtendError::FewerNodes { .. })
        ));
        let fewer_edges = flow_graph::graph::graph_from_edges(5, &[(0, 1)]);
        assert!(matches!(
            grown.clone().extended(fewer_edges, Beta::uniform()),
            Err(ExtendError::FewerEdges { .. })
        ));
        let remapped = flow_graph::graph::graph_from_edges(
            5,
            &[(0, 2), (0, 1), (1, 3), (2, 3), (3, 4), (4, 0)],
        );
        assert!(matches!(
            grown.extended(remapped, Beta::uniform()),
            Err(ExtendError::EdgeMismatch { edge }) if edge == EdgeId(0)
        ));
        Ok(())
    }

    #[test]
    fn absorb_matches_batch_training() {
        let g = diamond();
        let icm = Icm::with_uniform_probability(g.clone(), 0.5);
        let mut rng = StdRng::seed_from_u64(71);
        let mut evidence = AttributedEvidence::new();
        let mut online = BetaIcm::uniform_prior(g.clone());
        for _ in 0..200 {
            let r = AttributedRecord::from_active_state(&simulate_cascade(
                &icm,
                &[NodeId(0)],
                &mut rng,
            ));
            online.absorb(&r);
            evidence.push(r);
        }
        let batch = BetaIcm::train(g.clone(), &evidence);
        for e in g.edges() {
            assert_eq!(batch.edge_beta(e), online.edge_beta(e), "edge {e}");
        }
    }

    #[test]
    #[should_panic(expected = "one Beta per edge")]
    fn rejects_param_mismatch() {
        let _ = BetaIcm::new(diamond(), vec![Beta::uniform()]);
    }
}

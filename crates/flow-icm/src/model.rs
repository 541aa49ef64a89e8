//! The point-probability Independent Cascade Model.

use flow_core::{fault, FlowError, FlowResult};
use flow_graph::{DiGraph, EdgeId, NodeId};
use std::sync::OnceLock;

/// An ICM `(V, E, P)`: a directed graph plus one activation probability
/// per edge (indexed by [`EdgeId`]).
///
/// The graph is shared immutably; probabilities are mutable so learners
/// and samplers can refit them in place.
#[derive(Clone, Debug)]
pub struct Icm {
    graph: DiGraph,
    probs: Vec<f64>,
    /// [`crate::model_fingerprint`] of this model value, computed on
    /// first ask and cleared by [`Self::set_probability`]. Never
    /// serialized: a loaded model computes its own. A `OnceLock`, so
    /// the model stays `Sync`: serving workers share `&Icm`.
    pub(crate) fingerprint: OnceLock<u64>,
}

impl Icm {
    /// Builds an ICM from a graph and one probability per edge.
    ///
    /// Panics if the vector length does not match the edge count or any
    /// probability lies outside `[0, 1]`.
    pub fn new(graph: DiGraph, probs: Vec<f64>) -> Self {
        match Self::try_new(graph, probs) {
            Ok(icm) => icm,
            // flow-analyze: allow(L1: documented panicking wrapper over try_new, L7: sampling callers construct from probabilities already validated by the posterior clamp)
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible construction: returns
    /// [`FlowError::GraphInconsistency`] on a length mismatch and
    /// [`FlowError::InvalidProbability`] on an out-of-range or
    /// non-finite probability, instead of panicking.
    pub fn try_new(graph: DiGraph, mut probs: Vec<f64>) -> FlowResult<Self> {
        if probs.len() != graph.edge_count() {
            return Err(FlowError::GraphInconsistency {
                detail: format!(
                    "{} probabilities for {} edges",
                    probs.len(),
                    graph.edge_count()
                ),
            });
        }
        for p in probs.iter_mut() {
            *p = fault::poison("icm.edge_probability", *p);
            if !(p.is_finite() && (0.0..=1.0).contains(p)) {
                return Err(FlowError::InvalidProbability {
                    what: "edge activation probability",
                    value: *p,
                });
            }
        }
        Ok(Icm {
            graph,
            probs,
            fingerprint: OnceLock::new(),
        })
    }

    /// Builds an ICM where every edge has the same probability `p`.
    pub fn with_uniform_probability(graph: DiGraph, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        let m = graph.edge_count();
        Icm {
            graph,
            probs: vec![p; m],
            fingerprint: OnceLock::new(),
        }
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of edges `m`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Activation probability of edge `e`.
    #[inline]
    pub fn probability(&self, e: EdgeId) -> f64 {
        self.probs[e.index()]
    }

    /// All activation probabilities, indexed by edge id.
    #[inline]
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// Sets the activation probability of edge `e`, making this a new
    /// model value whose fingerprint is computed afresh.
    pub fn set_probability(&mut self, e: EdgeId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.probs[e.index()] = p;
        self.fingerprint = OnceLock::new();
    }

    /// Exact end-to-end flow probability `Pr[u ~> v]` by pseudo-state
    /// enumeration. Exponential in the edge count; see
    /// [`crate::exact::enumerate_flow_probability`] for the guardrails.
    pub fn exact_flow_probability(&self, source: NodeId, sink: NodeId) -> f64 {
        crate::exact::enumerate_flow_probability(self, source, sink)
    }
}

/// The JSON fields are `graph` and `probs`; the cached fingerprint is
/// not one of them.
#[cfg(feature = "serde")]
impl serde::Serialize for Icm {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("graph".to_string(), self.graph.to_value()),
            ("probs".to_string(), self.probs.to_value()),
        ])
    }
}

/// Loads through [`Icm::try_new`], so a file cannot smuggle in an
/// out-of-range probability or a length mismatch.
#[cfg(feature = "serde")]
impl serde::Deserialize for Icm {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Icm::try_new(serde::field(v, "graph")?, serde::field(v, "probs")?)
            .map_err(|e| serde::Error::msg(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_graph::graph::graph_from_edges;

    #[test]
    fn construction_and_access() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let icm = Icm::new(g, vec![0.25, 0.75]);
        assert_eq!(icm.node_count(), 3);
        assert_eq!(icm.edge_count(), 2);
        assert_eq!(icm.probability(EdgeId(0)), 0.25);
    }

    #[test]
    fn uniform_constructor() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let icm = Icm::with_uniform_probability(g, 0.5);
        assert!(icm.probabilities().iter().all(|&p| p == 0.5));
    }

    #[test]
    fn set_probability_roundtrip() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let mut icm = Icm::with_uniform_probability(g, 0.0);
        icm.set_probability(EdgeId(0), 0.9);
        assert_eq!(icm.probability(EdgeId(0)), 0.9);
    }

    #[test]
    #[should_panic(expected = "probabilities for")]
    fn rejects_wrong_length() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let _ = Icm::new(g, vec![0.1, 0.2]);
    }

    #[test]
    #[should_panic(expected = "edge activation probability")]
    fn rejects_invalid_probability() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let _ = Icm::new(g, vec![1.5]);
    }

    #[test]
    fn try_new_reports_typed_errors() {
        use flow_core::FlowError;
        let g = graph_from_edges(2, &[(0, 1)]);
        match Icm::try_new(g.clone(), vec![0.1, 0.2]) {
            Err(FlowError::GraphInconsistency { .. }) => {}
            other => panic!("expected GraphInconsistency, got {other:?}"),
        }
        match Icm::try_new(g, vec![f64::NAN]) {
            Err(FlowError::InvalidProbability { value, .. }) => assert!(value.is_nan()),
            other => panic!("expected InvalidProbability, got {other:?}"),
        }
    }
}

//! The incrementally-learned stream model.
//!
//! A [`StreamModel`] holds both sufficient statistics the paper's
//! learners maintain, updated one [`EpochDelta`] at a time:
//!
//! * a [`BetaIcm`] absorbing attributed records via the §II-A counting
//!   rule ([`BetaIcm::absorb`]);
//! * one [`SinkSummary`] per sink with in-edges, extended by building a
//!   per-epoch table over the delta's episodes and
//!   [`SinkSummary::merge`]-ing it in.
//!
//! **Incremental ≡ batch, bit-for-bit.** Both statistics are exact
//! integer counts: Beta parameters move by `+1.0` per observation
//! (exact in f64 far below 2⁵³) and characteristic rows hold `u64`
//! counts, so applying deltas `b₁` then `b₂` leaves the model in the
//! same bit pattern as one-shot training on `b₁ ∪ b₂`. The property
//! test in this crate and the `serve_model_equivalence` proptest pin
//! this down over random cascade splits.

use crate::delta::EpochDelta;
use flow_core::{FlowResult, Fnv64};
use flow_graph::{DiGraph, NodeId};
use flow_icm::{model_fingerprint, BetaIcm, Icm};
use flow_learn::summary::{SinkSummary, TimingAssumption};
use flow_stats::dist::Beta;

/// Sufficient statistics for serving, maintained incrementally.
#[derive(Clone, Debug)]
pub struct StreamModel {
    beta: BetaIcm,
    /// One summary per sink with at least one in-edge, in node-id
    /// order; `parents` follow the sink's `in_edges` order so the
    /// characteristic bit layout is reproducible.
    summaries: Vec<SinkSummary>,
    timing: TimingAssumption,
    epoch: u64,
    /// The model as served and its fingerprint, rebuilt whenever the
    /// statistics change (construction and [`Self::apply`]).
    served: Icm,
    served_fingerprint: u64,
}

/// The candidate parents of `sink`: its in-neighbours, in in-edge
/// order (the characteristic bit order used everywhere downstream).
fn in_parents(graph: &DiGraph, sink: NodeId) -> Vec<NodeId> {
    graph
        .in_edges(sink)
        .iter()
        .map(|&e| graph.endpoints(e).0)
        .collect()
}

/// The point-probability model served to queries: per edge, the
/// attributed Beta posterior augmented with the **filtered**
/// unattributed evidence of §V-C — every unambiguous row adds its
/// leaks to α and its non-leaks to β. Ambiguous rows are ignored,
/// keeping the update exact (integer counts) and therefore
/// order-independent: incremental and batch training serve the same
/// bits.
fn serve(beta: &BetaIcm, summaries: &[SinkSummary]) -> Icm {
    let graph = beta.graph().clone();
    let mut probs: Vec<f64> = beta.params().iter().map(Beta::mean).collect();
    for summary in summaries {
        let width = summary.parents.len();
        let mut leaks = vec![0u64; width];
        let mut misses = vec![0u64; width];
        for row in summary.rows.iter().filter(|r| r.is_unambiguous()) {
            let Some(b) = row.characteristic.iter_ones().next() else {
                continue;
            };
            leaks[b] += row.leaks;
            misses[b] += row.count - row.leaks;
        }
        for (b, &parent) in summary.parents.iter().enumerate() {
            if leaks[b] == 0 && misses[b] == 0 {
                continue;
            }
            let Some(e) = graph.find_edge(parent, summary.sink) else {
                continue;
            };
            let prior = beta.edge_beta(e);
            // One exact integer-valued add per side keeps the
            // result independent of how epochs were split.
            let a = prior.alpha() + leaks[b] as f64;
            let bb = prior.beta() + misses[b] as f64;
            let p = a / (a + bb);
            debug_assert!(
                (0.0..=1.0).contains(&p),
                "blended mean {p} out of [0, 1] (a={a}, b={bb})"
            );
            probs[e.index()] = p;
        }
    }
    Icm::new(graph, probs)
}

impl StreamModel {
    /// An untrained model over `graph`: uniform-prior Betas and empty
    /// characteristic tables.
    pub fn new(graph: DiGraph, timing: TimingAssumption) -> Self {
        let summaries = (0..graph.node_count())
            .map(|v| NodeId(v as u32))
            .filter(|&v| !graph.in_edges(v).is_empty())
            .map(|sink| SinkSummary::from_rows(sink, in_parents(&graph, sink), Vec::new()))
            .collect();
        Self::from_parts(BetaIcm::uniform_prior(graph), summaries, timing, 0)
    }

    /// Rebuilds a model from persisted parts (snapshot load path).
    pub(crate) fn from_parts(
        beta: BetaIcm,
        summaries: Vec<SinkSummary>,
        timing: TimingAssumption,
        epoch: u64,
    ) -> Self {
        let served = serve(&beta, &summaries);
        StreamModel {
            served_fingerprint: model_fingerprint(&served),
            served,
            beta,
            summaries,
            timing,
            epoch,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DiGraph {
        self.beta.graph()
    }

    /// The attributed-evidence posterior.
    pub fn beta(&self) -> &BetaIcm {
        &self.beta
    }

    /// The per-sink characteristic tables.
    pub fn summaries(&self) -> &[SinkSummary] {
        &self.summaries
    }

    /// The timing assumption unattributed evidence is summarized under.
    pub fn timing(&self) -> TimingAssumption {
        self.timing
    }

    /// Number of epochs applied so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Folds one epoch's evidence into the statistics. Attributed
    /// records update the Beta posteriors; episodes extend every sink's
    /// characteristic table. Each call advances [`Self::epoch`] even
    /// when the delta is empty, so snapshot names stay in lockstep with
    /// seal count.
    pub fn apply(&mut self, delta: &EpochDelta) -> FlowResult<()> {
        for record in &delta.attributed {
            self.beta.absorb(record);
        }
        if !delta.episodes.is_empty() {
            for summary in &mut self.summaries {
                let built = SinkSummary::build(
                    summary.sink,
                    summary.parents.clone(),
                    &delta.episodes,
                    self.timing,
                );
                summary.merge(&built)?;
            }
        }
        self.epoch += 1;
        self.served = serve(&self.beta, &self.summaries);
        self.served_fingerprint = model_fingerprint(&self.served);
        Ok(())
    }

    /// The point-probability model served to queries — per edge, the
    /// Beta posterior blended with the filtered §V-C evidence — as a
    /// clone of the one kept since the statistics last changed.
    pub fn serving_icm(&self) -> Icm {
        self.served.clone()
    }

    /// The kept served model, borrowed.
    pub(crate) fn served(&self) -> &Icm {
        &self.served
    }

    /// Fingerprint of the model *as served*: what cache keys embed.
    pub fn serve_fingerprint(&self) -> u64 {
        self.served_fingerprint
    }

    /// Fingerprint of the full learning state (posteriors, tables,
    /// skip counters, epoch) — changes whenever any statistic does,
    /// even if the served probabilities round to the same bits.
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = Fnv64::new()
            .u64(self.epoch)
            .u64(self.graph().node_count() as u64)
            .u64(self.graph().edge_count() as u64);
        for b in self.beta.params() {
            h = h.u64(b.alpha().to_bits()).u64(b.beta().to_bits());
        }
        for s in &self.summaries {
            h = h
                .u64(u64::from(s.sink.0))
                .u64(s.skipped_spontaneous)
                .u64(s.skipped_uninformative);
            for row in &s.rows {
                for one in row.characteristic.iter_ones() {
                    h = h.u64(one as u64);
                }
                h = h.u64(row.count).u64(row.leaks);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{IngestConfig, Ingestor, Push};
    use flow_graph::graph::graph_from_edges;

    fn diamond() -> DiGraph {
        graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    fn delta_from(lines: &[&str]) -> EpochDelta {
        let mut ing = Ingestor::with_graph(diamond(), IngestConfig::default());
        for (i, line) in lines.iter().enumerate() {
            match ing.push_line(i + 1, line) {
                Ok(Push::Accepted | Push::Skipped) => {}
                other => panic!("line {}: unexpected {other:?}", i + 1),
            }
        }
        ing.seal_epoch()
    }

    #[test]
    fn attributed_delta_moves_the_posterior() {
        let mut model = StreamModel::new(diamond(), TimingAssumption::AnyEarlier);
        let before = model.serve_fingerprint();
        let delta = delta_from(&[
            r#"{"cascade": 1, "node": 0, "t": 0}"#,
            r#"{"cascade": 1, "node": 1, "t": 1, "parent": 0}"#,
        ]);
        model.apply(&delta).unwrap();
        assert_eq!(model.epoch(), 1);
        // Edge 0→1 fired: α grows; 0→2 was exposed and did not: β grows.
        let g = model.graph().clone();
        let e01 = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let e02 = g.find_edge(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(model.beta().edge_beta(e01).alpha(), 2.0);
        assert_eq!(model.beta().edge_beta(e02).beta(), 2.0);
        assert_ne!(model.serve_fingerprint(), before);
    }

    #[test]
    fn unattributed_delta_fills_tables_and_serving_model() {
        let mut model = StreamModel::new(diamond(), TimingAssumption::AnyEarlier);
        // Node 1 active before node 3; node 2 never active → the row for
        // sink 3 is unambiguous on parent 1, with a leak.
        let delta = delta_from(&[
            r#"{"cascade": 1, "node": 1, "t": 0}"#,
            r#"{"cascade": 1, "node": 3, "t": 2}"#,
        ]);
        model.apply(&delta).unwrap();
        let sink3 = model
            .summaries()
            .iter()
            .find(|s| s.sink == NodeId(3))
            .unwrap();
        assert_eq!(sink3.total_observations(), 1);
        let icm = model.serving_icm();
        let g = model.graph();
        let e13 = g.find_edge(NodeId(1), NodeId(3)).unwrap();
        let e23 = g.find_edge(NodeId(2), NodeId(3)).unwrap();
        // Unambiguous leak on 1→3: Beta(1+1, 1) → 2/3. 2→3 untouched.
        assert_eq!(icm.probabilities()[e13.index()], 2.0 / 3.0);
        assert_eq!(icm.probabilities()[e23.index()], 0.5);
    }

    #[test]
    fn incremental_split_matches_one_shot_batch() {
        let lines = [
            r#"{"cascade": 1, "node": 0, "t": 0}"#,
            r#"{"cascade": 1, "node": 1, "t": 1, "parent": 0}"#,
            r#"{"cascade": 1, "node": 3, "t": 2, "parent": 1}"#,
            r#"{"cascade": 2, "node": 0, "t": 0}"#,
            r#"{"cascade": 2, "node": 2, "t": 1, "parent": 0}"#,
            r#"{"cascade": 3, "node": 1, "t": 0}"#,
            r#"{"cascade": 3, "node": 3, "t": 1}"#,
            r#"{"cascade": 4, "node": 2, "t": 0}"#,
            r#"{"cascade": 4, "node": 3, "t": 3}"#,
        ];
        // One model sees everything in one epoch…
        let mut batch = StreamModel::new(diamond(), TimingAssumption::AnyEarlier);
        batch.apply(&delta_from(&lines)).unwrap();
        // …the other sees the same cascades over three epochs.
        let mut incr = StreamModel::new(diamond(), TimingAssumption::AnyEarlier);
        incr.apply(&delta_from(&lines[0..3])).unwrap();
        incr.apply(&delta_from(&lines[3..7])).unwrap();
        incr.apply(&delta_from(&lines[7..9])).unwrap();
        assert_eq!(incr.epoch(), 3);
        for (a, b) in incr.beta().params().iter().zip(batch.beta().params()) {
            assert_eq!(a.alpha().to_bits(), b.alpha().to_bits());
            assert_eq!(a.beta().to_bits(), b.beta().to_bits());
        }
        let (pa, pb) = (incr.serving_icm(), batch.serving_icm());
        for (x, y) in pa.probabilities().iter().zip(pb.probabilities()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(incr.serve_fingerprint(), batch.serve_fingerprint());
    }

    #[test]
    fn state_fingerprint_sees_what_serving_fingerprint_misses() {
        let mut a = StreamModel::new(diamond(), TimingAssumption::AnyEarlier);
        let mut b = a.clone();
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
        // An empty epoch changes no statistic but advances the epoch
        // counter: state fingerprint moves, served model does not.
        b.apply(&EpochDelta::default()).unwrap();
        assert_eq!(a.serve_fingerprint(), b.serve_fingerprint());
        assert_ne!(a.state_fingerprint(), b.state_fingerprint());
        a.apply(&EpochDelta::default()).unwrap();
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
    }
}

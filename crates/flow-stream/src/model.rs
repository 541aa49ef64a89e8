//! The incrementally-learned stream model.
//!
//! A [`StreamModel`] holds both sufficient statistics the paper's
//! learners maintain, updated one [`EpochDelta`] at a time:
//!
//! * a [`BetaIcm`] absorbing attributed records via the §II-A counting
//!   rule ([`BetaIcm::absorb`]);
//! * one [`SinkSummary`] per sink with in-edges, kept in flow-learn's
//!   [`SinkTables`] and extended in place by each delta's episodes.
//!
//! **Incremental ≡ batch, bit-for-bit.** Both statistics are exact
//! integer counts: Beta parameters move by `+1.0` per observation
//! (exact in f64 far below 2⁵³) and characteristic rows hold `u64`
//! counts, so applying deltas `b₁` then `b₂` leaves the model in the
//! same bit pattern as one-shot training on `b₁ ∪ b₂`. The property
//! tests in this crate pin this down over random cascade splits, and
//! check the tables against flow-learn's batch build. Recovery relies
//! on it: a log's epochs fold into the snapshot's statistics in one
//! pass, as [`StreamModel::apply_all`] folds them into a live model.

use crate::delta::{EpochDelta, IngestMark};
use flow_core::{FlowResult, Fnv64};
use flow_graph::DiGraph;
use flow_icm::{model_fingerprint, BetaIcm, Icm};
use flow_learn::summary::{SinkSummary, SinkTables, TimingAssumption};
use flow_stats::dist::Beta;

/// Sufficient statistics for serving, maintained incrementally.
#[derive(Clone, Debug)]
pub struct StreamModel {
    beta: BetaIcm,
    /// One summary per sink with at least one in-edge, in node-id
    /// order; `parents` follow the sink's `in_edges` order so the
    /// characteristic bit layout is reproducible.
    tables: SinkTables,
    epoch: u64,
    /// Where the ingest stood when the last applied epoch sealed.
    mark: IngestMark,
    /// The model as served, rebuilt whenever the statistics change
    /// (construction and [`Self::apply`]); it keeps its fingerprint
    /// once computed.
    served: Icm,
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
    let (mut leaks, mut misses) = (Vec::new(), Vec::new());
    for summary in summaries {
        let width = summary.parents.len();
        leaks.clear();
        leaks.resize(width, 0u64);
        misses.clear();
        misses.resize(width, 0u64);
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

/// Folds the evidence of `deltas` into both statistics: attributed
/// records into the Beta posteriors, episodes into the tables.
fn fold(beta: &mut BetaIcm, tables: &mut SinkTables, deltas: &[EpochDelta]) {
    for record in deltas.iter().flat_map(|d| &d.attributed) {
        beta.absorb(record);
    }
    tables.extend(deltas.iter().flat_map(|d| &d.episodes));
}

impl StreamModel {
    /// An untrained model over `graph`: uniform-prior Betas and empty
    /// characteristic tables.
    pub fn new(graph: DiGraph, timing: TimingAssumption) -> Self {
        let tables = SinkTables::new(&graph, timing);
        let beta = BetaIcm::uniform_prior(graph);
        Self::from_parts(beta, tables, 0, IngestMark::default(), &[])
    }

    /// Rebuilds a model from persisted parts (snapshot load path) and
    /// the `replay`ed deltas of the epochs sealed after them, building
    /// the served model once, after the last.
    pub(crate) fn from_parts(
        mut beta: BetaIcm,
        mut tables: SinkTables,
        epoch: u64,
        mark: IngestMark,
        replay: &[EpochDelta],
    ) -> Self {
        fold(&mut beta, &mut tables, replay);
        StreamModel {
            served: serve(&beta, tables.summaries()),
            beta,
            tables,
            epoch: epoch + replay.len() as u64,
            mark: replay.last().map_or(mark, |d| d.mark),
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
        self.tables.summaries()
    }

    /// The timing assumption unattributed evidence is summarized under.
    pub fn timing(&self) -> TimingAssumption {
        self.tables.timing()
    }

    /// Number of epochs applied so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Where the ingest stood when the last applied epoch sealed: what
    /// a stream resumed on this model continues from.
    pub fn mark(&self) -> IngestMark {
        self.mark
    }

    /// Folds one epoch's evidence into the statistics. Attributed
    /// records update the Beta posteriors; episodes extend every sink's
    /// characteristic table. Each call advances [`Self::epoch`] even
    /// when the delta is empty, so snapshot names stay in lockstep with
    /// seal count, and takes the delta's [`IngestMark`].
    pub fn apply(&mut self, delta: &EpochDelta) -> FlowResult<()> {
        self.apply_all(std::slice::from_ref(delta))
    }

    /// Folds consecutive epochs' deltas in one pass: the state that
    /// applying each in turn reaches, bit for bit, because the
    /// statistics are exact counts (incremental ≡ batch). Advances
    /// [`Self::epoch`] once per delta and takes the last one's
    /// [`IngestMark`].
    pub fn apply_all(&mut self, deltas: &[EpochDelta]) -> FlowResult<()> {
        let Some(last) = deltas.last() else {
            return Ok(());
        };
        fold(&mut self.beta, &mut self.tables, deltas);
        self.epoch += deltas.len() as u64;
        self.mark = last.mark;
        self.served = serve(&self.beta, self.tables.summaries());
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
        model_fingerprint(&self.served)
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
        for s in self.summaries() {
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
    use flow_graph::NodeId;

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
    fn applying_epochs_together_matches_applying_them_in_turn() {
        let epochs = [
            delta_from(&[
                r#"{"cascade": 1, "node": 0, "t": 0}"#,
                r#"{"cascade": 1, "node": 1, "t": 1, "parent": 0}"#,
                r#"{"cascade": 2, "node": 1, "t": 0}"#,
                r#"{"cascade": 2, "node": 3, "t": 2}"#,
            ]),
            EpochDelta::default(),
            delta_from(&[
                r#"{"cascade": 3, "node": 2, "t": 0}"#,
                r#"{"cascade": 3, "node": 3, "t": 1}"#,
                r#"{"cascade": 4, "node": 0, "t": 0}"#,
            ]),
        ];
        let mut apart = StreamModel::new(diamond(), TimingAssumption::AnyEarlier);
        for delta in &epochs {
            apart.apply(delta).unwrap();
        }
        let mut together = StreamModel::new(diamond(), TimingAssumption::AnyEarlier);
        together.apply_all(&epochs).unwrap();
        assert_eq!(together.epoch(), 3);
        assert_eq!(together.mark(), apart.mark());
        assert_eq!(together.state_fingerprint(), apart.state_fingerprint());
        assert_eq!(together.serve_fingerprint(), apart.serve_fingerprint());
        together.apply_all(&[]).unwrap();
        assert_eq!(together.epoch(), 3, "no deltas, no epoch");
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

//! Streaming evidence ingest, incremental learning, and versioned
//! model hot-swap into the serving layer.
//!
//! The batch pipeline elsewhere in this workspace trains once over a
//! full evidence set. This crate turns that into a stream:
//!
//! 1. **Ingest** ([`ingest`]) — a bounded, backpressured pipeline
//!    consumes JSONL cascade events ([`event`]): attributed
//!    edge-firings, tweet-text attributions (via `flow-twitter`), and
//!    plain activation-time records. Malformed, late, duplicate, or
//!    causally inconsistent events are dropped with typed
//!    [`flow_core::FlowError::RejectedEvent`] errors and
//!    `stream.reject` telemetry; a full buffer pushes back with the
//!    transient `Overloaded` error instead of dropping data.
//! 2. **Seal** ([`delta`]) — an epoch boundary classifies every open
//!    cascade into attributed records or unattributed episodes: one
//!    [`EpochDelta`].
//! 3. **Learn** ([`model`]) — deltas apply incrementally to a
//!    [`StreamModel`]: betaICM posterior counts for attributed
//!    evidence, characteristic-table counts for unattributed evidence.
//!    Incremental application is bit-identical to batch training on
//!    the union (property-tested below).
//! 4. **Swap** ([`registry`]) — each sealed epoch is made durable
//!    through [`flow_core::persist`] (a synced log record, or now and
//!    then a synced snapshot; the store keeps its two newest snapshots
//!    and their logs) and hot-swaps into a
//!    [`flow_serve::ServeEngine`]: stale cache entries are invalidated
//!    by fingerprint while in-flight batches finish on their version.
//!
//! See DESIGN.md §15 for the epoch lifecycle and the late/duplicate
//! event policy.

pub mod delta;
pub mod event;
pub mod ingest;
pub mod model;
pub mod registry;

pub use delta::{EpochDelta, IngestMark};
pub use event::{parse_line, EventLine, GraphSpec, StreamEvent};
pub use ingest::{IngestConfig, IngestStats, Ingestor, Push};
pub use model::StreamModel;
pub use registry::{EpochReport, ModelRegistry, Recovered, SnapshotStore, SwapReport};

#[cfg(test)]
mod prop_tests {
    use super::*;
    use flow_graph::graph::graph_from_edges;
    use flow_graph::{DiGraph, NodeId};
    use flow_learn::summary::{SinkSummary, TimingAssumption};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A fixed 6-node test graph with enough fan-in for ambiguous rows.
    fn gadget() -> DiGraph {
        graph_from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (1, 4),
                (3, 5),
                (4, 5),
                (2, 5),
            ],
        )
    }

    /// Simulates `cascades` random cascades over the gadget graph and
    /// renders them as event-log lines. Roughly half the activations
    /// keep their attribution; the rest degrade to unattributed
    /// observations, so both statistic feeds see evidence.
    fn random_cascade_lines(seed: u64, cascades: u64) -> Vec<String> {
        let graph = gadget();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lines = Vec::new();
        for cascade in 1..=cascades {
            let attributed_cascade = rng.random_bool(0.5);
            let source = NodeId(rng.random_range(0..graph.node_count() as u32));
            let mut active: Vec<(NodeId, u32)> = vec![(source, 0)];
            lines.push(format!(
                r#"{{"cascade": {cascade}, "node": {}, "t": 0}}"#,
                source.0
            ));
            let mut frontier = vec![source];
            let mut t = 0u32;
            while let Some(u) = frontier.pop() {
                t += 1;
                for &e in graph.out_edges(u) {
                    let (_, v) = graph.endpoints(e);
                    if active.iter().any(|&(w, _)| w == v) || !rng.random_bool(0.6) {
                        continue;
                    }
                    active.push((v, t));
                    frontier.push(v);
                    if attributed_cascade {
                        lines.push(format!(
                            r#"{{"cascade": {cascade}, "node": {}, "t": {t}, "parent": {}}}"#,
                            v.0, u.0
                        ));
                    } else {
                        lines.push(format!(
                            r#"{{"cascade": {cascade}, "node": {}, "t": {t}}}"#,
                            v.0
                        ));
                    }
                }
            }
        }
        lines
    }

    /// Ingests whole cascades (split decisions happen at cascade
    /// granularity so both sides see identical evidence) and seals one
    /// delta per chunk.
    fn deltas_for(
        lines: &[String],
        epoch_of: impl Fn(u64) -> usize,
        epochs: usize,
    ) -> Vec<EpochDelta> {
        // Group lines by their cascade's epoch assignment; cascade ids
        // stay monotone within an ingestor by replaying groups in order.
        let mut out = Vec::new();
        for epoch in 0..epochs {
            let mut ing = Ingestor::with_graph(gadget(), IngestConfig::default());
            for (i, line) in lines.iter().enumerate() {
                let cascade: u64 = line
                    .split("\"cascade\": ")
                    .nth(1)
                    .and_then(|rest| rest.split(',').next())
                    .and_then(|tok| tok.trim().parse().ok())
                    .unwrap_or(0);
                if epoch_of(cascade) != epoch {
                    continue;
                }
                match ing.push_line(i + 1, line) {
                    Ok(_) => {}
                    Err(e) => panic!("line {} rejected: {e}", i + 1),
                }
            }
            out.push(ing.seal_epoch());
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 24,
            ..ProptestConfig::default()
        })]

        /// Tentpole property: applying random per-cascade splits of a
        /// random evidence stream epoch-by-epoch leaves the model
        /// bit-identical to one-shot batch application — Beta parameter
        /// bits, characteristic tables, served probabilities, and both
        /// fingerprints.
        #[test]
        fn incremental_is_bit_identical_to_batch(
            seed in 0u64..1_000,
            cascades in 1u64..24,
            epochs in 1usize..5,
        ) {
            let lines = random_cascade_lines(seed, cascades);
            let assignment: Vec<usize> = {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
                (0..=cascades).map(|_| rng.random_range(0..epochs)).collect()
            };

            let mut batch = StreamModel::new(gadget(), TimingAssumption::AnyEarlier);
            for d in deltas_for(&lines, |_| 0, 1) {
                batch.apply(&d).unwrap();
            }

            let mut incr = StreamModel::new(gadget(), TimingAssumption::AnyEarlier);
            for d in deltas_for(&lines, |c| assignment[c as usize], epochs) {
                incr.apply(&d).unwrap();
            }

            // betaICM counts, bit for bit.
            for (a, b) in incr.beta().params().iter().zip(batch.beta().params()) {
                prop_assert_eq!(a.alpha().to_bits(), b.alpha().to_bits());
                prop_assert_eq!(a.beta().to_bits(), b.beta().to_bits());
            }
            // Characteristic tables, row for row.
            prop_assert_eq!(incr.summaries().len(), batch.summaries().len());
            for (a, b) in incr.summaries().iter().zip(batch.summaries()) {
                prop_assert_eq!(a.sink, b.sink);
                prop_assert_eq!(&a.parents, &b.parents);
                prop_assert_eq!(&a.rows, &b.rows);
                prop_assert_eq!(a.skipped_spontaneous, b.skipped_spontaneous);
                prop_assert_eq!(a.skipped_uninformative, b.skipped_uninformative);
            }
            // Served probabilities and fingerprints.
            let (pi, pb) = (incr.serving_icm(), batch.serving_icm());
            for (x, y) in pi.probabilities().iter().zip(pb.probabilities()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            prop_assert_eq!(incr.serve_fingerprint(), batch.serve_fingerprint());
            // The kept fingerprint is the served model's own.
            prop_assert_eq!(incr.serve_fingerprint(), flow_icm::model_fingerprint(&pi));
        }

        /// The tables `apply` builds from the episodes that touch each
        /// sink are the ones flow-learn's batch build over every
        /// episode gives, under both timing assumptions.
        #[test]
        fn tables_match_a_batch_build_over_every_episode(
            seed in 0u64..1_000,
            cascades in 1u64..24,
            epochs in 1usize..5,
            previous_step in any::<bool>(),
        ) {
            let timing = if previous_step {
                TimingAssumption::PreviousStep
            } else {
                TimingAssumption::AnyEarlier
            };
            let lines = random_cascade_lines(seed, cascades);
            let deltas = deltas_for(&lines, |c| (c as usize) % epochs, epochs);
            let mut model = StreamModel::new(gadget(), timing);
            for d in &deltas {
                model.apply(d).unwrap();
            }
            let episodes: Vec<_> = deltas.iter().flat_map(|d| d.episodes.clone()).collect();
            for s in model.summaries() {
                let batch = SinkSummary::build(s.sink, s.parents.clone(), &episodes, timing);
                prop_assert_eq!(&s.rows, &batch.rows);
                prop_assert_eq!(s.skipped_spontaneous, batch.skipped_spontaneous);
                prop_assert_eq!(s.skipped_uninformative, batch.skipped_uninformative);
            }
        }

        /// Snapshot persistence is faithful for arbitrary trained
        /// states: load(persist(m)) reproduces every statistic bit.
        #[test]
        fn snapshot_roundtrips_random_models(seed in 0u64..500, cascades in 1u64..16) {
            let lines = random_cascade_lines(seed, cascades);
            let mut model = StreamModel::new(gadget(), TimingAssumption::AnyEarlier);
            for d in deltas_for(&lines, |_| 0, 1) {
                model.apply(&d).unwrap();
            }
            let dir = std::env::temp_dir().join(format!(
                "flow-stream-prop-{}-{seed}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut store = SnapshotStore::new(&dir);
            let path = store.persist(&model).unwrap();
            let loaded = store.load(&path).unwrap();
            prop_assert_eq!(loaded.state_fingerprint(), model.state_fingerprint());
            prop_assert_eq!(loaded.serve_fingerprint(), model.serve_fingerprint());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

//! `repro stream` — replay a JSONL cascade event log through the
//! streaming pipeline: bounded ingest, per-epoch incremental learning,
//! snapshot persistence, and hot-swap into a serving engine.
//!
//! Every `{"seal": true}` marker (and end-of-file, if events are still
//! open) seals an epoch: the accumulated delta is applied to the
//! [`flow_stream::StreamModel`], the snapshot is persisted into
//! `--snap-dir` (default `<out>/snapshots`), the new model version is
//! hot-swapped into the engine, and a fixed query set derived from the
//! stream's graph is served against the updated model. Outputs:
//!
//! * `stream_serve_epoch{N}.jsonl` — deterministic per-query answers
//!   after epoch `N` was swapped in. Same log + seed → byte-identical
//!   files; consecutive epochs that change the model produce different
//!   answers (both asserted by the CI streaming job).
//! * `stream_stats.json` — ingest counters (accepted / rejected by
//!   reason / backpressured), per-epoch fingerprints, total cache
//!   entries invalidated by swaps, and the final `swap_equivalence`
//!   verdict: the swapped warm engine's last-epoch answers are
//!   byte-compared against a cold engine serving the same model.
//!
//! Rejected events (malformed, late, duplicate, inconsistent) are
//! counted and reported but never abort the replay — the stream keeps
//! flowing, exactly as the ingestor's drop-one-event policy specifies.
//! Exit-code contract (enforced by the binary): 0 = replay completed
//! and the equivalence check held, 1 = infrastructure error, 2 = usage
//! error, 3 = swap-equivalence mismatch.

use crate::output::Output;
use crate::runners::serve::outcomes_jsonl;
use flow_core::{FlowError, FlowResult};
use flow_graph::{DiGraph, NodeId};
use flow_learn::summary::TimingAssumption;
use flow_mcmc::McmcConfig;
use flow_serve::{FlowQuery, QueryOutcome, ServeConfig, ServeEngine};
use flow_stream::{IngestConfig, Ingestor, ModelRegistry, Push, SnapshotStore, StreamModel};
use std::path::Path;

/// Options for the `stream` subcommand.
#[derive(Clone, Debug, Default)]
pub struct StreamArgs {
    /// Event-log path.
    pub events: String,
    /// Snapshot directory (default `<out>/snapshots`).
    pub snap_dir: Option<String>,
    /// Engine seed.
    pub seed: u64,
}

/// What the replay did, for the exit-code contract.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamReport {
    /// Epochs sealed and swapped.
    pub epochs: u64,
    /// Events accepted into cascades.
    pub accepted: u64,
    /// Events dropped with typed rejections.
    pub rejected: u64,
    /// Cache entries reclaimed across all swaps.
    pub invalidated: u64,
    /// Whether the final warm-engine answers matched a cold engine
    /// byte-for-byte.
    pub equivalence_ok: bool,
}

/// Serving configuration for the replay: small fixed sample counts so
/// the whole log replays in seconds, seeded for bit-reproducibility.
fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        mcmc: McmcConfig {
            samples: 2_000,
            ..Default::default()
        },
        default_tolerance: 0.05,
        engine_seed: seed,
        ..Default::default()
    }
}

fn serve_engine(seed: u64) -> FlowResult<ServeEngine> {
    ServeEngine::builder().config(serve_config(seed)).build()
}

/// A fixed query set derived from the stream's graph alone: up to four
/// nodes with out-edges each query up to two nodes with in-edges.
/// Deterministic in the graph, independent of the evidence.
fn derive_queries(graph: &DiGraph) -> Vec<FlowQuery> {
    let sources: Vec<NodeId> = (0..graph.node_count() as u32)
        .map(NodeId)
        .filter(|&v| !graph.out_edges(v).is_empty())
        .take(4)
        .collect();
    let sinks: Vec<NodeId> = (0..graph.node_count() as u32)
        .rev()
        .map(NodeId)
        .filter(|&v| !graph.in_edges(v).is_empty())
        .take(2)
        .collect();
    let mut queries = Vec::new();
    for &s in &sources {
        for &k in &sinks {
            if s != k {
                queries.push(FlowQuery::flow(s, k));
            }
        }
    }
    queries
}

/// One sealed epoch's bookkeeping for the stats file.
struct EpochRow {
    epoch: u64,
    cascades: usize,
    fingerprint: u64,
    invalidated: usize,
    answers_changed: bool,
}

/// Runs the stream subcommand end to end.
pub fn run_stream(args: &StreamArgs, out: &Output) -> FlowResult<StreamReport> {
    let text = std::fs::read_to_string(&args.events).map_err(|e| FlowError::Io {
        detail: format!("cannot read event log {}: {e}", args.events),
    })?;

    let snap_dir = match (&args.snap_dir, out.dir()) {
        (Some(dir), _) => Some(dir.clone().into()),
        (None, Some(dir)) => Some(dir.join("snapshots")),
        (None, None) => None,
    };
    let store = snap_dir.as_ref().map(|d| SnapshotStore::new(d.clone()));

    out.heading(&format!(
        "stream — replaying {} (seed {}){}",
        args.events,
        args.seed,
        match &snap_dir {
            Some(d) => format!(", snapshots in {}", Path::new(d).display()),
            None => ", snapshots disabled (no output directory)".into(),
        }
    ));

    let mut ingestor = Ingestor::new(IngestConfig::default());
    let mut engine = serve_engine(args.seed)?;
    let mut registry: Option<ModelRegistry> = None;
    let mut queries: Vec<FlowQuery> = Vec::new();
    let mut epochs: Vec<EpochRow> = Vec::new();
    let mut last_answers: Option<String> = None;
    let mut final_outcomes: Vec<QueryOutcome> = Vec::new();
    let mut rejection_samples: Vec<String> = Vec::new();

    // Seals the pending delta, swaps, serves, and records the epoch.
    let seal_and_swap = |delta: flow_stream::EpochDelta,
                         registry: &mut Option<ModelRegistry>,
                         engine: &mut ServeEngine,
                         queries: &[FlowQuery],
                         epochs: &mut Vec<EpochRow>,
                         last_answers: &mut Option<String>,
                         final_outcomes: &mut Vec<QueryOutcome>|
     -> FlowResult<()> {
        let Some(registry) = registry.as_mut() else {
            return Err(FlowError::Parse {
                line: 0,
                detail: "seal marker before the graph header".into(),
            });
        };
        let cascades = delta.cascades();
        let report = registry.seal_epoch(&delta)?;
        let swap = registry.swap_into(engine);
        let icm = registry.model().serving_icm();
        let outcomes = engine.execute_batch(&icm, queries);
        let rendered = outcomes_jsonl(&outcomes);
        let answers_changed = last_answers
            .as_ref()
            .map(|prev| prev != &rendered)
            .unwrap_or(true);
        out.write_file(
            &format!("stream_serve_epoch{}.jsonl", report.epoch),
            &rendered,
        )?;
        out.line(format!(
            "epoch {}: {} cascades sealed, fingerprint {:016x}, {} cache entries invalidated, answers {}",
            report.epoch,
            cascades,
            report.fingerprint,
            swap.invalidated,
            if answers_changed { "changed" } else { "unchanged" }
        ));
        epochs.push(EpochRow {
            epoch: report.epoch,
            cascades,
            fingerprint: report.fingerprint,
            invalidated: swap.invalidated,
            answers_changed,
        });
        *last_answers = Some(rendered);
        *final_outcomes = outcomes;
        Ok(())
    };

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        // One retry after backpressure: sealing drains the buffer.
        for attempt in 0..2 {
            match ingestor.push_line(line_no, raw) {
                Ok(Push::Sealed(delta)) => {
                    seal_and_swap(
                        delta,
                        &mut registry,
                        &mut engine,
                        &queries,
                        &mut epochs,
                        &mut last_answers,
                        &mut final_outcomes,
                    )?;
                    break;
                }
                Ok(Push::Accepted) => break,
                Ok(Push::Skipped) => {
                    // The header line may have just fixed the graph.
                    if registry.is_none() {
                        if let Some(graph) = ingestor.graph() {
                            queries = derive_queries(graph);
                            let model =
                                StreamModel::new(graph.clone(), TimingAssumption::AnyEarlier);
                            registry = Some(ModelRegistry::new(model, store.clone()));
                        }
                    }
                    break;
                }
                Err(FlowError::Overloaded { .. }) if attempt == 0 => {
                    let delta = ingestor.seal_epoch();
                    seal_and_swap(
                        delta,
                        &mut registry,
                        &mut engine,
                        &queries,
                        &mut epochs,
                        &mut last_answers,
                        &mut final_outcomes,
                    )?;
                }
                Err(e @ FlowError::Overloaded { .. }) => return Err(e),
                Err(e) => {
                    if rejection_samples.len() < 5 {
                        rejection_samples.push(e.to_string());
                    }
                    break;
                }
            }
        }
    }
    // End-of-file seals whatever is still open.
    if ingestor.pending_events() > 0 {
        let delta = ingestor.seal_epoch();
        seal_and_swap(
            delta,
            &mut registry,
            &mut engine,
            &queries,
            &mut epochs,
            &mut last_answers,
            &mut final_outcomes,
        )?;
    }

    let Some(registry) = registry else {
        return Err(FlowError::Parse {
            line: 0,
            detail: "event log has no graph header; nothing was replayed".into(),
        });
    };
    if epochs.is_empty() {
        return Err(FlowError::Parse {
            line: 0,
            detail: "event log sealed no epochs; nothing was served".into(),
        });
    }

    // Equivalence gate: a cold engine serving the final model must
    // produce the warm, swapped-through engine's answers byte-for-byte.
    let icm = registry.model().serving_icm();
    let mut cold = serve_engine(args.seed)?;
    let cold_rendered = outcomes_jsonl(&cold.execute_batch(&icm, &queries));
    let warm_rendered = outcomes_jsonl(&final_outcomes);
    let equivalence_ok = cold_rendered == warm_rendered;

    let stats = ingestor.stats();
    let report = StreamReport {
        epochs: stats.epochs_sealed,
        accepted: stats.accepted,
        rejected: stats.rejected,
        invalidated: epochs.iter().map(|e| e.invalidated as u64).sum(),
        equivalence_ok,
    };

    let epoch_json: Vec<String> = epochs
        .iter()
        .map(|e| {
            format!(
                "    {{\"epoch\": {}, \"cascades\": {}, \"fingerprint\": \"{:016x}\", \"invalidated\": {}, \"answers_changed\": {}}}",
                e.epoch, e.cascades, e.fingerprint, e.invalidated, e.answers_changed
            )
        })
        .collect();
    let stats_json = format!(
        "{{\n  \"accepted\": {},\n  \"rejected\": {},\n  \"rejected_malformed\": {},\n  \"rejected_late\": {},\n  \"rejected_duplicate\": {},\n  \"rejected_inconsistent\": {},\n  \"backpressured\": {},\n  \"epochs_sealed\": {},\n  \"cache_invalidated\": {},\n  \"swap_equivalence\": {},\n  \"epochs\": [\n{}\n  ]\n}}\n",
        stats.accepted,
        stats.rejected,
        stats.rejected_malformed,
        stats.rejected_late,
        stats.rejected_duplicate,
        stats.rejected_inconsistent,
        stats.backpressured,
        stats.epochs_sealed,
        report.invalidated,
        equivalence_ok,
        epoch_json.join(",\n")
    );
    out.write_file("stream_stats.json", &stats_json)?;

    let rows: Vec<Vec<String>> = epochs
        .iter()
        .map(|e| {
            vec![
                e.epoch.to_string(),
                e.cascades.to_string(),
                format!("{:016x}", e.fingerprint),
                e.invalidated.to_string(),
                if e.answers_changed { "yes" } else { "no" }.to_string(),
            ]
        })
        .collect();
    out.table(
        &[
            "epoch",
            "cascades",
            "fingerprint",
            "invalidated",
            "answers_changed",
        ],
        &rows,
    );
    out.line(format!(
        "ingest: {} accepted, {} rejected ({} malformed, {} late, {} duplicate, {} inconsistent), {} backpressured",
        stats.accepted,
        stats.rejected,
        stats.rejected_malformed,
        stats.rejected_late,
        stats.rejected_duplicate,
        stats.rejected_inconsistent,
        stats.backpressured
    ));
    for sample in &rejection_samples {
        out.line(format!("  rejected: {sample}"));
    }
    out.line(format!(
        "swap equivalence: {}",
        if equivalence_ok {
            "ok (warm == cold, byte-for-byte)"
        } else {
            "MISMATCH — warm engine diverged from a cold serve of the same model"
        }
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EVENT_LOG: &str = r#"# two-epoch demo stream
{"graph": {"nodes": 6, "edges": [[0,1],[0,2],[1,3],[2,3],[3,4],[2,5],[5,4]]}}
{"cascade": 1, "node": 0, "t": 0}
{"cascade": 1, "node": 1, "t": 1, "parent": 0}
{"cascade": 1, "node": 3, "t": 2, "parent": 1}
{"cascade": 1, "node": 4, "t": 3, "parent": 3}
{"cascade": 2, "node": 0, "t": 0}
{"cascade": 2, "node": 2, "t": 1, "parent": 0}
{"seal": true}
{"cascade": 3, "node": 0, "t": 0}
{"cascade": 4, "node": 1, "t": 0}
{"cascade": 4, "node": 3, "t": 2}
{"cascade": 4, "node": 3, "t": 4}
{"seal": true}
"#;

    fn run_into(tag: &str) -> (std::path::PathBuf, StreamReport) {
        let dir = std::env::temp_dir().join(format!("flowexp-stream-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let events = dir.join("events.jsonl");
        std::fs::write(&events, EVENT_LOG).unwrap();
        let args = StreamArgs {
            events: events.display().to_string(),
            snap_dir: None,
            seed: 7,
        };
        let report = run_stream(&args, &Output::to_dir(dir.join("out"))).unwrap();
        (dir, report)
    }

    #[test]
    fn stream_replay_is_deterministic_and_swaps_invalidate() {
        let (dir_a, report) = run_into("a");
        assert_eq!(report.epochs, 2);
        assert_eq!(report.accepted, 9, "one duplicate line must be dropped");
        assert_eq!(report.rejected, 1);
        assert!(
            report.invalidated > 0,
            "epoch 2 must reclaim epoch 1 entries"
        );
        assert!(report.equivalence_ok);

        // Same log, same seed: every output byte-identical, including
        // the sealed snapshots.
        let (dir_b, _) = run_into("b");
        for name in [
            "out/stream_serve_epoch1.jsonl",
            "out/stream_serve_epoch2.jsonl",
            "out/stream_stats.json",
            "out/snapshots/epoch-000001.snap",
            "out/snapshots/epoch-000002.snap",
        ] {
            let a = std::fs::read(dir_a.join(name)).unwrap();
            let b = std::fs::read(dir_b.join(name)).unwrap();
            assert_eq!(a, b, "{name} must be byte-identical across runs");
        }
        // Consecutive epochs changed the model, so answers moved.
        let e1 = std::fs::read(dir_a.join("out/stream_serve_epoch1.jsonl")).unwrap();
        let e2 = std::fs::read(dir_a.join("out/stream_serve_epoch2.jsonl")).unwrap();
        assert_ne!(e1, e2, "epoch 2 evidence must change served answers");
        let stats = std::fs::read_to_string(dir_a.join("out/stream_stats.json")).unwrap();
        assert!(stats.contains("\"swap_equivalence\": true"), "{stats}");
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn stream_requires_a_graph_header() {
        let dir = std::env::temp_dir().join(format!("flowexp-stream-nohdr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let events = dir.join("events.jsonl");
        std::fs::write(&events, "# nothing but comments\n").unwrap();
        let args = StreamArgs {
            events: events.display().to_string(),
            snap_dir: None,
            seed: 0,
        };
        let err = run_stream(&args, &Output::stdout_only()).unwrap_err();
        assert!(matches!(err, FlowError::Parse { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

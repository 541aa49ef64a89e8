//! `repro stream` — replay a JSONL cascade event log through the
//! streaming pipeline: bounded ingest, per-epoch incremental learning,
//! durable epochs, and hot-swap into a serving engine.
//!
//! Every `{"seal": true}` marker (and end-of-file, if events are still
//! open) seals an epoch: the accumulated delta is applied to the
//! [`flow_stream::StreamModel`] and made durable in `--snap-dir`
//! (default `<out>/snapshots`) — a synced log record, or a synced
//! snapshot when one is due — the new model version is hot-swapped
//! into the engine, and a fixed query set derived from the stream's
//! graph is served against the updated model. Outputs:
//!
//! * `stream_serve_epoch{N}.jsonl` — deterministic per-query answers
//!   after epoch `N` was swapped in. Same log + seed → byte-identical
//!   files; consecutive epochs that change the model produce different
//!   answers (both asserted by the CI streaming job).
//! * `stream_stats.json` — ingest counters (accepted / rejected by
//!   reason / backpressured), per-epoch serve and state fingerprints,
//!   total cache entries invalidated by swaps, where a resumed run
//!   resumed, and the final `swap_equivalence` verdict: the swapped
//!   warm engine's last-epoch answers are byte-compared against a cold
//!   engine serving the same model.
//!
//! **Resume.** With `--resume` the replay first recovers the newest
//! durable epoch from the snapshot directory (its snapshot plus the
//! log records after it), serves it again, and skips the event-log
//! lines that epoch had consumed; the restored ingest watermark keeps
//! rejecting late events as the uninterrupted run did. Every answer
//! file and fingerprint from the recovered epoch on then matches an
//! uninterrupted run of the same log and seed. An empty store resumes
//! from the start.
//!
//! Rejected events (malformed, late, duplicate, inconsistent) are
//! counted and reported but never abort the replay — the stream keeps
//! flowing, exactly as the ingestor's drop-one-event policy specifies.
//! Exit-code contract (enforced by the binary): 0 = replay completed
//! and the equivalence check held, 1 = infrastructure error, 2 = usage
//! error, 3 = swap-equivalence mismatch.

use crate::output::Output;
use crate::runners::serve::{arm_injection, outcomes_jsonl};
use flow_core::{FlowError, FlowResult};
use flow_graph::{DiGraph, NodeId};
use flow_learn::summary::TimingAssumption;
use flow_mcmc::McmcConfig;
use flow_serve::{FlowQuery, QueryOutcome, ServeConfig, ServeEngine};
use flow_stream::{
    parse_line, EpochDelta, EventLine, GraphSpec, IngestConfig, Ingestor, ModelRegistry, Push,
    SnapshotStore, StreamModel,
};
use std::path::PathBuf;

/// Options for the `stream` subcommand.
#[derive(Clone, Debug, Default)]
pub struct StreamArgs {
    /// Event-log path.
    pub events: String,
    /// Snapshot directory (default `<out>/snapshots`).
    pub snap_dir: Option<String>,
    /// Engine seed.
    pub seed: u64,
    /// Continue from the newest durable epoch in the snapshot
    /// directory instead of from the start of the log.
    pub resume: bool,
    /// Fault point to arm for chaos runs (fault-inject builds only).
    pub inject: Option<String>,
}

/// What the replay did, for the exit-code contract.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamReport {
    /// Epochs sealed and swapped by this run.
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
    state: u64,
    invalidated: usize,
    answers_changed: bool,
}

/// The live side of a replay: the registry, the engine its model swaps
/// into, the query set, and what the last epoch served.
struct Live {
    registry: ModelRegistry,
    engine: ServeEngine,
    queries: Vec<FlowQuery>,
    last_answers: Option<String>,
    final_outcomes: Vec<QueryOutcome>,
}

impl Live {
    fn new(registry: ModelRegistry, seed: u64) -> FlowResult<Self> {
        Ok(Live {
            queries: derive_queries(registry.model().graph()),
            registry,
            engine: serve_engine(seed)?,
            last_answers: None,
            final_outcomes: Vec::new(),
        })
    }

    /// Swaps the current model into the engine, serves the query set
    /// and writes the epoch's answers. Returns the entries the swap
    /// invalidated and whether the answers changed.
    fn serve(&mut self, out: &Output) -> FlowResult<(usize, bool)> {
        let swap = self.registry.swap_into(&mut self.engine);
        let icm = self.registry.model().serving_icm();
        let outcomes = self.engine.execute_batch(&icm, &self.queries);
        let rendered = outcomes_jsonl(&outcomes);
        let changed = self.last_answers.as_ref() != Some(&rendered);
        out.write_file(
            &format!("stream_serve_epoch{}.jsonl", swap.epoch),
            &rendered,
        )?;
        self.last_answers = Some(rendered);
        self.final_outcomes = outcomes;
        Ok((swap.invalidated, changed))
    }

    /// Seals `delta` durably, then swaps and serves the new epoch.
    fn seal(&mut self, delta: EpochDelta, out: &Output) -> FlowResult<EpochRow> {
        let cascades = delta.cascades();
        let report = self.registry.seal_epoch(&delta)?;
        let (invalidated, answers_changed) = self.serve(out)?;
        let state = self.registry.model().state_fingerprint();
        out.line(format!(
            "epoch {}: {} cascades sealed, fingerprint {:016x}, state {state:016x}, {} cache entries invalidated, answers {}",
            report.epoch,
            cascades,
            report.fingerprint,
            invalidated,
            if answers_changed { "changed" } else { "unchanged" }
        ));
        Ok(EpochRow {
            epoch: report.epoch,
            cascades,
            fingerprint: report.fingerprint,
            state,
            invalidated,
            answers_changed,
        })
    }
}

/// Seals `delta` into the live replay, which exists once the graph
/// header has been read.
fn seal_into(live: Option<&mut Live>, delta: EpochDelta, out: &Output) -> FlowResult<EpochRow> {
    match live {
        Some(live) => live.seal(delta, out),
        None => Err(FlowError::Parse {
            line: 0,
            detail: "seal marker before the graph header".into(),
        }),
    }
}

/// Where a resumed run picked up.
struct Resumed {
    epoch: u64,
    state: u64,
    replayed: usize,
    line: usize,
}

/// The graph header among the event log's first `lines` lines.
fn graph_header<'a>(mut lines: impl Iterator<Item = &'a str>) -> Option<GraphSpec> {
    lines.find_map(|line| match parse_line(line) {
        Ok(EventLine::Graph(spec)) => Some(spec),
        _ => None,
    })
}

/// Recovers the newest durable epoch from `dir` and serves it again,
/// after checking that `log`'s graph header, among the lines the epoch
/// consumed, describes the recovered model's graph. Returns `None` when
/// the store holds no snapshot.
fn resume(
    dir: &std::path::Path,
    log: &str,
    seed: u64,
    out: &Output,
) -> FlowResult<Option<(Live, Ingestor, Resumed)>> {
    let Some((registry, recovered)) = ModelRegistry::recover(SnapshotStore::new(dir))? else {
        return Ok(None);
    };
    let model = registry.model();
    let mark = model.mark();
    let graph = model.graph();
    let stored = GraphSpec {
        nodes: graph.node_count(),
        edges: graph
            .edges()
            .map(|e| graph.endpoints(e))
            .map(|(u, v)| (u.0, v.0))
            .collect(),
    };
    if graph_header(log.lines().take(mark.line)) != Some(stored) {
        return Err(FlowError::Parse {
            line: 0,
            detail: format!(
                "the event log's graph header does not match the model recovered from {}; \
                 --resume continues the log the store was built from",
                dir.display()
            ),
        });
    }
    let resumed = Resumed {
        epoch: model.epoch(),
        state: model.state_fingerprint(),
        replayed: recovered.replayed,
        line: mark.line,
    };
    let ingestor = Ingestor::resume(model.graph().clone(), IngestConfig::default(), mark);
    let mut live = Live::new(registry, seed)?;
    live.serve(out)?;
    out.line(format!(
        "resumed at epoch {} from {} ({} log records replayed), state {:016x}; skipping event-log lines 1-{}",
        resumed.epoch,
        recovered.snapshot.display(),
        resumed.replayed,
        resumed.state,
        resumed.line
    ));
    Ok(Some((live, ingestor, resumed)))
}

/// Runs the stream subcommand end to end.
pub fn run_stream(args: &StreamArgs, out: &Output) -> FlowResult<StreamReport> {
    let text = std::fs::read_to_string(&args.events).map_err(|e| FlowError::Io {
        detail: format!("cannot read event log {}: {e}", args.events),
    })?;

    let snap_dir: Option<PathBuf> = match (&args.snap_dir, out.dir()) {
        (Some(dir), _) => Some(dir.into()),
        (None, Some(dir)) => Some(dir.join("snapshots")),
        (None, None) => None,
    };

    out.heading(&format!(
        "stream — replaying {} (seed {}){}",
        args.events,
        args.seed,
        match &snap_dir {
            Some(d) => format!(", epochs durable in {}", d.display()),
            None => ", persistence disabled (no output directory)".into(),
        }
    ));
    if let Some(point) = &args.inject {
        arm_injection(point)?;
        out.line(format!("fault injection armed: {point}"));
    }

    let mut ingestor = Ingestor::new(IngestConfig::default());
    let mut live: Option<Live> = None;
    let mut resumed: Option<Resumed> = None;
    if args.resume {
        let Some(dir) = &snap_dir else {
            return Err(FlowError::Parse {
                line: 0,
                detail: "--resume needs a snapshot directory (--snap-dir or --out)".into(),
            });
        };
        match resume(dir, &text, args.seed, out)? {
            Some((l, ing, r)) => (live, ingestor, resumed) = (Some(l), ing, Some(r)),
            None => out.line("nothing to resume: no snapshot yet, starting from the beginning"),
        }
    }
    let mut epochs: Vec<EpochRow> = Vec::new();
    let mut rejection_samples: Vec<String> = Vec::new();

    let skip = resumed.as_ref().map_or(0, |r| r.line);
    for (i, raw) in text.lines().enumerate().skip(skip) {
        let line_no = i + 1;
        // One retry after backpressure: sealing drains the buffer.
        for attempt in 0..2 {
            match ingestor.push_line(line_no, raw) {
                Ok(Push::Sealed(delta)) => {
                    epochs.push(seal_into(live.as_mut(), delta, out)?);
                    break;
                }
                Ok(Push::Accepted) => break,
                Ok(Push::Skipped) => {
                    // The header line may have just fixed the graph.
                    if let (None, Some(graph)) = (&live, ingestor.graph()) {
                        let model = StreamModel::new(graph.clone(), TimingAssumption::AnyEarlier);
                        let store = snap_dir.as_ref().map(SnapshotStore::new);
                        live = Some(Live::new(ModelRegistry::new(model, store), args.seed)?);
                    }
                    break;
                }
                Err(FlowError::Overloaded { .. }) if attempt == 0 => {
                    let delta = ingestor.seal_epoch();
                    epochs.push(seal_into(live.as_mut(), delta, out)?);
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
        epochs.push(seal_into(live.as_mut(), delta, out)?);
    }

    let Some(live) = live else {
        return Err(FlowError::Parse {
            line: 0,
            detail: "event log has no graph header; nothing was replayed".into(),
        });
    };
    if epochs.is_empty() && resumed.is_none() {
        return Err(FlowError::Parse {
            line: 0,
            detail: "event log sealed no epochs; nothing was served".into(),
        });
    }

    // Equivalence gate: a cold engine serving the final model must
    // produce the warm, swapped-through engine's answers byte-for-byte.
    let icm = live.registry.model().serving_icm();
    let mut cold = serve_engine(args.seed)?;
    let cold_rendered = outcomes_jsonl(&cold.execute_batch(&icm, &live.queries));
    let warm_rendered = outcomes_jsonl(&live.final_outcomes);
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
                "    {{\"epoch\": {}, \"cascades\": {}, \"fingerprint\": \"{:016x}\", \"state\": \"{:016x}\", \"invalidated\": {}, \"answers_changed\": {}}}",
                e.epoch, e.cascades, e.fingerprint, e.state, e.invalidated, e.answers_changed
            )
        })
        .collect();
    let resumed_json = match &resumed {
        Some(r) => format!(
            "{{\"epoch\": {}, \"state\": \"{:016x}\", \"replayed\": {}, \"line\": {}}}",
            r.epoch, r.state, r.replayed, r.line
        ),
        None => "null".into(),
    };
    let stats_json = format!(
        "{{\n  \"accepted\": {},\n  \"rejected\": {},\n  \"rejected_malformed\": {},\n  \"rejected_late\": {},\n  \"rejected_duplicate\": {},\n  \"rejected_inconsistent\": {},\n  \"backpressured\": {},\n  \"epochs_sealed\": {},\n  \"cache_invalidated\": {},\n  \"swap_equivalence\": {},\n  \"resumed\": {},\n  \"epochs\": [\n{}\n  ]\n}}\n",
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
        resumed_json,
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
                format!("{:016x}", e.state),
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
            "state",
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
            seed: 7,
            ..StreamArgs::default()
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
        // the durable store: epoch 1's snapshot and the log holding
        // epoch 2's record.
        let (dir_b, _) = run_into("b");
        let snapshots: Vec<_> = std::fs::read_dir(dir_a.join("out/snapshots"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(snapshots.len(), 2, "{snapshots:?}");
        for name in [
            "out/stream_serve_epoch1.jsonl",
            "out/stream_serve_epoch2.jsonl",
            "out/stream_stats.json",
            "out/snapshots/epoch-000001.snap",
            "out/snapshots/epoch-000001.log",
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
            ..StreamArgs::default()
        };
        let err = run_stream(&args, &Output::stdout_only()).unwrap_err();
        assert!(matches!(err, FlowError::Parse { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A longer log on the demo graph: six epochs of attributed and
    /// unattributed cascades, each epoch also carrying one late event
    /// for a cascade the epoch before sealed.
    fn drill_log() -> String {
        let mut log = String::from(
            "{\"graph\": {\"nodes\": 6, \"edges\": [[0,1],[0,2],[1,3],[2,3],[3,4],[2,5],[5,4]]}}\n",
        );
        for e in 0..6u64 {
            let (a, b, c) = (3 * e + 1, 3 * e + 2, 3 * e + 3);
            let hop = 1 + e % 2;
            log += &format!("{{\"cascade\": {a}, \"node\": 0, \"t\": 0}}\n");
            log += &format!("{{\"cascade\": {a}, \"node\": {hop}, \"t\": 1, \"parent\": 0}}\n");
            log += &format!("{{\"cascade\": {a}, \"node\": 3, \"t\": 2, \"parent\": {hop}}}\n");
            if e > 0 {
                log += &format!("{{\"cascade\": {}, \"node\": 5, \"t\": 9}}\n", a - 1);
            }
            log += &format!("{{\"cascade\": {b}, \"node\": {}, \"t\": 0}}\n", 2 - e % 2);
            log += &format!("{{\"cascade\": {b}, \"node\": 4, \"t\": {}}}\n", 2 + e % 3);
            log += &format!("{{\"cascade\": {c}, \"node\": 2, \"t\": 0}}\n");
            if e % 2 == 0 {
                log += &format!("{{\"cascade\": {c}, \"node\": 5, \"t\": 1, \"parent\": 2}}\n");
            }
            log += "{\"seal\": true}\n";
        }
        log
    }

    /// Replays `log` into `dir/out`, resuming from its store when asked.
    fn replay(dir: &std::path::Path, log: &str, resume: bool) -> String {
        let events = dir.join(if resume { "full.jsonl" } else { "part.jsonl" });
        std::fs::write(&events, log).unwrap();
        let args = StreamArgs {
            events: events.display().to_string(),
            seed: 7,
            resume,
            ..StreamArgs::default()
        };
        let report = run_stream(&args, &Output::to_dir(dir.join("out"))).unwrap();
        assert!(report.equivalence_ok);
        std::fs::read_to_string(dir.join("out/stream_stats.json")).unwrap()
    }

    /// The `"state"` fingerprints of a stats file's epoch rows, by
    /// epoch, and the resumed epoch's if any.
    fn states(stats: &str) -> (Vec<(u64, String)>, Option<(u64, String)>) {
        use serde_json::Value;
        let json: Value = serde_json::from_str(stats).unwrap();
        let row = |v: &Value| match (v.get("epoch"), v.get("state")) {
            (Some(Value::U64(epoch)), Some(Value::Str(state))) => (*epoch, state.clone()),
            other => panic!("not an epoch row: {other:?}"),
        };
        let Some(Value::Array(rows)) = json.get("epochs") else {
            panic!("no epoch rows in {stats}");
        };
        let resumed = match json.get("resumed") {
            Some(Value::Null) => None,
            Some(resumed) => Some(row(resumed)),
            None => panic!("no resumed field in {stats}"),
        };
        (rows.iter().map(row).collect(), resumed)
    }

    /// The crash drill. A replay stopped right after an epoch's seal
    /// returned leaves exactly what a replay of the log up to that
    /// epoch's seal marker leaves on disk. Resuming on the full log from
    /// there must reproduce the uninterrupted run's answer files and
    /// state fingerprints from the resumed epoch on, whichever epoch it
    /// stopped after: a snapshot epoch or one that only logged.
    #[test]
    fn a_resumed_replay_matches_the_uninterrupted_one_from_every_epoch() {
        let root =
            std::env::temp_dir().join(format!("flowexp-stream-drill-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let log = drill_log();
        let full_dir = root.join("full");
        std::fs::create_dir_all(&full_dir).unwrap();
        let (full, _) = states(&replay(&full_dir, &log, false));
        assert_eq!(full.len(), 6);
        let full_answers = |epoch: u64| {
            std::fs::read(full_dir.join(format!("out/stream_serve_epoch{epoch}.jsonl"))).unwrap()
        };
        let lines: Vec<&str> = log.lines().collect();
        let seals: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].contains("seal"))
            .collect();
        let mut replayed_any = false;
        for (k, &seal) in seals.iter().enumerate() {
            let stop = k as u64 + 1;
            let dir = root.join(format!("stop-{stop}"));
            std::fs::create_dir_all(&dir).unwrap();
            let part: String = lines[..=seal].iter().map(|l| format!("{l}\n")).collect();
            replay(&dir, &part, false);
            for epoch in 1..=stop {
                std::fs::remove_file(dir.join(format!("out/stream_serve_epoch{epoch}.jsonl")))
                    .unwrap();
            }
            let stats = replay(&dir, &log, true);
            let (rows, resumed) = states(&stats);
            assert_eq!(
                resumed.as_ref(),
                Some(&full[k]),
                "stopped after epoch {stop}"
            );
            assert_eq!(rows, full[k + 1..], "stopped after epoch {stop}");
            replayed_any |= !stats.contains("\"replayed\": 0");
            for epoch in stop..=6 {
                let answers = dir.join(format!("out/stream_serve_epoch{epoch}.jsonl"));
                assert_eq!(
                    std::fs::read(&answers).unwrap(),
                    full_answers(epoch),
                    "epoch {epoch} after a stop at {stop}"
                );
            }
        }
        assert!(replayed_any, "some stop must resume through log records");
        // Resuming a store that holds nothing starts from the beginning.
        let empty = root.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let (rows, resumed) = states(&replay(&empty, &log, true));
        assert_eq!((rows, resumed), (full, None));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn resume_refuses_a_log_with_another_graph() {
        let root =
            std::env::temp_dir().join(format!("flowexp-stream-other-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).unwrap();
        replay(&root, EVENT_LOG, false);
        let other = EVENT_LOG.replace("[5,4]]", "[4,5]]");
        let events = root.join("other.jsonl");
        std::fs::write(&events, other).unwrap();
        let args = StreamArgs {
            events: events.display().to_string(),
            resume: true,
            ..StreamArgs::default()
        };
        let err = run_stream(&args, &Output::to_dir(root.join("out"))).unwrap_err();
        assert!(
            matches!(&err, FlowError::Parse { detail, .. } if detail.contains("graph header")),
            "{err}"
        );
        std::fs::remove_dir_all(&root).ok();
    }
}

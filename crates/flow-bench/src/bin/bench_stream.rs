//! `bench_stream` — streaming ingest throughput and hot-swap latency.
//!
//! Produces `BENCH_stream.json` (path overridable as the first CLI
//! argument) measuring the flow-stream pipeline end to end on a
//! synthetic event log over the same scaling model `bench_serve` uses:
//!
//! * **ingest** — `Ingestor::push_line` over every simulated event
//!   (parse + validate + buffer), reported as events/sec;
//! * **seal** — `ModelRegistry::seal_epoch` per epoch: the incremental
//!   Beta/characteristic-table update plus what makes the epoch durable
//!   through `flow_core::persist`, reported apart for the epochs that
//!   appended a synced log record and those that wrote a synced full
//!   snapshot (which also prunes the store to its two newest
//!   snapshots);
//! * **recover** — `SnapshotStore::load_latest` over the store after
//!   every epoch, the cold-start path a restarted server pays: the
//!   newest snapshot plus the log records it replays. The reported
//!   recovery is the one that replayed the most records, with its
//!   count: the median of `RECOVERY_TIMINGS` loads of that same store,
//!   so one cold read does not decide the figure;
//! * **swap** — `ModelRegistry::swap_into` a warm `ServeEngine`,
//!   counting the stale cache entries reclaimed.
//!
//! Acceptance criteria (the binary exits non-zero when violated): the
//! incrementally learned model must be bit-identical to one batch
//! apply of the union delta (same serve fingerprint), recovery after
//! every epoch must land on that epoch's exact state, the final swap
//! must reclaim the warm cache, and ingest must sustain at least 20k
//! events/sec.
//!
//! Wall-clock timing is the entire point of this binary.
#![allow(clippy::disallowed_methods)]

use flow_bench::scaling_icm;
use flow_graph::{DiGraph, NodeId};
use flow_learn::summary::TimingAssumption;
use flow_mcmc::McmcConfig;
use flow_serve::{FlowQuery, QueryOutcome, ServeConfig, ServeEngine};
use flow_stream::{EpochDelta, IngestConfig, Ingestor, ModelRegistry, SnapshotStore, StreamModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Edges in the benchmark model (mirrors `bench_serve`).
const MODEL_EDGES: usize = 600;
/// Simulated cascades in the event log.
const CASCADES: u64 = 1_500;
/// Epochs the cascades are sealed into.
const EPOCHS: usize = 6;
/// Retained samples per chain for the warm-cache serve batch.
const SAMPLES: usize = 1_200;
/// Loads timed per worst-case store; their median is reported.
const RECOVERY_TIMINGS: usize = 7;
/// Ingest floor: below this the streaming path has regressed badly.
const MIN_EVENTS_PER_SEC: f64 = 20_000.0;

/// Simulates `CASCADES` cascades over `graph` and renders them as
/// event-log lines, grouped into `EPOCHS` contiguous chunks. Half the
/// cascades keep their attributions; the rest degrade to unattributed
/// observations so both statistic feeds see evidence.
fn epoch_lines(graph: &DiGraph, seed: u64) -> Vec<Vec<String>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut epochs: Vec<Vec<String>> = vec![Vec::new(); EPOCHS];
    for cascade in 1..=CASCADES {
        let epoch = ((cascade - 1) as usize * EPOCHS) / CASCADES as usize;
        let lines = &mut epochs[epoch];
        let attributed = rng.random_bool(0.5);
        let source = NodeId(rng.random_range(0..graph.node_count() as u32));
        let mut active = vec![source];
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
                if active.contains(&v) || !rng.random_bool(0.4) {
                    continue;
                }
                active.push(v);
                frontier.push(v);
                if attributed {
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
    epochs
}

/// A small fixed query mix to warm the serve cache between swaps.
fn warm_queries(graph: &DiGraph) -> Vec<FlowQuery> {
    let n = graph.node_count() as u32;
    (0..4)
        .map(|s| FlowQuery::flow(NodeId(s), NodeId(n / 2 + s)))
        .collect()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_stream.json".to_string());

    let graph = scaling_icm(MODEL_EDGES, 42).graph().clone();
    let epochs = epoch_lines(&graph, 7);
    let total_lines: usize = epochs.iter().map(Vec::len).sum();

    eprintln!(
        "[1/3] ingest: {} events across {} cascades, {} epochs ...",
        total_lines, CASCADES, EPOCHS
    );
    let mut ing = Ingestor::with_graph(graph.clone(), IngestConfig::default());
    let mut deltas: Vec<EpochDelta> = Vec::new();
    let mut ingest_s = 0.0;
    let mut seal_ingest_s = 0.0;
    let mut line_no = 0usize;
    for chunk in &epochs {
        let start = Instant::now();
        for line in chunk {
            line_no += 1;
            if let Err(e) = ing.push_line(line_no, line) {
                eprintln!("error: simulated line {line_no} rejected: {e}");
                std::process::exit(1);
            }
        }
        ingest_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        deltas.push(ing.seal_epoch());
        seal_ingest_s += start.elapsed().as_secs_f64();
    }
    let accepted = ing.stats().accepted;
    let events_per_sec = accepted as f64 / ingest_s;

    eprintln!("[2/3] seal: incremental apply + synced record or snapshot, then recover ...");
    let dir = std::env::temp_dir().join(format!("bench-stream-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut registry = ModelRegistry::new(
        StreamModel::new(graph.clone(), TimingAssumption::AnyEarlier),
        Some(SnapshotStore::new(dir.clone())),
    );
    let config = ServeConfig {
        mcmc: McmcConfig {
            samples: SAMPLES,
            ..Default::default()
        },
        default_tolerance: 1.0,
        engine_seed: 42,
        ..Default::default()
    };
    let mut engine = match ServeEngine::builder().config(config).build() {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("error: invalid engine config: {e}");
            std::process::exit(1);
        }
    };
    let queries = warm_queries(&graph);
    let mut seal_s = 0.0;
    // Seal seconds and counts of the epochs that appended a log record
    // and of those that wrote a snapshot.
    let (mut append_s, mut appends) = (0.0, 0u32);
    let (mut snapshot_s, mut snapshots) = (0.0, 0u32);
    let mut swap_s = 0.0;
    // The recovery that replayed the most records: its time and count.
    let (mut recover_ms, mut replayed) = (0.0, 0usize);
    let mut recovered_ok = true;
    let mut invalidated_final = 0usize;
    for (i, delta) in deltas.iter().enumerate() {
        let start = Instant::now();
        let report = match registry.seal_epoch(delta) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: sealing epoch {} failed: {e}", i + 1);
                std::process::exit(1);
            }
        };
        let secs = start.elapsed().as_secs_f64();
        seal_s += secs;
        if report.snapshot.is_some() {
            (snapshot_s, snapshots) = (snapshot_s + secs, snapshots + 1);
        } else {
            (append_s, appends) = (append_s + secs, appends + 1);
        }
        let start = Instant::now();
        let swap = registry.swap_into(&mut engine);
        swap_s += start.elapsed().as_secs_f64();
        invalidated_final = swap.invalidated;
        // Warm the cache on every version so the next swap has stale
        // entries to reclaim — the realistic steady state.
        let icm = registry.model().serving_icm();
        let outcomes = engine.execute_batch(&icm, &queries);
        if !outcomes
            .iter()
            .all(|o| matches!(o, QueryOutcome::Answered(_)))
        {
            eprintln!(
                "error: warm batch on epoch {} was not fully answered",
                i + 1
            );
            std::process::exit(1);
        }
        // A restart right after this seal recovers from the store.
        let start = Instant::now();
        let recovered = SnapshotStore::new(dir.clone()).load_latest();
        let ms = start.elapsed().as_secs_f64() * 1_000.0;
        let Ok(Some((model, recovered))) = recovered else {
            eprintln!(
                "error: recovery after epoch {} failed: {recovered:?}",
                i + 1
            );
            std::process::exit(1);
        };
        let live = registry.model();
        recovered_ok &= model.epoch() == live.epoch()
            && model.state_fingerprint() == live.state_fingerprint()
            && model.serve_fingerprint() == live.serve_fingerprint();
        if recovered.replayed >= replayed {
            // The worst case so far: time the same store again.
            let mut times = vec![ms];
            while times.len() < RECOVERY_TIMINGS {
                let start = Instant::now();
                let again = SnapshotStore::new(dir.clone()).load_latest();
                times.push(start.elapsed().as_secs_f64() * 1_000.0);
                recovered_ok &= matches!(again, Ok(Some(_)));
            }
            times.sort_by(f64::total_cmp);
            (recover_ms, replayed) = (times[RECOVERY_TIMINGS / 2], recovered.replayed);
        }
    }
    let seal_mean_ms = seal_s * 1_000.0 / EPOCHS as f64;
    let mean_ms = |secs: f64, n: u32| {
        if n == 0 {
            0.0
        } else {
            secs * 1_000.0 / f64::from(n)
        }
    };
    let (append_mean_ms, snapshot_mean_ms) =
        (mean_ms(append_s, appends), mean_ms(snapshot_s, snapshots));
    let swap_mean_us = swap_s * 1_000_000.0 / EPOCHS as f64;

    eprintln!("[3/3] equivalence: incremental vs one batch apply of the union ...");
    let mut batch_ing = Ingestor::with_graph(graph.clone(), IngestConfig::default());
    let mut n = 0usize;
    for line in epochs.iter().flatten() {
        n += 1;
        if batch_ing.push_line(n, line).is_err() {
            eprintln!("error: union replay rejected line {n}");
            std::process::exit(1);
        }
    }
    let union = batch_ing.seal_epoch();
    let mut batch_model = StreamModel::new(graph, TimingAssumption::AnyEarlier);
    if let Err(e) = batch_model.apply(&union) {
        eprintln!("error: batch apply failed: {e}");
        std::process::exit(1);
    }
    let bit_identical = batch_model.serve_fingerprint() == registry.model().serve_fingerprint();
    std::fs::remove_dir_all(&dir).ok();

    let pass = bit_identical
        && recovered_ok
        && invalidated_final >= 1
        && events_per_sec >= MIN_EVENTS_PER_SEC;
    let json = format!(
        "{{\n  \"bench\": \"stream\",\n  \"schema\": \"{schema}\",\n  \"model_edges\": {me},\n  \"cascades\": {ca},\n  \"events\": {ev},\n  \"epochs\": {ep},\n  \"ingest\": {{\n    \"wall_s\": {is:.4},\n    \"events_per_sec\": {eps:.0},\n    \"required_events_per_sec\": {req:.0},\n    \"seal_extract_wall_s\": {sis:.4}\n  }},\n  \"seal\": {{\n    \"wall_s\": {ss:.4},\n    \"mean_ms_per_epoch\": {sm:.3},\n    \"append_epochs\": {ap},\n    \"append_mean_ms\": {am:.3},\n    \"snapshot_epochs\": {sn},\n    \"snapshot_mean_ms\": {snm:.3}\n  }},\n  \"recover\": {{\n    \"load_latest_ms\": {rm:.3},\n    \"replayed_records\": {rr},\n    \"recovered_every_epoch\": {rok}\n  }},\n  \"swap\": {{\n    \"mean_us\": {su:.1},\n    \"invalidated_at_final\": {inv}\n  }},\n  \"equivalence\": {{\n    \"bit_identical\": {bi}\n  }},\n  \"pass\": {pass}\n}}\n",
        schema = flow_core::schema::BENCH_STREAM.tag(),
        me = MODEL_EDGES,
        ca = CASCADES,
        ev = accepted,
        ep = EPOCHS,
        is = ingest_s,
        eps = events_per_sec,
        req = MIN_EVENTS_PER_SEC,
        sis = seal_ingest_s,
        ss = seal_s,
        sm = seal_mean_ms,
        ap = appends,
        am = append_mean_ms,
        sn = snapshots,
        snm = snapshot_mean_ms,
        rm = recover_ms,
        rr = replayed,
        rok = recovered_ok,
        su = swap_mean_us,
        inv = invalidated_final,
        bi = bit_identical,
        pass = pass,
    );
    match std::fs::write(&out_path, &json) {
        Ok(()) => {
            eprintln!("wrote {out_path}");
            print!("{json}");
        }
        Err(e) => {
            eprintln!("error: cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }
    if !bit_identical {
        eprintln!("error: incremental model is not bit-identical to the batch apply");
        std::process::exit(1);
    }
    if !recovered_ok {
        eprintln!("error: a recovery did not land on its epoch's exact state");
        std::process::exit(1);
    }
    if invalidated_final == 0 {
        eprintln!("error: the final hot-swap reclaimed no stale cache entries");
        std::process::exit(1);
    }
    if events_per_sec < MIN_EVENTS_PER_SEC {
        eprintln!(
            "error: ingest sustained {events_per_sec:.0} events/sec, below the {MIN_EVENTS_PER_SEC:.0} floor"
        );
        std::process::exit(1);
    }
}

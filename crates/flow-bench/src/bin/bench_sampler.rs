//! `bench_sampler` — the observability overhead baseline and the
//! paper's §IV-C sampler timing.
//!
//! Produces `BENCH_sampler.json` (schema `flow-bench/sampler-v4`, path
//! overridable as the first CLI argument): sampler steps/sec and
//! parallel-estimator wall time with the flow-obs recorder disabled vs
//! enabled, plus a micro-benchmark of the disabled fast path (one
//! relaxed atomic load per call). Its `section_iv_c` holds the two
//! quantities §IV-C reports at about 6K users and 14K edges (0.13 ms
//! per chain update, 27 ms per output sample) measured on
//! [`flow_bench::twitter_scale_icm`], the cost of one update as the
//! model grows from 500 to 128 000 edges, and over the same models the
//! cost of one exact-kernel sample: one independence step plus one
//! reach-set search from a rotating source. Four hard acceptance gates
//! (exit 1):
//!
//! * the **enabled**-recorder slowdown of the sampler hot loop stays
//!   within 10% — the hot loop accumulates counters in plain struct
//!   fields and dispatches them once per `run()` batch, so an enabled
//!   recorder costs a handful of dispatched calls per ten thousand
//!   steps, not two per step. The slowdown is the median over
//!   [`SLOWDOWN_PAIRS`] back-to-back disabled/enabled window pairs in
//!   alternating order. On a shared 2-vCPU guest the host's CPU grant
//!   drifts between windows: one window per side read from -26% to
//!   +17% over 79 runs, five pairs from -8% to +8% over ten;
//! * the **disabled**-recorder overhead stays under 5% of step time;
//! * an update at 128 000 edges costs at most 8x one at 500 edges. The
//!   Fenwick-tree proposal makes an update `O(log m)`, 2-3x over this
//!   256x range of `m`; an `O(m)` update would cost 256x;
//! * an exact sample at 128 000 edges costs at most 8x one at 500
//!   edges. A step draws one key and the search reads only the coins of
//!   the edges it reaches, so only clearing the search's visited set
//!   grows with the model; a step that redrew every edge cost about
//!   270x over this range.
//!
//! v4 added the exact-kernel sweep and its gate.
//!
//! Since v2 the schema separates *counted increments* per step (logical
//! telemetry, ~2/step, unchanged by batching) from *dispatched
//! recorder calls* per step (what actually costs time, ~7 per `run()`
//! batch), so the JSON records both semantics-preserved counting and
//! the real dispatch rate CI ratchets on via `repro perf diff`.
//!
//! Wall-clock timing is the entire point of this binary.
#![allow(clippy::disallowed_methods)]

use flow_bench::{scaling_icm, twitter_scale_icm};
use flow_graph::NodeId;
use flow_icm::Icm;
use flow_mcmc::{
    multi_chain_flow_guarded, McmcConfig, ProposalKind, PseudoStateSampler, RunBudget,
};
use flow_obs::{Event, MemorySink, Recorder, ScopedRecorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Edges in the throughput model (Fenwick depth ~11).
const THROUGHPUT_EDGES: usize = 2_000;
/// Edges in the (smaller) parallel-estimator model, so four full
/// burn-in + thinning schedules finish in seconds.
const PARALLEL_EDGES: usize = 200;
/// Retained samples per chain in the parallel benchmark.
const PARALLEL_SAMPLES: usize = 300;
/// Chains in the parallel benchmark.
const PARALLEL_CHAINS: usize = 4;
/// Disabled/enabled window pairs behind the enabled-recorder slowdown.
const SLOWDOWN_PAIRS: usize = 5;
/// Timed window per throughput measurement.
const THROUGHPUT_WINDOW_SECS: f64 = 0.3;
/// Iterations for the disabled-call micro-benchmark.
const MICRO_CALLS: u64 = 20_000_000;
/// Sampler steps per timed batch.
const STEP_BATCH: usize = 10_000;
/// MH steps per output sample in the §IV-C timing.
const OUTPUT_THIN: usize = 200;
/// Edge counts of the §IV-C update and exact-sample scaling sweeps.
const SCALING_EDGES: [usize; 5] = [500, 2_000, 8_000, 32_000, 128_000];
/// Timed window per §IV-C measurement: its twelve windows add about
/// three seconds to the run.
const SECTION_IV_C_WINDOW_SECS: f64 = 0.25;

/// Runs `batch` on a warmed-up `kind` sampler over `icm` until
/// `window_secs` have passed, returning (batches/sec, batches run).
fn sampler_throughput(
    icm: &Icm,
    kind: ProposalKind,
    seed: u64,
    window_secs: f64,
    mut batch: impl FnMut(&mut PseudoStateSampler<'_>, &mut StdRng),
) -> (f64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sampler = PseudoStateSampler::new(icm, kind, &mut rng);
    sampler.run(20_000, &mut rng); // warm-up: tree caches, branch predictors
    let start = Instant::now();
    let mut batches: u64 = 0;
    loop {
        batch(&mut sampler, &mut rng);
        batches += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= window_secs {
            return (batches as f64 / elapsed, batches);
        }
    }
}

/// Chain updates on `icm` in `run()` batches of [`STEP_BATCH`], timed
/// over `window_secs`: (steps/sec, steps run).
fn steps_per_sec(icm: &Icm, seed: u64, window_secs: f64) -> (f64, u64) {
    let (batches_per_sec, batches) = sampler_throughput(
        icm,
        ProposalKind::ResultingActivity,
        seed,
        window_secs,
        |sampler, rng| sampler.run(STEP_BATCH, rng),
    );
    (
        batches_per_sec * STEP_BATCH as f64,
        batches * STEP_BATCH as u64,
    )
}

/// Nanoseconds per exact-kernel sample on `icm`: one independence step
/// and one reach-set search, from sources rotating over every node.
/// The reach set is only passed to `black_box`: counting its bits is
/// `O(n)` on its own.
fn exact_ns_per_sample(icm: &Icm, seed: u64, window_secs: f64) -> f64 {
    let n = icm.node_count() as u32;
    let mut source = 0u32;
    let (batches_per_sec, _) = sampler_throughput(
        icm,
        ProposalKind::Independent,
        seed,
        window_secs,
        |sampler, rng| {
            for _ in 0..STEP_BATCH {
                sampler.step(rng);
                std::hint::black_box(sampler.reach_set(&[NodeId(source)]));
                source = (source + 1) % n;
            }
            sampler.flush_obs_counters();
        },
    );
    1e9 / (batches_per_sec * STEP_BATCH as f64)
}

/// The median of an odd-length sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Times one guarded multi-chain run, returning wall milliseconds.
fn parallel_wall_ms(icm: &Icm, sink_node: NodeId) -> f64 {
    let start = Instant::now();
    let est = multi_chain_flow_guarded(
        icm,
        NodeId(0),
        sink_node,
        McmcConfig {
            samples: PARALLEL_SAMPLES,
            ..Default::default()
        },
        PARALLEL_CHAINS,
        7,
        RunBudget::unlimited(),
        1,
        true,
    );
    let ms = start.elapsed().as_secs_f64() * 1e3;
    // Keep the estimate observable so the whole run cannot fold away.
    assert!(est.value.is_finite());
    ms
}

/// Counts every dispatched recorder invocation — events, counters,
/// gauges, histograms, timings — without storing anything, so the
/// measurement itself stays cheap.
#[derive(Default)]
struct CallCountingSink {
    calls: AtomicU64,
}

impl CallCountingSink {
    fn bump(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

impl Recorder for CallCountingSink {
    fn event(&self, _event: &Event) {
        self.bump();
    }
    fn counter(&self, _name: &'static str, _delta: u64) {
        self.bump();
    }
    fn gauge(&self, _name: &'static str, _value: f64) {
        self.bump();
    }
    fn histogram(&self, _name: &'static str, _value: f64) {
        self.bump();
    }
    fn timing(&self, _name: &'static str, _nanos: u64) {
        self.bump();
    }
}

/// Measures how many recorder calls the sampler actually dispatches
/// per step: the hot loop batches its counters, so this is a handful
/// per `run()` invocation rather than ~2 per step.
fn dispatched_calls_per_step(icm: &Icm, seed: u64) -> f64 {
    const STEPS: u64 = 100_000;
    let sink = Arc::new(CallCountingSink::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sampler = PseudoStateSampler::new(icm, ProposalKind::ResultingActivity, &mut rng);
    {
        let _r = ScopedRecorder::install(sink.clone());
        // Same batch size the throughput loop uses, so the dispatch
        // amortization matches what the slowdown number measured.
        for _ in 0..STEPS / STEP_BATCH as u64 {
            sampler.run(STEP_BATCH, &mut rng);
        }
    }
    sink.calls.load(Ordering::Relaxed) as f64 / STEPS as f64
}

/// Micro-benchmarks the disabled recorder path: ns per counter call
/// when no recorder is installed (a relaxed atomic load + branch).
fn disabled_ns_per_call() -> f64 {
    assert!(!flow_obs::enabled(), "micro-bench needs the recorder off");
    let start = Instant::now();
    for _ in 0..MICRO_CALLS {
        flow_obs::counter("bench.disabled_probe", 1);
    }
    start.elapsed().as_secs_f64() * 1e9 / MICRO_CALLS as f64
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sampler.json".to_string());

    let throughput_icm = scaling_icm(THROUGHPUT_EDGES, 42);
    let parallel_icm = scaling_icm(PARALLEL_EDGES, 42);
    let parallel_sink = NodeId((parallel_icm.node_count() - 1) as u32);

    eprintln!("[1/6] sampler throughput, recorder disabled vs enabled (memory sink) ...");
    let sink = Arc::new(MemorySink::new());
    let disabled_window = || steps_per_sec(&throughput_icm, 1, THROUGHPUT_WINDOW_SECS);
    let enabled_window = || {
        let _r = ScopedRecorder::install(sink.clone());
        steps_per_sec(&throughput_icm, 1, THROUGHPUT_WINDOW_SECS)
    };
    let mut disabled = Vec::with_capacity(SLOWDOWN_PAIRS);
    let mut enabled = Vec::with_capacity(SLOWDOWN_PAIRS);
    for pair in 0..SLOWDOWN_PAIRS {
        if pair.is_multiple_of(2) {
            disabled.push(disabled_window());
            enabled.push(enabled_window());
        } else {
            enabled.push(enabled_window());
            disabled.push(disabled_window());
        }
    }
    let enabled_slowdown_pct = median(
        disabled
            .iter()
            .zip(&enabled)
            .map(|(d, e)| 100.0 * (1.0 - e.0 / d.0))
            .collect(),
    );
    let sps_disabled = median(disabled.iter().map(|w| w.0).collect());
    let sps_enabled = median(enabled.iter().map(|w| w.0).collect());
    let steps_disabled: u64 = disabled.iter().map(|w| w.1).sum();
    let steps_enabled: u64 = enabled.iter().map(|w| w.1).sum();
    let counted_increments_per_step = {
        // Logical telemetry per step: every terminal counter the hot
        // loop can hit, summed from the sink's registry. Batching must
        // leave this unchanged (~2/step) — only the dispatch rate drops.
        let total: u64 = [
            "sampler.steps",
            "sampler.lazy_loops",
            "sampler.empty_proposals",
            "sampler.mh_rejects",
            "sampler.condition_rejects",
            "sampler.accepts",
            "sampler.tree_rebuilds",
        ]
        .iter()
        .map(|n| sink.counter_value(n))
        .sum();
        total as f64 / sink.counter_value("sampler.steps").max(1) as f64
    };

    eprintln!("[2/6] dispatched recorder calls per step ...");
    let dispatched_per_step = dispatched_calls_per_step(&throughput_icm, 1);

    eprintln!("[3/6] parallel estimator, recorder disabled ...");
    let par_disabled_ms = parallel_wall_ms(&parallel_icm, parallel_sink);

    eprintln!("[4/6] parallel estimator, recorder enabled ...");
    let par_enabled_ms = {
        let _r = ScopedRecorder::install(Arc::new(MemorySink::new()));
        parallel_wall_ms(&parallel_icm, parallel_sink)
    };

    eprintln!("[5/6] disabled fast-path micro-benchmark ...");
    let ns_per_call = disabled_ns_per_call();

    eprintln!(
        "[6/6] §IV-C: updates and output samples at 6K/14K, update and exact-sample scaling ..."
    );
    let twitter_icm = twitter_scale_icm(1);
    let twitter_sink = NodeId((twitter_icm.node_count() - 1) as u32);
    let us_per_update = 1e6 / steps_per_sec(&twitter_icm, 2, SECTION_IV_C_WINDOW_SECS).0;
    let (samples_per_sec, _) = sampler_throughput(
        &twitter_icm,
        ProposalKind::ResultingActivity,
        2,
        SECTION_IV_C_WINDOW_SECS,
        |sampler, rng| {
            sampler.run(OUTPUT_THIN, rng);
            std::hint::black_box(sampler.carries_flow(NodeId(0), twitter_sink));
        },
    );
    let us_per_output_sample = 1e6 / samples_per_sec;
    let (scaling_ns, exact_ns): (Vec<f64>, Vec<f64>) = SCALING_EDGES
        .iter()
        .map(|&m| {
            let icm = scaling_icm(m, 3);
            (
                1e9 / steps_per_sec(&icm, 4, SECTION_IV_C_WINDOW_SECS).0,
                exact_ns_per_sample(&icm, 5, SECTION_IV_C_WINDOW_SECS),
            )
        })
        .unzip();
    let last = SCALING_EDGES.len() - 1;
    let scaling_ratio = scaling_ns[last] / scaling_ns[0];
    let exact_ratio = exact_ns[last] / exact_ns[0];
    let by_edges = |ns: &[f64]| {
        SCALING_EDGES
            .iter()
            .zip(ns)
            .map(|(m, ns)| format!("\"{m}\": {ns:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    };

    // Disabled overhead: cost of one disabled call times the dispatch
    // rate, as a fraction of step time. With batched counters the
    // disabled path makes at most one `enabled()` probe per flush, so
    // the enabled-run dispatch rate is a conservative upper bound.
    let step_ns_disabled = 1e9 / sps_disabled;
    let disabled_overhead_pct = 100.0 * ns_per_call * dispatched_per_step / step_ns_disabled;
    const ENABLED_BUDGET_PCT: f64 = 10.0;
    const DISABLED_BUDGET_PCT: f64 = 5.0;
    const SCALING_BUDGET_RATIO: f64 = 8.0;

    let json = format!(
        "{{\n  \"bench\": \"sampler\",\n  \"schema\": \"{schema}\",\n  \"throughput_edges\": {te},\n  \"sampler\": {{\n    \"steps_per_sec_disabled\": {sd:.0},\n    \"steps_per_sec_enabled\": {se:.0},\n    \"steps_timed_disabled\": {std},\n    \"steps_timed_enabled\": {ste},\n    \"enabled_slowdown_pct\": {esp:.2},\n    \"enabled_budget_pct\": {eb},\n    \"enabled_within_budget\": {ewb}\n  }},\n  \"counters\": {{\n    \"counted_increments_per_step\": {cis:.3},\n    \"dispatched_calls_per_step\": {dcs:.5}\n  }},\n  \"parallel_estimator\": {{\n    \"edges\": {pe},\n    \"chains\": {pc},\n    \"samples_per_chain\": {ps},\n    \"wall_ms_disabled\": {pd:.1},\n    \"wall_ms_enabled\": {pen:.1}\n  }},\n  \"disabled_path\": {{\n    \"ns_per_call\": {nc:.3},\n    \"overhead_pct\": {dop:.4},\n    \"budget_pct\": {db},\n    \"within_budget\": {wb}\n  }},\n  \"section_iv_c\": {{\n    \"nodes\": {tn},\n    \"edges\": {tm},\n    \"us_per_update\": {upu:.3},\n    \"thin\": {thin},\n    \"us_per_output_sample\": {upo:.1},\n    \"ns_per_update_by_edges\": {{{sbe}}},\n    \"scaling_ratio\": {sr:.2},\n    \"scaling_budget_ratio\": {sbr},\n    \"scaling_within_budget\": {swb},\n    \"exact_ns_per_sample_by_edges\": {{{ebe}}},\n    \"exact_scaling_ratio\": {er:.2},\n    \"exact_scaling_within_budget\": {ewb2}\n  }}\n}}\n",
        schema = flow_core::schema::BENCH_SAMPLER.tag(),
        te = THROUGHPUT_EDGES,
        sd = sps_disabled,
        se = sps_enabled,
        std = steps_disabled,
        ste = steps_enabled,
        esp = enabled_slowdown_pct,
        eb = ENABLED_BUDGET_PCT,
        ewb = enabled_slowdown_pct <= ENABLED_BUDGET_PCT,
        cis = counted_increments_per_step,
        dcs = dispatched_per_step,
        pe = PARALLEL_EDGES,
        pc = PARALLEL_CHAINS,
        ps = PARALLEL_SAMPLES,
        pd = par_disabled_ms,
        pen = par_enabled_ms,
        nc = ns_per_call,
        dop = disabled_overhead_pct,
        db = DISABLED_BUDGET_PCT,
        wb = disabled_overhead_pct <= DISABLED_BUDGET_PCT,
        tn = twitter_icm.node_count(),
        tm = twitter_icm.edge_count(),
        upu = us_per_update,
        thin = OUTPUT_THIN,
        upo = us_per_output_sample,
        sbe = by_edges(&scaling_ns),
        sr = scaling_ratio,
        sbr = SCALING_BUDGET_RATIO,
        swb = scaling_ratio <= SCALING_BUDGET_RATIO,
        ebe = by_edges(&exact_ns),
        er = exact_ratio,
        ewb2 = exact_ratio <= SCALING_BUDGET_RATIO,
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
    let mut failed = false;
    if enabled_slowdown_pct > ENABLED_BUDGET_PCT {
        eprintln!(
            "error: enabled-recorder slowdown {enabled_slowdown_pct:.2}% exceeds the {ENABLED_BUDGET_PCT}% budget"
        );
        failed = true;
    }
    if disabled_overhead_pct > DISABLED_BUDGET_PCT {
        eprintln!(
            "error: disabled-recorder overhead {disabled_overhead_pct:.2}% exceeds the {DISABLED_BUDGET_PCT}% budget"
        );
        failed = true;
    }
    if scaling_ratio > SCALING_BUDGET_RATIO {
        eprintln!(
            "error: an update at {} edges costs {scaling_ratio:.2}x one at {} edges, over the {SCALING_BUDGET_RATIO}x budget",
            SCALING_EDGES[last],
            SCALING_EDGES[0]
        );
        failed = true;
    }
    if exact_ratio > SCALING_BUDGET_RATIO {
        eprintln!(
            "error: an exact sample at {} edges costs {exact_ratio:.2}x one at {} edges, over the {SCALING_BUDGET_RATIO}x budget",
            SCALING_EDGES[last],
            SCALING_EDGES[0]
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

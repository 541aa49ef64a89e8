//! `bench_serve` — serving-layer speedup and warm-cache cost.
//!
//! Produces `BENCH_serve.json` (path overridable as the first CLI
//! argument) comparing three ways of answering the same query mix
//! (several sources, many sinks each) against one synthetic ICM:
//!
//! * **naive** — one `FlowEstimator::estimate_flow` per query: the
//!   paper-facing Metropolis–Hastings loop, where every query pays its
//!   own burn-in and `m` thinning steps per retained sample;
//! * **batched** — one `ServeEngine::execute_batch`. The mix has no
//!   flow conditions, so the engine serves it from exact Eq. 3 draws
//!   (one step per retained sample, no burn-in), and same-source
//!   queries share one series of draws and its reach sets. The
//!   speedup therefore compares exact draws against the MH loop;
//! * **warm** — the identical batch again on the same engine; every
//!   answer comes from the estimate cache.
//!
//! A fourth section prices the resilience layer on a clean run: the
//! cold batch plus a cache save/load cycle with retry, breaker, and
//! entry checksums disabled versus fully enabled. A batch takes tens
//! of milliseconds, where one rep varies by about 10% on a shared
//! 2-vCPU guest, so the section runs [`RESILIENCE_PAIRS`] pairs of one
//! bare and one resilient rep, back to back in alternating order, and
//! reports the median of the per-pair overheads (and each side's
//! median wall). The best-of-N of each side is not used: its minimum
//! sits in a sparse, heavy lower tail and read +3.4% and +6.8% on runs
//! whose paired median read +1.2%.
//!
//! A fifth section measures sharded serving on a multi-community
//! workload: the same single-community query mix on an unsharded
//! engine (every exact draw redraws all `m` edges) versus a
//! `.shards(K)` engine (each query routes to its community's shard,
//! whose draws redraw `m/K` edges, and the shard units serve their
//! sub-batches concurrently). Each side is the best of [`SHARD_REPS`]
//! interleaved reps on fresh engines (best-of-5 left a 2.7x fifth
//! percentile against the perf ratchet's 2.6x floor). The
//! batched-throughput speedup is gated; the per-step cost ratio is
//! reported separately, ungated.
//!
//! Acceptance criteria (the binary exits non-zero when violated):
//! batched throughput must be at least 2x naive, the warm batch must
//! spend exactly zero sampler steps (checked via the flow-obs
//! `sampler.steps` counter, not wall time), the fault-free resilience
//! overhead must stay within 5%, and sharded batched throughput must
//! be at least 2x unsharded on the multi-community mix (with every
//! query actually routed and agreeing within tolerance).
//!
//! The result file (schema [`flow_core::schema::BENCH_SERVE`]) embeds a
//! `runtime_stats` section: the [`flow_obs::StatsAggregator`] snapshot
//! (schema `flow-obs/stats-v1`, the same document `repro serve
//! --stats-out` writes) aggregated over the cold and warm batches, so
//! the bench records latency quantiles, cache hit ratio, shed/retry
//! counts with the exact shape the serving runtime reports.
//!
//! Wall-clock timing is the entire point of this binary.
#![allow(clippy::disallowed_methods)]

use flow_bench::{multi_community_icm, scaling_icm};
use flow_graph::NodeId;
use flow_icm::Icm;
use flow_mcmc::{FlowEstimator, McmcConfig};
use flow_obs::{MemorySink, MultiSink, Recorder, ScopedRecorder, StatsAggregator};
use flow_serve::{
    BreakerConfig, ExecutorConfig, FlowQuery, QueryOutcome, RetryPolicy, ServeCache, ServeConfig,
    ServeEngine,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Edges in the benchmark model.
const MODEL_EDGES: usize = 600;
/// Distinct flow sources in the query mix.
const SOURCES: u32 = 4;
/// Sinks queried per source.
const SINKS_PER_SOURCE: u32 = 8;
/// Retained samples per chain.
const SAMPLES: usize = 4_000;
/// Communities (= shards) in the sharded section's model.
const COMMUNITIES: u32 = 4;
/// Edges per community; total model is `COMMUNITIES * COMMUNITY_EDGES`.
const COMMUNITY_EDGES: usize = 300;
/// Sinks queried per community in the sharded section.
const COMMUNITY_SINKS: usize = 6;
/// Retained samples per chain in the sharded section.
const SHARD_SAMPLES: usize = 2_000;
/// Bare/resilient rep pairs of the resilience section (median taken).
const RESILIENCE_PAIRS: usize = 200;
/// Interleaved fresh-engine reps per side of the sharded section (best
/// taken).
const SHARD_REPS: usize = 20;

fn build_engine(config: ServeConfig) -> ServeEngine {
    match ServeEngine::builder().config(config).build() {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("error: invalid engine config: {e}");
            std::process::exit(1);
        }
    }
}

fn query_mix(icm: &Icm) -> Vec<FlowQuery> {
    let n = icm.node_count() as u32;
    let mut queries = Vec::new();
    for s in 0..SOURCES {
        for k in 0..SINKS_PER_SOURCE {
            // Spread sinks across the node range, skipping the source.
            let sink = (s + 1 + k * (n / (SINKS_PER_SOURCE + 1))).min(n - 1);
            queries.push(FlowQuery::flow(NodeId(s), NodeId(sink)));
        }
    }
    queries
}

/// Per-community flow queries whose sinks are provably reachable from
/// the community's first node, so every query routes to exactly one
/// shard and keeps its chain busy on both serving paths.
fn community_mix(icm: &Icm) -> Vec<FlowQuery> {
    let n_each = icm.node_count() as u32 / COMMUNITIES;
    let graph = icm.graph();
    let mut queries = Vec::new();
    for c in 0..COMMUNITIES {
        let base = NodeId(c * n_each);
        let reach = flow_graph::reachable(graph, &[base]);
        let sinks: Vec<NodeId> = (c * n_each..(c + 1) * n_each)
            .map(NodeId)
            .filter(|&v| v != base && reach.contains(v))
            .take(COMMUNITY_SINKS)
            .collect();
        for sink in sinks {
            queries.push(FlowQuery::flow(base, sink));
        }
    }
    queries
}

/// Upper median of a non-empty sample.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn naive_wall_s(icm: &Icm, queries: &[FlowQuery], config: McmcConfig) -> (f64, Vec<f64>) {
    let estimator = FlowEstimator::new(icm, config);
    let start = Instant::now();
    let estimates = queries
        .iter()
        .map(|q| {
            let flow_serve::SharedTarget::Sink(sink) = q.target else {
                unreachable!("the mix is sink-only")
            };
            let mut rng = StdRng::seed_from_u64(q.source.0 as u64 * 31 + sink.0 as u64);
            estimator.estimate_flow(q.source, sink, &mut rng)
        })
        .collect();
    (start.elapsed().as_secs_f64(), estimates)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve.json".to_string());

    let icm = scaling_icm(MODEL_EDGES, 42);
    let queries = query_mix(&icm);
    let mcmc = McmcConfig {
        samples: SAMPLES,
        ..Default::default()
    };

    eprintln!(
        "[1/5] naive: {} independent estimates ({} samples each) ...",
        queries.len(),
        SAMPLES
    );
    let (naive_s, naive_estimates) = naive_wall_s(&icm, &queries, mcmc);

    eprintln!("[2/5] batched: one execute_batch over the same mix ...");
    // The aggregator listens to both the cold and the warm batch so the
    // embedded runtime_stats section covers a hit-free and an all-hit
    // window; its per-event cost is part of what the speedup measures.
    let agg = Arc::new(StatsAggregator::new());
    let mut engine = build_engine(ServeConfig {
        mcmc,
        // Tolerance is not under test here; keep the sample budget
        // identical to the naive loop's.
        default_tolerance: 1.0,
        engine_seed: 42,
        ..Default::default()
    });
    let start = Instant::now();
    let cold = {
        let _r = ScopedRecorder::install(agg.clone());
        engine.execute_batch(&icm, &queries)
    };
    let batched_s = start.elapsed().as_secs_f64();
    agg.roll_windows();

    // Sanity: the two strategies answer the same questions.
    for ((q, outcome), naive) in queries.iter().zip(&cold).zip(&naive_estimates) {
        let QueryOutcome::Answered(a) = outcome else {
            eprintln!("error: batched query {q:?} was not answered");
            std::process::exit(1);
        };
        if (a.estimate - naive).abs() > 0.05 {
            eprintln!(
                "error: batched estimate {} disagrees with naive {} for {q:?}",
                a.estimate, naive
            );
            std::process::exit(1);
        }
    }

    eprintln!("[3/5] warm: the identical batch served from cache ...");
    let sink = Arc::new(MemorySink::new());
    let start = Instant::now();
    let warm = {
        let sinks: Vec<Arc<dyn Recorder>> = vec![sink.clone(), agg.clone()];
        let _r = ScopedRecorder::install(Arc::new(MultiSink::new(sinks)));
        engine.execute_batch(&icm, &queries)
    };
    let warm_s = start.elapsed().as_secs_f64();
    agg.roll_windows();
    let warm_steps = sink.counter_value("sampler.steps");
    let warm_hits = warm
        .iter()
        .filter(|o| {
            matches!(
                o,
                QueryOutcome::Answered(a) if a.served == flow_serve::Served::CacheHit
            )
        })
        .count();

    eprintln!("[4/5] resilience overhead: retry+breaker+checksums off vs on ...");
    let dir = std::env::temp_dir().join(format!("bench-serve-resilience-{}", std::process::id()));
    let resilience_rep = |enabled: bool| -> f64 {
        std::fs::remove_dir_all(&dir).ok();
        let base = ServeConfig {
            mcmc,
            default_tolerance: 1.0,
            engine_seed: 42,
            ..Default::default()
        };
        let config = if enabled {
            base
        } else {
            ServeConfig {
                executor: ExecutorConfig {
                    retry: RetryPolicy::none(),
                    admission_step_budget: 0,
                    ..Default::default()
                },
                breaker: BreakerConfig::disabled(),
                ..base
            }
        };
        let mut engine = build_engine(config);
        let start = Instant::now();
        let outcomes = engine.execute_batch(&icm, &queries);
        let saved = engine.cache().save_to_dir_opts(&dir, enabled);
        let loaded = saved.and_then(|()| ServeCache::load_from_dir(&dir, 8 << 20));
        let elapsed = start.elapsed().as_secs_f64();
        let all_answered = outcomes
            .iter()
            .all(|o| matches!(o, QueryOutcome::Answered(_)));
        match loaded {
            Ok(cache) if all_answered && cache.len() == engine.cache().len() => elapsed,
            _ => {
                eprintln!("error: resilience rep (enabled={enabled}) did not round-trip");
                std::process::exit(1);
            }
        }
    };
    // Each pair runs both sides back to back, so both see the same
    // machine state; the order alternates so neither always goes first.
    let mut bare = Vec::with_capacity(RESILIENCE_PAIRS);
    let mut resilient = Vec::with_capacity(RESILIENCE_PAIRS);
    let mut bare_first = true;
    for _ in 0..RESILIENCE_PAIRS {
        if bare_first {
            bare.push(resilience_rep(false));
            resilient.push(resilience_rep(true));
        } else {
            resilient.push(resilience_rep(true));
            bare.push(resilience_rep(false));
        }
        bare_first = !bare_first;
    }
    std::fs::remove_dir_all(&dir).ok();
    let mut overheads: Vec<f64> = bare
        .iter()
        .zip(&resilient)
        .map(|(b, r)| (r - b) / b * 100.0)
        .collect();
    let overhead_pct = median(&mut overheads);
    let bare_s = median(&mut bare);
    let resilient_s = median(&mut resilient);

    eprintln!(
        "[5/5] sharded: {COMMUNITIES}-community mix, unsharded vs --shards {COMMUNITIES} ..."
    );
    let community_icm = multi_community_icm(COMMUNITIES, COMMUNITY_EDGES, 7);
    let shard_queries = community_mix(&community_icm);
    let shard_config = |shards: u32| ServeConfig {
        mcmc: McmcConfig {
            samples: SHARD_SAMPLES,
            ..Default::default()
        },
        default_tolerance: 1.0,
        engine_seed: 42,
        shards,
        ..Default::default()
    };

    // Every rep serves the same seeded batch on a fresh engine, so the
    // answers are identical across reps; the first rep's are checked.
    let timed_rep = |shards: u32| {
        let mut engine = build_engine(shard_config(shards));
        let start = Instant::now();
        let outcomes = engine.execute_batch(&community_icm, &shard_queries);
        (start.elapsed().as_secs_f64(), engine, outcomes)
    };
    let (mut flat_s, flat, flat_outcomes) = timed_rep(1);
    let (mut sharded_s, sharded, sharded_outcomes) = timed_rep(COMMUNITIES);
    for _ in 1..SHARD_REPS {
        flat_s = flat_s.min(timed_rep(1).0);
        sharded_s = sharded_s.min(timed_rep(COMMUNITIES).0);
    }

    // Same questions, same distribution: chains differ (shard slots
    // enter the chain keys), so the answers are independent draws that
    // must agree within estimator tolerance.
    let mut max_gap = 0.0f64;
    for ((q, f), s) in shard_queries
        .iter()
        .zip(&flat_outcomes)
        .zip(&sharded_outcomes)
    {
        let (QueryOutcome::Answered(a), QueryOutcome::Answered(b)) = (f, s) else {
            eprintln!("error: sharded-section query {q:?} was not answered on both paths");
            std::process::exit(1);
        };
        max_gap = max_gap.max((a.estimate - b.estimate).abs());
    }
    if max_gap > 0.08 {
        eprintln!("error: sharded answers diverge from unsharded by {max_gap:.3} (> 0.08)");
        std::process::exit(1);
    }
    // Every query must actually take the sharded path — a fallback to
    // the global engine would make the comparison vacuous.
    let routed: u64 = sharded.shard_stats().iter().map(|s| s.queries).sum();
    if routed != shard_queries.len() as u64 {
        eprintln!(
            "error: only {routed}/{} queries took the sharded path",
            shard_queries.len()
        );
        std::process::exit(1);
    }
    let flat_steps = flat.stats().steps;
    let sharded_steps = sharded.stats().steps;
    let shard_n = shard_queries.len() as f64;
    let shard_speedup = flat_s / sharded_s;
    // Wall time per chain step on each path. An exact draw redraws
    // every edge of its (sub-)model, so this tracks the edge-count
    // shrink, separated from the step counts themselves.
    let per_step_ns_flat = flat_s / flat_steps.max(1) as f64 * 1e9;
    let per_step_ns_sharded = sharded_s / sharded_steps.max(1) as f64 * 1e9;

    let n = queries.len() as f64;
    let naive_qps = n / naive_s;
    let batched_qps = n / batched_s;
    let warm_qps = n / warm_s;
    let speedup = naive_s / batched_s;

    // The runtime snapshot, re-indented to sit as a nested object.
    let stats_embedded = agg
        .snapshot()
        .render_json()
        .trim_end()
        .replace('\n', "\n  ");

    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"schema\": \"{schema}\",\n  \"model_edges\": {me},\n  \"queries\": {q},\n  \"samples_per_chain\": {sp},\n  \"naive\": {{\n    \"wall_s\": {ns:.3},\n    \"qps\": {nq:.1}\n  }},\n  \"batched\": {{\n    \"wall_s\": {bs:.3},\n    \"qps\": {bq:.1},\n    \"speedup_vs_naive\": {su:.2},\n    \"required_speedup\": 2.0\n  }},\n  \"warm_cache\": {{\n    \"wall_s\": {ws:.4},\n    \"qps\": {wq:.1},\n    \"cache_hits\": {wh},\n    \"sampler_steps\": {wst}\n  }},\n  \"resilience\": {{\n    \"pairs\": {rp},\n    \"bare_wall_s\": {rb:.4},\n    \"resilient_wall_s\": {rr:.4},\n    \"overhead_pct\": {ro:.2},\n    \"budget_pct\": 5.0\n  }},\n  \"sharded\": {{\n    \"communities\": {sc},\n    \"model_edges\": {sme},\n    \"queries\": {sq},\n    \"samples_per_chain\": {ssp},\n    \"routed\": {srt},\n    \"unsharded_wall_s\": {sfs:.3},\n    \"unsharded_qps\": {sfq:.1},\n    \"unsharded_steps\": {sfst},\n    \"sharded_wall_s\": {sss:.3},\n    \"sharded_qps\": {ssq:.1},\n    \"sharded_steps\": {ssst},\n    \"speedup_vs_unsharded\": {ssu:.2},\n    \"required_speedup\": 2.0,\n    \"per_step_ns_unsharded\": {spf:.1},\n    \"per_step_ns_sharded\": {sps:.1},\n    \"per_step_speedup\": {spw:.2},\n    \"max_abs_disagreement\": {sdg:.4}\n  }},\n  \"runtime_stats\": {rs},\n  \"pass\": {pass}\n}}\n",
        schema = flow_core::schema::BENCH_SERVE.tag(),
        me = MODEL_EDGES,
        rs = stats_embedded,
        q = queries.len(),
        sp = SAMPLES,
        ns = naive_s,
        nq = naive_qps,
        bs = batched_s,
        bq = batched_qps,
        su = speedup,
        ws = warm_s,
        wq = warm_qps,
        wh = warm_hits,
        wst = warm_steps,
        rp = RESILIENCE_PAIRS,
        rb = bare_s,
        rr = resilient_s,
        ro = overhead_pct,
        sc = COMMUNITIES,
        sme = community_icm.edge_count(),
        sq = shard_queries.len(),
        ssp = SHARD_SAMPLES,
        srt = routed,
        sfs = flat_s,
        sfq = shard_n / flat_s,
        sfst = flat_steps,
        sss = sharded_s,
        ssq = shard_n / sharded_s,
        ssst = sharded_steps,
        ssu = shard_speedup,
        spf = per_step_ns_flat,
        sps = per_step_ns_sharded,
        spw = per_step_ns_flat / per_step_ns_sharded,
        sdg = max_gap,
        pass = speedup >= 2.0
            && warm_steps == 0
            && overhead_pct <= 5.0
            && shard_speedup >= 2.0,
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
    if speedup < 2.0 {
        eprintln!("error: batched speedup {speedup:.2}x is below the 2x requirement");
        std::process::exit(1);
    }
    if warm_steps != 0 {
        eprintln!("error: warm batch spent {warm_steps} sampler steps; cache hits must spend none");
        std::process::exit(1);
    }
    if warm_hits != queries.len() {
        eprintln!(
            "error: only {warm_hits}/{} warm queries were cache hits",
            queries.len()
        );
        std::process::exit(1);
    }
    if overhead_pct > 5.0 {
        eprintln!("error: resilience overhead {overhead_pct:.2}% exceeds the 5% budget");
        std::process::exit(1);
    }
    if shard_speedup < 2.0 {
        eprintln!(
            "error: sharded speedup {shard_speedup:.2}x is below the 2x requirement \
             (unsharded {flat_s:.3}s / sharded {sharded_s:.3}s)"
        );
        std::process::exit(1);
    }
}

//! Metrics, the run record, and their JSON rendering.

use crate::probes::Probes;
use crate::replay::Replayed;
use crate::stack::AnswerBits;
use crate::sys::{median, quantile};
use crate::workload::{Inputs, Spec, Timed};
use flow_core::Fnv64;
use flow_serve::{ServeStats, SharedTarget};

/// One named metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Renders a finite number as JSON (shortest round-trip digits);
/// non-finite values become `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// Renders a string as a JSON string literal.
pub fn text(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `(key, raw JSON value)` pairs as an object.
pub fn obj(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {v}", text(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Renders metrics as `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let pairs: Vec<(&str, String)> = metrics
        .iter()
        .map(|x| {
            (
                x.name,
                obj(&[("value", num(x.value)), ("unit", text(x.unit))]),
            )
        })
        .collect();
    obj(&pairs)
}

/// Query outcome tallies of the measured phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Queries sent.
    pub attempted: u64,
    /// Answered on any path.
    pub answered: u64,
    /// Answered with no degradation reason.
    pub clean: u64,
    /// Shed by admission.
    pub rejected: u64,
    /// Failed with a typed error.
    pub failed: u64,
    /// Answered but outside [0, 1] or with a non-finite half-width.
    pub out_of_range: u64,
}

/// Tallies answers.
pub fn tally(answers: &[AnswerBits]) -> Tally {
    let mut t = Tally {
        attempted: answers.len() as u64,
        ..Tally::default()
    };
    for a in answers {
        match a.path {
            crate::stack::REJECTED => t.rejected += 1,
            crate::stack::FAILED => t.failed += 1,
            _ => {
                t.answered += 1;
                t.clean += u64::from(a.clean);
                t.out_of_range += u64::from(!a.in_range());
            }
        }
    }
    t
}

/// The end-to-end metrics, measured with tracing off.
pub fn end_to_end(timed: &Timed, tally: &Tally, probes: &Probes, setup_s: &[f64]) -> Vec<Metric> {
    vec![
        m("qps", tally.answered as f64 / timed.wall_s, "queries/s"),
        m("latency_p50_ms", median(&timed.latencies_ms), "ms"),
        m("latency_p90_ms", quantile(&timed.latencies_ms, 0.9), "ms"),
        m(
            "cpu_ms_per_query",
            timed.cpu_s * 1e3 / tally.answered.max(1) as f64,
            "ms",
        ),
        m(
            "ok_share",
            tally.clean as f64 / tally.attempted.max(1) as f64,
            "share",
        ),
        m("coverage", probes.coverage(), "share"),
        m("setup_s", median(setup_s), "s"),
        m("peak_rss_mb", crate::sys::peak_rss_mib(), "MiB"),
        m("update_p50_ms", median(&timed.update_ms), "ms"),
    ]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer metrics of the traced replay.
pub fn per_layer(spec: &Spec, timed: &Timed, r: &Replayed) -> Vec<Metric> {
    let totals = r.tracer.totals();
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let mean_ns = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| ratio(t.total_ns as f64, t.count as f64))
    };
    let c = &r.counts;
    let q = c.queries as f64;
    vec![
        m(
            "route.us_per_query",
            mean_ns("route.route_query") / 1e3,
            "us",
        ),
        m(
            "route.routed_share",
            ratio(c.routed as f64, c.routed_calls as f64),
            "share",
        ),
        m("route.partition_ms", mean_ns("route.partition") / 1e6, "ms"),
        m(
            "plan.us_per_query",
            ratio(total("plan.plan_batch"), q) / 1e3,
            "us",
        ),
        m(
            "plan.fingerprint_us",
            mean_ns("plan.model_fingerprint") / 1e3,
            "us",
        ),
        m(
            "plan.queries_per_plan",
            ratio(c.planned_queries as f64, c.plans as f64),
            "queries",
        ),
        m("cache.hit_share", ratio(c.hits as f64, q), "share"),
        m("cache.refine_share", ratio(c.refines as f64, q), "share"),
        m("cache.lookup_ns", mean_ns("cache.lookup"), "ns"),
        m(
            "cache.evictions",
            (r.cache_counters[2] + c.retired_evictions) as f64,
            "count",
        ),
        m("cache.kib", c.peak_cache_bytes as f64 / 1024.0, "KiB"),
        m(
            "exec.parallel_efficiency",
            ratio(
                c.serial_exec_ns as f64,
                spec.config().executor.workers as f64 * c.probed_report_ns as f64,
            ),
            "share",
        ),
        m("exec.spawn_us_per_batch", mean_ns("exec.spawn") / 1e3, "us"),
        m("exec.shed", c.shed as f64, "count"),
        m("exec.retries", c.retries as f64, "count"),
        m("sampler.steps_per_query", ratio(c.steps as f64, q), "steps"),
        m(
            "sampler.samples_per_query",
            ratio(c.samples as f64, q),
            "samples",
        ),
        m(
            "sampler.burn_in_share",
            ratio(c.burn_in_steps as f64, c.steps as f64),
            "share",
        ),
        m(
            "sampler.ns_per_step",
            ratio(total("sampler.try_run"), c.split_steps as f64),
            "ns",
        ),
        m(
            "sampler.accept_rate",
            ratio(c.split_accepted as f64, c.split_steps as f64),
            "share",
        ),
        m(
            "sampler.ess_per_sample",
            ratio(c.ess_ratio_sum, c.ess_series as f64),
            "share",
        ),
        m(
            "traverse.us_per_sample",
            ratio(total("traverse.reach_set"), c.split_samples as f64) / 1e3,
            "us",
        ),
        m(
            "traverse.nodes_per_sample",
            ratio(c.split_nodes as f64, c.split_samples as f64),
            "nodes",
        ),
        m(
            "ingest.us_per_event",
            mean_ns("ingest.push_line") / 1e3,
            "us",
        ),
        m("ingest.seal_ms", mean_ns("ingest.seal_epoch") / 1e6, "ms"),
        m(
            "registry.seal_ms",
            mean_ns("registry.seal_epoch") / 1e6,
            "ms",
        ),
        m(
            "registry.snapshot_kib",
            ratio(c.snapshot_bytes as f64, c.swaps as f64) / 1024.0,
            "KiB",
        ),
        m(
            "model.serving_icm_ms",
            mean_ns("model.serving_icm") / 1e6,
            "ms",
        ),
        m(
            "registry.swap_ms",
            mean_ns("registry.swap_into") / 1e6,
            "ms",
        ),
        m(
            "registry.invalidated_per_swap",
            ratio(c.invalidated as f64, c.swaps as f64),
            "entries",
        ),
        m(
            "obs.trace_overhead_pct",
            (r.wall_s - timed.wall_s) / timed.wall_s * 100.0,
            "%",
        ),
    ]
}

/// Digest of the work the engine did: its counters, every swap's
/// invalidation count, and every answer's bits.
pub fn work_digest(timed: &Timed) -> u64 {
    let s = timed.stats;
    let mut h = Fnv64::new()
        .u64(s.steps)
        .u64(s.plans)
        .u64(s.cache_hits)
        .u64(s.refined)
        .u64(s.fresh)
        .u64(timed.invalidated.len() as u64);
    for &n in &timed.invalidated {
        h = h.u64(n as u64);
    }
    for a in timed.warmup_answers.iter().chain(&timed.answers) {
        h = h
            .u64(a.estimate)
            .u64(a.half_width)
            .u64(a.samples)
            .u64(u64::from(a.path));
    }
    h.finish()
}

fn stats_json(s: &ServeStats) -> String {
    obj(&[
        ("queries", s.queries.to_string()),
        ("answered", s.answered.to_string()),
        ("cache_hits", s.cache_hits.to_string()),
        ("fresh", s.fresh.to_string()),
        ("refined", s.refined.to_string()),
        ("rejected", s.rejected.to_string()),
        ("failed", s.failed.to_string()),
        ("plans", s.plans.to_string()),
        ("steps", s.steps.to_string()),
        ("degraded", s.degraded.to_string()),
        ("retries", s.retries.to_string()),
        ("shed", s.shed.to_string()),
    ])
}

/// The workload's traffic properties.
pub fn traffic_json(spec: &Spec, inputs: &Inputs, timed: &Timed) -> String {
    let queries: Vec<_> = inputs.batches.iter().flatten().collect();
    let n = queries.len().max(1) as f64;
    let share = |f: &dyn Fn(&flow_serve::FlowQuery) -> bool| {
        queries.iter().filter(|q| f(q)).count() as f64 / n
    };
    let graph = inputs.truth.graph();
    let config = spec.config();
    obj(&[
        ("batches", inputs.batches.len().to_string()),
        (
            "queries_per_batch",
            num(n / inputs.batches.len().max(1) as f64),
        ),
        ("distinct_keys", inputs.distinct_keys.to_string()),
        ("cache_byte_budget", config.cache_bytes.to_string()),
        (
            "queries_per_chain",
            num(ratio(timed.stats.answered as f64, timed.stats.plans as f64)),
        ),
        (
            "conditioned_share",
            num(share(&|q| !q.conditions.is_empty())),
        ),
        (
            "community_target_share",
            num(share(&|q| matches!(q.target, SharedTarget::Community(_)))),
        ),
        (
            "no_path_share",
            num(share(&|q| crate::inputs::is_no_path(graph, q))),
        ),
        (
            "tight_tolerance_share",
            num(share(&|q| q.tolerance.is_some())),
        ),
        ("model_edges", graph.edge_count().to_string()),
        ("model_nodes", graph.node_count().to_string()),
        ("shards", config.shards.to_string()),
        ("samples_floor", config.mcmc.samples.to_string()),
        ("default_tolerance", num(config.default_tolerance)),
        ("update_epochs", inputs.epochs.len().to_string()),
    ])
}

/// The run record's engine section.
pub fn engine_json(timed: &Timed) -> String {
    let shards: Vec<String> = timed.shard_stats.iter().map(stats_json).collect();
    obj(&[
        ("stats", stats_json(&timed.stats)),
        ("shard_stats_at_end", format!("[{}]", shards.join(", "))),
        (
            "invalidated_per_swap",
            num(ratio(
                timed.invalidated.iter().sum::<usize>() as f64,
                timed.invalidated.len() as f64,
            )),
        ),
    ])
}

/// The traced replay's section of the run record: self time per span
/// name and the replay's counters.
pub fn replay_json(r: &Replayed) -> String {
    let spans: Vec<(&str, String)> = r
        .tracer
        .totals()
        .into_iter()
        .map(|(name, t)| {
            (
                name,
                obj(&[
                    ("count", t.count.to_string()),
                    ("total_ms", num(t.total_ns as f64 / 1e6)),
                    ("self_ms", num(t.self_ns as f64 / 1e6)),
                ]),
            )
        })
        .collect();
    let c = &r.counts;
    let mismatches: Vec<String> = r.mismatches.iter().map(|s| text(s)).collect();
    obj(&[
        ("wall_s", num(r.wall_s)),
        ("spans", r.tracer.spans().len().to_string()),
        ("self_time", obj(&spans)),
        (
            "counts",
            obj(&[
                ("queries", c.queries.to_string()),
                ("hits", c.hits.to_string()),
                ("refines", c.refines.to_string()),
                ("fresh", c.fresh.to_string()),
                ("plans", c.plans.to_string()),
                ("steps", c.steps.to_string()),
                ("samples", c.samples.to_string()),
                ("swaps", c.swaps.to_string()),
                ("invalidated", c.invalidated.to_string()),
                ("split_steps", c.split_steps.to_string()),
                ("split_accepted", c.split_accepted.to_string()),
                ("probe_lookups", c.probe_lookups.to_string()),
            ]),
        ),
        (
            "cache_counters",
            obj(&[
                ("hits", r.cache_counters[0].to_string()),
                ("misses", r.cache_counters[1].to_string()),
                ("evictions", r.cache_counters[2].to_string()),
                ("entries", r.cache_counters[3].to_string()),
            ]),
        ),
        ("mismatches", format!("[{}]", mismatches.join(", "))),
    ])
}

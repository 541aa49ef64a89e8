//! `repro serve` — batch-serve a JSONL query file through the
//! flow-serve engine.
//!
//! Reads a query file (see [`flow_serve::spec`]), builds the synthetic
//! model its `model` line describes, executes every query as one batch,
//! and writes:
//!
//! * `serve_results.jsonl` — one line per query, **deterministic fields
//!   only** (estimate, half-width, samples, degradations). Two runs
//!   over the same file and seed are byte-identical whether answers
//!   came from sampling or from a warm cache — that equality is
//!   asserted by the CI serving smoke job.
//! * `serve_stats.json` — the serving-path counters (cache hits, fresh,
//!   refined, rejected, failed, steps). These *do* differ between cold
//!   and warm runs; that difference is the point.
//!
//! With `--cache-dir` the estimate cache is loaded before the batch and
//! saved after it, so a second invocation serves warm hits across
//! processes.
//!
//! With `--shards K` (K > 1) the engine partitions the model into K
//! shards and routes each query to the minimal shard set covering its
//! relevant subgraph (DESIGN.md §16); `--shards 1` is byte-identical
//! to the unsharded default.
//!
//! With `--trace PATH` the batch runs under a JSONL sink and the causal
//! event stream is written after it: every span and event carries its
//! query's deterministic trace id (derived from the query key and batch
//! index, never a clock), so two identical invocations produce
//! byte-identical trace files — asserted by the CI observability job.
//! With `--stats-out PATH` a [`flow_obs::StatsAggregator`] listens to
//! the same stream and its snapshot (latency quantiles, shed rate,
//! cache hit ratio, retries, breaker transitions; schema
//! `flow-obs/stats-v1`) is written as JSON.

use crate::output::Output;
use flow_core::{FlowError, FlowResult};
use flow_icm::synth::{skewed_probability_mixture, synthetic_icm};
use flow_icm::Icm;
use flow_serve::{
    parse_query_file, ModelSpec, QueryOutcome, ServeCache, ServeConfig, ServeEngine, Served,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;

/// Options for the `serve` subcommand.
#[derive(Clone, Debug, Default)]
pub struct ServeArgs {
    /// Query-file path.
    pub queries: String,
    /// Cache directory to load before and save after the batch.
    pub cache_dir: Option<String>,
    /// Engine seed.
    pub seed: u64,
    /// Admission step budget per batch (0 = unlimited).
    pub admission_steps: u64,
    /// Fault point to arm for chaos runs (fault-inject builds only).
    pub inject: Option<String>,
    /// Write the batch's causal JSONL trace here.
    pub trace: Option<String>,
    /// Write the aggregated runtime stats snapshot (JSON) here.
    pub stats_out: Option<String>,
    /// Shard count for the sharded router (0 or 1 = unsharded).
    pub shards: u32,
}

/// What the batch did, for the CLI's exit-code contract: queries that
/// ended in a *hard* error (typed failure, not a degraded or shed
/// answer) are counted so `repro serve` can exit nonzero on them.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeReport {
    /// Queries answered (possibly degraded).
    pub answered: u64,
    /// Queries shed by admission control (retryable, not hard).
    pub rejected: u64,
    /// Queries that failed with a hard typed error.
    pub hard_failures: u64,
}

fn build_model(spec: &ModelSpec) -> Icm {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5E17_E000);
    if spec.communities <= 1 {
        return synthetic_icm(
            &mut rng,
            spec.nodes,
            spec.edges,
            skewed_probability_mixture(),
        );
    }
    // Disjoint communities: generate each as its own random graph and
    // lay them out side by side, so every community is a separate weak
    // component and `--shards` routing has locality to exploit.
    let per = spec.communities as usize;
    let n_each = (spec.nodes / per).max(2);
    let m_each = (spec.edges / per).max(1);
    let mut prob = skewed_probability_mixture();
    let mut builder = flow_graph::GraphBuilder::new(n_each * per);
    let mut probs = Vec::new();
    for c in 0..per {
        let sub = flow_graph::generate::uniform_edges(&mut rng, n_each, m_each);
        let base = (c * n_each) as u32;
        for e in sub.edges() {
            let (u, v) = sub.endpoints(e);
            if builder
                .add_edge(
                    flow_graph::NodeId(base + u.0),
                    flow_graph::NodeId(base + v.0),
                )
                .is_ok()
            {
                probs.push(prob(&mut rng));
            }
        }
    }
    Icm::new(builder.build(), probs)
}

/// Renders one outcome as a deterministic JSONL line.
fn outcome_jsonl(index: usize, outcome: &QueryOutcome) -> String {
    match outcome {
        QueryOutcome::Answered(a) => {
            let mut degradations: Vec<String> = a
                .degradation
                .iter()
                .map(|d| format!("\"{}\"", d.obs_name()))
                .collect();
            degradations.sort();
            format!(
                "{{\"query\":{index},\"status\":\"answered\",\"estimate\":{:?},\"half_width\":{:?},\"samples\":{},\"degradation\":[{}]}}",
                a.estimate,
                a.half_width,
                a.samples,
                degradations.join(",")
            )
        }
        QueryOutcome::Rejected { error } => {
            let retry_after = match error {
                FlowError::Overloaded { retry_after_ms, .. } => *retry_after_ms,
                _ => 0,
            };
            format!(
                "{{\"query\":{index},\"status\":\"rejected\",\"retry_after_ms\":{retry_after}}}"
            )
        }
        QueryOutcome::Failed(e) => format!(
            "{{\"query\":{index},\"status\":\"failed\",\"error\":{:?}}}",
            e.to_string()
        ),
    }
}

/// Renders a batch's outcomes as deterministic JSONL, one line per
/// query in submission order: the `repro serve` results file and the
/// `repro stream` per-epoch answer files.
pub(crate) fn outcomes_jsonl(outcomes: &[QueryOutcome]) -> String {
    let mut text = String::new();
    for (i, o) in outcomes.iter().enumerate() {
        text.push_str(&outcome_jsonl(i, o));
        text.push('\n');
    }
    text
}

fn served_label(outcome: &QueryOutcome) -> &'static str {
    match outcome {
        QueryOutcome::Answered(a) => match a.served {
            Served::Fresh => "fresh",
            Served::CacheHit => "cache_hit",
            Served::WarmRefinement => "refined",
            Served::ShortCircuited => "breaker",
        },
        QueryOutcome::Rejected { .. } => "rejected",
        QueryOutcome::Failed(_) => "failed",
    }
}

/// Arms one named serving-path or persistence fault point for a chaos
/// run (in `repro serve` the persistence points tear the cache file; in
/// `repro stream` they tear a snapshot or the first log append). The
/// specs are chosen so a resilient engine finishes the batch with
/// structured ok/degraded results: the worker stall fires twice
/// (recovered by the default three-attempt retry); the other points
/// stay armed for the whole run (quarantine and shedding absorb them).
#[cfg(feature = "fault-inject")]
pub(crate) fn arm_injection(point: &str) -> FlowResult<()> {
    use flow_core::fault::{self, FaultSpec};
    let (name, spec): (&'static str, FaultSpec) = match point {
        "serve.worker_stall" => (
            "serve.worker_stall",
            FaultSpec {
                skip: 0,
                times: 2,
                value: 0.0,
            },
        ),
        "serve.queue_saturate" => ("serve.queue_saturate", FaultSpec::always(0.0)),
        "persist.torn_read" => ("persist.torn_read", FaultSpec::always(0.0)),
        "persist.torn_write" => ("persist.torn_write", FaultSpec::always(0.0)),
        "persist.torn_append" => ("persist.torn_append", FaultSpec::always(0.0)),
        other => {
            return Err(FlowError::Parse {
                line: 0,
                detail: format!("unknown fault point `{other}`"),
            });
        }
    };
    fault::arm(name, spec);
    Ok(())
}

#[cfg(not(feature = "fault-inject"))]
pub(crate) fn arm_injection(point: &str) -> FlowResult<()> {
    Err(FlowError::Parse {
        line: 0,
        detail: format!(
            "--inject {point} needs a fault-inject build (cargo build --features fault-inject)"
        ),
    })
}

/// The engine configuration: defaults plus the CLI's seed, admission
/// budget and shard count.
fn resolve_config(args: &ServeArgs) -> ServeConfig {
    let mut config = ServeConfig {
        engine_seed: args.seed,
        shards: args.shards.max(1),
        ..Default::default()
    };
    config.executor.admission_step_budget = args.admission_steps;
    config
}

/// Runs the serve subcommand end to end. The returned report carries
/// the hard-failure count for the binary's exit-code contract.
pub fn run_serve(args: &ServeArgs, out: &Output) -> FlowResult<ServeReport> {
    let text = std::fs::read_to_string(&args.queries).map_err(|e| FlowError::Io {
        detail: format!("cannot read query file {}: {e}", args.queries),
    })?;
    let file = parse_query_file(&text)?;
    let Some(model_spec) = file.model else {
        return Err(FlowError::Parse {
            line: 0,
            detail: "query file has no `model` line; `repro serve` needs one".into(),
        });
    };
    let queries = file.to_queries()?;
    let icm = build_model(&model_spec);

    if let Some(point) = &args.inject {
        arm_injection(point)?;
        out.line(format!("fault injection armed: {point}"));
    }

    let config = resolve_config(args);
    let cache = match &args.cache_dir {
        Some(dir) => ServeCache::load_from_dir(Path::new(dir), config.cache_bytes)?,
        None => ServeCache::new(config.cache_bytes),
    };
    let preloaded = cache.len();
    let shards = config.shards;
    let mut engine = ServeEngine::builder().config(config).cache(cache).build()?;

    out.heading(&format!(
        "serve — {} queries against a {}-node/{}-edge synthetic ICM (seed {}), {} cached entries preloaded{}",
        queries.len(),
        icm.node_count(),
        icm.edge_count(),
        args.seed,
        preloaded,
        if shards > 1 {
            format!(", {shards} shards")
        } else {
            String::new()
        }
    ));

    // Telemetry for --trace / --stats-out, installed as a *scoped*
    // (thread-local) recorder so concurrent tests never observe each
    // other's events; the executor re-installs the caller's recorder
    // inside its worker threads, so worker spans land here too.
    let jsonl = args
        .trace
        .as_ref()
        .map(|_| Arc::new(flow_obs::JsonlSink::new()));
    let agg = args
        .stats_out
        .as_ref()
        .map(|_| Arc::new(flow_obs::StatsAggregator::new()));
    let recorder = {
        let mut sinks: Vec<Arc<dyn flow_obs::Recorder>> = Vec::new();
        if let Some(j) = &jsonl {
            sinks.push(j.clone());
        }
        if let Some(a) = &agg {
            sinks.push(a.clone());
        }
        match sinks.len() {
            0 => None,
            1 => Some(flow_obs::ScopedRecorder::install(
                sinks.pop().expect("len checked"),
            )),
            _ => Some(flow_obs::ScopedRecorder::install(Arc::new(
                flow_obs::MultiSink::new(sinks),
            ))),
        }
    };

    let outcomes = engine.execute_batch(&icm, &queries);

    // A batch boundary is the aggregator's logical window roll — the
    // windowed counters advance per batch, never per wall-clock tick.
    if let Some(a) = &agg {
        a.roll_windows();
    }
    drop(recorder);
    if let (Some(path), Some(sink)) = (&args.trace, &jsonl) {
        sink.write_to(Path::new(path)).map_err(|e| FlowError::Io {
            detail: format!("cannot write trace {path}: {e}"),
        })?;
        out.line(format!("trace: wrote {path} ({} events)", sink.len()));
    }
    if let (Some(path), Some(a)) = (&args.stats_out, &agg) {
        std::fs::write(path, a.snapshot().render_json()).map_err(|e| FlowError::Io {
            detail: format!("cannot write stats {path}: {e}"),
        })?;
        out.line(format!("stats: wrote {path}"));
    }

    let mut report = ServeReport::default();
    for o in &outcomes {
        match o {
            QueryOutcome::Answered(_) => report.answered += 1,
            QueryOutcome::Rejected { .. } => report.rejected += 1,
            QueryOutcome::Failed(_) => report.hard_failures += 1,
        }
    }

    let results = outcomes_jsonl(&outcomes);
    let stats = engine.stats();
    let stats_json = format!(
        "{{\n  \"queries\": {},\n  \"answered\": {},\n  \"cache_hits\": {},\n  \"fresh\": {},\n  \"refined\": {},\n  \"rejected\": {},\n  \"failed\": {},\n  \"plans\": {},\n  \"steps\": {},\n  \"degraded\": {},\n  \"retries\": {},\n  \"shed\": {},\n  \"breaker_answers\": {},\n  \"cache_quarantined\": {}\n}}\n",
        stats.queries,
        stats.answered,
        stats.cache_hits,
        stats.fresh,
        stats.refined,
        stats.rejected,
        stats.failed,
        stats.plans,
        stats.steps,
        stats.degraded,
        stats.retries,
        stats.shed,
        stats.breaker_answers,
        engine.cache().quarantined()
    );

    out.write_file("serve_results.jsonl", &results)?;
    out.write_file("serve_stats.json", &stats_json)?;

    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let (estimate, hw, samples) = match o {
                QueryOutcome::Answered(a) => (
                    format!("{:.4}", a.estimate),
                    format!("{:.4}", a.half_width),
                    a.samples.to_string(),
                ),
                _ => ("-".into(), "-".into(), "-".into()),
            };
            vec![
                i.to_string(),
                served_label(o).to_string(),
                estimate,
                hw,
                samples,
            ]
        })
        .collect();
    out.table(
        &["query", "served", "estimate", "half_width", "samples"],
        &rows,
    );
    out.line(format!(
        "plans {}  steps {}  cache hits {}  fresh {}  refined {}  rejected {}  failed {}  degraded {}",
        stats.plans,
        stats.steps,
        stats.cache_hits,
        stats.fresh,
        stats.refined,
        stats.rejected,
        stats.failed,
        stats.degraded
    ));
    out.line(format!(
        "resilience: retries {}  shed {}  breaker answers {}  cache blocks quarantined {}",
        stats.retries,
        stats.shed,
        stats.breaker_answers,
        engine.cache().quarantined()
    ));
    if shards > 1 {
        let per_shard = engine.shard_stats();
        let routed: u64 = per_shard.iter().map(|s| s.queries).sum();
        out.line(format!(
            "sharding: {} shard engines served {} routed quer{} ({} on the global path)",
            per_shard.len(),
            routed,
            if routed == 1 { "y" } else { "ies" },
            stats.queries.saturating_sub(routed)
        ));
    }

    if let Some(dir) = &args.cache_dir {
        engine.cache().save_to_dir(Path::new(dir))?;
        out.line(format!(
            "cache: {} entries (~{} bytes) saved to {dir}",
            engine.cache().len(),
            engine.cache().bytes()
        ));
    }
    if report.hard_failures > 0 {
        out.line(format!(
            "WARNING: {} quer{} ended in a hard error",
            report.hard_failures,
            if report.hard_failures == 1 {
                "y"
            } else {
                "ies"
            }
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUERY_FILE: &str = "\
{\"model\": {\"nodes\": 30, \"edges\": 90, \"seed\": 7}}
{\"source\": 0, \"sink\": 5}
{\"source\": 0, \"sink\": 9, \"tolerance\": 0.05}
{\"source\": 3, \"community\": [7, 8, 9]}
";

    #[test]
    fn serve_runs_twice_with_warm_cache_and_identical_results() {
        let dir = std::env::temp_dir().join(format!("flowexp-serve-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let queries = dir.join("queries.jsonl");
        std::fs::write(&queries, QUERY_FILE).unwrap();

        let run = |out_sub: &str| {
            let args = ServeArgs {
                queries: queries.display().to_string(),
                cache_dir: Some(dir.join("cache").display().to_string()),
                seed: 3,
                ..Default::default()
            };
            let out = Output::to_dir(dir.join(out_sub));
            run_serve(&args, &out).unwrap();
            (
                std::fs::read_to_string(dir.join(out_sub).join("serve_results.jsonl")).unwrap(),
                std::fs::read_to_string(dir.join(out_sub).join("serve_stats.json")).unwrap(),
            )
        };

        let (cold_results, cold_stats) = run("cold");
        let (warm_results, warm_stats) = run("warm");
        assert_eq!(
            cold_results, warm_results,
            "cache hits must be byte-identical to fresh sampling"
        );
        assert!(cold_stats.contains("\"cache_hits\": 0"), "{cold_stats}");
        assert!(warm_stats.contains("\"cache_hits\": 3"), "{warm_stats}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tracing_does_not_perturb_serve_results() {
        // --trace / --stats-out must be pure observers: the results
        // file is byte-identical with them on or off, and two traced
        // runs produce byte-identical trace files.
        let dir = std::env::temp_dir().join(format!("flowexp-serve-trace-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let queries = dir.join("queries.jsonl");
        std::fs::write(&queries, QUERY_FILE).unwrap();
        let run = |sub: &str, traced: bool| {
            let args = ServeArgs {
                queries: queries.display().to_string(),
                seed: 11,
                trace: traced.then(|| dir.join(format!("{sub}.trace.jsonl")).display().to_string()),
                stats_out: traced
                    .then(|| dir.join(format!("{sub}.stats.json")).display().to_string()),
                ..Default::default()
            };
            run_serve(&args, &Output::to_dir(dir.join(sub))).unwrap();
            std::fs::read_to_string(dir.join(sub).join("serve_results.jsonl")).unwrap()
        };
        let plain = run("plain", false);
        let traced_a = run("ta", true);
        let traced_b = run("tb", true);
        assert_eq!(plain, traced_a, "tracing must not change answers");
        assert_eq!(traced_a, traced_b);
        let trace_a = std::fs::read_to_string(dir.join("ta.trace.jsonl")).unwrap();
        let trace_b = std::fs::read_to_string(dir.join("tb.trace.jsonl")).unwrap();
        assert_eq!(trace_a, trace_b, "serve traces must be byte-identical");
        assert!(trace_a.contains("serve.query.resolved"));
        let stats = std::fs::read_to_string(dir.join("ta.stats.json")).unwrap();
        assert!(
            stats.contains("\"schema\": \"flow-obs/stats-v1\""),
            "{stats}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_serve_answers_everything_and_shards_one_is_identical() {
        let dir = std::env::temp_dir().join(format!("flowexp-serve-shards-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let queries = dir.join("queries.jsonl");
        std::fs::write(&queries, QUERY_FILE).unwrap();
        let run = |sub: &str, shards: u32| {
            let args = ServeArgs {
                queries: queries.display().to_string(),
                seed: 5,
                shards,
                ..Default::default()
            };
            run_serve(&args, &Output::to_dir(dir.join(sub))).unwrap();
            std::fs::read_to_string(dir.join(sub).join("serve_results.jsonl")).unwrap()
        };
        let unsharded = run("s0", 0);
        let one = run("s1", 1);
        assert_eq!(unsharded, one, "--shards 1 must be byte-identical");
        let four = run("s4", 4);
        for line in four.lines() {
            assert!(line.contains("\"status\":\"answered\""), "{line}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn admission_budget_sheds_queries_as_structured_rejections() {
        let dir = std::env::temp_dir().join(format!("flowexp-serve-shed-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let queries = dir.join("queries.jsonl");
        std::fs::write(&queries, QUERY_FILE).unwrap();
        // Two plans (sources 0 and 3); a one-step budget admits only
        // the first, which admission never sheds.
        let args = ServeArgs {
            queries: queries.display().to_string(),
            seed: 3,
            admission_steps: 1,
            ..Default::default()
        };
        let report = run_serve(&args, &Output::to_dir(dir.join("out"))).unwrap();
        assert_eq!(report.hard_failures, 0);
        assert_eq!((report.answered, report.rejected), (2, 1));
        let results = std::fs::read_to_string(dir.join("out").join("serve_results.jsonl")).unwrap();
        assert!(!results.contains("\"status\":\"failed\""), "{results}");
        let rejected: Vec<serde_json::Value> = results
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .filter(|v: &serde_json::Value| {
                matches!(v.get("status"), Some(serde_json::Value::Str(s)) if s == "rejected")
            })
            .collect();
        assert_eq!(rejected.len(), 1, "{results}");
        for v in &rejected {
            assert!(
                matches!(v.get("retry_after_ms"), Some(serde_json::Value::U64(ms)) if *ms >= 1),
                "{results}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_rejects_files_without_a_model_line() {
        let dir =
            std::env::temp_dir().join(format!("flowexp-serve-nomodel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let queries = dir.join("queries.jsonl");
        std::fs::write(&queries, "{\"source\": 0, \"sink\": 1}\n").unwrap();
        let args = ServeArgs {
            queries: queries.display().to_string(),
            cache_dir: None,
            seed: 0,
            ..Default::default()
        };
        let err = run_serve(&args, &Output::stdout_only()).unwrap_err();
        assert!(matches!(err, FlowError::Parse { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <subcommand> [--scale S] [--seed N] [--out DIR] [--no-csv] [--resume]
//!                    [--trace PATH] [--metrics]
//! repro report <trace.jsonl> [--by-query]
//! repro serve <queries.jsonl> [--cache-dir DIR] [--out DIR] [--seed N]
//!                             [--admission-steps N] [--inject POINT]
//!                             [--shards K] [--trace PATH] [--stats-out PATH]
//! repro stream <events.jsonl> [--snap-dir DIR] [--out DIR] [--seed N]
//!                              [--resume] [--inject POINT]
//! repro perf diff [--baseline PATH] [--bench PATH]... [--append PATH]
//!                 [--label NAME]
//!
//! subcommands:
//!   fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
//!   table1 table3 ablation appendix flow all report serve
//! ```
//!
//! `--scale` multiplies replication counts (default 1.0; ~5 approaches
//! the paper's levels). `--seed` fixes all randomness. CSVs land in
//! `--out` (default `results/`).
//!
//! `flow` runs a long checkpointed MH flow query, writing periodic
//! checkpoints under `<out>/checkpoints/`; `--resume` continues a
//! killed run from its latest checkpoint (bit-identical to an
//! uninterrupted run).
//!
//! `--trace PATH` records the run's structured event stream to a
//! deterministic JSONL file (same seed → byte-identical trace);
//! `--metrics` prints the `flow_obs::StatsAggregator` text snapshot
//! (quantiles, counters, gauges, event counts) to stderr on exit.
//! `report` renders a recorded trace back into ascii tables; with
//! `--by-query` it instead reconstructs the causal span tree per query
//! trace and prints each query's critical path and phase breakdown.
//! `report` exits 2 on usage errors (missing path argument), 1 on
//! infrastructure errors (unreadable file, or a file with zero
//! parseable events); a trace whose final line was torn by a killed
//! writer still renders its intact prefix and exits 0.
//!
//! `serve` batch-serves a JSONL query file through the flow-serve
//! engine, writing `serve_results.jsonl` + `serve_stats.json` to
//! `--out`; with `--cache-dir` the estimate cache persists across
//! invocations, so a repeated run answers from warm cache entries.
//! `--admission-steps` bounds the admitted step budget per batch (0 =
//! unlimited, the default); retries and circuit breakers always run
//! with the engine's defaults. `--inject POINT` (fault-inject builds
//! only) arms a named serving-path fault point. `--trace PATH` writes
//! the serving path's causal JSONL trace (every span/event carries the
//! query's deterministic trace id; two identical invocations produce
//! byte-identical traces), and `--stats-out PATH` writes the aggregated
//! runtime stats snapshot (latency quantiles, shed rate, cache hit
//! ratio, retries, breaker transitions; schema `flow-obs/stats-v1`).
//! Exit codes: 0 = every query ended ok, degraded, rejected, or shed;
//! 1 = infrastructure error (bad query file, unwritable output); 2 =
//! usage error; 3 = at least one query ended in a hard (non-degraded)
//! error.
//!
//! `stream` replays a JSONL cascade event log through the streaming
//! pipeline (see `flow-stream`): every `{"seal": true}` marker seals an
//! epoch — the delta is learned incrementally and made durable under
//! `--snap-dir` (default `<out>/snapshots`) as a synced log record, or
//! a synced snapshot when one is due, the new version is hot-swapped
//! into a serving engine, and a fixed graph-derived query set is
//! served, writing `stream_serve_epoch{N}.jsonl` per epoch plus
//! `stream_stats.json`. `--resume` continues a killed replay of the
//! same log: it recovers the newest durable epoch, serves it again and
//! skips the event-log lines that epoch consumed, so every later answer
//! file matches an uninterrupted run. `--inject POINT` (fault-inject
//! builds only) arms a persistence fault point, e.g.
//! `persist.torn_append`. Rejected events
//! (malformed/late/duplicate/inconsistent) are counted, reported, and
//! dropped without aborting the replay. Exit codes: 0 = replay
//! completed and the warm-vs-cold swap-equivalence check held, 1 =
//! infrastructure error, 2 = usage error, 3 = equivalence mismatch.
//!
//! `perf diff` compares the committed bench result files against
//! `perf-baseline.json` and exits 3 if any baselined metric regressed
//! beyond its noise band, 1 on missing/unparseable files or schema
//! drift, 0 when all metrics hold. `--append PATH` appends the
//! normalized run to a JSONL trajectory file.

use flow_exp::runners::{self, ExpConfig};
use flow_exp::{CheckpointStore, Output};
use std::sync::Arc;

/// The experiment subcommands [`run`] dispatches.
const EXPERIMENTS: [&str; 17] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "table1", "table3", "ablation", "appendix", "flow", "all",
];

fn usage() -> ! {
    eprintln!(
        "usage: repro <{}> \
         [--scale S] [--seed N] [--out DIR] [--no-csv] [--resume] [--trace PATH] [--metrics]\n\
         repro report <trace.jsonl> [--by-query]\n\
         repro serve <queries.jsonl> [--cache-dir DIR] [--out DIR] [--seed N]\n\
                     [--admission-steps N] [--inject POINT] [--shards K]\n\
                     [--trace PATH] [--stats-out PATH]\n\
         repro stream <events.jsonl> [--snap-dir DIR] [--out DIR] [--seed N]\n\
                      [--resume] [--inject POINT]\n\
         repro perf diff [--baseline PATH] [--bench PATH]... [--append PATH] [--label NAME]",
        EXPERIMENTS.join("|")
    );
    std::process::exit(2);
}

fn run_perf_command(args: &[String]) -> ! {
    // Only `perf diff` exists today; an explicit match keeps room for
    // `perf bless` later without repurposing flags.
    if args.get(1).map(String::as_str) != Some("diff") {
        usage();
    }
    let mut perf_args = runners::perf::PerfDiffArgs::default();
    let mut bench_files: Vec<String> = Vec::new();
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" => {
                i += 1;
                perf_args.baseline = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--bench" => {
                i += 1;
                bench_files.push(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--append" => {
                i += 1;
                perf_args.append = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--label" => {
                i += 1;
                perf_args.label = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }
    if !bench_files.is_empty() {
        perf_args.bench_files = bench_files;
    }
    match runners::perf::run_perf_diff(&perf_args, &Output::stdout_only()) {
        Ok(runners::perf::PerfVerdict::Clean) => std::process::exit(0),
        Ok(runners::perf::PerfVerdict::Regressed) => {
            eprintln!("error: performance regression beyond the baseline noise band");
            std::process::exit(3);
        }
        Ok(runners::perf::PerfVerdict::MissingMetrics) => {
            eprintln!("error: baselined metrics missing from the current bench output");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: perf diff failed: {e}");
            std::process::exit(1);
        }
    }
}

fn run_serve_command(args: &[String]) -> ! {
    let mut serve_args = runners::serve::ServeArgs::default();
    let mut out_dir = Some("results".to_string());
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--cache-dir" => {
                i += 1;
                serve_args.cache_dir = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--out" => {
                i += 1;
                out_dir = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--no-csv" => out_dir = None,
            "--seed" => {
                i += 1;
                serve_args.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--admission-steps" => {
                i += 1;
                serve_args.admission_steps = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--shards" => {
                i += 1;
                serve_args.shards = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--inject" => {
                i += 1;
                serve_args.inject = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--trace" => {
                i += 1;
                serve_args.trace = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--stats-out" => {
                i += 1;
                serve_args.stats_out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            positional if serve_args.queries.is_empty() && !positional.starts_with('-') => {
                serve_args.queries = positional.to_string();
            }
            _ => usage(),
        }
        i += 1;
    }
    if serve_args.queries.is_empty() {
        usage();
    }
    let out = match &out_dir {
        Some(d) => Output::to_dir(d),
        None => Output::stdout_only(),
    };
    match runners::serve::run_serve(&serve_args, &out) {
        // Hard failures are a distinct exit code (3) so operators and CI
        // can tell "every query got a structured answer, some degraded"
        // (0) from "a query actually failed" without parsing JSONL.
        Ok(report) if report.hard_failures > 0 => std::process::exit(3),
        Ok(_) => std::process::exit(0),
        Err(e) => {
            eprintln!("error: serve failed: {e}");
            std::process::exit(1);
        }
    }
}

fn run_stream_command(args: &[String]) -> ! {
    let mut stream_args = runners::stream::StreamArgs::default();
    let mut out_dir = Some("results".to_string());
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--snap-dir" => {
                i += 1;
                stream_args.snap_dir = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--out" => {
                i += 1;
                out_dir = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--no-csv" => out_dir = None,
            "--seed" => {
                i += 1;
                stream_args.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--resume" => stream_args.resume = true,
            "--inject" => {
                i += 1;
                stream_args.inject = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            positional if stream_args.events.is_empty() && !positional.starts_with('-') => {
                stream_args.events = positional.to_string();
            }
            _ => usage(),
        }
        i += 1;
    }
    if stream_args.events.is_empty() {
        usage();
    }
    let out = match &out_dir {
        Some(d) => Output::to_dir(d),
        None => Output::stdout_only(),
    };
    match runners::stream::run_stream(&stream_args, &out) {
        // Exit 3 marks a swap-equivalence violation — the warm engine
        // answered the final model differently than a cold one would.
        Ok(report) if !report.equivalence_ok => std::process::exit(3),
        Ok(_) => std::process::exit(0),
        Err(e) => {
            eprintln!("error: stream failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let command = args[0].clone();
    if command == "serve" {
        run_serve_command(&args);
    }
    if command == "stream" {
        run_stream_command(&args);
    }
    if command == "perf" {
        run_perf_command(&args);
    }
    if command == "report" {
        let Some(path) = args.get(1) else { usage() };
        if path.starts_with('-') {
            usage();
        }
        let mut by_query = false;
        for flag in &args[2..] {
            match flag.as_str() {
                "--by-query" => by_query = true,
                _ => usage(),
            }
        }
        match runners::trace_report::run_report(path, by_query, &Output::stdout_only()) {
            Ok(_) => return,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    if !EXPERIMENTS.contains(&command.as_str()) {
        usage();
    }
    let mut cfg = ExpConfig::default();
    let mut out_dir = Some("results".to_string());
    let mut resume = false;
    let mut trace_path: Option<String> = None;
    let mut metrics = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                cfg.scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                cfg.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                out_dir = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--no-csv" => out_dir = None,
            "--resume" => resume = true,
            "--trace" => {
                i += 1;
                trace_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--metrics" => metrics = true,
            _ => usage(),
        }
        i += 1;
    }
    let out = match &out_dir {
        Some(d) => Output::to_dir(d),
        None => Output::stdout_only(),
    };
    // Telemetry: a deterministic JSONL sink for --trace, a stats
    // aggregator for --metrics, both behind one global recorder.
    let jsonl = trace_path
        .as_ref()
        .map(|_| Arc::new(flow_obs::JsonlSink::new()));
    let stats = metrics.then(|| Arc::new(flow_obs::StatsAggregator::new()));
    {
        let mut sinks: Vec<Arc<dyn flow_obs::Recorder>> = Vec::new();
        if let Some(j) = &jsonl {
            sinks.push(j.clone());
        }
        if let Some(s) = &stats {
            sinks.push(s.clone());
        }
        match sinks.len() {
            0 => {}
            1 => flow_obs::set_global(sinks.pop()),
            _ => flow_obs::set_global(Some(Arc::new(flow_obs::MultiSink::new(sinks)))),
        }
    }
    // Progress reporting only; results depend solely on the seed.
    #[allow(clippy::disallowed_methods)]
    let started = std::time::Instant::now();
    let ran = run(&command, &cfg, &out, resume);
    // Flush telemetry before the done line so operator output reads in
    // order: trace file first, then metrics, then the runtime summary.
    flow_obs::set_global(None);
    if let (Some(path), Some(sink)) = (&trace_path, &jsonl) {
        match sink.write_to(std::path::Path::new(path)) {
            Ok(()) => println!("  [wrote {} ({} events)]", path, sink.len()),
            Err(e) => eprintln!("warning: cannot write trace {path}: {e}"),
        }
    }
    if let Some(stats) = &stats {
        eprintln!("{}", stats.snapshot().render_text());
    }
    if let Err(e) = ran {
        eprintln!("error: {command} failed: {e}");
        std::process::exit(1);
    }
    println!(
        "\ndone ({}) in {:.1}s  [seed {}, scale {}]",
        command,
        started.elapsed().as_secs_f64(),
        cfg.seed,
        cfg.scale
    );
}

/// Runs one experiment subcommand. An error is a result file that could
/// not be written.
fn run(command: &str, cfg: &ExpConfig, out: &Output, resume: bool) -> std::io::Result<()> {
    match command {
        "fig1" => {
            runners::fig01_synthetic_bucket::run_fig1(cfg, out)?;
        }
        "fig2" => {
            runners::fig02_attributed::run_fig2(cfg, out)?;
        }
        "fig3" => {
            runners::fig03_uncertainty::run_fig3(cfg, out)?;
        }
        "fig4" => {
            runners::fig04_impact::run_fig4(cfg, out)?;
        }
        "fig5" => {
            runners::fig01_synthetic_bucket::run_fig5(cfg, out)?;
        }
        "fig6" => {
            runners::fig06_timing::run_fig6(cfg, out)?;
        }
        "fig7" => {
            runners::fig07_rmse::run_fig7(cfg, out)?;
        }
        "fig8" => {
            runners::fig08_tags::run_fig8(cfg, out)?;
        }
        "fig9" => {
            runners::fig08_tags::run_fig9(cfg, out)?;
        }
        "fig10" => {
            runners::fig08_tags::run_fig10(cfg, out)?;
        }
        "fig11" => {
            runners::fig11_multimodal::run_fig11(cfg, out)?;
        }
        "table1" => {
            runners::table1::run_table1(cfg, out);
        }
        "ablation" => {
            runners::ablation::run_ablation(cfg, out)?;
        }
        "appendix" => {
            runners::appendix::run_appendix(cfg, out)?;
        }
        "table3" => {
            runners::table3::run_table3(cfg, out)?;
        }
        "flow" => {
            // Checkpoints live next to the CSVs; without an output
            // directory the flow runner still works, it just cannot
            // persist or resume.
            let store = match out
                .dir()
                .map(|d| CheckpointStore::open(d.join("checkpoints")))
            {
                Some(Ok(store)) => Some(store),
                Some(Err(e)) => {
                    eprintln!("warning: cannot open checkpoint directory: {e}");
                    None
                }
                None => None,
            };
            if let Err(e) =
                runners::flow_query::run_flow_checkpointed(cfg, out, store.as_ref(), resume)
            {
                eprintln!("error: flow query failed: {e}");
                std::process::exit(1);
            }
        }
        "all" => {
            // Table III re-runs Figs. 1, 2, 5 and 8 and tabulates their
            // pairs, so run it first and then the remaining figures.
            let mut rows = runners::table3::run_table3(cfg, out)?;
            runners::fig03_uncertainty::run_fig3(cfg, out)?;
            runners::fig04_impact::run_fig4(cfg, out)?;
            runners::fig06_timing::run_fig6(cfg, out)?;
            runners::fig07_rmse::run_fig7(cfg, out)?;
            for r in runners::fig08_tags::run_fig9(cfg, out)? {
                rows.push(runners::table3::metrics_row(
                    &format!("{} - Fig. 9", r.label),
                    &r.pairs,
                ));
            }
            let fig10 = runners::fig08_tags::run_fig10(cfg, out)?;
            rows.push(runners::table3::metrics_row(
                "fig10_gaussian - Fig. 10",
                &fig10.pairs,
            ));
            runners::fig11_multimodal::run_fig11(cfg, out)?;
            runners::table1::run_table1(cfg, out);
            runners::ablation::run_ablation(cfg, out)?;
            runners::appendix::run_appendix(cfg, out)?;
            out.heading("Table III (extended, all bucket experiments)");
            runners::table3::render(&rows, out)?;
        }
        _ => usage(),
    }
    Ok(())
}

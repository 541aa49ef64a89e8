//! CLI driver: `cargo run -p flow-analyze -- <check|replay> [..]`.
//!
//! Exit codes follow the `repro serve` contract:
//!   0 — clean (no findings, ratchet holds)
//!   1 — contract violation (lint findings, baseline ratchet
//!       failure, replay divergence) or an
//!       infrastructure error while running the analysis
//!   2 — usage error (bad flags, unknown subcommand, no subcommand)

use flow_analyze::graph::uncalled_public;
use flow_analyze::replay::{run_replay, ReplayConfig};
use flow_analyze::{
    baseline, check_paths, check_workspace, emit, find_workspace_root, scan_workspace,
};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
flow-analyze — workspace static analysis + determinism audit

USAGE:
    flow-analyze check [--root DIR] [--verbose] [--format text|json]
                       [--baseline FILE] [--write-baseline FILE]
                       [--paths FILE..]
    flow-analyze uncalled [--root DIR]
    flow-analyze replay [--seed N] [--chains N] [--samples N]
                        [--nodes N] [--edges N]

check   runs the line lints L1-L6 + L10 over crates/ and the
        interprocedural lints L7-L9 (panic reachability, error-drop
        taint, concurrency audit) over a call graph of crates/, src/,
        examples/, tests/ and servebench/, honouring
        `// flow-analyze: allow(Lx: why)` escape comments.
        --format json emits a deterministic report on stdout.
        --baseline diffs suppression counts against FILE (defaults
        to crates/flow-analyze/analyze-baseline.json when present);
        counts may only move down. --write-baseline regenerates FILE
        from the current counts instead of diffing.
        With --paths, lints exactly the given files with every lint
        enabled and no baseline (self-test mode).
uncalled
        lists every public function under crates/ that no non-test
        code calls, over the call graph of crates/, src/, examples/,
        tests/ and servebench/. Test code is #[cfg(test)] spans and
        files under tests/ directories. A report, not a gate.
replay  runs the parallel multi-chain estimator twice with one
        seed and diffs the trajectories step-by-step; any
        divergence is a determinism bug.

EXIT CODES:
    0  clean    1  findings / ratchet / infra error    2  usage
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("uncalled") => cmd_uncalled(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("--help") | Some("-h") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        None => usage_error("a subcommand is required"),
        Some(other) => usage_error(&format!("unknown subcommand {other:?}")),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

fn cmd_check(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut verbose = false;
    let mut format = Format::Text;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage_error("--root needs a value"),
            },
            "--verbose" | "-v" => verbose = true,
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some(other) => {
                    return usage_error(&format!("--format must be text or json, got {other:?}"))
                }
                None => return usage_error("--format needs a value"),
            },
            "--baseline" => match it.next() {
                Some(v) => baseline_path = Some(PathBuf::from(v)),
                None => return usage_error("--baseline needs a value"),
            },
            "--write-baseline" => match it.next() {
                Some(v) => write_baseline = Some(PathBuf::from(v)),
                None => return usage_error("--write-baseline needs a value"),
            },
            "--paths" => {
                paths.extend(it.by_ref().map(PathBuf::from));
            }
            other => return usage_error(&format!("unknown check flag {other:?}")),
        }
    }
    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => return usage_error("could not locate the workspace root; pass --root"),
    };

    if !paths.is_empty() {
        if baseline_path.is_some() || write_baseline.is_some() {
            return usage_error("--paths mode takes no baseline (it lints explicit files)");
        }
        return match check_paths(&root, &paths) {
            Ok(findings) => {
                for f in &findings {
                    println!("{f}");
                }
                println!(
                    "flow-analyze check (paths mode): {} finding(s) in {} file(s)",
                    findings.len(),
                    paths.len()
                );
                exit_findings(findings.len())
            }
            Err(e) => infra_error(&e),
        };
    }

    let report = match check_workspace(&root) {
        Ok(r) => r,
        Err(e) => return infra_error(&e),
    };
    let counts = report.suppression_counts();

    // Ratchet: regenerate or diff. The default committed baseline is
    // enforced whenever it exists.
    let mut ratchet_failures = Vec::new();
    if let Some(path) = &write_baseline {
        let text = emit::baseline_json(&counts);
        if let Err(e) = std::fs::write(path, text) {
            return infra_error(&format!("writing {}: {e}", path.display()));
        }
        eprintln!("flow-analyze: baseline written to {}", path.display());
    } else {
        let default_path = root.join("crates/flow-analyze/analyze-baseline.json");
        let effective = baseline_path.or_else(|| default_path.exists().then_some(default_path));
        if let Some(path) = effective {
            match std::fs::read_to_string(&path) {
                Ok(text) => match baseline::parse(&text) {
                    Ok(base) => ratchet_failures = baseline::compare(&counts, &base),
                    Err(e) => return infra_error(&format!("{}: {e}", path.display())),
                },
                Err(e) => return infra_error(&format!("reading {}: {e}", path.display())),
            }
        }
    }

    if format == Format::Json {
        print!("{}", emit::report_json(&report));
        for failure in &ratchet_failures {
            eprintln!("ratchet: {failure}");
        }
        return exit_findings(report.findings.len() + ratchet_failures.len());
    }

    for f in &report.findings {
        println!("{f}");
    }
    if verbose {
        for f in &report.escaped {
            println!("(escaped) {f}");
        }
    }
    for failure in &ratchet_failures {
        println!("error: ratchet: {failure}");
    }
    println!(
        "flow-analyze check: {} file(s) scanned, {} finding(s), {} escaped",
        report.files_scanned,
        report.findings.len(),
        report.escaped.len()
    );
    exit_findings(report.findings.len() + ratchet_failures.len())
}

fn cmd_uncalled(args: &[String]) -> ExitCode {
    let root = match args {
        [] => std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d)),
        [flag, dir] if flag == "--root" => Some(PathBuf::from(dir)),
        _ => return usage_error("uncalled takes only --root DIR"),
    };
    let Some(root) = root else {
        return usage_error("could not locate the workspace root; pass --root");
    };
    let (_, table, graph) = match scan_workspace(&root) {
        Ok(scan) => scan,
        Err(e) => return infra_error(&e),
    };
    let uncalled = uncalled_public(&table, &graph);
    for &id in &uncalled {
        let f = &table.fns[id];
        println!("{}:{} {}", f.rel, f.line, f.qualified());
    }
    println!(
        "flow-analyze uncalled: {} public function(s) with no non-test caller",
        uncalled.len()
    );
    ExitCode::SUCCESS
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let mut cfg = ReplayConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let parse_num = |v: Option<&String>, what: &str| -> Result<u64, String> {
            v.ok_or_else(|| format!("{what} needs a value"))?
                .parse::<u64>()
                .map_err(|_| format!("{what} needs an integer"))
        };
        let r = match a.as_str() {
            "--seed" => parse_num(it.next(), "--seed").map(|v| cfg.seed = v),
            "--chains" => parse_num(it.next(), "--chains").map(|v| cfg.chains = v as usize),
            "--samples" => parse_num(it.next(), "--samples").map(|v| cfg.samples = v as usize),
            "--nodes" => parse_num(it.next(), "--nodes").map(|v| cfg.nodes = v as usize),
            "--edges" => parse_num(it.next(), "--edges").map(|v| cfg.edges = v as usize),
            other => Err(format!("unknown replay flag {other:?}")),
        };
        if let Err(e) = r {
            return usage_error(&e);
        }
    }
    if cfg.chains == 0 || cfg.samples == 0 || cfg.nodes < 2 {
        return usage_error("replay needs chains >= 1, samples >= 1, nodes >= 2");
    }
    let report = run_replay(&cfg);
    for d in &report.divergences {
        println!("DIVERGENCE {d}");
    }
    println!(
        "flow-analyze replay: seed {} · {} chain(s) × {} sample(s) · estimate {:.4} · {}",
        cfg.seed,
        report.chains,
        report.samples,
        report.estimate,
        if report.deterministic() {
            "bit-identical across runs and threading modes"
        } else {
            "NOT deterministic"
        }
    );
    exit_findings(report.divergences.len())
}

fn exit_findings(n: usize) -> ExitCode {
    ExitCode::from(if n == 0 { 0 } else { 1 })
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

/// An analysis that could not run is a failing run (exit 1), not a
/// usage error: CI must go red, and the caller's invocation was fine.
fn infra_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(1)
}

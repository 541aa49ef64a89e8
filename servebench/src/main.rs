//! `servebench` — the fixed-work serving benchmark.
//!
//! ```text
//! servebench --workload <cold-plain|cold-conditioned|live-sharded>
//!            --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One run: generate the workload's inputs from the seed; learn the
//! model from its bootstrap evidence log and build the engine; send the
//! fixed request sequence in a closed loop with tracing off, repeating
//! the set-up between batches at fixed positions (`setup_s` is the
//! median of `SETUP_SAMPLES` set-ups); run the correctness probes. With
//! `--trace 1` the same sequence is then replayed layer by layer under
//! the benchmark's spans. `--seconds` fixes the amount of work (see
//! `workload.rs`), never a deadline.
//!
//! Standard output ends with the run record (one JSON line) and the
//! result line `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The exit code is 0 only when every correctness check
//! passes. Scratch files (snapshot stores) live under `.bench_work/`
//! in the working directory and are removed before exit.
#![allow(clippy::disallowed_methods)]

use servebench::probes;
use servebench::replay;
use servebench::report::{self, num, obj, text, Metric};
use servebench::stack;
use servebench::sys;
use servebench::trace::Tracer;
use servebench::workload::{self, Spec, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Lowest probe coverage of the nominal 95% intervals the gate accepts.
const COVERAGE_FLOOR: f64 = 0.80;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: usize,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<usize>().map_err(|e| bad(&e))?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

struct Outcome {
    record: String,
    result: String,
    correct: bool,
}

fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let spec = Spec {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
    };
    let inputs = workload::inputs(&spec);

    // The first set-up runs where a server pays it, in the fresh
    // process, and builds the stack that serves the measured phase. The
    // others are interleaved with the phase's batches (see
    // `workload::run_timed`), so the median of all of them samples
    // machine speed over the same window as the phase. On a 2-vCPU KVM
    // guest, the median set-up over 5-s windows of back-to-back set-ups
    // ranged from 78 to 121 ms within one minute, so a run's set-ups
    // taken back to back reflect one moment's speed.
    let start = Instant::now();
    let mut stack = stack::bootstrap(
        &inputs.bootstrap,
        spec.config(),
        &work.join("serve"),
        &mut Tracer::off(),
    )?;
    let mut setup_s = vec![start.elapsed().as_secs_f64()];
    let timed = workload::run_timed(&mut stack, &inputs, spec.config(), work)?;
    setup_s.extend(&timed.setup_s);
    let tally = report::tally(&timed.answers);
    let probes = probes::run(&spec, &work.join("probes"))?;

    let mut checks: Vec<(&str, bool)> = vec![
        ("answers_in_range", tally.out_of_range == 0),
        (
            "no_rejected_or_failed_queries",
            tally.rejected + tally.failed == 0,
        ),
        ("probe_answers_valid", probes.invalid == 0),
        (
            "probe_coverage_at_least_floor",
            probes.coverage() >= COVERAGE_FLOOR,
        ),
    ];
    if spec.workload.sharded() {
        checks.push((
            "no_stale_answer_after_swap",
            probes.stale == 0
                && probes.after_swap > 0
                && probes.after_swap_coverage() >= COVERAGE_FLOOR,
        ));
    }
    let (metrics, replay_json): (Vec<Metric>, String) = if args.trace {
        let replayed = replay::replay(&spec, &inputs, &timed, &work.join("replay"))?;
        checks.push(("replay_bit_identical", replayed.mismatches.is_empty()));
        (
            report::per_layer(&spec, &timed, &replayed),
            report::replay_json(&replayed),
        )
    } else {
        (
            report::end_to_end(&timed, &tally, &probes, &setup_s),
            "null".into(),
        )
    };
    let correct = checks.iter().all(|(_, ok)| *ok);

    let check_json: Vec<(&str, String)> =
        checks.iter().map(|(n, ok)| (*n, ok.to_string())).collect();
    let notes: Vec<String> = probes.notes.iter().map(|s| text(s)).collect();
    let record = obj(&[(
        "record",
        obj(&[
            ("workload", text(spec.workload.name())),
            ("seed", spec.seed.to_string()),
            ("seconds", spec.seconds.to_string()),
            ("trace", args.trace.to_string()),
            ("cores", sys::cores().to_string()),
            ("workers", spec.config().executor.workers.to_string()),
            ("closed_loop_clients", "1".into()),
            (
                "queries",
                obj(&[
                    ("attempted", tally.attempted.to_string()),
                    ("answered", tally.answered.to_string()),
                    ("clean", tally.clean.to_string()),
                    ("rejected", tally.rejected.to_string()),
                    ("failed", tally.failed.to_string()),
                ]),
            ),
            ("wall_s", num(timed.wall_s)),
            ("cpu_s", num(timed.cpu_s)),
            ("steal_share", num(timed.steal_share)),
            ("latency_samples", timed.latencies_ms.len().to_string()),
            (
                "setup_s_samples",
                format!(
                    "[{}]",
                    setup_s
                        .iter()
                        .map(|&x| num(x))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ),
            ("update_samples", timed.update_ms.len().to_string()),
            ("traffic", report::traffic_json(&spec, &inputs, &timed)),
            ("engine", report::engine_json(&timed)),
            (
                "request_digest",
                format!(
                    "\"{:016x}\"",
                    servebench::inputs::request_digest(&inputs.batches)
                ),
            ),
            (
                "work_digest",
                format!("\"{:016x}\"", report::work_digest(&timed)),
            ),
            (
                "probes",
                obj(&[
                    ("answers", probes.answers.to_string()),
                    ("covered", probes.covered.to_string()),
                    ("after_swap", probes.after_swap.to_string()),
                    ("after_swap_covered", probes.after_swap_covered.to_string()),
                    ("stale", probes.stale.to_string()),
                    ("coverage_floor", num(COVERAGE_FLOOR)),
                    ("notes", format!("[{}]", notes.join(", "))),
                ]),
            ),
            ("checks", obj(&check_json)),
            ("replay", replay_json),
        ]),
    )]);
    let result = obj(&[
        ("correct", correct.to_string()),
        ("attempted", tally.attempted.to_string()),
        ("failed", (tally.rejected + tally.failed).to_string()),
        ("metrics", report::metrics_json(&metrics)),
    ]);
    Ok(Outcome {
        record,
        result,
        correct,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: servebench --workload <cold-plain|cold-conditioned|live-sharded> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    let outcome = run(&args, &work);
    std::fs::remove_dir_all(&work).ok();
    // Leaves the scratch root only when another run still uses it.
    std::fs::remove_dir(&root).ok();
    match outcome {
        Ok(out) => {
            println!("{}", out.record);
            println!("{}", out.result);
            if !out.correct {
                eprintln!("error: a correctness check failed; see the record's checks");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

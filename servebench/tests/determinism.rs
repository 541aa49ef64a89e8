//! Determinism self-test on shortened runs of every workload: one seed
//! gives the same request sequence and the same work (engine steps,
//! plans, hits, refines, fresh answers, invalidations per swap, answer
//! bits) twice; another seed changes both; and the traced replay
//! reproduces the timed answers bit for bit.
//!
//! `cargo test --release --offline --manifest-path servebench/Cargo.toml`

use servebench::replay;
use servebench::report::work_digest;
use servebench::stack;
use servebench::trace::Tracer;
use servebench::workload::{self, Inputs, Spec, Timed, Workload};
use std::path::PathBuf;

/// Batches kept from each workload's sequence.
const BATCHES: usize = 6;

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("servebench-{}-{name}", std::process::id()))
}

fn short_run(workload: Workload, seed: u64) -> (Spec, Inputs, Timed) {
    let spec = Spec {
        workload,
        seed,
        seconds: 1,
    };
    let mut inputs = workload::inputs(&spec);
    inputs.batches.truncate(BATCHES);
    inputs.epochs.truncate(BATCHES);
    let dir = scratch(&format!("{}-{seed}", workload.name()));
    let mut stack = stack::bootstrap(&inputs.bootstrap, spec.config(), &dir, &mut Tracer::off())
        .expect("bootstrap");
    let timed = workload::run_timed(&mut stack, &inputs, spec.config(), &dir).expect("timed run");
    std::fs::remove_dir_all(&dir).ok();
    (spec, inputs, timed)
}

fn work_counts(t: &Timed) -> [u64; 5] {
    let s = t.stats;
    [s.steps, s.plans, s.cache_hits, s.refined, s.fresh]
}

#[test]
fn same_seed_repeats_work_and_another_seed_changes_it() {
    for workload in Workload::ALL {
        let (_, inputs_a, a) = short_run(workload, 3);
        let (_, inputs_b, b) = short_run(workload, 3);
        let (_, inputs_c, c) = short_run(workload, 4);
        let digest = |i: &Inputs| servebench::inputs::request_digest(&i.batches);
        let name = workload.name();
        assert_eq!(
            digest(&inputs_a),
            digest(&inputs_b),
            "{name}: requests differ at one seed"
        );
        assert_eq!(
            work_counts(&a),
            work_counts(&b),
            "{name}: work counts differ at one seed"
        );
        assert_eq!(
            a.invalidated, b.invalidated,
            "{name}: invalidations differ at one seed"
        );
        assert_eq!(
            work_digest(&a),
            work_digest(&b),
            "{name}: work differs at one seed"
        );
        assert_ne!(
            digest(&inputs_a),
            digest(&inputs_c),
            "{name}: another seed sent the same requests"
        );
        assert_ne!(
            work_digest(&a),
            work_digest(&c),
            "{name}: another seed did the same work"
        );
        assert!(
            a.stats.steps > 0 && a.stats.plans > 0,
            "{name}: no sampling work"
        );
    }
}

#[test]
fn traced_replay_reproduces_the_timed_answers() {
    for workload in Workload::ALL {
        let (spec, inputs, timed) = short_run(workload, 5);
        let dir = scratch(&format!("replay-{}", workload.name()));
        let replayed = replay::replay(&spec, &inputs, &timed, &dir).expect("replay");
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            replayed.mismatches.is_empty(),
            "{}: {:?}",
            workload.name(),
            replayed.mismatches
        );
        assert!(
            replayed.counts.split_steps > 0,
            "{}: no chain was re-driven",
            workload.name()
        );
    }
}

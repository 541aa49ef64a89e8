//! Self-test: the lint engine must fire on each seeded fixture, stay
//! quiet on the remediated fixture, and pass the real workspace. Also
//! drives the compiled binary end-to-end to pin the exit-code contract.

use flow_analyze::{check_paths, check_workspace, find_workspace_root};
use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    find_workspace_root(here).expect("flow-analyze lives inside the workspace")
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lints_fired(name: &str) -> Vec<&'static str> {
    let root = workspace_root();
    let findings = check_paths(&root, &[fixture(name)]).expect("fixture readable");
    let mut lints: Vec<&'static str> = findings.iter().map(|f| f.lint).collect();
    lints.dedup();
    lints
}

#[test]
fn l1_fixture_trips_panic_lint() {
    let fired = lints_fired("l1_panics.rs");
    assert!(fired.contains(&"L1"), "expected L1, got {fired:?}");
}

#[test]
fn l2_fixture_trips_determinism_lint() {
    let fired = lints_fired("l2_nondeterminism.rs");
    assert!(fired.contains(&"L2"), "expected L2, got {fired:?}");
}

#[test]
fn l3_fixture_trips_float_eq_lint() {
    let fired = lints_fired("l3_float_eq.rs");
    assert!(fired.contains(&"L3"), "expected L3, got {fired:?}");
}

#[test]
fn l4_fixture_trips_probability_domain_lint() {
    let fired = lints_fired("l4_prob_domain.rs");
    assert!(fired.contains(&"L4"), "expected L4, got {fired:?}");
}

#[test]
fn l5_fixture_trips_print_lint() {
    let root = workspace_root();
    let findings = check_paths(&root, &[fixture("l5_prints.rs")]).expect("fixture readable");
    let l5: Vec<_> = findings.iter().filter(|f| f.lint == "L5").collect();
    // Two bare prints fire; the escape-commented one does not.
    assert_eq!(l5.len(), 2, "expected 2 L5 findings, got {l5:#?}");
}

#[test]
fn l6_fixture_trips_io_hygiene_lint() {
    let root = workspace_root();
    let findings = check_paths(&root, &[fixture("l6_io_unwrap.rs")]).expect("fixture readable");
    let l6: Vec<_> = findings.iter().filter(|f| f.lint == "L6").collect();
    // The unwrapped write, the discarded rename, and the expected read
    // fire; the escape-commented remove_dir_all does not.
    assert_eq!(l6.len(), 3, "expected 3 L6 findings, got {l6:#?}");
}

#[test]
fn l7_fixture_reports_the_reachable_panic_with_its_chain() {
    let root = workspace_root();
    let findings = check_paths(&root, &[fixture("l7_panic_reach.rs")]).expect("fixture readable");
    let l7: Vec<_> = findings.iter().filter(|f| f.lint == "L7").collect();
    // Only the panic reachable from the entry fires; the orphaned
    // panicky function stays quiet under L7 (it is still an L1 site).
    assert_eq!(l7.len(), 1, "expected 1 L7 finding, got {l7:#?}");
    assert!(
        l7[0]
            .message
            .contains("serve_flow_query -> helper -> deep_panic"),
        "chain missing from message: {}",
        l7[0].message
    );
}

#[test]
fn l8_fixture_trips_on_each_discard_shape_only() {
    let root = workspace_root();
    let findings = check_paths(&root, &[fixture("l8_error_drop.rs")]).expect("fixture readable");
    let l8: Vec<_> = findings.iter().filter(|f| f.lint == "L8").collect();
    // `let _ =`, unlogged `.ok();`, and the bare statement fire; the
    // propagated, logged, and infallible drops do not.
    assert_eq!(l8.len(), 3, "expected 3 L8 findings, got {l8:#?}");
}

#[test]
fn l9_fixture_trips_on_detached_workers_and_relaxed_gates_only() {
    let root = workspace_root();
    let findings = check_paths(&root, &[fixture("l9_concurrency.rs")]).expect("fixture readable");
    let l9: Vec<_> = findings.iter().filter(|f| f.lint == "L9").collect();
    // The dropped handle, the never-joined handle, and the gating
    // Relaxed load fire; the joined handle, the scoped spawn, and the
    // Relaxed counter snapshot do not.
    assert_eq!(l9.len(), 3, "expected 3 L9 findings, got {l9:#?}");
}

#[test]
fn l10_fixture_trips_on_bare_schema_strings_only() {
    let root = workspace_root();
    let findings =
        check_paths(&root, &[fixture("l10_schema_literal.rs")]).expect("fixture readable");
    let l10: Vec<_> = findings.iter().filter(|f| f.lint == "L10").collect();
    // The hand-spelled writer and reader literals fire; the
    // escape-commented golden vector does not.
    assert_eq!(l10.len(), 2, "expected 2 L10 findings, got {l10:#?}");
}

#[test]
fn clean_fixture_is_clean_under_every_lint() {
    let root = workspace_root();
    let findings = check_paths(&root, &[fixture("clean.rs")]).expect("fixture readable");
    assert!(findings.is_empty(), "clean fixture flagged: {findings:#?}");
}

#[test]
fn workspace_passes_the_contract() {
    let report = check_workspace(&workspace_root()).expect("workspace scan");
    assert!(
        report.clean(),
        "workspace has {} unallowed finding(s):\n{}",
        report.findings.len(),
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_scanned > 10,
        "scan saw only {} files",
        report.files_scanned
    );
}

#[test]
fn binary_exit_codes_match_contract() {
    let root = workspace_root();
    let bin = env!("CARGO_BIN_EXE_flow-analyze");

    // Seeded violation => exit 1.
    let bad = Command::new(bin)
        .args(["check", "--root"])
        .arg(&root)
        .arg("--paths")
        .arg(fixture("l1_panics.rs"))
        .output()
        .expect("spawn flow-analyze");
    assert_eq!(
        bad.status.code(),
        Some(1),
        "stdout: {}",
        String::from_utf8_lossy(&bad.stdout)
    );

    // Remediated workspace => exit 0.
    let good = Command::new(bin)
        .args(["check", "--root"])
        .arg(&root)
        .output()
        .expect("spawn flow-analyze");
    assert_eq!(
        good.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&good.stdout),
        String::from_utf8_lossy(&good.stderr)
    );

    // Usage error => exit 2.
    let usage = Command::new(bin)
        .arg("frobnicate")
        .output()
        .expect("spawn flow-analyze");
    assert_eq!(usage.status.code(), Some(2));

    // No subcommand at all is also a usage error => exit 2, on stderr.
    let bare = Command::new(bin).output().expect("spawn flow-analyze");
    assert_eq!(bare.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&bare.stderr).contains("USAGE"),
        "usage text must go to stderr on a usage error"
    );

    // Asking for help is not an error => exit 0, on stdout.
    let help = Command::new(bin)
        .arg("--help")
        .output()
        .expect("spawn flow-analyze");
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).contains("USAGE"));

    // An unreadable baseline is an infra failure, not usage => exit 1.
    let infra = Command::new(bin)
        .args(["check", "--root"])
        .arg(&root)
        .args(["--baseline", "/nonexistent/baseline.json"])
        .output()
        .expect("spawn flow-analyze");
    assert_eq!(infra.status.code(), Some(1));
}

#[test]
fn json_report_is_byte_identical_and_roundtrips_as_a_baseline() {
    let root = workspace_root();
    let bin = env!("CARGO_BIN_EXE_flow-analyze");
    let run = || {
        let out = Command::new(bin)
            .args(["check", "--root"])
            .arg(&root)
            .args(["--format", "json"])
            .output()
            .expect("spawn flow-analyze");
        assert_eq!(out.status.code(), Some(0), "workspace must be clean");
        out.stdout
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "two JSON runs must be byte-identical");

    // The emitted report doubles as a baseline: feeding it back into
    // the differ must pass (same counts by definition).
    let tmp = std::env::temp_dir().join(format!("flow-analyze-report-{}.json", std::process::id()));
    std::fs::write(&tmp, &first).expect("write report");
    let roundtrip = Command::new(bin)
        .args(["check", "--root"])
        .arg(&root)
        .arg("--baseline")
        .arg(&tmp)
        .output()
        .expect("spawn flow-analyze");
    let _ = std::fs::remove_file(&tmp);
    assert_eq!(
        roundtrip.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&roundtrip.stderr)
    );
}

#[test]
fn committed_baseline_matches_current_suppression_counts() {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("crates/flow-analyze/analyze-baseline.json"))
        .expect("analyze-baseline.json is committed");
    let base = flow_analyze::baseline::parse(&text).expect("baseline parses");
    let report = check_workspace(&root).expect("workspace scan");
    let counts = report.suppression_counts();
    let failures = flow_analyze::baseline::compare(&counts, &base);
    assert!(failures.is_empty(), "ratchet violations: {failures:#?}");
}

//! End-to-end tests of the `repro` binary: argument handling, output
//! files, and determinism across invocations.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    // Run in an empty directory: a rejected subcommand must not create
    // its default `results/` output there.
    let cwd = std::env::temp_dir().join(format!("repro-cli-nan-{}", std::process::id()));
    std::fs::remove_dir_all(&cwd).ok();
    std::fs::create_dir_all(&cwd).unwrap();
    let out = repro()
        .arg("figNaN")
        .current_dir(&cwd)
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "stderr: {err}");
    let left: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
    assert!(left.is_empty(), "figNaN created {left:?}");
    std::fs::remove_dir_all(&cwd).ok();
    let none = repro().output().expect("spawn");
    assert!(!none.status.success());
}

#[test]
fn table1_runs_and_prints_the_fixture() {
    let out = repro()
        .args(["table1", "--no-csv", "--scale", "0", "--seed", "7"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table I"));
    assert!(stdout.contains("Count"));
    assert!(stdout.contains("joint Bayes"));
    assert!(stdout.contains("done (table1)"));
}

#[test]
fn fig11_writes_csv_to_out_dir() {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}", std::process::id()));
    let out = repro()
        .args([
            "fig11",
            "--scale",
            "0",
            "--seed",
            "3",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read_to_string(dir.join("fig11_multimodal.csv")).expect("csv written");
    assert!(csv.starts_with("method,a,b,c"));
    assert!(csv.lines().count() > 1_000, "EM restarts + Bayes samples");
    assert!(
        !dir.join("checkpoints").exists(),
        "only `flow` checkpoints, so only `flow` opens the directory"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn runs_are_seed_deterministic() {
    let run = || {
        let out = repro()
            .args(["fig11", "--no-csv", "--scale", "0", "--seed", "11"])
            .output()
            .expect("spawn");
        assert!(out.status.success());
        // Strip the timing line, which legitimately varies.
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.starts_with("\ndone") && !l.contains("done (fig11)"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(run(), run());
}

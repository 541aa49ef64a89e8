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

#[test]
fn a_result_file_that_cannot_be_written_fails_the_run() {
    let dir = std::env::temp_dir().join(format!("repro-cli-unwritable-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    // A regular file where the output directory's parent should be.
    let file = dir.join("not-a-dir");
    std::fs::write(&file, "").unwrap();
    let target = file.join("sub");
    let out = repro()
        .args(["fig11", "--scale", "0", "--seed", "3", "--out"])
        .arg(&target)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(target.to_str().unwrap()), "stderr: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `repro stream --out <dir> --seed 5 <log>` plus `extra` flags.
fn stream(log: &std::path::Path, dir: &std::path::Path, extra: &[&str]) -> std::process::Output {
    repro()
        .arg("stream")
        .arg(log)
        .arg("--out")
        .arg(dir)
        .args(["--seed", "5"])
        .args(extra)
        .output()
        .expect("spawn")
}

#[test]
fn stream_resume_continues_an_interrupted_replay() {
    let root = std::env::temp_dir().join(format!("repro-cli-resume-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).unwrap();
    let log =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/stream_events.jsonl");
    let text = std::fs::read_to_string(&log).unwrap();
    let full = root.join("full");
    assert!(stream(&log, &full, &[]).status.success());
    // Stop after epoch 2's seal: the log up to its seal marker.
    let lines: Vec<&str> = text.lines().collect();
    let second = (0..lines.len())
        .filter(|&i| lines[i].starts_with(r#"{"seal""#))
        .nth(1)
        .unwrap();
    let part = root.join("part.jsonl");
    std::fs::write(&part, lines[..=second].join("\n") + "\n").unwrap();
    let resumed = root.join("resumed");
    assert!(stream(&part, &resumed, &[]).status.success());
    let out = stream(&log, &resumed, &["--resume"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("resumed at epoch 2"), "{stdout}");
    for epoch in 2..=4 {
        let name = format!("stream_serve_epoch{epoch}.jsonl");
        assert_eq!(
            std::fs::read(full.join(&name)).unwrap(),
            std::fs::read(resumed.join(&name)).unwrap(),
            "{name}"
        );
    }
    // Without a snapshot directory there is nothing to resume from.
    let out = repro()
        .arg("stream")
        .arg(&log)
        .args(["--no-csv", "--resume"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--resume needs"));
    std::fs::remove_dir_all(&root).ok();
}

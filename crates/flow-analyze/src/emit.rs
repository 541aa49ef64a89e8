//! Deterministic JSON rendering of a [`CheckReport`].
//!
//! The emitter is hand-rolled (no serialization framework) so the
//! byte stream is a pure function of the report: fixed key order,
//! findings pre-sorted, counts in `BTreeMap` iteration order, no
//! timestamps or absolute paths. CI runs the analyzer twice and
//! `cmp`s the outputs — any nondeterminism is itself a finding.
//!
//! The emitted report embeds the current suppression counts under the
//! `"baseline"` key in exactly the committed `analyze-baseline.json`
//! schema, so a report round-trips through the baseline differ:
//! `check --format json > r.json && check --baseline r.json` passes.

use crate::CheckReport;
use std::collections::BTreeMap;

/// Renders the full report as pretty-printed JSON (trailing newline
/// included so the file is `diff`/`cmp`-friendly).
pub fn report_json(report: &CheckReport) -> String {
    let mut findings = report.findings.clone();
    findings
        .sort_by(|a, b| (a.rel.as_str(), a.line, a.lint).cmp(&(b.rel.as_str(), b.line, b.lint)));
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!(
        "  \"clean\": {},\n",
        if report.clean() { "true" } else { "false" }
    ));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {");
        out.push_str(&format!("\"lint\": {}, ", escape(f.lint)));
        out.push_str(&format!("\"path\": {}, ", escape(&f.rel)));
        out.push_str(&format!("\"line\": {}, ", f.line));
        out.push_str(&format!("\"message\": {}, ", escape(&f.message)));
        out.push_str(&format!("\"snippet\": {}}}", escape(&f.snippet)));
    }
    out.push_str(if findings.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    out.push_str("  \"baseline\": ");
    let counts: BTreeMap<&str, usize> = report.suppression_counts().into_iter().collect();
    push_baseline(&counts, 1, &mut out);
    out.push_str("\n}\n");
    out
}

/// Renders just the baseline object — the schema of the committed
/// `analyze-baseline.json` file.
pub fn baseline_json(counts: &BTreeMap<&str, usize>) -> String {
    let mut out = String::new();
    push_baseline(counts, 0, &mut out);
    out.push('\n');
    out
}

fn push_baseline(counts: &BTreeMap<&str, usize>, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    out.push_str("{\n");
    out.push_str(&format!("{pad}  \"version\": 1,\n"));
    out.push_str(&format!("{pad}  \"suppressions\": {{"));
    for (i, (lint, n)) in counts.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!("{pad}    {}: {n}", escape(lint)));
    }
    if counts.is_empty() {
        out.push_str("}\n");
    } else {
        out.push('\n');
        out.push_str(&format!("{pad}  }}\n"));
    }
    out.push_str(&format!("{pad}}}"));
}

/// JSON string escaping (mirrors the vendored parser's accepted
/// escapes so everything we emit re-parses).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::Finding;

    fn sample_report() -> CheckReport {
        CheckReport {
            findings: vec![Finding {
                lint: "L8",
                rel: "crates/x/src/lib.rs".into(),
                line: 3,
                message: "dropped `Result` of `try_save`".into(),
                snippet: "try_save(x).ok();".into(),
            }],
            escaped: vec![Finding {
                lint: "L1",
                rel: "crates/x/src/lib.rs".into(),
                line: 9,
                message: "m".into(),
                snippet: "s".into(),
            }],
            files_scanned: 2,
        }
    }

    #[test]
    fn report_is_deterministic_and_parses() {
        let report = sample_report();
        let a = report_json(&report);
        let b = report_json(&report);
        assert_eq!(a, b, "two renders of one report must be byte-identical");
        let v: serde_json::Value = serde_json::from_str(&a).expect("emitted JSON must parse");
        assert_eq!(v.get("files_scanned"), Some(&serde_json::Value::U64(2)));
    }

    #[test]
    fn report_embeds_a_parseable_baseline() {
        let text = report_json(&sample_report());
        let parsed = crate::baseline::parse(&text).expect("report must act as a baseline");
        assert_eq!(parsed.suppressions.get("L1"), Some(&1));
    }

    #[test]
    fn empty_report_renders_empty_collections() {
        let report = CheckReport {
            findings: vec![],
            escaped: vec![],
            files_scanned: 0,
        };
        let text = report_json(&report);
        let v: serde_json::Value = serde_json::from_str(&text).expect("parse");
        assert_eq!(v.get("clean"), Some(&serde_json::Value::Bool(true)));
    }

    #[test]
    fn escape_covers_quotes_and_control_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }
}

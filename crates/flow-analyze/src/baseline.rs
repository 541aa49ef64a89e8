//! The suppression-count ratchet.
//!
//! `analyze-baseline.json` (committed at the workspace root of the
//! analyzer crate) records, per lint, how many suppressions (escape
//! comments) are currently in effect. The ratchet only turns one way:
//!
//! * current > baseline → **regression**: a new suppression slipped
//!   in; fix the finding instead, or consciously regenerate the
//!   baseline with `--write-baseline` in the same change that adds
//!   the justified escape.
//! * current < baseline → **stale baseline**: debt was paid down but
//!   the committed file still advertises the old count; regenerate so
//!   the lower number becomes the new ceiling.
//!
//! Either direction fails the check, so the committed number always
//! equals reality and can only decrease over time without an explicit
//! regeneration in the diff.
//!
//! [`parse`] accepts either the bare baseline file or a full
//! `--format json` report (which embeds the same object under its
//! `"baseline"` key) — a report round-trips through the differ.

use serde_json::Value;
use std::collections::BTreeMap;

/// Parsed baseline: per-lint suppression ceilings.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Lint id → count of justified suppressions.
    pub suppressions: BTreeMap<String, u64>,
}

/// Parses baseline JSON — either the bare `analyze-baseline.json`
/// object or a full report embedding one under `"baseline"`.
pub fn parse(text: &str) -> Result<Baseline, String> {
    let value: Value = serde_json::from_str(text).map_err(|e| format!("baseline: {e}"))?;
    let obj = match value.get("baseline") {
        Some(inner) => inner,
        None => &value,
    };
    match obj.get("version") {
        Some(Value::U64(1)) => {}
        Some(other) => return Err(format!("baseline: unsupported version {other:?}")),
        None => return Err("baseline: missing `version` field".into()),
    }
    let mut suppressions = BTreeMap::new();
    match obj.get("suppressions") {
        Some(Value::Object(fields)) => {
            for (lint, count) in fields {
                let n = match count {
                    Value::U64(n) => *n,
                    other => {
                        return Err(format!(
                        "baseline: count for {lint} must be a non-negative integer, got {other:?}"
                    ))
                    }
                };
                if suppressions.insert(lint.clone(), n).is_some() {
                    return Err(format!("baseline: duplicate lint {lint}"));
                }
            }
        }
        _ => return Err("baseline: missing `suppressions` object".into()),
    }
    Ok(Baseline { suppressions })
}

/// Diffs current suppression counts against the committed baseline.
/// Returns human-readable failures; empty means the ratchet holds.
pub fn compare(current: &BTreeMap<&str, usize>, baseline: &Baseline) -> Vec<String> {
    let mut failures = Vec::new();
    let mut lints: Vec<&str> = current.keys().copied().collect();
    for lint in baseline.suppressions.keys() {
        if !current.contains_key(lint.as_str()) {
            lints.push(lint);
        }
    }
    lints.sort_unstable();
    lints.dedup();
    for lint in lints {
        let cur = *current.get(lint).unwrap_or(&0) as u64;
        let base = *baseline.suppressions.get(lint).unwrap_or(&0);
        if cur > base {
            failures.push(format!(
                "{lint}: {cur} suppressions exceed the baseline ceiling of {base}; fix the new finding or regenerate the baseline with --write-baseline alongside a justified escape"
            ));
        } else if cur < base {
            failures.push(format!(
                "{lint}: baseline is stale ({base} committed, {cur} in effect); regenerate with --write-baseline so the ratchet tightens"
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&'static str, usize)]) -> BTreeMap<&'static str, usize> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn parse_accepts_bare_baseline() {
        let b = parse(r#"{"version": 1, "suppressions": {"L1": 4, "L9": 1}}"#).expect("parse");
        assert_eq!(b.suppressions.get("L1"), Some(&4));
        assert_eq!(b.suppressions.get("L9"), Some(&1));
    }

    #[test]
    fn parse_accepts_embedded_report_baseline() {
        let b = parse(
            r#"{"version": 1, "findings": [], "baseline": {"version": 1, "suppressions": {"L2": 2}}}"#,
        )
        .expect("parse");
        assert_eq!(b.suppressions.get("L2"), Some(&2));
    }

    #[test]
    fn parse_rejects_bad_shapes() {
        for bad in [
            "",
            "[]",
            r#"{"suppressions": {}}"#,
            r#"{"version": 2, "suppressions": {}}"#,
            r#"{"version": 1}"#,
            r#"{"version": 1, "suppressions": {"L1": -3}}"#,
            r#"{"version": 1, "suppressions": {"L1": "many"}}"#,
        ] {
            assert!(parse(bad).is_err(), "must reject: {bad}");
        }
    }

    #[test]
    fn ratchet_fails_both_directions() {
        let base = parse(r#"{"version": 1, "suppressions": {"L1": 2, "L8": 1}}"#).expect("parse");
        assert!(compare(&counts(&[("L1", 2), ("L8", 1)]), &base).is_empty());
        let up = compare(&counts(&[("L1", 3), ("L8", 1)]), &base);
        assert_eq!(up.len(), 1);
        assert!(up[0].contains("exceed"));
        let down = compare(&counts(&[("L1", 2)]), &base);
        assert_eq!(down.len(), 1);
        assert!(down[0].contains("stale"));
        let new_lint = compare(&counts(&[("L1", 2), ("L8", 1), ("L9", 1)]), &base);
        assert_eq!(new_lint.len(), 1);
        assert!(new_lint[0].starts_with("L9"));
    }
}

//! `repro perf diff` — the performance-regression ratchet.
//!
//! Bench binaries (`bench_sampler`, `bench_serve`, `bench_stream`)
//! write versioned
//! JSON result files. This runner normalizes them into a flat metric
//! map (`<bench>.<dotted.path> -> number`), compares the map against
//! the committed `perf-baseline.json`, and reports every metric that
//! moved beyond its per-metric noise band in the harmful direction.
//! The CLI exits 3 when any such regression is found, 1 on
//! infrastructure errors (missing/unparseable files or baseline
//! metrics absent from the current run), 0 when everything holds —
//! that is the contract the CI perf-ratchet job enforces.
//!
//! The baseline schema (`flow-perf/baseline-v1`):
//!
//! ```json
//! {
//!   "schema": "flow-perf/baseline-v1",
//!   "metrics": {
//!     "sampler.sampler.steps_per_sec_disabled":
//!       {"value": 7.1e6, "direction": "higher", "noise_pct": 30.0}
//!   }
//! }
//! ```
//!
//! `direction` names which way is *good*; a metric regresses when it
//! moves the other way by more than `noise_pct` percent of the
//! baseline value. Bands are deliberately generous — the ratchet
//! exists to catch step changes (a 2x slowdown from an accidental
//! allocation in the hot loop), not 3% machine jitter. `--append PATH`
//! adds the normalized current metrics as one JSONL line to a
//! trajectory file, so the history of runs stays greppable.

use crate::Output;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ------------------------------------------------------- normalization

/// Numeric view of a JSON value; integers widen to `f64`.
fn number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

/// String view of a JSON value.
fn string(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Flattens every numeric (and boolean, as 0/1) leaf of a bench file
/// into `prefix.<dotted.path>` keys. The prefix is the file's `bench`
/// field, so metrics from different bench binaries never collide.
/// Strings, arrays and nulls are not metrics.
pub fn flatten_metrics(doc: &Value, prefix: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    flatten_into(doc, prefix, &mut out);
    out
}

fn flatten_into(v: &Value, path: &str, out: &mut BTreeMap<String, f64>) {
    match v {
        Value::Bool(b) => {
            out.insert(path.to_string(), if *b { 1.0 } else { 0.0 });
        }
        Value::Object(pairs) => {
            for (k, child) in pairs {
                flatten_into(child, &format!("{path}.{k}"), out);
            }
        }
        _ => {
            if let Some(n) = number(v) {
                out.insert(path.to_string(), n);
            }
        }
    }
}

/// Loads one bench result file and returns its normalized metrics,
/// keyed by the file's `bench` name.
pub fn load_bench_metrics(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read bench file {path}: {e}"))?;
    let doc: Value =
        serde_json::from_str(&text).map_err(|_| format!("bench file {path} is not valid JSON"))?;
    let bench = doc
        .get("bench")
        .and_then(string)
        .ok_or_else(|| format!("bench file {path} has no \"bench\" name"))?;
    Ok(flatten_metrics(&doc, bench))
}

// ------------------------------------------------------------ baseline

/// Which way a metric is allowed to move freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better (throughput): regression = drop below band.
    Higher,
    /// Smaller is better (latency, overhead): regression = rise above.
    Lower,
}

/// One baselined metric.
#[derive(Debug, Clone)]
pub struct BaselineMetric {
    /// Reference value from the committed baseline run.
    pub value: f64,
    /// Good direction.
    pub direction: Direction,
    /// Tolerated adverse move, in percent of the baseline value.
    pub noise_pct: f64,
}

/// Parses `perf-baseline.json` (schema `flow-perf/baseline-v1`).
pub fn parse_baseline(text: &str) -> Result<BTreeMap<String, BaselineMetric>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|_| "baseline is not valid JSON")?;
    let schema = doc.get("schema").and_then(string).unwrap_or("");
    let expected = flow_core::schema::PERF_BASELINE.tag();
    if schema != expected {
        return Err(format!(
            "unsupported baseline schema {schema:?} (expected {expected:?})"
        ));
    }
    let Some(Value::Object(metrics)) = doc.get("metrics") else {
        return Err("baseline has no \"metrics\" object".into());
    };
    let mut out = BTreeMap::new();
    for (name, m) in metrics {
        let value = m
            .get("value")
            .and_then(number)
            .ok_or_else(|| format!("baseline metric {name} has no numeric value"))?;
        let direction = match m.get("direction").and_then(string) {
            Some("higher") => Direction::Higher,
            Some("lower") => Direction::Lower,
            other => {
                return Err(format!(
                    "baseline metric {name} has bad direction {other:?} (higher|lower)"
                ))
            }
        };
        let noise_pct = m.get("noise_pct").and_then(number).unwrap_or(20.0);
        out.insert(
            name.clone(),
            BaselineMetric {
                value,
                direction,
                noise_pct,
            },
        );
    }
    Ok(out)
}

/// One comparison row.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Metric name.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value (`None` = missing from the current run).
    pub current: Option<f64>,
    /// Signed change in percent of baseline (positive = increased).
    pub change_pct: f64,
    /// Whether the change crosses the noise band the wrong way.
    pub regressed: bool,
}

/// Compares current metrics against the baseline. Baseline metrics
/// missing from the current run surface as rows with `current: None`
/// (an infra error for the CLI: the bench schema drifted).
pub fn diff_metrics(
    baseline: &BTreeMap<String, BaselineMetric>,
    current: &BTreeMap<String, f64>,
) -> Vec<DiffRow> {
    baseline
        .iter()
        .map(|(name, b)| {
            let Some(cur) = current.get(name).copied() else {
                return DiffRow {
                    name: name.clone(),
                    baseline: b.value,
                    current: None,
                    change_pct: 0.0,
                    regressed: false,
                };
            };
            let change_pct = if b.value.abs() > f64::EPSILON {
                100.0 * (cur - b.value) / b.value.abs()
            } else {
                // Zero baseline: any adverse absolute move is a change.
                if cur == 0.0 {
                    0.0
                } else {
                    100.0 * cur.signum()
                }
            };
            let regressed = match b.direction {
                Direction::Higher => change_pct < -b.noise_pct,
                Direction::Lower => change_pct > b.noise_pct,
            };
            DiffRow {
                name: name.clone(),
                baseline: b.value,
                current: Some(cur),
                change_pct,
                regressed,
            }
        })
        .collect()
}

/// Renders one normalized metric map as a single JSONL trajectory line
/// (schema `flow-perf/run-v1`). `label` tags the run (CI passes the
/// commit hash); metric order is sorted, so identical runs yield
/// identical lines.
pub fn trajectory_line(label: &str, metrics: &BTreeMap<String, f64>) -> String {
    let mut s = format!(
        "{{\"schema\":\"{}\",\"label\":",
        flow_core::schema::PERF_RUN.tag()
    );
    s.push('"');
    for c in label.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c => s.push(c),
        }
    }
    s.push('"');
    s.push_str(",\"metrics\":{");
    for (i, (k, v)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{k}\":{v}");
    }
    s.push_str("}}");
    s
}

/// What `perf diff` concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfVerdict {
    /// Every baselined metric is within its noise band.
    Clean,
    /// At least one metric regressed beyond its band.
    Regressed,
    /// A baselined metric is missing from the current run.
    MissingMetrics,
}

/// Arguments for `repro perf diff`.
#[derive(Debug, Clone)]
pub struct PerfDiffArgs {
    /// Baseline path (default `perf-baseline.json`).
    pub baseline: String,
    /// Current bench result files (default the three committed names).
    pub bench_files: Vec<String>,
    /// Optional trajectory file to append the normalized run to.
    pub append: Option<String>,
    /// Label for the trajectory line.
    pub label: String,
}

impl Default for PerfDiffArgs {
    fn default() -> Self {
        PerfDiffArgs {
            baseline: "perf-baseline.json".into(),
            bench_files: vec![
                "BENCH_sampler.json".into(),
                "BENCH_serve.json".into(),
                "BENCH_stream.json".into(),
            ],
            append: None,
            label: "local".into(),
        }
    }
}

/// Runs the comparison end to end, rendering a table and returning the
/// verdict. IO/parse problems come back as `Err` (CLI exit 1).
pub fn run_perf_diff(args: &PerfDiffArgs, out: &Output) -> Result<PerfVerdict, String> {
    let baseline_text = std::fs::read_to_string(&args.baseline)
        .map_err(|e| format!("cannot read baseline {}: {e}", args.baseline))?;
    let baseline = parse_baseline(&baseline_text)?;
    let mut current: BTreeMap<String, f64> = BTreeMap::new();
    for path in &args.bench_files {
        current.extend(load_bench_metrics(path)?);
    }
    let rows = diff_metrics(&baseline, &current);

    out.heading(&format!(
        "perf diff — {} baselined metrics vs {}",
        rows.len(),
        args.bench_files.join(", ")
    ));
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.3}", r.baseline),
                r.current
                    .map(|c| format!("{c:.3}"))
                    .unwrap_or_else(|| "MISSING".into()),
                if r.current.is_some() {
                    format!("{:+.1}%", r.change_pct)
                } else {
                    "-".into()
                },
                if r.current.is_none() {
                    "missing".into()
                } else if r.regressed {
                    "REGRESSED".into()
                } else {
                    "ok".into()
                },
            ]
        })
        .collect();
    out.table(
        &["metric", "baseline", "current", "change", "status"],
        &table,
    );

    if let Some(path) = &args.append {
        let line = trajectory_line(&args.label, &current);
        let mut text = std::fs::read_to_string(path).unwrap_or_default();
        if !text.is_empty() && !text.ends_with('\n') {
            text.push('\n');
        }
        text.push_str(&line);
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot append to {path}: {e}"))?;
        out.line(format!("appended run to {path}"));
    }

    let missing = rows.iter().filter(|r| r.current.is_none()).count();
    let regressed = rows.iter().filter(|r| r.regressed).count();
    if missing > 0 {
        out.line(format!(
            "{missing} baselined metric(s) missing from the current run — bench schema drift"
        ));
        return Ok(PerfVerdict::MissingMetrics);
    }
    if regressed > 0 {
        out.line(format!("{regressed} metric(s) regressed beyond noise"));
        return Ok(PerfVerdict::Regressed);
    }
    out.line("all baselined metrics within noise");
    Ok(PerfVerdict::Clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
      "schema": "flow-perf/baseline-v1",
      "metrics": {
        "sampler.sampler.steps_per_sec_disabled":
          {"value": 1000000, "direction": "higher", "noise_pct": 20.0},
        "sampler.disabled_path.overhead_pct":
          {"value": 1.0, "direction": "lower", "noise_pct": 100.0}
      }
    }"#;

    fn bench_doc(sps: f64, overhead: f64) -> BTreeMap<String, f64> {
        let text = format!(
            "{{\"bench\":\"sampler\",\"sampler\":{{\"steps_per_sec_disabled\":{sps}}},\
             \"disabled_path\":{{\"overhead_pct\":{overhead}}}}}"
        );
        let doc: Value = serde_json::from_str(&text).unwrap();
        flatten_metrics(&doc, "sampler")
    }

    #[test]
    fn within_noise_is_clean() {
        let baseline = parse_baseline(BASELINE).unwrap();
        let rows = diff_metrics(&baseline, &bench_doc(900_000.0, 1.5));
        assert!(rows.iter().all(|r| !r.regressed && r.current.is_some()));
    }

    #[test]
    fn injected_regression_is_flagged() {
        let baseline = parse_baseline(BASELINE).unwrap();
        // Throughput halves: far outside the 20% band.
        let rows = diff_metrics(&baseline, &bench_doc(500_000.0, 1.0));
        let bad: Vec<&DiffRow> = rows.iter().filter(|r| r.regressed).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].name, "sampler.sampler.steps_per_sec_disabled");
        assert!(bad[0].change_pct < -20.0);
    }

    #[test]
    fn improvement_in_the_good_direction_never_regresses() {
        let baseline = parse_baseline(BASELINE).unwrap();
        // 3x faster and lower overhead: both moves are in the good
        // direction, however large.
        let rows = diff_metrics(&baseline, &bench_doc(3_000_000.0, 0.1));
        assert!(rows.iter().all(|r| !r.regressed));
    }

    #[test]
    fn missing_metric_is_reported_not_ignored() {
        let baseline = parse_baseline(BASELINE).unwrap();
        let doc: Value = serde_json::from_str("{\"bench\":\"sampler\",\"sampler\":{}}").unwrap();
        let rows = diff_metrics(&baseline, &flatten_metrics(&doc, "sampler"));
        assert!(rows.iter().all(|r| r.current.is_none()));
    }

    #[test]
    fn flatten_walks_nested_objects_and_booleans() {
        let doc: Value = serde_json::from_str(
            "{\"bench\":\"x\",\"a\":{\"b\":{\"c\":2.5}},\"ok\":true,\"name\":\"skip\"}",
        )
        .unwrap();
        let m = flatten_metrics(&doc, "x");
        assert_eq!(m.get("x.a.b.c"), Some(&2.5));
        assert_eq!(m.get("x.ok"), Some(&1.0));
        assert!(!m.contains_key("x.name"), "strings are not metrics");
    }

    #[test]
    fn trajectory_lines_are_deterministic_and_parse_back() {
        let m = bench_doc(123.0, 4.5);
        let a = trajectory_line("ci", &m);
        let b = trajectory_line("ci", &m);
        assert_eq!(a, b);
        let doc: Value = serde_json::from_str(&a).unwrap();
        assert_eq!(doc.get("schema").and_then(string), Some("flow-perf/run-v1"));
        assert!(doc.get("metrics").is_some());
    }

    #[test]
    fn baseline_rejects_unknown_schema() {
        assert!(parse_baseline("{\"schema\":\"nope\",\"metrics\":{}}").is_err());
        assert!(parse_baseline("not json").is_err());
    }
}

//! `repro report` — render a flow-obs JSONL trace as ascii tables.
//!
//! A trace written with `repro <cmd> --trace trace.jsonl` is a stream
//! of structured events keyed by `(chain, step)`. This runner reads one
//! back and summarizes it for a human: event counts, per-chain
//! lifecycle, health incidents (watchdog/budget events), and the final
//! merge line if present. Lines are read with
//! [`super::trace_reader`], which skips unparseable ones, so the intact
//! prefix of a torn trace still renders.

use crate::runners::trace_reader::{parse_trace, TraceEvent};
use crate::Output;
use std::collections::BTreeMap;

/// Event names that indicate degraded chain health; surfaced in their
/// own table so an operator can scan incidents without grepping.
const HEALTH_EVENTS: [&str; 8] = [
    "watchdog.restart",
    "watchdog.stall",
    "chain.failed",
    "chain.excluded",
    "budget.steps_exhausted",
    "budget.wall_exhausted",
    "budget.rhat_above_target",
    "budget.ess_below_target",
];

fn fmt_opt(v: Option<u64>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "-".into())
}

fn fmt_num(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.4}")).unwrap_or_else(|| "-".into())
}

/// Renders the parsed trace to the output. Returns the number of
/// events rendered (0 for an empty or unparseable trace).
pub fn render_trace(events: &[TraceEvent], out: &Output) -> usize {
    out.heading("Event counts");
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    for e in events {
        *counts.entry(e.name.as_str()).or_insert(0) += 1;
    }
    let rows: Vec<Vec<String>> = counts
        .iter()
        .map(|(name, n)| vec![(*name).to_string(), n.to_string()])
        .collect();
    out.table(&["event", "count"], &rows);

    // Per-chain lifecycle, reconstructed from chain.finish and
    // chain.snapshot events.
    let mut chains: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for e in events {
        if e.name != "chain.finish" {
            continue;
        }
        let Some(chain) = e.chain else { continue };
        chains.insert(
            chain,
            vec![
                chain.to_string(),
                fmt_opt(e.step),
                fmt_opt(e.num("samples").map(|v| v as u64)),
                fmt_num(e.num("acceptance_rate")),
                String::new(), // ess column, filled from snapshots below
            ],
        );
    }
    for e in events {
        if e.name != "chain.snapshot" {
            continue;
        }
        let Some(chain) = e.chain else { continue };
        if let Some(row) = chains.get_mut(&chain) {
            if let Some(cell) = row.get_mut(4) {
                *cell = fmt_num(e.num("ess"));
            }
        }
    }
    if !chains.is_empty() {
        out.heading("Chains");
        let rows: Vec<Vec<String>> = chains.into_values().collect();
        out.table(&["chain", "steps", "samples", "acceptance", "ess"], &rows);
    }

    // Health incidents in stream order.
    let incidents: Vec<Vec<String>> = events
        .iter()
        .filter(|e| HEALTH_EVENTS.contains(&e.name.as_str()))
        .map(|e| {
            let detail = e
                .fields
                .iter()
                .map(|(k, v)| match v.as_f64() {
                    Some(n) => format!("{k}={n}"),
                    None => format!("{k}={v:?}"),
                })
                .collect::<Vec<_>>()
                .join(" ");
            vec![e.name.clone(), fmt_opt(e.chain), fmt_opt(e.step), detail]
        })
        .collect();
    if !incidents.is_empty() {
        out.heading("Health incidents");
        out.table(&["event", "chain", "step", "detail"], &incidents);
    }

    // The merge summary, if the trace covers a guarded multi-chain run.
    for e in events {
        if e.name == "estimate.merge" {
            out.heading("Estimate");
            out.line(format!(
                "value {}  ess {}  r_hat {}  chains {}  degradations {}",
                fmt_num(e.num("value")),
                fmt_num(e.num("ess")),
                fmt_num(e.num("r_hat")),
                fmt_opt(e.num("chains_included").map(|v| v as u64)),
                fmt_opt(e.num("degradations").map(|v| v as u64)),
            ));
        }
    }
    events.len()
}

/// Reads a JSONL trace from `path` and renders it — the run-level view
/// by default, the causal per-query view with `by_query`. Returns an
/// error string suitable for the CLI on IO failure (missing/unreadable
/// file, or a file with no parseable events at all; a *truncated*
/// trace still renders its intact prefix).
pub fn run_report(path: &str, by_query: bool, out: &Output) -> Result<usize, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
    let events = parse_trace(&text);
    if events.is_empty() {
        return Err(format!("trace {path} contains no parseable events"));
    }
    out.line(format!("trace: {path} ({} events)", events.len()));
    if by_query {
        super::query_report::render_by_query(&events, out);
        return Ok(events.len());
    }
    Ok(render_trace(&events, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_obs::{Event, JsonlSink, ScopedRecorder};
    use std::sync::Arc;

    #[test]
    fn renders_synthetic_trace_without_panic() {
        let sink = Arc::new(JsonlSink::new());
        {
            let _r = ScopedRecorder::install(sink.clone());
            flow_obs::event(|| {
                Event::new("chain.finish")
                    .chain(0)
                    .step(900)
                    .u64("samples", 50)
                    .f64("acceptance_rate", 0.42)
            });
            flow_obs::event(|| {
                Event::new("chain.snapshot")
                    .chain(0)
                    .step(900)
                    .f64("ess", 12.5)
            });
            flow_obs::event(|| {
                Event::new("watchdog.stall")
                    .chain(0)
                    .step(900)
                    .f64("acceptance_rate", 0.0)
            });
            flow_obs::event(|| {
                Event::new("estimate.merge")
                    .u64("chains_included", 1)
                    .f64("value", 0.25)
                    .f64("ess", 12.5)
            });
        }
        let events = parse_trace(&sink.render());
        assert_eq!(events.len(), 4);
        let n = render_trace(&events, &Output::stdout_only());
        assert_eq!(n, 4);
    }

    #[test]
    fn run_report_rejects_missing_file() {
        assert!(run_report("/nonexistent/trace.jsonl", false, &Output::stdout_only()).is_err());
    }

    #[test]
    fn run_report_rejects_empty_and_renders_truncated_traces() {
        let dir = std::env::temp_dir().join(format!("flowexp-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        assert!(
            run_report(empty.to_str().unwrap(), false, &Output::stdout_only()).is_err(),
            "an empty trace is an infra error, not a silent no-op"
        );
        // A torn final line (killed run) still renders the intact prefix.
        let torn = dir.join("torn.jsonl");
        let good =
            "{\"event\":\"chain.finish\",\"chain\":0,\"step\":10,\"fields\":{\"samples\":5}}\n";
        std::fs::write(&torn, format!("{good}{}", &good[..good.len() / 2])).unwrap();
        let n = run_report(torn.to_str().unwrap(), false, &Output::stdout_only()).unwrap();
        assert_eq!(n, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}

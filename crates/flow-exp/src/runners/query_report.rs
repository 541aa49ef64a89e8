//! `repro report --by-query` — causal per-query view of a serve trace.
//!
//! A serve trace (written with `repro serve ... --trace`) stamps every
//! event with the trace id of the query that caused it (DESIGN.md §14).
//! This runner reconstructs, per query:
//!
//! * the **query lifecycle** from planner events (`serve.query.planned`
//!   / `serve.query.rejected` / `serve.cache.lookup`) and the terminal
//!   `serve.query.resolved` marker;
//! * the **execution span tree** of the plan that served it, built from
//!   `span.enter`/`span.exit` pairs recorded under the plan's primary
//!   trace (`serve.plan` wrapping `mcmc.burn_in`, `mcmc.sampling`,
//!   `fenwick.rebuild`, ...);
//! * a **phase breakdown** in logical units — exclusive event counts
//!   per span — whose sum is checked against the trace's own event
//!   total, so the rendering is self-verifying: phases always add up to
//!   the span tree they came from.
//!
//! Everything here is a pure function of the trace file: no clocks, no
//! ordering assumptions beyond the sink's per-stream determinism.

use crate::runners::trace_reader::{TraceEvent, TraceValue};
use crate::Output;
use std::collections::BTreeMap;

/// One node of a reconstructed span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Phase name (the span's `span` field).
    pub name: String,
    /// Events recorded directly inside this span, excluding child
    /// spans' events and the `span.enter`/`span.exit` markers.
    pub exclusive_events: u64,
    /// Nested phases, in open order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Exclusive events of this node plus all descendants.
    pub fn total_events(&self) -> u64 {
        self.exclusive_events
            + self
                .children
                .iter()
                .map(SpanNode::total_events)
                .sum::<u64>()
    }
}

/// The reconstructed causal history of one trace id.
#[derive(Debug, Clone, Default)]
pub struct TraceTree {
    /// Top-level phases in open order.
    pub roots: Vec<SpanNode>,
    /// Events recorded under the trace outside any span.
    pub outside_events: u64,
    /// Every event carrying this trace, span markers included.
    pub total_events: u64,
    /// `span.enter` + `span.exit` markers seen.
    pub span_markers: u64,
    /// Spans still open at end-of-trace, force-closed by the builder —
    /// nonzero means the trace was truncated (writer killed mid-span).
    pub truncated_spans: u64,
}

impl TraceTree {
    /// Sum of per-phase exclusive counts across the whole tree.
    pub fn phase_sum(&self) -> u64 {
        self.roots.iter().map(SpanNode::total_events).sum::<u64>() + self.outside_events
    }

    /// The self-check the renderer prints: phases (plus unspanned
    /// events) must account for every non-marker event of the trace.
    /// The builder maintains this by construction — a mismatch means
    /// the reconstruction itself is wrong, not merely the trace torn;
    /// truncation is reported separately via [`TraceTree::truncated_spans`].
    pub fn balances(&self) -> bool {
        self.phase_sum() + self.span_markers == self.total_events
    }
}

/// What one query did, joined across planner/executor/engine events.
#[derive(Debug, Clone, Default)]
pub struct QueryReport {
    /// Batch index of the query.
    pub query: u64,
    /// The query's own trace id.
    pub trace: u64,
    /// Plan id serving it, when it was planned.
    pub plan: Option<u64>,
    /// Primary trace of that plan (execution telemetry lives there).
    pub plan_trace: Option<u64>,
    /// Terminal path from `serve.query.resolved`
    /// (fresh/cache_hit/warm_refinement/short_circuited/rejected/failed).
    pub path: Option<String>,
    /// Samples behind the answer, when answered.
    pub samples: Option<u64>,
    /// Degradation count on the answer.
    pub degraded: Option<u64>,
    /// Whether the planner's cache lookup hit.
    pub cache_hit: Option<bool>,
}

fn str_field(e: &TraceEvent, key: &str) -> Option<String> {
    match e.field(key) {
        Some(TraceValue::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

/// Builds one span tree per trace id from the `span.enter`/`span.exit`
/// markers, tolerating truncation: spans left open at end-of-trace are
/// closed as-is, and orphan exits are ignored.
pub fn build_trace_trees(events: &[TraceEvent]) -> BTreeMap<u64, TraceTree> {
    let mut trees: BTreeMap<u64, TraceTree> = BTreeMap::new();
    let mut stacks: BTreeMap<u64, Vec<SpanNode>> = BTreeMap::new();
    for e in events {
        let Some(trace) = e.trace else { continue };
        let tree = trees.entry(trace).or_default();
        let stack = stacks.entry(trace).or_default();
        tree.total_events += 1;
        match e.name.as_str() {
            "span.enter" => {
                tree.span_markers += 1;
                stack.push(SpanNode {
                    name: str_field(e, "span").unwrap_or_else(|| "?".into()),
                    exclusive_events: 0,
                    children: Vec::new(),
                });
            }
            "span.exit" => {
                tree.span_markers += 1;
                if let Some(done) = stack.pop() {
                    match stack.last_mut() {
                        Some(parent) => parent.children.push(done),
                        None => tree.roots.push(done),
                    }
                }
            }
            _ => match stack.last_mut() {
                Some(open) => open.exclusive_events += 1,
                None => tree.outside_events += 1,
            },
        }
    }
    // Close anything a torn trace left open.
    for (trace, mut stack) in stacks {
        let Some(tree) = trees.get_mut(&trace) else {
            continue;
        };
        while let Some(done) = stack.pop() {
            tree.truncated_spans += 1;
            match stack.last_mut() {
                Some(parent) => parent.children.push(done),
                None => tree.roots.push(done),
            }
        }
    }
    trees
}

/// Joins per-query lifecycle events into one report per query index.
pub fn collect_query_reports(events: &[TraceEvent]) -> Vec<QueryReport> {
    let mut by_query: BTreeMap<u64, QueryReport> = BTreeMap::new();
    let mut lookup_hit_by_trace: BTreeMap<u64, bool> = BTreeMap::new();
    for e in events {
        match e.name.as_str() {
            "serve.cache.lookup" => {
                if let (Some(t), Some(TraceValue::Bool(hit))) = (e.trace, e.field("hit")) {
                    lookup_hit_by_trace.insert(t, *hit);
                }
            }
            "serve.query.planned" | "serve.query.rejected" | "serve.query.resolved" => {
                let Some(q) = e.uint("query") else {
                    continue;
                };
                let r = by_query.entry(q).or_insert_with(|| QueryReport {
                    query: q,
                    ..Default::default()
                });
                if let Some(t) = e.trace {
                    r.trace = t;
                }
                match e.name.as_str() {
                    "serve.query.planned" => {
                        r.plan = e.uint("plan");
                        // Exact uint: the join against the trace tree
                        // needs every bit of the 64-bit id.
                        r.plan_trace = e.uint("plan_trace");
                    }
                    "serve.query.rejected" => {
                        r.path.get_or_insert_with(|| "rejected".into());
                    }
                    "serve.query.resolved" => {
                        r.path = str_field(e, "path");
                        r.samples = e.uint("samples");
                        r.degraded = e.uint("degraded");
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
    let mut reports: Vec<QueryReport> = by_query.into_values().collect();
    for r in &mut reports {
        r.cache_hit = lookup_hit_by_trace.get(&r.trace).copied();
    }
    reports
}

fn push_phase_rows(node: &SpanNode, depth: usize, rows: &mut Vec<Vec<String>>) {
    // A visible nesting marker: the table right-aligns cells, so plain
    // space indentation would vanish into the padding.
    rows.push(vec![
        format!("{}{}", "· ".repeat(depth), node.name),
        node.exclusive_events.to_string(),
        node.total_events().to_string(),
    ]);
    for child in &node.children {
        push_phase_rows(child, depth + 1, rows);
    }
}

/// Renders the per-query causal view. Returns the number of queries
/// found (0 when the trace carries no serve query events).
pub fn render_by_query(events: &[TraceEvent], out: &Output) -> usize {
    let trees = build_trace_trees(events);
    let reports = collect_query_reports(events);
    if reports.is_empty() {
        out.line(
            "no serve query events in this trace (was it recorded with `repro serve --trace`?)",
        );
        return 0;
    }
    out.heading("Queries");
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.query.to_string(),
                format!("{:016x}", r.trace),
                r.path.clone().unwrap_or_else(|| "-".into()),
                r.plan.map(|p| p.to_string()).unwrap_or_else(|| "-".into()),
                match r.cache_hit {
                    Some(true) => "hit".into(),
                    Some(false) => "miss".into(),
                    None => "-".into(),
                },
                r.samples
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "-".into()),
                r.degraded
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    out.table(
        &[
            "query", "trace", "path", "plan", "cache", "samples", "degraded",
        ],
        &rows,
    );

    for r in &reports {
        let exec_trace = r.plan_trace.unwrap_or(r.trace);
        let Some(tree) = trees.get(&exec_trace) else {
            continue;
        };
        out.heading(&format!(
            "query {} — phases (trace {:016x}{})",
            r.query,
            exec_trace,
            if r.plan_trace.is_some() && r.plan_trace != Some(r.trace) {
                ", shared plan"
            } else {
                ""
            }
        ));
        let mut rows: Vec<Vec<String>> = Vec::new();
        for root in &tree.roots {
            push_phase_rows(root, 0, &mut rows);
        }
        if tree.outside_events > 0 {
            rows.push(vec![
                "(outside spans)".into(),
                tree.outside_events.to_string(),
                tree.outside_events.to_string(),
            ]);
        }
        out.table(&["phase", "events", "with children"], &rows);
        out.line(format!(
            "phase sum {} + span markers {} = {} trace events — {}",
            tree.phase_sum(),
            tree.span_markers,
            tree.total_events,
            if tree.balances() {
                "balanced"
            } else {
                "MISMATCH"
            }
        ));
        if tree.truncated_spans > 0 {
            out.line(format!(
                "WARNING: {} span(s) never closed — trace truncated mid-plan",
                tree.truncated_spans
            ));
        }
    }
    reports.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runners::trace_reader::parse_trace;
    use flow_obs::{Event, JsonlSink, Recorder};

    fn ev(sink: &JsonlSink, e: Event) {
        sink.event(&e);
    }

    #[test]
    fn reconstructs_nested_spans_and_balances() {
        let sink = JsonlSink::new();
        let t = 0xABCD;
        ev(
            &sink,
            Event::new("span.enter").trace(t).str("span", "serve.plan"),
        );
        ev(
            &sink,
            Event::new("serve.plan.start").trace(t).u64("plan", 0),
        );
        ev(
            &sink,
            Event::new("span.enter")
                .trace(t)
                .str("span", "mcmc.sampling"),
        );
        ev(
            &sink,
            Event::new("budget.steps_exhausted").trace(t).chain(0),
        );
        ev(
            &sink,
            Event::new("span.exit")
                .trace(t)
                .str("span", "mcmc.sampling"),
        );
        ev(
            &sink,
            Event::new("span.exit").trace(t).str("span", "serve.plan"),
        );
        ev(
            &sink,
            Event::new("serve.query.resolved").trace(t).u64("query", 0),
        );
        let events = parse_trace(&sink.render());
        let trees = build_trace_trees(&events);
        let tree = &trees[&t];
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].name, "serve.plan");
        assert_eq!(tree.roots[0].exclusive_events, 1);
        assert_eq!(tree.roots[0].children.len(), 1);
        assert_eq!(tree.roots[0].children[0].name, "mcmc.sampling");
        assert_eq!(tree.roots[0].children[0].exclusive_events, 1);
        assert_eq!(tree.outside_events, 1);
        assert!(tree.balances(), "phase sum must match the span tree");
    }

    #[test]
    fn tolerates_truncated_spans() {
        let sink = JsonlSink::new();
        let t = 7;
        ev(
            &sink,
            Event::new("span.enter").trace(t).str("span", "serve.plan"),
        );
        ev(&sink, Event::new("serve.retry").trace(t).u64("plan", 0));
        // No span.exit: the run was killed mid-plan.
        let events = parse_trace(&sink.render());
        let trees = build_trace_trees(&events);
        let tree = &trees[&t];
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].exclusive_events, 1);
        // The forced close keeps the accounting balanced, but the
        // truncation is reported honestly rather than hidden.
        assert!(tree.balances());
        assert_eq!(tree.truncated_spans, 1);
    }

    #[test]
    fn joins_query_lifecycle_across_events() {
        let sink = JsonlSink::new();
        ev(
            &sink,
            Event::new("serve.cache.lookup")
                .trace(10)
                .bool("hit", false),
        );
        ev(
            &sink,
            Event::new("serve.query.planned")
                .trace(10)
                .u64("query", 0)
                .u64("plan", 0)
                .u64("plan_trace", 10),
        );
        ev(
            &sink,
            Event::new("serve.query.resolved")
                .trace(10)
                .u64("query", 0)
                .str("path", "fresh")
                .u64("samples", 2401)
                .u64("degraded", 0),
        );
        ev(
            &sink,
            Event::new("serve.query.rejected")
                .trace(11)
                .u64("query", 1)
                .str("error", "contradictory conditions"),
        );
        let events = parse_trace(&sink.render());
        let reports = collect_query_reports(&events);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].query, 0);
        assert_eq!(reports[0].path.as_deref(), Some("fresh"));
        assert_eq!(reports[0].plan, Some(0));
        assert_eq!(reports[0].plan_trace, Some(10));
        assert_eq!(reports[0].cache_hit, Some(false));
        assert_eq!(reports[0].samples, Some(2401));
        assert_eq!(reports[1].path.as_deref(), Some("rejected"));
        let n = render_by_query(&events, &Output::stdout_only());
        assert_eq!(n, 2);
    }
}

//! Recorder implementations (sinks): in-memory for tests, a
//! deterministic JSONL trace for replay comparison, and a tee
//! combinator. Aggregated metrics come from [`StatsAggregator`], which
//! [`MemorySink`] embeds for its non-event channels.

use crate::agg::{StatsAggregator, StatsSnapshot};
use crate::event::{Event, FieldValue};
use crate::recorder::Recorder;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------- MemorySink

/// Buffers every event in memory and aggregates the other channels in
/// an embedded [`StatsAggregator`]; the sink tests assert against.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
    stats: StatsAggregator,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// All events recorded so far, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        lock(&self.events).clone()
    }

    /// The recorded events with the given name, in arrival order.
    pub fn events_named(&self, name: &str) -> Vec<Event> {
        lock(&self.events)
            .iter()
            .filter(|e| e.name == name)
            .cloned()
            .collect()
    }

    /// Current value of a counter routed through this sink.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.stats.counter_total(name)
    }

    /// Point-in-time copy of the counters, gauges, histograms and
    /// timings routed through this sink. Its event counts stay empty:
    /// the events themselves are in [`MemorySink::events`].
    pub fn snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }
}

impl Recorder for MemorySink {
    fn event(&self, event: &Event) {
        lock(&self.events).push(event.clone());
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.stats.counter(name, delta);
    }

    fn gauge(&self, name: &'static str, value: f64) {
        self.stats.gauge(name, value);
    }

    fn histogram(&self, name: &'static str, value: f64) {
        self.stats.histogram(name, value);
    }

    fn timing(&self, name: &'static str, nanos: u64) {
        self.stats.timing(name, nanos);
    }
}

// ------------------------------------------------------------ JsonlSink

/// One buffered trace row. `stream` is a two-level key: untraced
/// events order by chain (`(0, 0)` = run-level, chain c = `(0, c+1)`);
/// traced events order by their trace id (`(1, trace)`), because a
/// trace — one query's causal history — is single-writer by the serve
/// execution model (planner thread first, then exactly one worker).
/// `seq` orders rows within a stream.
#[derive(Debug)]
struct Row {
    stream: (u64, u64),
    seq: u64,
    line: String,
}

#[derive(Debug, Default)]
struct JsonlState {
    rows: Vec<Row>,
    seqs: BTreeMap<(u64, u64), u64>,
}

/// Deterministic JSONL trace sink.
///
/// Events are serialised immediately and buffered per logical stream:
/// run-level, then chain 0, chain 1, ... for untraced events, then one
/// stream per trace id for traced events. [`JsonlSink::render`] sorts
/// by `(stream, sequence)` so the output is byte-identical across runs
/// of the same seed no matter how worker threads interleave — each
/// stream is single-writer by the DESIGN.md §10/§14 determinism rules
/// (a chain has one owning thread; a trace is planned on the batch
/// thread and executed by exactly one worker, never concurrently).
/// Counters, gauges, histograms, and wall-clock timings are
/// deliberately ignored: only the deterministic event channel reaches
/// the trace.
#[derive(Debug, Default)]
pub struct JsonlSink {
    state: Mutex<JsonlState>,
}

impl JsonlSink {
    /// Creates an empty trace sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        lock(&self.state).rows.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the trace: one JSON object per line, sorted by
    /// `(stream, sequence)`, with a trailing newline (empty string when
    /// no events were recorded).
    pub fn render(&self) -> String {
        let mut st = lock(&self.state);
        st.rows.sort_by_key(|r| (r.stream, r.seq));
        let mut out = String::new();
        for row in &st.rows {
            out.push_str(&row.line);
            out.push('\n');
        }
        out
    }

    /// Writes the rendered trace to `path`.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

impl Recorder for JsonlSink {
    fn event(&self, event: &Event) {
        let line = render_jsonl(event);
        let stream = match event.trace {
            Some(t) => (1, t),
            None => (0, event.chain.map(|c| c.saturating_add(1)).unwrap_or(0)),
        };
        let mut guard = lock(&self.state);
        let st = &mut *guard;
        let seq = st.seqs.entry(stream).or_insert(0);
        let s = *seq;
        *seq += 1;
        st.rows.push(Row {
            stream,
            seq: s,
            line,
        });
    }
}

/// Serialises one event as a single JSON line (no trailing newline).
/// Key order is fixed (`event`, `trace`, `chain`, `step`, `fields`)
/// and field order follows the event builder, so output is
/// deterministic.
pub fn render_jsonl(event: &Event) -> String {
    let mut s = String::with_capacity(64);
    s.push_str("{\"event\":");
    push_json_str(&mut s, event.name);
    if let Some(t) = event.trace {
        let _ = write!(s, ",\"trace\":{t}");
    }
    if let Some(c) = event.chain {
        let _ = write!(s, ",\"chain\":{c}");
    }
    if let Some(st) = event.step {
        let _ = write!(s, ",\"step\":{st}");
    }
    if !event.fields.is_empty() {
        s.push_str(",\"fields\":{");
        for (i, (k, v)) in event.fields.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_str(&mut s, k);
            s.push(':');
            push_json_value(&mut s, v);
        }
        s.push('}');
    }
    s.push('}');
    s
}

fn push_json_value(s: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(v) => {
            let _ = write!(s, "{v}");
        }
        FieldValue::F64(v) => {
            if v.is_finite() {
                // `{}` is the shortest round-trip form: deterministic
                // and parseable as a JSON number.
                let _ = write!(s, "{v}");
            } else if v.is_nan() {
                s.push_str("\"NaN\"");
            } else if *v > 0.0 {
                s.push_str("\"inf\"");
            } else {
                s.push_str("\"-inf\"");
            }
        }
        FieldValue::Bool(v) => {
            s.push_str(if *v { "true" } else { "false" });
        }
        FieldValue::Str(v) => push_json_str(s, v),
    }
}

fn push_json_str(s: &mut String, raw: &str) {
    s.push('"');
    for c in raw.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            '\r' => s.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

// ------------------------------------------------------------ MultiSink

/// Fans every channel out to several sinks (e.g. a JSONL trace and a
/// stats aggregator in the same run).
pub struct MultiSink {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl MultiSink {
    /// Creates a tee over the given sinks.
    pub fn new(sinks: Vec<Arc<dyn Recorder>>) -> Self {
        MultiSink { sinks }
    }
}

impl Recorder for MultiSink {
    fn event(&self, event: &Event) {
        for s in &self.sinks {
            s.event(event);
        }
    }

    fn counter(&self, name: &'static str, delta: u64) {
        for s in &self.sinks {
            s.counter(name, delta);
        }
    }

    fn gauge(&self, name: &'static str, value: f64) {
        for s in &self.sinks {
            s.gauge(name, value);
        }
    }

    fn histogram(&self, name: &'static str, value: f64) {
        for s in &self.sinks {
            s.histogram(name, value);
        }
    }

    fn timing(&self, name: &'static str, nanos: u64) {
        for s in &self.sinks {
            s.timing(name, nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_lines_have_fixed_key_order() {
        let e = Event::new("watchdog.stall")
            .chain(2)
            .step(700)
            .f64("acceptance_rate", 0.015)
            .u64("attempt", 1)
            .str("note", "a\"b\\c\nd");
        assert_eq!(
            render_jsonl(&e),
            "{\"event\":\"watchdog.stall\",\"chain\":2,\"step\":700,\
             \"fields\":{\"acceptance_rate\":0.015,\"attempt\":1,\
             \"note\":\"a\\\"b\\\\c\\nd\"}}"
        );
        let t = Event::new("serve.plan.start")
            .trace(0xBEEF)
            .chain(2)
            .step(7);
        assert_eq!(
            render_jsonl(&t),
            "{\"event\":\"serve.plan.start\",\"trace\":48879,\"chain\":2,\"step\":7}"
        );
    }

    #[test]
    fn jsonl_renders_nonfinite_floats_as_strings() {
        let e = Event::new("x").f64("a", f64::NAN).f64("b", f64::INFINITY);
        let line = render_jsonl(&e);
        assert!(line.contains("\"a\":\"NaN\""));
        assert!(line.contains("\"b\":\"inf\""));
    }

    #[test]
    fn jsonl_sink_orders_by_stream_then_sequence() {
        let sink = JsonlSink::new();
        // Simulate interleaved arrival from two chains plus run-level.
        sink.event(&Event::new("b").chain(1).step(1));
        sink.event(&Event::new("run.start"));
        sink.event(&Event::new("a").chain(0).step(1));
        sink.event(&Event::new("c").chain(1).step(2));
        sink.event(&Event::new("d").chain(0).step(2));
        let out = sink.render();
        let names: Vec<&str> = out
            .lines()
            .map(|l| {
                let from = l.find(":\"").map(|i| i + 2).unwrap_or(0);
                let to = l[from..].find('"').map(|i| from + i).unwrap_or(l.len());
                &l[from..to]
            })
            .collect();
        assert_eq!(names, ["run.start", "a", "d", "b", "c"]);
    }

    #[test]
    fn jsonl_sink_gives_each_trace_its_own_stream() {
        let sink = JsonlSink::new();
        // Two traced queries interleaved with untraced run/chain events,
        // simulating planner + worker arrival order. Traced events must
        // regroup per trace after all untraced streams.
        sink.event(&Event::new("q.plan").trace(7));
        sink.event(&Event::new("run.start"));
        sink.event(&Event::new("q.plan").trace(3));
        sink.event(&Event::new("q.exec").trace(7));
        sink.event(&Event::new("chain.step").chain(0));
        sink.event(&Event::new("q.exec").trace(3));
        sink.event(&Event::new("q.done").trace(7));
        let out = sink.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines,
            [
                "{\"event\":\"run.start\"}",
                "{\"event\":\"chain.step\",\"chain\":0}",
                "{\"event\":\"q.plan\",\"trace\":3}",
                "{\"event\":\"q.exec\",\"trace\":3}",
                "{\"event\":\"q.plan\",\"trace\":7}",
                "{\"event\":\"q.exec\",\"trace\":7}",
                "{\"event\":\"q.done\",\"trace\":7}",
            ]
        );
    }

    #[test]
    fn memory_sink_routes_all_channels() {
        let sink = MemorySink::new();
        sink.event(&Event::new("e1"));
        sink.counter("c", 3);
        sink.gauge("g", 1.5);
        sink.histogram("h", 0.5);
        sink.timing("t", 100);
        assert_eq!(sink.events().len(), 1);
        assert_eq!(sink.events_named("e1").len(), 1);
        assert_eq!(sink.counter_value("c"), 3);
        let snap = sink.snapshot();
        assert_eq!(snap.gauges.get("g"), Some(&1.5));
        assert_eq!(snap.quantiles["h"].count, 1);
        assert_eq!(snap.quantiles["t"].count, 1);
    }

    #[test]
    fn multi_sink_tees_to_every_target() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let tee = MultiSink::new(vec![a.clone() as Arc<dyn Recorder>, b.clone() as _]);
        tee.event(&Event::new("x"));
        tee.counter("c", 2);
        assert_eq!(a.events().len(), 1);
        assert_eq!(b.events().len(), 1);
        assert_eq!(a.counter_value("c"), 2);
        assert_eq!(b.counter_value("c"), 2);
    }
}

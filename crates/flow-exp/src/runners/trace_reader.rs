//! JSONL trace reader for `repro report`.
//!
//! Reads back the lines `flow_obs::sink::render_jsonl` writes: one JSON
//! object per line with an `event` name, optional `trace`/`chain`/`step`
//! coordinates and an optional one-level `fields` object of scalars.
//! Lines are parsed with the workspace's JSON parser (`serde_json`).
//! Unparseable lines are skipped rather than failing the whole report —
//! a truncated trace from a killed run should still render.

use serde_json::Value;

/// One scalar value parsed from a trace line.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceValue {
    /// A non-negative JSON integer, kept exact. Trace ids are full
    /// 64-bit hashes, so routing them through `f64` would round away
    /// their low bits and break cross-event joins.
    U64(u64),
    /// Any other JSON number.
    Num(f64),
    /// A JSON boolean.
    Bool(bool),
    /// A JSON string.
    Str(String),
}

impl TraceValue {
    /// The scalar a JSON value holds; `None` for arrays, objects and
    /// null, which trace fields never carry.
    fn from_json(value: Value) -> Option<Self> {
        Some(match value {
            Value::U64(v) => TraceValue::U64(v),
            Value::I64(v) => TraceValue::Num(v as f64),
            Value::F64(v) => TraceValue::Num(v),
            Value::Bool(v) => TraceValue::Bool(v),
            Value::Str(v) => TraceValue::Str(v),
            Value::Array(_) | Value::Object(_) | Value::Null => return None,
        })
    }

    /// Numeric view of the value, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            TraceValue::U64(v) => Some(*v as f64),
            TraceValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Exact unsigned view: integers parse losslessly, floats only
    /// when they are integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            TraceValue::U64(v) => Some(*v),
            TraceValue::Num(v) if v.fract() == 0.0 && (0.0..=u64::MAX as f64).contains(v) => {
                Some(*v as u64)
            }
            _ => None,
        }
    }
}

/// One parsed trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The dotted event name.
    pub name: String,
    /// Trace (query) coordinate, when present.
    pub trace: Option<u64>,
    /// Chain coordinate, when present.
    pub chain: Option<u64>,
    /// Logical step coordinate, when present.
    pub step: Option<u64>,
    /// Field key/value pairs in file order.
    pub fields: Vec<(String, TraceValue)>,
}

impl TraceEvent {
    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&TraceValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Numeric field lookup shorthand.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.field(key).and_then(TraceValue::as_f64)
    }

    /// Exact unsigned field lookup — required for id-valued fields
    /// (`plan_trace`) that must join against the `trace` coordinate.
    pub fn uint(&self, key: &str) -> Option<u64> {
        self.field(key).and_then(TraceValue::as_u64)
    }
}

/// Parses a whole trace, skipping blank and unparseable lines.
pub fn parse_trace(text: &str) -> Vec<TraceEvent> {
    text.lines().filter_map(parse_line).collect()
}

/// Parses one JSONL trace line; `None` if it is not a trace event.
pub fn parse_line(line: &str) -> Option<TraceEvent> {
    let Value::Object(pairs) = serde_json::from_str(line).ok()? else {
        return None;
    };
    let mut name = None;
    let mut ev = TraceEvent {
        name: String::new(),
        trace: None,
        chain: None,
        step: None,
        fields: Vec::new(),
    };
    for (key, value) in pairs {
        match (key.as_str(), value) {
            ("event", Value::Str(s)) => name = Some(s),
            ("trace", Value::U64(n)) => ev.trace = Some(n),
            ("chain", Value::U64(n)) => ev.chain = Some(n),
            ("step", Value::U64(n)) => ev.step = Some(n),
            ("fields", Value::Object(fields)) => ev.fields.extend(
                fields
                    .into_iter()
                    .filter_map(|(k, v)| Some((k, TraceValue::from_json(v)?))),
            ),
            _ => {}
        }
    }
    ev.name = name?;
    Some(ev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_obs::sink::render_jsonl;
    use flow_obs::{event, Event, JsonlSink, ScopedRecorder};
    use std::sync::Arc;

    #[test]
    fn round_trips_rendered_events() {
        let e = Event::new("watchdog.stall")
            .chain(2)
            .step(700)
            .f64("acceptance_rate", 0.015)
            .u64("attempt", 1)
            .bool("restarted", false)
            .str("note", "quote\" slash\\ nl\n done");
        let line = render_jsonl(&e);
        let p = parse_line(&line).unwrap();
        assert_eq!(p.name, "watchdog.stall");
        assert_eq!(p.chain, Some(2));
        assert_eq!(p.step, Some(700));
        assert_eq!(p.num("acceptance_rate"), Some(0.015));
        assert_eq!(p.num("attempt"), Some(1.0));
        assert_eq!(p.field("restarted"), Some(&TraceValue::Bool(false)));
        assert_eq!(
            p.field("note"),
            Some(&TraceValue::Str("quote\" slash\\ nl\n done".to_owned()))
        );
    }

    #[test]
    fn skips_garbage_lines_but_keeps_good_ones() {
        let text = "\n{\"event\":\"a\"}\nnot json\n{\"event\":\"b\",\"chain\":1}\n{\"nope\":1}\n";
        let events = parse_trace(text);
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(events[1].chain, Some(1));
    }

    #[test]
    fn parses_unicode_and_nested_unknown_values() {
        let p = parse_line("{\"event\":\"τ\",\"fields\":{\"x\":1,\"y\":\"π\"}}").unwrap();
        assert_eq!(p.name, "τ");
        assert_eq!(p.num("x"), Some(1.0));
        assert_eq!(p.field("y"), Some(&TraceValue::Str("π".to_owned())));
    }

    #[test]
    fn rejects_truncated_objects() {
        assert!(parse_line("{\"event\":\"a\"").is_none());
        assert!(parse_line("{\"event\":\"a\"} trailing").is_none());
        assert!(parse_line("").is_none());
    }

    #[test]
    fn skips_lines_with_unpaired_surrogate_escapes() {
        let text = "{\"event\":\"\\ud800\\u0041\"}\n{\"event\":\"\\udc00\"}\n{\"event\":\"ok\"}\n";
        let names: Vec<String> = parse_trace(text).into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["ok"]);
    }

    #[test]
    fn round_trips_the_trace_coordinate() {
        let e = Event::new("serve.plan.start").trace(42).chain(1).step(10);
        let p = parse_line(&render_jsonl(&e)).unwrap();
        assert_eq!(p.trace, Some(42));
        assert_eq!(p.chain, Some(1));
        // Traces parsed from pre-v2 lines (no trace key) stay None.
        let old = parse_line("{\"event\":\"legacy\",\"chain\":3}").unwrap();
        assert_eq!(old.trace, None);
    }

    #[test]
    fn full_width_trace_ids_round_trip_exactly() {
        // Trace ids are 64-bit hashes; every bit matters for joining
        // `plan_trace` fields against `trace` coordinates. 2^53-rounding
        // through f64 must never happen.
        let id = 0x1a29_dae1_e81f_c793_u64; // needs >53 bits
        let e = Event::new("serve.query.planned")
            .trace(id)
            .u64("plan_trace", id)
            .u64("query", 3);
        let p = parse_line(&render_jsonl(&e)).unwrap();
        assert_eq!(p.trace, Some(id));
        assert_eq!(p.uint("plan_trace"), Some(id));
        assert_eq!(p.uint("query"), Some(3));
        assert_eq!(p.num("query"), Some(3.0), "f64 view still works");
        assert_eq!(p.uint("missing"), None);
    }

    #[test]
    fn recovers_from_a_truncated_final_line() {
        // A killed run tears the last line mid-object; every line
        // before the tear must still parse.
        let mut text = String::new();
        for i in 0..5u64 {
            text.push_str(&render_jsonl(
                &Event::new("sample").trace(9).chain(0).step(i),
            ));
            text.push('\n');
        }
        let torn = render_jsonl(&Event::new("sample").trace(9).chain(0).step(5));
        text.push_str(&torn[..torn.len() / 2]);
        let events = parse_trace(&text);
        assert_eq!(events.len(), 5, "intact prefix survives the torn tail");
        assert!(events.iter().all(|e| e.trace == Some(9)));
    }

    #[test]
    fn recovers_interleaved_chain_streams() {
        // Lines from two chains (distinct traces) interleaved at the
        // file level: parsing keeps every event and the per-chain
        // sub-streams re-separate cleanly by coordinate.
        let mut text = String::new();
        for step in 0..4u64 {
            for chain in 0..2u64 {
                let e = Event::new("sample")
                    .trace(100 + chain)
                    .chain(chain)
                    .step(step);
                text.push_str(&render_jsonl(&e));
                text.push('\n');
            }
        }
        let events = parse_trace(&text);
        assert_eq!(events.len(), 8);
        for chain in 0..2u64 {
            let steps: Vec<u64> = events
                .iter()
                .filter(|e| e.chain == Some(chain))
                .filter_map(|e| e.step)
                .collect();
            assert_eq!(steps, [0, 1, 2, 3], "chain {chain} stream is ordered");
            assert!(events
                .iter()
                .filter(|e| e.chain == Some(chain))
                .all(|e| e.trace == Some(100 + chain)));
        }
    }

    #[test]
    fn rendered_trace_round_trips_through_the_parser() {
        let sink = Arc::new(JsonlSink::new());
        {
            let _r = ScopedRecorder::install(sink.clone());
            event(|| Event::new("run.start").u64("seed", 42));
            event(|| {
                Event::new("watchdog.stall")
                    .chain(1)
                    .step(900)
                    .f64("acceptance_rate", 0.0125)
            });
        }
        let text = sink.render();
        let parsed = parse_trace(&text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "run.start");
        assert_eq!(parsed[1].name, "watchdog.stall");
        assert_eq!(parsed[1].chain, Some(1));
        assert_eq!(parsed[1].step, Some(900));
        assert_eq!(parsed[1].num("acceptance_rate"), Some(0.0125));
    }
}

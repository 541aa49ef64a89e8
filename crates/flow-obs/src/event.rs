//! Structured events: the unit of record for the tracing layer.
//!
//! Events are keyed by logical coordinates — `(chain, step)` — rather
//! than wall-clock time, so two runs of the same seed produce
//! byte-comparable traces (see DESIGN.md §10 for the taxonomy and the
//! determinism rules).

use std::fmt;

/// One field value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer payload (counts, sizes, indices).
    U64(u64),
    /// Floating-point payload (rates, estimates, means).
    F64(f64),
    /// Boolean payload.
    Bool(bool),
    /// Short string payload (labels, phase names, reasons).
    Str(String),
}

impl FieldValue {
    /// Numeric view of the value, if it has one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::U64(v) => Some(*v as f64),
            FieldValue::F64(v) => Some(*v),
            FieldValue::Bool(_) | FieldValue::Str(_) => None,
        }
    }

    /// Unsigned-integer view of the value, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// String view of the value, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// A structured event on the deterministic trace stream.
///
/// `chain` and `step` are *logical* coordinates: the chain index within
/// a multi-chain run and the sampler step count at emission time. They
/// are never wall-clock derived, which is what makes JSONL traces from
/// two runs of the same seed byte-identical. `trace` is the causal
/// coordinate: the deterministic [`TraceId`](crate::TraceContext) of
/// the query the work belongs to, also clock-free.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Dotted event name, e.g. `watchdog.stall` (taxonomy: DESIGN.md §10).
    pub name: &'static str,
    /// Trace (query) the event belongs to; `None` for unattributed work.
    /// Filled in from the ambient [`crate::TraceContext`] when absent.
    pub trace: Option<u64>,
    /// Chain index the event belongs to; `None` for run-level events.
    /// Filled in from the ambient [`crate::ChainContext`] when absent.
    pub chain: Option<u64>,
    /// Logical step coordinate (sampler steps for chain events).
    pub step: Option<u64>,
    /// Ordered key/value payload; order is preserved in serialised traces.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Starts a new event with the given dotted name.
    pub fn new(name: &'static str) -> Self {
        Event {
            name,
            trace: None,
            chain: None,
            step: None,
            fields: Vec::new(),
        }
    }

    /// Sets the trace (query) coordinate.
    pub fn trace(mut self, trace: u64) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Sets the chain coordinate.
    pub fn chain(mut self, chain: u64) -> Self {
        self.chain = Some(chain);
        self
    }

    /// Sets the logical step coordinate.
    pub fn step(mut self, step: u64) -> Self {
        self.step = Some(step);
        self
    }

    /// Appends an unsigned-integer field.
    pub fn u64(mut self, key: &'static str, value: u64) -> Self {
        self.fields.push((key, FieldValue::U64(value)));
        self
    }

    /// Appends a floating-point field.
    pub fn f64(mut self, key: &'static str, value: f64) -> Self {
        self.fields.push((key, FieldValue::F64(value)));
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, key: &'static str, value: bool) -> Self {
        self.fields.push((key, FieldValue::Bool(value)));
        self
    }

    /// Appends a string field.
    pub fn str(mut self, key: &'static str, value: impl Into<String>) -> Self {
        self.fields.push((key, FieldValue::Str(value.into())));
        self
    }

    /// Looks up a field by key (first match wins).
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_preserves_field_order_and_coordinates() {
        let e = Event::new("chain.finish")
            .chain(3)
            .step(1200)
            .u64("samples", 50)
            .f64("acceptance_rate", 0.25)
            .bool("clean", true)
            .str("phase", "sampling");
        assert_eq!(e.name, "chain.finish");
        assert_eq!(e.chain, Some(3));
        assert_eq!(e.step, Some(1200));
        let keys: Vec<&str> = e.fields.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["samples", "acceptance_rate", "clean", "phase"]);
        assert_eq!(e.field("samples").and_then(FieldValue::as_u64), Some(50));
        assert_eq!(
            e.field("acceptance_rate").and_then(FieldValue::as_f64),
            Some(0.25)
        );
        assert_eq!(e.field("missing"), None);
    }
}

//! RAII span timers for phase profiling (burn-in, thinning, Fenwick
//! rebuild, checkpoint capture/resume, joint-Bayes sweeps).
//!
//! A span emits two *deterministic* events — `span.enter` on creation
//! and `span.exit` on drop, both carrying the phase name and the
//! ambient logical chain coordinate — plus one nondeterministic
//! wall-clock duration on the [`crate::Recorder::timing`] channel.
//! Deterministic sinks keep the events and ignore the duration, so
//! traces stay byte-comparable while the stats aggregator still shows
//! where the time went.

use crate::event::Event;
use crate::recorder::{current_chain, current_trace, enabled, with_recorder};
use std::time::Instant;

/// RAII phase timer. Construct via [`crate::span`]; the phase closes
/// when the value drops.
///
/// When no recorder is installed at construction time the span is
/// inert: no events, no clock read, no work on drop.
#[must_use = "a span records its phase when dropped; binding it to `_` drops it immediately"]
pub struct Span {
    name: &'static str,
    trace: Option<u64>,
    chain: Option<u64>,
    start: Option<Instant>,
}

impl Span {
    // The wall-clock read feeds the timing channel only, never the
    // deterministic event stream, so replayability is unaffected.
    #[allow(clippy::disallowed_methods)]
    pub(crate) fn new(name: &'static str) -> Self {
        if !enabled() {
            return Span {
                name,
                trace: None,
                chain: None,
                start: None,
            };
        }
        let trace = current_trace();
        let chain = current_chain();
        let mut enter = Event::new("span.enter").str("span", name);
        enter.trace = trace;
        enter.chain = chain;
        with_recorder(|r| r.event(&enter));
        Span {
            name,
            trace,
            chain,
            start: Some(Instant::now()),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start.take() else {
            return;
        };
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut exit = Event::new("span.exit").str("span", self.name);
        exit.trace = self.trace;
        exit.chain = self.chain;
        with_recorder(|r| {
            r.event(&exit);
            r.timing(self.name, nanos);
        });
    }
}

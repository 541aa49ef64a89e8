//! # flow-obs — structured observability for the flow-sampling runtime
//!
//! Zero-dependency tracing, metrics, and chain-health telemetry for the
//! MCMC stack (the workspace is offline/vendored, so no `tracing` or
//! `metrics` crates — this is the substrate every perf PR benchmarks
//! against). Four pieces:
//!
//! * a [`Recorder`] trait with a global / thread-local handle whose
//!   disabled path is one relaxed `AtomicBool` load plus a branch
//!   ([`enabled`]) — hot-loop instrumentation is near-free when off;
//! * RAII [`Span`] timers for phase profiling (burn-in, thinning,
//!   Fenwick rebuild, checkpoint capture/resume, joint-Bayes sweeps);
//! * the [`StatsAggregator`], the one place counters, gauges,
//!   histograms and timings are aggregated: windowed counters and
//!   fixed-memory [`QuantileSketch`]es, rendered as text (`repro
//!   --metrics`) or JSON (`repro serve --stats-out`);
//! * sinks: [`MemorySink`] (tests; an event log beside an embedded
//!   aggregator), [`JsonlSink`] — a deterministic JSONL event stream
//!   keyed by `(chain, step)` rather than wall-clock, so traces from
//!   two runs of one seed are byte-identical and replay-comparable —
//!   and the [`MultiSink`] tee.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//!
//! let sink = Arc::new(flow_obs::MemorySink::new());
//! let _guard = flow_obs::ScopedRecorder::install(sink.clone());
//!
//! flow_obs::counter("sampler.steps", 1);
//! flow_obs::event(|| flow_obs::Event::new("chain.finish").chain(0).step(42));
//! {
//!     let _phase = flow_obs::span("mcmc.burn_in");
//!     // ... timed work ...
//! }
//!
//! assert_eq!(sink.counter_value("sampler.steps"), 1);
//! assert_eq!(sink.events_named("chain.finish").len(), 1);
//! ```
//!
//! The event taxonomy, the trace determinism rules, and the overhead
//! budget are specified in DESIGN.md §10 ("Observability contract").

pub mod agg;
pub mod event;
pub mod recorder;
pub mod sink;
pub mod span;

pub use agg::{QuantileSketch, StatsAggregator, StatsSnapshot, WindowedCounter};
pub use event::{Event, FieldValue};
pub use recorder::{
    current_recorder, enabled, set_global, ChainContext, Recorder, ScopedRecorder, TraceContext,
};
pub use sink::{JsonlSink, MemorySink, MultiSink};
pub use span::Span;

/// Records a structured event. The closure runs only when a recorder
/// is installed, so event construction costs nothing when telemetry is
/// off. Events built without an explicit chain inherit the ambient
/// [`ChainContext`], and events without an explicit trace inherit the
/// ambient [`TraceContext`], if any.
#[inline]
pub fn record_event<F: FnOnce() -> Event>(build: F) {
    if !enabled() {
        return;
    }
    let mut e = build();
    if e.chain.is_none() {
        e.chain = recorder::current_chain();
    }
    if e.trace.is_none() {
        e.trace = recorder::current_trace();
    }
    recorder::with_recorder(|r| r.event(&e));
}

/// Alias for [`record_event`]; reads naturally at call sites
/// (`flow_obs::event(|| ...)`).
#[inline]
pub fn event<F: FnOnce() -> Event>(build: F) {
    record_event(build);
}

/// Adds `delta` to the named monotonic counter.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    recorder::with_recorder(|r| r.counter(name, delta));
}

/// Sets the named gauge.
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    recorder::with_recorder(|r| r.gauge(name, value));
}

/// Records one observation on the named histogram channel.
#[inline]
pub fn histogram(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    recorder::with_recorder(|r| r.histogram(name, value));
}

/// Records a wall-clock duration for the named span (nondeterministic
/// channel; deterministic sinks ignore it).
#[inline]
pub fn timing(name: &'static str, nanos: u64) {
    if !enabled() {
        return;
    }
    recorder::with_recorder(|r| r.timing(name, nanos));
}

/// Opens a run-level RAII phase span (chain inherited from the ambient
/// [`ChainContext`], if any).
#[inline]
pub fn span(name: &'static str) -> Span {
    Span::new(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

    /// flow-obs state (the enabled flag) is process-global; tests that
    /// install recorders serialise on this lock so parallel test
    /// threads cannot perturb each other's enabled/disabled phases.
    fn guard() -> MutexGuard<'static, ()> {
        static M: OnceLock<Mutex<()>> = OnceLock::new();
        M.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_path_skips_event_construction() {
        let _g = guard();
        let mut built = false;
        event(|| {
            built = true;
            Event::new("never")
        });
        assert!(!built, "closure must not run with no recorder installed");
        assert!(!enabled());
    }

    #[test]
    fn scoped_recorder_captures_and_uninstalls() {
        let _g = guard();
        let sink = Arc::new(MemorySink::new());
        {
            let _r = ScopedRecorder::install(sink.clone());
            assert!(enabled());
            counter("c", 2);
            counter("c", 3);
            gauge("g", 0.5);
            histogram("h", 0.25);
            event(|| Event::new("e").u64("k", 1));
        }
        assert!(!enabled());
        counter("c", 100); // dropped: no recorder
        assert_eq!(sink.counter_value("c"), 5);
        assert_eq!(sink.snapshot().gauges.get("g"), Some(&0.5));
        assert_eq!(sink.events_named("e").len(), 1);
    }

    #[test]
    fn scoped_recorder_nests_and_restores() {
        let _g = guard();
        let outer = Arc::new(MemorySink::new());
        let inner = Arc::new(MemorySink::new());
        let _o = ScopedRecorder::install(outer.clone());
        {
            let _i = ScopedRecorder::install(inner.clone());
            event(|| Event::new("x"));
        }
        event(|| Event::new("y"));
        assert_eq!(inner.events_named("x").len(), 1);
        assert_eq!(inner.events_named("y").len(), 0);
        assert_eq!(outer.events_named("y").len(), 1);
        assert_eq!(outer.events_named("x").len(), 0);
    }

    #[test]
    fn global_recorder_lifecycle() {
        let _g = guard();
        let sink = Arc::new(MemorySink::new());
        set_global(Some(sink.clone()));
        assert!(enabled());
        event(|| Event::new("via_global"));
        set_global(None);
        assert!(!enabled());
        event(|| Event::new("after_uninstall"));
        assert_eq!(sink.events_named("via_global").len(), 1);
        assert_eq!(sink.events_named("after_uninstall").len(), 0);
    }

    #[test]
    fn thread_local_wins_over_global() {
        let _g = guard();
        let global = Arc::new(MemorySink::new());
        let local = Arc::new(MemorySink::new());
        set_global(Some(global.clone()));
        {
            let _r = ScopedRecorder::install(local.clone());
            event(|| Event::new("scoped"));
        }
        event(|| Event::new("global"));
        set_global(None);
        assert_eq!(local.events_named("scoped").len(), 1);
        assert_eq!(global.events_named("scoped").len(), 0);
        assert_eq!(global.events_named("global").len(), 1);
    }

    #[test]
    fn chain_context_stamps_events_and_spans() {
        let _g = guard();
        let sink = Arc::new(MemorySink::new());
        let _r = ScopedRecorder::install(sink.clone());
        {
            let _c = ChainContext::enter(7);
            event(|| Event::new("inside"));
            event(|| Event::new("explicit").chain(3));
            let _s = span("phase.inner");
        }
        event(|| Event::new("outside"));
        assert_eq!(sink.events_named("inside")[0].chain, Some(7));
        assert_eq!(sink.events_named("explicit")[0].chain, Some(3));
        assert_eq!(sink.events_named("outside")[0].chain, None);
        let enters = sink.events_named("span.enter");
        assert_eq!(enters.len(), 1);
        assert_eq!(enters[0].chain, Some(7));
        let exits = sink.events_named("span.exit");
        assert_eq!(exits[0].chain, Some(7));
    }

    #[test]
    fn span_emits_enter_exit_and_timing() {
        let _g = guard();
        let sink = Arc::new(MemorySink::new());
        let _r = ScopedRecorder::install(sink.clone());
        {
            let _s = span("mcmc.burn_in");
        }
        let enters = sink.events_named("span.enter");
        let exits = sink.events_named("span.exit");
        assert_eq!(enters.len(), 1);
        assert_eq!(exits.len(), 1);
        assert_eq!(
            enters[0].field("span").and_then(FieldValue::as_str),
            Some("mcmc.burn_in")
        );
        assert_eq!(sink.snapshot().quantiles["mcmc.burn_in"].count, 1);
    }

    #[test]
    fn inert_span_costs_nothing_when_disabled() {
        let _g = guard();
        {
            let _s = span("never.recorded");
        }
        // Installing afterwards must show nothing from the inert span.
        let sink = Arc::new(MemorySink::new());
        let _r = ScopedRecorder::install(sink.clone());
        assert!(sink.events().is_empty());
        assert!(!sink.snapshot().quantiles.contains_key("never.recorded"));
    }

    #[test]
    fn jsonl_trace_is_identical_across_thread_interleavings() {
        let _g = guard();
        // Two "chains" writing through the same shared sink from racing
        // threads: the rendered trace must come out identical to the
        // sequential reference because each chain is its own stream.
        let reference = {
            let sink = Arc::new(JsonlSink::new());
            for chain in 0..2u64 {
                let _c = ChainContext::enter(chain);
                let _r = ScopedRecorder::install(sink.clone());
                for step in 0..50u64 {
                    event(|| Event::new("sample").step(step).u64("flow", step % 2));
                }
            }
            sink.render()
        };
        for _attempt in 0..4 {
            let sink = Arc::new(JsonlSink::new());
            std::thread::scope(|scope| {
                for chain in 0..2u64 {
                    let sink = sink.clone();
                    scope.spawn(move || {
                        let _c = ChainContext::enter(chain);
                        let _r = ScopedRecorder::install(sink);
                        for step in 0..50u64 {
                            event(|| Event::new("sample").step(step).u64("flow", step % 2));
                        }
                    });
                }
            });
            assert_eq!(sink.render(), reference);
        }
    }
}

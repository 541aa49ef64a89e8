//! The [`Recorder`] trait and the global / thread-local dispatch handle.
//!
//! The disabled path is a single relaxed load of an `AtomicBool` plus a
//! branch, so instrumentation left in hot loops costs close to nothing
//! when no recorder is installed (the overhead budget is pinned by
//! `BENCH_sampler.json`; see DESIGN.md §10).
//!
//! Dispatch precedence: a thread-local [`ScopedRecorder`] wins over the
//! process-wide global recorder. Tests install scoped recorders so
//! parallel test threads never observe each other's telemetry.

use crate::event::Event;
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Backend interface for observability data.
///
/// All methods take `&self`: recorders are shared across threads and
/// must synchronise internally. Every method except [`Recorder::event`]
/// has a no-op default so sinks implement only the channels they carry.
pub trait Recorder: Send + Sync {
    /// Records a structured event on the deterministic trace stream.
    fn event(&self, event: &Event);

    /// Adds `delta` to the named monotonic counter.
    fn counter(&self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Sets the named gauge to `value` (last write wins).
    fn gauge(&self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Records one observation on the named histogram channel.
    fn histogram(&self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Records a wall-clock duration for the named span.
    ///
    /// Durations are nondeterministic by nature; sinks that promise
    /// replay-comparable output (the JSONL trace) MUST ignore this
    /// channel (DESIGN.md §10 determinism rules).
    fn timing(&self, name: &'static str, nanos: u64) {
        let _ = (name, nanos);
    }
}

/// Fast-path gate: true while at least one recorder (global or any
/// thread's scoped recorder) is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Number of installed recorders backing [`ENABLED`].
static INSTALLS: AtomicUsize = AtomicUsize::new(0);

/// The process-wide recorder, consulted when no scoped recorder is set.
static GLOBAL: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

thread_local! {
    /// Per-thread recorder override (test isolation).
    static LOCAL: RefCell<Option<Arc<dyn Recorder>>> = const { RefCell::new(None) };
    /// Ambient chain coordinate stamped onto chain-less events.
    static CHAIN: Cell<Option<u64>> = const { Cell::new(None) };
    /// Ambient trace (query) coordinate stamped onto trace-less events.
    static TRACE: Cell<Option<u64>> = const { Cell::new(None) };
}

/// True while any recorder is installed. This is the only cost the
/// instrumented hot paths pay when observability is off.
#[inline(always)]
pub fn enabled() -> bool {
    // flow-analyze: allow(L9: installs and removes store ENABLED with SeqCst — a stale read here only skips or records one extra telemetry event and never gates estimator or serving state)
    ENABLED.load(Ordering::Relaxed)
}

fn add_install() {
    INSTALLS.fetch_add(1, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
}

fn remove_install() {
    if INSTALLS.fetch_sub(1, Ordering::SeqCst) == 1 {
        ENABLED.store(false, Ordering::SeqCst);
    }
}

/// Installs (`Some`) or removes (`None`) the process-wide recorder.
///
/// The CLI installs its sink stack here once at startup; library code
/// never calls this. Tests should prefer [`ScopedRecorder`].
pub fn set_global(recorder: Option<Arc<dyn Recorder>>) {
    let had;
    let has = recorder.is_some();
    {
        let mut slot = GLOBAL.write().unwrap_or_else(|e| e.into_inner());
        had = slot.is_some();
        *slot = recorder;
    }
    match (had, has) {
        (false, true) => add_install(),
        (true, false) => remove_install(),
        _ => {}
    }
}

/// RAII guard installing a recorder for the current thread only.
///
/// While alive, telemetry emitted on this thread goes to `recorder`
/// even if a global recorder is also installed. Dropping the guard
/// restores whatever was installed before. The guard is `!Send`: it
/// must drop on the thread that created it.
pub struct ScopedRecorder {
    prev: Option<Arc<dyn Recorder>>,
    _not_send: PhantomData<*const ()>,
}

impl ScopedRecorder {
    /// Installs `recorder` for the current thread until drop.
    pub fn install(recorder: Arc<dyn Recorder>) -> Self {
        let prev = LOCAL.with(|l| l.borrow_mut().replace(recorder));
        if prev.is_none() {
            add_install();
        }
        ScopedRecorder {
            prev,
            _not_send: PhantomData,
        }
    }
}

impl Drop for ScopedRecorder {
    fn drop(&mut self) {
        let restored = self.prev.take();
        let restoring = restored.is_some();
        LOCAL.with(|l| *l.borrow_mut() = restored);
        if !restoring {
            remove_install();
        }
    }
}

/// RAII guard declaring "work on this thread belongs to chain `c`".
///
/// Events built without an explicit chain, and spans opened while the
/// context is alive, are stamped with this chain index. The parallel
/// estimator enters a context per worker so per-chain JSONL streams
/// stay deterministic regardless of thread interleaving. `!Send` for
/// the same reason as [`ScopedRecorder`].
pub struct ChainContext {
    prev: Option<u64>,
    _not_send: PhantomData<*const ()>,
}

impl ChainContext {
    /// Marks the current thread as working on chain `chain` until drop.
    pub fn enter(chain: u64) -> Self {
        let prev = CHAIN.with(|c| c.replace(Some(chain)));
        ChainContext {
            prev,
            _not_send: PhantomData,
        }
    }
}

impl Drop for ChainContext {
    fn drop(&mut self) {
        let prev = self.prev;
        CHAIN.with(|c| c.set(prev));
    }
}

/// The ambient chain coordinate, if a [`ChainContext`] is active.
pub(crate) fn current_chain() -> Option<u64> {
    CHAIN.with(Cell::get)
}

/// RAII guard declaring "work on this thread serves trace (query) `t`".
///
/// A trace id is a deterministic, clock-free identifier for one query:
/// the serving layer derives it from the canonical query key and the
/// query's index in its batch, so two runs of one seed stamp identical
/// ids. Events built without an explicit trace, and spans opened while
/// the context is alive, inherit this id — which is what lets a flat
/// JSONL trace be re-grouped into per-query span trees afterwards.
/// `!Send` for the same reason as [`ScopedRecorder`].
pub struct TraceContext {
    prev: Option<u64>,
    _not_send: PhantomData<*const ()>,
}

impl TraceContext {
    /// Marks the current thread as serving trace `trace` until drop.
    pub fn enter(trace: u64) -> Self {
        let prev = TRACE.with(|t| t.replace(Some(trace)));
        TraceContext {
            prev,
            _not_send: PhantomData,
        }
    }
}

impl Drop for TraceContext {
    fn drop(&mut self) {
        let prev = self.prev;
        TRACE.with(|t| t.set(prev));
    }
}

/// The ambient trace coordinate, if a [`TraceContext`] is active.
pub(crate) fn current_trace() -> Option<u64> {
    TRACE.with(Cell::get)
}

/// The recorder the current thread would dispatch to (thread-local
/// first, then global), or `None` when telemetry is off.
///
/// Worker pools use this to *propagate* the caller's recorder into
/// spawned threads: capture it before `spawn`, then
/// [`ScopedRecorder::install`] the clone inside each worker. Without
/// this, a test's thread-scoped sink would silently miss everything
/// its workers emit.
pub fn current_recorder() -> Option<Arc<dyn Recorder>> {
    if !enabled() {
        return None;
    }
    let local = LOCAL.with(|l| l.try_borrow().ok().and_then(|g| g.clone()));
    if local.is_some() {
        return local;
    }
    GLOBAL.read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Runs `f` against the active recorder (thread-local first, then
/// global); no-op when none is installed. Callers check [`enabled`]
/// first so the disabled path never reaches the locks below.
pub(crate) fn with_recorder(f: impl FnOnce(&dyn Recorder)) {
    let local = LOCAL.with(|l| l.try_borrow().ok().and_then(|g| g.clone()));
    if let Some(r) = local {
        f(r.as_ref());
        return;
    }
    let global = GLOBAL.read().unwrap_or_else(|e| e.into_inner()).clone();
    if let Some(r) = global {
        f(r.as_ref());
    }
}

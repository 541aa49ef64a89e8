//! The benchmark's own span recorder. Spans are opened and closed on
//! the client thread around calls into a layer's public functions, kept
//! in memory until the run ends, and reduced to self times: a span's
//! duration minus the part its child spans cover. A tracer made with
//! [`Tracer::off`] records nothing: its [`Tracer::time`] just calls the
//! closure, so the timed path shares the traced path's code.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Batch the call served.
    pub batch: u32,
    /// Query (index within the batch) the call served, if one.
    pub query: Option<u32>,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Totals for one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
}

/// Span id [`Tracer::begin`] returns when tracing is off.
const NO_SPAN: usize = usize::MAX;

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    batch: u32,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            batch: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the batch stamped on spans opened from now on.
    pub fn set_batch(&mut self, batch: usize) {
        self.batch = batch as u32;
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, query: Option<usize>) -> usize {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            batch: self.batch,
            query: query.map(|q| q as u32),
        });
        self.open.push(id);
        // Stamp the start last, so bookkeeping stays outside the span.
        self.spans[id].start_ns = self.now_ns();
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        if id == NO_SPAN {
            return;
        }
        let now = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        query: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let id = self.begin(name, query);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, self time included.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.ns();
            t.self_ns += s.ns().saturating_sub(c);
        }
        out
    }
}

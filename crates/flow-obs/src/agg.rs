//! Fixed-memory metrics aggregation: quantile sketches, windowed
//! counters, and the [`StatsAggregator`] sink that feeds them from the
//! ordinary [`Recorder`] channels. It is the only place recorder
//! channels are aggregated: `repro --metrics`, `repro serve
//! --stats-out`, `bench_serve` and [`crate::MemorySink`] all read it.
//!
//! Tail behaviour, not the mean, is what serving workloads live and
//! die by, so the aggregation layer reports p50/p95/p99 from a
//! log-bucketed [`QuantileSketch`] (DDSketch-style: bounded relative
//! error, constant memory) instead of exact-but-unbounded reservoirs.
//! Counters are tracked both all-time and per *logical window* —
//! windows roll at batch boundaries (a deterministic coordinate), never
//! on wall-clock, so snapshots of the same event stream are
//! byte-identical (DESIGN.md §14).

use crate::event::Event;
use crate::recorder::Recorder;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ------------------------------------------------------ QuantileSketch

/// Key of the lowest log bucket, `(γ^-139, γ^-138]` ≈ `(9.1e-7, 1.0e-6]`:
/// acceptance rates and other small ratios keep ±5% down to 1e-6.
/// Smaller positive values clamp into it.
const MIN_KEY: i32 = -138;

/// Key of the highest log bucket, ending at γ^319 ≈ 7.4e13 (about 20
/// hours in nanoseconds). Larger values clamp into it.
const MAX_KEY: i32 = 319;

/// Slot 0 counts exact zeros; slots `1..` hold keys `MIN_KEY..=MAX_KEY`.
const BUCKETS: usize = (MAX_KEY - MIN_KEY) as usize + 2;

/// Bucket growth ratio for 5% relative accuracy:
/// `gamma = (1 + α) / (1 − α)` with `α = 0.05`.
const GAMMA: f64 = 1.0 / 0.95 * 1.05;

/// Fixed-memory quantile sketch with bounded *relative* error.
///
/// Positive values are assigned to log-spaced buckets (`key =
/// ⌈ln v / ln γ⌉`, 1e-6 ≤ v ≤ 7.4e13) and zeros to a bucket of their
/// own; a reported quantile is the geometric midpoint of the bucket
/// holding that rank, so it is within ±5% of the true value (α = 0.05).
/// Memory is a constant `BUCKETS × 8` bytes per sketch regardless of
/// how many observations arrive. Inserting the
/// same multiset of values always yields the same buckets, so
/// snapshots are deterministic given deterministic inputs.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    buckets: Vec<u64>,
    count: u64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        QuantileSketch {
            buckets: vec![0; BUCKETS],
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Slot of a non-negative finite value.
    fn index_of(value: f64) -> usize {
        if value <= 0.0 {
            return 0;
        }
        let key = (value.ln() / GAMMA.ln())
            .ceil()
            .clamp(f64::from(MIN_KEY), f64::from(MAX_KEY));
        (key - f64::from(MIN_KEY)) as usize + 1
    }

    /// Geometric midpoint of slot `i`'s bucket: within ±α of any value
    /// the bucket holds (exactly 0 for the zero slot).
    fn representative(i: usize) -> f64 {
        if i == 0 {
            return 0.0;
        }
        2.0 * GAMMA.powi(MIN_KEY + i as i32 - 1) / (1.0 + GAMMA)
    }

    /// Records one observation. Non-finite and negative values are
    /// dropped (they carry no rank information).
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() || value < 0.0 {
            return;
        }
        self.buckets[Self::index_of(value)] += 1;
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum observed value (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact minimum observed value (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// The value at quantile `q ∈ [0, 1]`, within ±5% relative error
    /// (`None` when empty). `q = 0` reports the exact minimum and
    /// `q = 1` the exact maximum.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Clamp into the observed range so sparse sketches
                // never report beyond their own min/max.
                return Some(Self::representative(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

// ----------------------------------------------------- WindowedCounter

/// Closed windows retained per counter.
const RETAINED_WINDOWS: usize = 8;

/// A monotonic counter that also tracks per-window subtotals.
///
/// Windows are *logical*: they close when [`WindowedCounter::roll`] is
/// called (the aggregator rolls every counter at batch boundaries),
/// never on wall-clock. The last [`RETAINED_WINDOWS`] closed windows
/// are kept so a snapshot can show recent rate alongside the all-time
/// total in constant memory.
#[derive(Debug, Clone, Default)]
pub struct WindowedCounter {
    total: u64,
    current: u64,
    closed: VecDeque<u64>,
}

impl WindowedCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the total and the open window.
    pub fn add(&mut self, delta: u64) {
        self.total += delta;
        self.current += delta;
    }

    /// Closes the open window, retaining at most
    /// [`RETAINED_WINDOWS`] closed subtotals.
    pub fn roll(&mut self) {
        self.closed.push_back(self.current);
        self.current = 0;
        while self.closed.len() > RETAINED_WINDOWS {
            self.closed.pop_front();
        }
    }

    /// All-time total.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Subtotal of the still-open window.
    pub fn open_window(&self) -> u64 {
        self.current
    }

    /// Retained closed-window subtotals, oldest first.
    pub fn closed_windows(&self) -> Vec<u64> {
        self.closed.iter().copied().collect()
    }
}

// ----------------------------------------------------- StatsAggregator

#[derive(Debug, Default)]
struct AggState {
    counters: BTreeMap<&'static str, WindowedCounter>,
    gauges: BTreeMap<&'static str, f64>,
    sketches: BTreeMap<&'static str, QuantileSketch>,
    events: BTreeMap<String, u64>,
    windows_rolled: u64,
}

/// A [`Recorder`] that folds every channel into fixed-memory
/// aggregates: windowed counters, last-write gauges, per-name quantile
/// sketches (fed by both the `timing` and `histogram` channels), and
/// event counts by name.
///
/// The serving layer installs one next to the JSONL trace sink and
/// calls [`StatsAggregator::roll_windows`] once per batch; `repro
/// serve --stats-out` writes the [`StatsSnapshot`] at exit, and `repro
/// --metrics` prints its text form to stderr.
#[derive(Debug, Default)]
pub struct StatsAggregator {
    state: Mutex<AggState>,
}

impl StatsAggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Closes the current logical window on every counter. Call at a
    /// deterministic boundary (e.g. per served batch), never on a
    /// timer, so snapshots of the same stream stay byte-identical.
    pub fn roll_windows(&self) {
        let mut st = lock(&self.state);
        st.windows_rolled += 1;
        for c in st.counters.values_mut() {
            c.roll();
        }
    }

    /// All-time total of the named counter (0 if never touched).
    pub fn counter_total(&self, name: &str) -> u64 {
        lock(&self.state)
            .counters
            .get(name)
            .map_or(0, WindowedCounter::total)
    }

    /// Point-in-time copy of every aggregate.
    pub fn snapshot(&self) -> StatsSnapshot {
        let st = lock(&self.state);
        let counter = |name: &str| st.counters.get(name).map_or(0, WindowedCounter::total);
        let hits = counter("serve.cache.hit");
        let misses = counter("serve.cache.miss");
        let serve = ServeStatsSummary {
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_ratio: if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            shed: counter("serve.shed"),
            retries: counter("serve.retry"),
            breaker_opens: counter("serve.breaker.open"),
        };
        StatsSnapshot {
            serve,
            counters: st
                .counters
                .iter()
                .map(|(k, c)| {
                    (
                        (*k).to_owned(),
                        CounterStat {
                            total: c.total(),
                            open_window: c.open_window(),
                            closed_windows: c.closed_windows(),
                        },
                    )
                })
                .collect(),
            gauges: st
                .gauges
                .iter()
                .map(|(k, v)| ((*k).to_owned(), *v))
                .collect(),
            quantiles: st
                .sketches
                .iter()
                .map(|(k, s)| {
                    (
                        (*k).to_owned(),
                        QuantileStat {
                            count: s.count(),
                            p50: s.quantile(0.50).unwrap_or(0.0),
                            p95: s.quantile(0.95).unwrap_or(0.0),
                            p99: s.quantile(0.99).unwrap_or(0.0),
                            max: s.max().unwrap_or(0.0),
                        },
                    )
                })
                .collect(),
            events: st.events.clone(),
            windows_rolled: st.windows_rolled,
        }
    }
}

impl Recorder for StatsAggregator {
    fn event(&self, event: &Event) {
        let mut st = lock(&self.state);
        *st.events.entry(event.name.to_owned()).or_insert(0) += 1;
    }

    fn counter(&self, name: &'static str, delta: u64) {
        lock(&self.state)
            .counters
            .entry(name)
            .or_default()
            .add(delta);
    }

    fn gauge(&self, name: &'static str, value: f64) {
        lock(&self.state).gauges.insert(name, value);
    }

    fn histogram(&self, name: &'static str, value: f64) {
        lock(&self.state)
            .sketches
            .entry(name)
            .or_default()
            .record(value);
    }

    fn timing(&self, name: &'static str, nanos: u64) {
        lock(&self.state)
            .sketches
            .entry(name)
            .or_default()
            .record(nanos as f64);
    }
}

// ------------------------------------------------------- StatsSnapshot

/// Derived serving health numbers (the ones `BENCH_serve.json` and the
/// runtime snapshot share).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStatsSummary {
    /// Cache lookups that hit.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
    /// `hits / (hits + misses)`, 0 when no lookups happened.
    pub cache_hit_ratio: f64,
    /// Admission-control sheds.
    pub shed: u64,
    /// Plan retry attempts.
    pub retries: u64,
    /// Circuit-breaker open transitions.
    pub breaker_opens: u64,
}

/// One counter's aggregate view.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterStat {
    /// All-time total.
    pub total: u64,
    /// Subtotal of the still-open window.
    pub open_window: u64,
    /// Retained closed-window subtotals, oldest first.
    pub closed_windows: Vec<u64>,
}

/// One sketch's quantile summary.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileStat {
    /// Observations recorded.
    pub count: u64,
    /// Median (±5% relative error).
    pub p50: f64,
    /// 95th percentile (±5% relative error).
    pub p95: f64,
    /// 99th percentile (±5% relative error).
    pub p99: f64,
    /// Exact maximum.
    pub max: f64,
}

/// Point-in-time aggregate state, renderable as deterministic text or
/// JSON (`BTreeMap` key order; floats in shortest round-trip form).
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Derived serving summary.
    pub serve: ServeStatsSummary,
    /// Windowed counters by name.
    pub counters: BTreeMap<String, CounterStat>,
    /// Last-write gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Quantile summaries by sketch name.
    pub quantiles: BTreeMap<String, QuantileStat>,
    /// Event counts by name.
    pub events: BTreeMap<String, u64>,
    /// Windows closed so far.
    pub windows_rolled: u64,
}

/// Shortest-round-trip float rendering shared by both snapshot forms;
/// non-finite values render as quoted strings, mirroring the JSONL
/// trace convention.
fn push_f64_json(s: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(s, "{v}");
    } else if v.is_nan() {
        s.push_str("\"NaN\"");
    } else if v > 0.0 {
        s.push_str("\"inf\"");
    } else {
        s.push_str("\"-inf\"");
    }
}

impl StatsSnapshot {
    /// Renders the human-readable text form.
    pub fn render_text(&self) -> String {
        let mut s = String::from("== flow-obs stats ==\n");
        let _ = writeln!(
            s,
            "serve: hit_ratio={} ({}/{} lookups) shed={} retries={} breaker_opens={}",
            self.serve.cache_hit_ratio,
            self.serve.cache_hits,
            self.serve.cache_hits + self.serve.cache_misses,
            self.serve.shed,
            self.serve.retries,
            self.serve.breaker_opens,
        );
        let _ = writeln!(s, "windows_rolled: {}", self.windows_rolled);
        if !self.quantiles.is_empty() {
            s.push_str("latency quantiles (ns unless noted):\n");
            for (name, q) in &self.quantiles {
                let _ = writeln!(
                    s,
                    "  {name:<32} n={} p50={} p95={} p99={} max={}",
                    q.count, q.p50, q.p95, q.p99, q.max
                );
            }
        }
        if !self.counters.is_empty() {
            s.push_str("counters (total | open window | closed windows):\n");
            for (name, c) in &self.counters {
                let windows: Vec<String> = c.closed_windows.iter().map(|w| w.to_string()).collect();
                let _ = writeln!(
                    s,
                    "  {name:<32} {} | {} | [{}]",
                    c.total,
                    c.open_window,
                    windows.join(" ")
                );
            }
        }
        if !self.gauges.is_empty() {
            s.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(s, "  {name:<32} {v}");
            }
        }
        if !self.events.is_empty() {
            s.push_str("events:\n");
            for (name, n) in &self.events {
                let _ = writeln!(s, "  {name:<32} {n}");
            }
        }
        s
    }

    /// Renders the JSON form (schema [`flow_core::schema::OBS_STATS`]).
    /// Key order is fixed, map entries are sorted, floats use shortest
    /// round-trip form: the output is deterministic given
    /// deterministic inputs.
    pub fn render_json(&self) -> String {
        let mut s = format!(
            "{{\n  \"schema\": \"{}\",\n",
            flow_core::schema::OBS_STATS.tag()
        );
        let _ = writeln!(
            s,
            "  \"serve\": {{\"cache_hit_ratio\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"shed\": {}, \"retries\": {}, \"breaker_opens\": {}}},",
            self.serve.cache_hit_ratio,
            self.serve.cache_hits,
            self.serve.cache_misses,
            self.serve.shed,
            self.serve.retries,
            self.serve.breaker_opens,
        );
        let _ = writeln!(s, "  \"windows_rolled\": {},", self.windows_rolled);
        s.push_str("  \"quantiles\": {");
        for (i, (name, q)) in self.quantiles.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\n    \"{name}\": {{\"count\": {}, \"p50\": ", q.count);
            push_f64_json(&mut s, q.p50);
            s.push_str(", \"p95\": ");
            push_f64_json(&mut s, q.p95);
            s.push_str(", \"p99\": ");
            push_f64_json(&mut s, q.p99);
            s.push_str(", \"max\": ");
            push_f64_json(&mut s, q.max);
            s.push('}');
        }
        if !self.quantiles.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n  \"counters\": {");
        for (i, (name, c)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let windows: Vec<String> = c.closed_windows.iter().map(|w| w.to_string()).collect();
            let _ = write!(
                s,
                "\n    \"{name}\": {{\"total\": {}, \"open_window\": {}, \"closed_windows\": [{}]}}",
                c.total,
                c.open_window,
                windows.join(", ")
            );
        }
        if !self.counters.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\n    \"{name}\": ");
            push_f64_json(&mut s, *v);
        }
        if !self.gauges.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n  \"events\": {");
        for (i, (name, n)) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\n    \"{name}\": {n}");
        }
        if !self.events.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("}\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_quantiles_have_bounded_relative_error() {
        let mut sk = QuantileSketch::new();
        for v in 1..=10_000u64 {
            sk.record(v as f64);
        }
        assert_eq!(sk.count(), 10_000);
        for (q, truth) in [(0.50, 5000.0), (0.95, 9500.0), (0.99, 9900.0)] {
            let got = sk.quantile(q).unwrap();
            let rel = (got - truth).abs() / truth;
            assert!(rel <= 0.055, "q{q}: got {got}, truth {truth}, rel {rel}");
        }
        assert_eq!(sk.quantile(1.0), Some(10_000.0));
        assert_eq!(sk.quantile(0.0), Some(1.0));
    }

    #[test]
    fn sketch_keeps_relative_error_from_1e_minus_6_to_1e12() {
        // Ten values per decade over [1e-6, 1e12]: every rank must read
        // back within ±5% of its exact order statistic, rates below 1
        // included.
        let values: Vec<f64> = (0..=180)
            .map(|i| 10f64.powf(-6.0 + f64::from(i) / 10.0))
            .collect();
        let mut sk = QuantileSketch::new();
        for &v in &values {
            sk.record(v);
        }
        for (rank, &truth) in values.iter().enumerate() {
            let q = (rank as f64 + 0.5) / values.len() as f64;
            let got = sk.quantile(q).unwrap();
            let rel = (got - truth).abs() / truth;
            assert!(rel <= 0.05 + 1e-9, "q{q}: got {got}, truth {truth}");
        }
    }

    #[test]
    fn sketch_reports_rates_and_exact_zeros() {
        let mut rates = QuantileSketch::new();
        for i in 1..=9 {
            rates.record(f64::from(i) / 10.0);
        }
        let p50 = rates.quantile(0.50).unwrap();
        let p95 = rates.quantile(0.95).unwrap();
        assert!((p50 - 0.5).abs() <= 0.5 * 0.05, "p50 {p50}");
        assert!((p95 - 0.9).abs() <= 0.9 * 0.05, "p95 {p95}");

        let mut zeros = QuantileSketch::new();
        for v in [0.0, 0.0, 0.0, 0.25] {
            zeros.record(v);
        }
        assert_eq!(zeros.quantile(0.5), Some(0.0));
        assert_eq!(zeros.quantile(0.75), Some(0.0));
    }

    #[test]
    fn sketch_is_fixed_memory_and_clamps_extremes() {
        let mut sk = QuantileSketch::new();
        sk.record(0.0);
        sk.record(1e300); // clamps into the top bucket
        sk.record(f64::NAN); // dropped
        sk.record(-5.0); // dropped
        assert_eq!(sk.count(), 2);
        assert_eq!(sk.max(), Some(1e300));
        assert_eq!(sk.buckets.len(), BUCKETS);
    }

    #[test]
    fn same_observations_yield_byte_identical_snapshots() {
        let render = || {
            let agg = StatsAggregator::new();
            for i in 0..500u64 {
                agg.histogram("serve.latency", (i * 37 % 9973) as f64);
                agg.counter("serve.cache.hit", i % 3);
            }
            agg.counter("serve.cache.miss", 7);
            agg.gauge("serve.queue.depth", 4.0);
            agg.event(&Event::new("serve.shed"));
            agg.roll_windows();
            agg.counter("serve.cache.hit", 5);
            let snap = agg.snapshot();
            (snap.render_text(), snap.render_json())
        };
        let (t1, j1) = render();
        let (t2, j2) = render();
        assert_eq!(t1, t2, "text snapshot must be byte-identical");
        assert_eq!(j1, j2, "json snapshot must be byte-identical");
        assert!(j1.contains("\"schema\": \"flow-obs/stats-v1\""));
    }

    #[test]
    fn text_snapshot_lists_events_counters_and_quantiles() {
        let agg = StatsAggregator::new();
        agg.event(&Event::new("chain.finish"));
        agg.event(&Event::new("chain.finish"));
        agg.counter("sampler.steps", 10);
        agg.timing("mcmc.sampling", 2_000);
        let text = agg.snapshot().render_text();
        assert!(text.contains("  chain.finish                     2\n"));
        assert!(text.contains("  sampler.steps                    10 | 10 | []\n"));
        assert!(text.contains("  mcmc.sampling                    n=1 p50=2000 "));
    }

    #[test]
    fn windows_roll_and_retain_a_bounded_history() {
        let mut c = WindowedCounter::new();
        for w in 0..12u64 {
            c.add(w + 1);
            c.roll();
        }
        c.add(100);
        assert_eq!(c.total(), (1..=12).sum::<u64>() + 100);
        assert_eq!(c.open_window(), 100);
        let closed = c.closed_windows();
        assert_eq!(closed.len(), RETAINED_WINDOWS, "history is bounded");
        assert_eq!(closed, vec![5, 6, 7, 8, 9, 10, 11, 12], "oldest evicted");
    }

    #[test]
    fn aggregator_derives_the_serve_summary() {
        let agg = StatsAggregator::new();
        agg.counter("serve.cache.hit", 3);
        agg.counter("serve.cache.miss", 1);
        agg.counter("serve.shed", 2);
        agg.counter("serve.retry", 4);
        agg.counter("serve.breaker.open", 1);
        let snap = agg.snapshot();
        assert_eq!(snap.serve.cache_hits, 3);
        assert_eq!(snap.serve.cache_misses, 1);
        assert_eq!(snap.serve.cache_hit_ratio, 0.75);
        assert_eq!(snap.serve.shed, 2);
        assert_eq!(snap.serve.retries, 4);
        assert_eq!(snap.serve.breaker_opens, 1);
    }

    #[test]
    fn empty_aggregator_snapshots_cleanly() {
        let snap = StatsAggregator::new().snapshot();
        assert_eq!(snap.serve.cache_hit_ratio, 0.0);
        let json = snap.render_json();
        assert!(json.contains("\"quantiles\": {}"));
        assert!(json.contains("\"counters\": {}"));
    }
}

//! Streaming summaries: online mean/variance and fixed-width histograms.
//!
//! The experiment harness accumulates large sample streams (nested-MH
//! flow-probability draws, impact counts, timing measurements); these
//! helpers summarize them in O(1) memory.
//!
//! These summaries treat every observation as carrying full weight;
//! autocorrelation-aware sample counting (effective sample size) lives
//! in `flow-mcmc::diagnostics`, whose `effective_sample_size` returns a
//! **0 sentinel for constant series** — callers summarising MCMC output
//! with [`OnlineStats`] should consult that contract before equating
//! `count()` with information content.

/// Welford online mean/variance accumulator.
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; 0 for an empty accumulator.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (`/n`); 0 with fewer than one observation.
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation, `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation, `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Nearest-rank empirical quantile of an ascending-sorted sample.
///
/// Panic-free by construction: returns `NaN` for an empty sample, and
/// clamps both the level and the resulting rank into range. Shared by
/// the bootstrap, credible-interval, and arrival-time code so the
/// rounding convention stays identical everywhere.
pub fn empirical_quantile(sorted: &[f64], level: f64) -> f64 {
    let Some(&last_value) = sorted.last() else {
        return f64::NAN;
    };
    let last = sorted.len() - 1;
    let idx = (last as f64 * level.clamp(0.0, 1.0)).round() as usize;
    sorted.get(idx.min(last)).copied().unwrap_or(last_value)
}

/// Fixed-width histogram over `[lo, hi)` with `bins` equal-width bins.
///
/// Out-of-range observations are counted in saturating edge bins so no
/// observation is silently dropped.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins >= 1` bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins >= 1, "need at least one bin");
        assert!(lo < hi, "empty range [{lo}, {hi})");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
        }
    }

    /// Index of the bin an observation falls into (clamped to range).
    pub fn bin_of(&self, x: f64) -> usize {
        let span = self.hi - self.lo;
        let raw = ((x - self.lo) / span * self.counts.len() as f64).floor();
        (raw.max(0.0) as usize).min(self.counts.len() - 1)
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        let b = self.bin_of(x);
        self.counts[b] += 1;
    }

    /// Count in bin `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(low, high)` boundaries of bin `i`.
    pub fn bin_range(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        (self.lo + i as f64 * w, self.lo + (i + 1) as f64 * w)
    }

    /// Midpoint of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let (lo, hi) = self.bin_range(i);
        0.5 * (lo + hi)
    }

    /// Iterates `(center, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        (0..self.counts.len()).map(|i| (self.bin_center(i), self.counts[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_known_sequence() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 3.0 + 1.0).collect();
        let mut all = OnlineStats::new();
        for &x in &data {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        // Merging an empty accumulator is a no-op.
        let before = a.mean();
        a.merge(&OnlineStats::new());
        assert_eq!(a.mean(), before);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.push(0.0);
        h.push(0.05);
        h.push(0.95);
        h.push(0.999);
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(9), 2);
        assert_eq!(h.total(), 4);
        assert_eq!(h.bin_of(0.35), 3);
        let (lo, hi) = h.bin_range(3);
        assert!((lo - 0.3).abs() < 1e-12 && (hi - 0.4).abs() < 1e-12);
        assert!((h.bin_center(0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(-5.0);
        h.push(7.0);
        h.push(1.0); // hi boundary clamps into last bin
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(3), 2);
    }

    #[test]
    fn histogram_iter_centers() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        h.push(2.5);
        let v: Vec<(f64, u64)> = h.iter().collect();
        assert_eq!(v.len(), 4);
        assert!((v[2].0 - 2.5).abs() < 1e-12);
        assert_eq!(v[2].1, 1);
    }
}

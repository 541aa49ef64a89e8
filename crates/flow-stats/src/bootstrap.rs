//! Nonparametric bootstrap confidence intervals.
//!
//! Table III reports point scores (normalised likelihood, Brier); the
//! bootstrap turns them into intervals so method comparisons carry
//! error bars: resample the `(prediction, outcome)` pairs with
//! replacement, recompute the statistic, and take empirical quantiles
//! of the replicates (the percentile method).

use crate::metrics::PredictionOutcome;
use rand::Rng;

/// A bootstrap interval around a point statistic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BootstrapInterval {
    /// The statistic on the original sample.
    pub point: f64,
    /// Lower percentile bound.
    pub lo: f64,
    /// Upper percentile bound.
    pub hi: f64,
    /// Bootstrap replicates used.
    pub replicates: usize,
}

impl BootstrapInterval {
    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// True iff `value` lies inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        (self.lo..=self.hi).contains(&value)
    }
}

/// Percentile-bootstrap interval for an arbitrary statistic of a slice.
///
/// Returns `None` when the data is empty or the statistic is undefined
/// (returns `None`) on the original sample. Replicates where the
/// statistic is undefined are skipped.
pub fn bootstrap_interval<T: Clone, R: Rng + ?Sized>(
    data: &[T],
    statistic: impl Fn(&[T]) -> Option<f64>,
    replicates: usize,
    level: f64,
    rng: &mut R,
) -> Option<BootstrapInterval> {
    assert!((0.0..=1.0).contains(&level));
    assert!(replicates >= 10, "need a meaningful number of replicates");
    let point = statistic(data)?;
    let n = data.len();
    let mut stats = Vec::with_capacity(replicates);
    let mut resample: Vec<T> = Vec::with_capacity(n);
    for _ in 0..replicates {
        resample.clear();
        for _ in 0..n {
            resample.push(data[rng.random_range(0..n)].clone());
        }
        if let Some(s) = statistic(&resample) {
            stats.push(s);
        }
    }
    if stats.is_empty() {
        return None;
    }
    stats.sort_by(|a, b| a.total_cmp(b));
    let tail = (1.0 - level) / 2.0;
    Some(BootstrapInterval {
        point,
        lo: crate::summary::empirical_quantile(&stats, tail),
        hi: crate::summary::empirical_quantile(&stats, 1.0 - tail),
        replicates,
    })
}

/// Bootstrap interval for the Brier score of a pair set.
pub fn brier_interval<R: Rng + ?Sized>(
    pairs: &[PredictionOutcome],
    replicates: usize,
    level: f64,
    rng: &mut R,
) -> Option<BootstrapInterval> {
    bootstrap_interval(pairs, crate::metrics::brier_score, replicates, level, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn calibrated_pairs(n: usize, seed: u64) -> Vec<PredictionOutcome> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let p: f64 = rng.random();
                PredictionOutcome::new(p, rng.random::<f64>() < p)
            })
            .collect()
    }

    #[test]
    fn interval_brackets_the_point_and_truth() {
        let mut rng = StdRng::seed_from_u64(1);
        let pairs = calibrated_pairs(3_000, 2);
        let iv = brier_interval(&pairs, 400, 0.95, &mut rng).unwrap();
        assert!(iv.lo <= iv.point && iv.point <= iv.hi);
        // Calibrated uniform predictions have E[Brier] = E[p(1-p)] = 1/6.
        assert!(iv.contains(1.0 / 6.0), "{iv:?}");
        assert!(iv.width() < 0.05);
    }

    #[test]
    fn interval_shrinks_with_sample_size() {
        let mut rng = StdRng::seed_from_u64(3);
        let small = brier_interval(&calibrated_pairs(200, 4), 300, 0.95, &mut rng).unwrap();
        let large = brier_interval(&calibrated_pairs(8_000, 5), 300, 0.95, &mut rng).unwrap();
        assert!(
            large.width() < small.width() / 2.0,
            "small {} vs large {}",
            small.width(),
            large.width()
        );
    }

    #[test]
    fn mean_statistic_matches_normal_theory() {
        // Bootstrap SE of the mean ≈ sd/sqrt(n).
        let mut rng = StdRng::seed_from_u64(6);
        let data: Vec<f64> = (0..2_000).map(|_| rng.random::<f64>()).collect();
        let iv = bootstrap_interval(
            &data,
            |s| {
                if s.is_empty() {
                    None
                } else {
                    Some(s.iter().sum::<f64>() / s.len() as f64)
                }
            },
            500,
            0.95,
            &mut rng,
        )
        .unwrap();
        // sd of U(0,1) = 0.2887; 95% width ≈ 2*1.96*0.2887/sqrt(2000) = 0.0253.
        assert!((iv.width() - 0.0253).abs() < 0.008, "width {}", iv.width());
        assert!(iv.contains(0.5));
    }

    #[test]
    fn empty_data_yields_none() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(brier_interval(&[], 100, 0.95, &mut rng).is_none());
    }

    #[test]
    fn distinguishes_methods_with_error_bars() {
        // A well-calibrated and a miscalibrated predictor must have
        // disjoint Brier intervals at modest sample sizes.
        let mut rng = StdRng::seed_from_u64(8);
        let good = calibrated_pairs(2_000, 9);
        let bad: Vec<PredictionOutcome> = calibrated_pairs(2_000, 10)
            .into_iter()
            .map(|p| PredictionOutcome::new((p.prediction * 0.2).min(1.0), p.outcome))
            .collect();
        let ig = brier_interval(&good, 300, 0.95, &mut rng).unwrap();
        let ib = brier_interval(&bad, 300, 0.95, &mut rng).unwrap();
        assert!(ig.hi < ib.lo, "good {ig:?} vs bad {ib:?}");
    }
}

//! The bucket experiment (§IV-C).
//!
//! Pairs `(pᵢ, z)` of estimated probability and Boolean outcome are
//! partitioned into `B` equal-width bins by `pᵢ` (`bin_j = [j/B, (j+1)/B)`).
//! For each bin we form the empirical Beta
//! `α_j = 1 + Σ z`, `β_j = |bin_j| − α_j + 2` and its 95% confidence
//! interval; a calibrated estimator's per-bin mean estimate `p̄_j` falls
//! inside that interval ~95% of the time.

use flow_stats::metrics::PredictionOutcome;
use flow_stats::Beta;

/// Bucket-experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct BucketConfig {
    /// Number of equal-width bins `B` (the paper uses 30).
    pub bins: usize,
    /// Confidence level for the empirical interval (the paper uses 0.95).
    pub confidence: f64,
}

impl Default for BucketConfig {
    fn default() -> Self {
        BucketConfig {
            bins: 30,
            confidence: 0.95,
        }
    }
}

/// One populated bin of a bucket report.
#[derive(Clone, Debug)]
pub struct BucketBin {
    /// Bin range `[lo, hi)`.
    pub lo: f64,
    /// Bin range `[lo, hi)`.
    pub hi: f64,
    /// Number of pairs in the bin (the "volume of estimates").
    pub count: u64,
    /// Number of positive outcomes (the "volume of positive flows").
    pub positives: u64,
    /// Mean of the estimates in the bin (`p̄_j`).
    pub mean_estimate: f64,
    /// Empirical Beta over the outcome frequency.
    pub empirical: Beta,
    /// Confidence interval of the empirical Beta.
    pub ci: (f64, f64),
    /// Whether `p̄_j` lies inside the confidence interval — plotted as a
    /// cross (inside) or dot (outside) in the paper.
    pub mean_inside_ci: bool,
}

impl BucketBin {
    /// Empirical outcome frequency (positives / count).
    pub fn empirical_rate(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.positives as f64 / self.count as f64
        }
    }
}

/// The result of one bucket experiment.
#[derive(Clone, Debug)]
pub struct BucketReport {
    /// Configuration used.
    pub config: BucketConfig,
    /// All bins (including empty ones, with `count == 0`).
    pub bins: Vec<BucketBin>,
    /// Total number of pairs.
    pub total: u64,
}

impl BucketReport {
    /// Runs the bucket experiment over the given pairs.
    pub fn build(pairs: &[PredictionOutcome], config: BucketConfig) -> Self {
        assert!(config.bins >= 1, "need at least one bin");
        let b = config.bins;
        let mut count = vec![0u64; b];
        let mut positives = vec![0u64; b];
        let mut sum_est = vec![0.0f64; b];
        for p in pairs {
            let j = ((p.prediction * b as f64).floor() as usize).min(b - 1);
            count[j] += 1;
            sum_est[j] += p.prediction;
            if p.outcome {
                positives[j] += 1;
            }
        }
        let bins = (0..b)
            .map(|j| {
                let lo = j as f64 / b as f64;
                let hi = (j + 1) as f64 / b as f64;
                // Paper: α_j = 1 + Σz, β_j = |bin| − α_j + 2, the
                // counting rule on the bin's outcomes.
                let empirical = Beta::from_counts(positives[j], count[j] - positives[j]);
                let ci = empirical.confidence_interval(config.confidence);
                let mean_estimate = if count[j] == 0 {
                    0.5 * (lo + hi)
                } else {
                    sum_est[j] / count[j] as f64
                };
                BucketBin {
                    lo,
                    hi,
                    count: count[j],
                    positives: positives[j],
                    mean_estimate,
                    empirical,
                    ci,
                    mean_inside_ci: ci.0 <= mean_estimate && mean_estimate <= ci.1,
                }
            })
            .collect();
        BucketReport {
            config,
            bins,
            total: pairs.len() as u64,
        }
    }

    /// Populated bins only.
    pub fn populated(&self) -> impl Iterator<Item = &BucketBin> {
        self.bins.iter().filter(|b| b.count > 0)
    }

    /// Fraction of populated bins whose mean estimate lies inside the
    /// empirical confidence interval — the headline calibration number
    /// (≈0.95 for a well-calibrated estimator).
    pub fn fraction_within_ci(&self) -> f64 {
        let populated: Vec<&BucketBin> = self.populated().collect();
        if populated.is_empty() {
            return 0.0;
        }
        populated.iter().filter(|b| b.mean_inside_ci).count() as f64 / populated.len() as f64
    }

    /// Root-mean-square calibration gap between per-bin mean estimates
    /// and empirical rates, weighted by bin population.
    pub fn calibration_rmse(&self) -> f64 {
        let mut acc = 0.0;
        let mut n = 0u64;
        for b in self.populated() {
            let d = b.mean_estimate - b.empirical_rate();
            acc += d * d * b.count as f64;
            n += b.count;
        }
        if n == 0 {
            0.0
        } else {
            (acc / n as f64).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn calibrated_estimator_stays_inside_cis() {
        let pairs = calibrated_pairs(60_000, 1);
        let report = BucketReport::build(&pairs, BucketConfig::default());
        assert_eq!(report.total, 60_000);
        let frac = report.fraction_within_ci();
        assert!(frac >= 0.8, "calibrated data should pass: {frac}");
        assert!(report.calibration_rmse() < 0.05);
    }

    #[test]
    fn miscalibrated_estimator_fails() {
        // Systematically overestimates: true rate = p/2.
        let mut rng = StdRng::seed_from_u64(2);
        let pairs: Vec<PredictionOutcome> = (0..60_000)
            .map(|_| {
                let p: f64 = rng.random();
                PredictionOutcome::new(p, rng.random::<f64>() < p / 2.0)
            })
            .collect();
        let report = BucketReport::build(&pairs, BucketConfig::default());
        assert!(
            report.fraction_within_ci() < 0.4,
            "overestimation must be caught: {}",
            report.fraction_within_ci()
        );
        assert!(report.calibration_rmse() > 0.1);
    }

    #[test]
    fn bin_boundaries_and_counts() {
        let pairs = vec![
            PredictionOutcome::new(0.0, false),
            PredictionOutcome::new(0.032, true),
            PredictionOutcome::new(0.5, true),
            PredictionOutcome::new(1.0, false), // clamps into last bin
        ];
        let report = BucketReport::build(
            &pairs,
            BucketConfig {
                bins: 30,
                confidence: 0.95,
            },
        );
        assert_eq!(report.bins.len(), 30);
        assert_eq!(report.bins[0].count, 2);
        assert_eq!(report.bins[0].positives, 1);
        assert_eq!(report.bins[15].count, 1);
        assert_eq!(report.bins[29].count, 1);
        assert_eq!(report.populated().count(), 3);
    }

    #[test]
    fn empirical_beta_matches_paper_formula() {
        // 10 pairs in one bin, 4 positive: α = 5, β = 10 − 5 + 2 = 7.
        let pairs: Vec<PredictionOutcome> = (0..10)
            .map(|i| PredictionOutcome::new(0.5, i < 4))
            .collect();
        let report = BucketReport::build(
            &pairs,
            BucketConfig {
                bins: 2,
                confidence: 0.95,
            },
        );
        let bin = &report.bins[1];
        assert_eq!(bin.count, 10);
        assert_eq!(bin.empirical.alpha(), 5.0);
        assert_eq!(bin.empirical.beta(), 7.0);
        assert!(bin.ci.0 < bin.empirical_rate() && bin.empirical_rate() < bin.ci.1);
    }

    #[test]
    fn empty_input_yields_empty_bins() {
        let report = BucketReport::build(&[], BucketConfig::default());
        assert_eq!(report.total, 0);
        assert_eq!(report.populated().count(), 0);
        assert_eq!(report.fraction_within_ci(), 0.0);
        assert_eq!(report.calibration_rmse(), 0.0);
    }
}

//! Nested Metropolis–Hastings (§III-E): uncertainty over flow
//! probabilities.
//!
//! A point-probability ICM yields a single number for `Pr[u ~> v]`; a
//! betaICM yields a *distribution* over that number. The paper exposes
//! it by repeatedly (outer loop) sampling a point ICM from the betaICM —
//! every edge draws from its Beta — and (inner loop) estimating the flow
//! probability of each sampled ICM with the Metropolis–Hastings
//! estimator. The resulting sample set approximates the betaICM's
//! uncertainty over the flow probability (Fig. 3).

use crate::drive::per_sample;
use crate::estimator::{FlowEstimator, McmcConfig};
use flow_graph::NodeId;
use flow_icm::BetaIcm;
use flow_stats::{Beta, OnlineStats};
use rand::Rng;

/// Outer/inner loop sizes for nested sampling.
#[derive(Clone, Copy, Debug)]
pub struct NestedConfig {
    /// Number of point ICMs drawn from the betaICM (the paper uses
    /// "roughly 100").
    pub outer_samples: usize,
    /// Inner Metropolis–Hastings protocol per sampled ICM.
    pub inner: McmcConfig,
}

impl Default for NestedConfig {
    fn default() -> Self {
        NestedConfig {
            outer_samples: 100,
            inner: McmcConfig {
                samples: 500,
                ..Default::default()
            },
        }
    }
}

/// A distribution over flow probabilities produced by nested sampling.
#[derive(Clone, Debug)]
pub struct FlowProbabilityDistribution {
    /// One flow-probability estimate per sampled ICM.
    pub samples: Vec<f64>,
}

impl FlowProbabilityDistribution {
    /// Mean of the sampled flow probabilities.
    pub fn mean(&self) -> f64 {
        let mut s = OnlineStats::new();
        for &x in &self.samples {
            s.push(x);
        }
        s.mean()
    }

    /// Population standard deviation of the sampled flow probabilities.
    pub fn std_dev(&self) -> f64 {
        let mut s = OnlineStats::new();
        for &x in &self.samples {
            s.push(x);
        }
        s.std_dev()
    }

    /// Fits a Beta distribution by moment matching (the paper's Fig. 3
    /// dashed line: "a beta with mean and variance implied by histogram
    /// data"). Returns `None` when the sample variance is degenerate.
    pub fn moment_matched_beta(&self) -> Option<Beta> {
        let mean = self.mean();
        let var = {
            let mut s = OnlineStats::new();
            for &x in &self.samples {
                s.push(x);
            }
            s.variance()
        };
        if !(0.0 < mean && mean < 1.0) || var <= 0.0 || var >= mean * (1.0 - mean) {
            return None;
        }
        let k = mean * (1.0 - mean) / var - 1.0;
        Some(Beta::new(mean * k, (1.0 - mean) * k))
    }

    /// Empirical coverage: the fraction of samples inside `[lo, hi]`.
    pub fn coverage(&self, lo: f64, hi: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .filter(|&&x| (lo..=hi).contains(&x))
            .count() as f64
            / self.samples.len() as f64
    }
}

/// Nested Metropolis–Hastings sampler over a betaICM.
#[derive(Clone, Debug)]
pub struct NestedSampler<'a> {
    model: &'a BetaIcm,
    config: NestedConfig,
}

impl<'a> NestedSampler<'a> {
    /// Creates a nested sampler.
    pub fn new(model: &'a BetaIcm, config: NestedConfig) -> Self {
        NestedSampler { model, config }
    }

    /// Samples the betaICM's distribution over `Pr[source ~> sink]`.
    pub fn flow_probability_distribution<R: Rng + ?Sized>(
        &self,
        source: NodeId,
        sink: NodeId,
        rng: &mut R,
    ) -> FlowProbabilityDistribution {
        let _outer = flow_obs::span("nested.outer_loop");
        let mut samples = Vec::with_capacity(self.config.outer_samples);
        for _ in 0..self.config.outer_samples {
            let icm = self.model.sample_icm(rng);
            let est = FlowEstimator::new(&icm, self.config.inner);
            samples.push(est.estimate_flow(source, sink, rng));
            flow_obs::counter("nested.outer_samples", 1);
        }
        FlowProbabilityDistribution { samples }
    }

    /// Samples the distribution over the source's expected *impact*
    /// (mean number of non-source nodes reached), one value per sampled
    /// ICM.
    pub fn impact_mean_distribution<R: Rng + ?Sized>(
        &self,
        source: NodeId,
        rng: &mut R,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.config.outer_samples);
        for _ in 0..self.config.outer_samples {
            let icm = self.model.sample_icm(rng);
            let est = FlowEstimator::new(&icm, self.config.inner);
            let impacts = est.impact_distribution(source, rng);
            out.push(per_sample(
                impacts.iter().sum::<usize>() as u64,
                impacts.len(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_graph::graph::graph_from_edges;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Single-edge model: the flow probability *is* the edge
    /// probability, so the nested distribution must reproduce the Beta.
    #[test]
    fn single_edge_distribution_recovers_edge_beta() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let beta = Beta::new(16.0, 4.0);
        let model = BetaIcm::new(g, vec![beta]);
        let cfg = NestedConfig {
            outer_samples: 300,
            inner: McmcConfig {
                samples: 400,
                ..Default::default()
            },
        };
        let mut rng = StdRng::seed_from_u64(71);
        let dist = NestedSampler::new(&model, cfg).flow_probability_distribution(
            NodeId(0),
            NodeId(1),
            &mut rng,
        );
        assert_eq!(dist.samples.len(), 300);
        assert!(
            (dist.mean() - beta.mean()).abs() < 0.03,
            "mean {}",
            dist.mean()
        );
        assert!(
            (dist.std_dev() - beta.std_dev()).abs() < 0.03,
            "sd {} vs {}",
            dist.std_dev(),
            beta.std_dev()
        );
        // Moment-matched Beta lands near the true parameters' shape.
        let fitted = dist.moment_matched_beta().unwrap();
        assert!((fitted.mean() - 0.8).abs() < 0.03);
        // Coverage of the true 95% interval is close to 95%.
        let (lo, hi) = beta.confidence_interval(0.95);
        let cov = dist.coverage(lo, hi);
        assert!(cov > 0.85, "coverage {cov}");
    }

    #[test]
    fn tight_beta_gives_tight_flow_distribution() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        // Very concentrated edge posteriors -> concentrated flow probability.
        let model = BetaIcm::new(g, vec![Beta::new(400.0, 100.0), Beta::new(100.0, 400.0)]);
        let mut rng = StdRng::seed_from_u64(72);
        let cfg = NestedConfig {
            outer_samples: 100,
            inner: McmcConfig {
                samples: 500,
                ..Default::default()
            },
        };
        let dist = NestedSampler::new(&model, cfg).flow_probability_distribution(
            NodeId(0),
            NodeId(2),
            &mut rng,
        );
        // Expected flow = 0.8 * 0.2 = 0.16 with small spread.
        assert!((dist.mean() - 0.16).abs() < 0.03, "mean {}", dist.mean());
        assert!(dist.std_dev() < 0.06, "sd {}", dist.std_dev());
    }

    #[test]
    fn uncertainty_grows_with_looser_betas() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let mut rng = StdRng::seed_from_u64(73);
        let cfg = NestedConfig {
            outer_samples: 150,
            inner: McmcConfig {
                samples: 300,
                ..Default::default()
            },
        };
        let tight = BetaIcm::new(g.clone(), vec![Beta::new(80.0, 20.0)]);
        let loose = BetaIcm::new(g, vec![Beta::new(4.0, 1.0)]);
        let sd_tight = NestedSampler::new(&tight, cfg)
            .flow_probability_distribution(NodeId(0), NodeId(1), &mut rng)
            .std_dev();
        let sd_loose = NestedSampler::new(&loose, cfg)
            .flow_probability_distribution(NodeId(0), NodeId(1), &mut rng)
            .std_dev();
        assert!(
            sd_loose > 2.0 * sd_tight,
            "loose sd {sd_loose} vs tight sd {sd_tight}"
        );
    }

    #[test]
    fn impact_mean_distribution_sane() {
        let g = graph_from_edges(3, &[(0, 1), (0, 2)]);
        let model = BetaIcm::new(g, vec![Beta::new(9.0, 1.0), Beta::new(1.0, 9.0)]);
        let mut rng = StdRng::seed_from_u64(74);
        let cfg = NestedConfig {
            outer_samples: 60,
            inner: McmcConfig {
                samples: 300,
                ..Default::default()
            },
        };
        let means = NestedSampler::new(&model, cfg).impact_mean_distribution(NodeId(0), &mut rng);
        assert_eq!(means.len(), 60);
        let grand = means.iter().sum::<f64>() / means.len() as f64;
        // E[impact] = E[p01] + E[p02] = 0.9 + 0.1 = 1.0.
        assert!((grand - 1.0).abs() < 0.08, "grand mean {grand}");
    }

    #[test]
    fn moment_matched_beta_rejects_degenerate() {
        let d = FlowProbabilityDistribution {
            samples: vec![0.5; 10],
        };
        assert!(d.moment_matched_beta().is_none());
        let zeros = FlowProbabilityDistribution {
            samples: vec![0.0; 10],
        };
        assert!(zeros.moment_matched_beta().is_none());
    }
}

//! Fig. 4: predicted vs actual tweet impact (number of retweeting
//! users).
//!
//! The trained betaICM's expected ICM predicts a distribution over how
//! many users a tweet from the focal user reaches (the dispersion /
//! impact distribution, sampled by the Metropolis–Hastings estimator);
//! held-out ground-truth cascades give the actual distribution. The
//! paper found "a similar range of impact, but over estimated the mean
//! impact of a tweet".

use crate::ascii;
use crate::output::Output;
use crate::runners::fig02_attributed::build_context;
use crate::runners::ExpConfig;
use flow_icm::state::simulate_cascade;
use flow_mcmc::{FlowEstimator, McmcConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Impact histograms for one focal user.
#[derive(Clone, Debug)]
pub struct ImpactResult {
    /// Predicted impact samples (from the trained model).
    pub predicted: Vec<usize>,
    /// Actual impact samples (held-out ground-truth cascades).
    pub actual: Vec<usize>,
}

impl ImpactResult {
    /// Mean of a sample vector.
    fn mean(xs: &[usize]) -> f64 {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<usize>() as f64 / xs.len() as f64
        }
    }

    /// Mean predicted impact.
    pub fn predicted_mean(&self) -> f64 {
        Self::mean(&self.predicted)
    }

    /// Mean actual impact.
    pub fn actual_mean(&self) -> f64 {
        Self::mean(&self.actual)
    }
}

/// Runs Fig. 4.
pub fn run_fig4(cfg: &ExpConfig, out: &Output) -> std::io::Result<ImpactResult> {
    out.heading("Fig. 4 — predicted vs actual retweet impact");
    let ctx = build_context(cfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF164_0000);
    let focus = ctx.focuses[0];
    let trained_icm = ctx.trained.expected_icm();
    let predicted = FlowEstimator::new(
        &trained_icm,
        McmcConfig {
            samples: cfg.scaled(2_000, 500),
            ..Default::default()
        },
    )
    .impact_distribution(focus, &mut rng);
    let actual: Vec<usize> = (0..cfg.scaled(400, 150))
        .map(|_| simulate_cascade(&ctx.corpus.retweet_truth, &[focus], &mut rng).impact())
        .collect();
    let result = ImpactResult { predicted, actual };
    out.line(format!(
        "focal user {focus}: predicted mean impact {:.2}, actual mean impact {:.2}",
        result.predicted_mean(),
        result.actual_mean()
    ));
    let to_bins = |xs: &[usize]| -> Vec<(String, u64)> {
        let cap = 12usize;
        let mut counts = vec![0u64; cap + 1];
        for &x in xs {
            counts[x.min(cap)] += 1;
        }
        counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let label = if i == cap {
                    format!("{cap}+")
                } else {
                    i.to_string()
                };
                (label, c)
            })
            .collect()
    };
    out.line(ascii::histogram(
        &to_bins(&result.predicted),
        40,
        "  predicted retweets per tweet:",
    ));
    out.line(ascii::histogram(
        &to_bins(&result.actual),
        40,
        "  actual retweets per tweet:",
    ));
    out.csv(
        "fig4_impact",
        &["kind", "impact"],
        &result
            .predicted
            .iter()
            .map(|&i| vec!["predicted".to_string(), i.to_string()])
            .chain(
                result
                    .actual
                    .iter()
                    .map(|&i| vec!["actual".to_string(), i.to_string()]),
            )
            .collect::<Vec<_>>(),
    )?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicted_and_actual_ranges_overlap() {
        let cfg = ExpConfig {
            scale: 0.0,
            seed: 6,
        };
        let out = Output::stdout_only();
        let r = run_fig4(&cfg, &out).unwrap();
        assert!(!r.predicted.is_empty() && !r.actual.is_empty());
        // The paper's qualitative claim: similar ranges; the means stay
        // within a factor-3 band of each other (the model tends to
        // overestimate slightly).
        let (pm, am) = (r.predicted_mean(), r.actual_mean());
        assert!(
            pm <= 3.0 * am + 1.0 && am <= 3.0 * pm + 1.0,
            "predicted {pm} vs actual {am}"
        );
    }
}

//! Fig. 1 and Fig. 5: the basic bucket experiment on synthetic
//! betaICMs.
//!
//! Per repetition (the paper uses 2000 models of 50 users / 200 edges):
//!
//! 1. generate a synthetic betaICM `M` (`a, b ~ U(1, 20)`),
//! 2. sample a point ICM from `M` and one active state from it,
//! 3. pick a random source/sink pair and read the Boolean `z` (did the
//!    flow happen in that active state?),
//! 4. estimate `p = Pr[u ~> v | M]` — by Metropolis–Hastings on the
//!    expected point ICM (Fig. 1) or by Random Walk with Restart
//!    (Fig. 5),
//! 5. bucket `(p, z)`.
//!
//! Fig. 1 shows the MH estimates hugging the diagonal; Fig. 5 shows RWR
//! collapsing toward zero (a similarity, not a probability).

use crate::bucket::{BucketConfig, BucketReport};
use crate::output::Output;
use crate::runners::ExpConfig;
use flow_graph::NodeId;
use flow_icm::state::simulate_cascade;
use flow_icm::synth::{synthetic_beta_icm, SyntheticBetaIcmConfig};
use flow_icm::BetaIcm;
use flow_mcmc::{FlowEstimator, McmcConfig};
use flow_rwr::{rwr_flow_estimate, RwrConfig};
use flow_stats::metrics::PredictionOutcome;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a synthetic bucket run (pairs are retained for Table III).
#[derive(Clone, Debug)]
pub struct SyntheticBucketResult {
    /// The bucket report.
    pub report: BucketReport,
    /// The raw `(estimate, outcome)` pairs.
    pub pairs: Vec<PredictionOutcome>,
}

/// Generates `(estimate, outcome)` pairs with a pluggable estimator.
pub fn synthetic_pairs(
    cfg: &ExpConfig,
    reps: usize,
    mut estimate: impl FnMut(&BetaIcm, NodeId, NodeId, &mut StdRng) -> f64,
) -> Vec<PredictionOutcome> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF160_0001);
    let model_cfg = SyntheticBetaIcmConfig::paper_defaults(50, 200);
    let mut pairs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let model = synthetic_beta_icm(&mut rng, &model_cfg);
        let sampled_icm = model.sample_icm(&mut rng);
        let n = model.graph().node_count() as u32;
        let u = NodeId(rng.random_range(0..n));
        let v = loop {
            let v = NodeId(rng.random_range(0..n));
            if v != u {
                break v;
            }
        };
        let state = simulate_cascade(&sampled_icm, &[u], &mut rng);
        let z = state.has_flow_to(v);
        let p = estimate(&model, u, v, &mut rng);
        pairs.push(PredictionOutcome::new(p, z));
    }
    pairs
}

/// The Metropolis–Hastings protocol used for the synthetic buckets.
pub fn fig1_mcmc_config() -> McmcConfig {
    McmcConfig {
        samples: 1_000,
        ..Default::default()
    }
}

/// Runs Fig. 1.
pub fn run_fig1(cfg: &ExpConfig, out: &Output) -> std::io::Result<SyntheticBucketResult> {
    let reps = cfg.scaled(2_000, 100);
    out.heading(&format!(
        "Fig. 1 — MH bucket experiment, {reps} synthetic betaICMs (50 nodes, 200 edges)"
    ));
    let mcmc = fig1_mcmc_config();
    let pairs = synthetic_pairs(cfg, reps, |model, u, v, rng| {
        let icm = model.expected_icm();
        FlowEstimator::new(&icm, mcmc).estimate_flow(u, v, rng)
    });
    let report = BucketReport::build(&pairs, BucketConfig::default());
    out.bucket_report("fig1_bucket", &report)?;
    Ok(SyntheticBucketResult { report, pairs })
}

/// Runs Fig. 5 (identical setup, RWR estimator).
pub fn run_fig5(cfg: &ExpConfig, out: &Output) -> std::io::Result<SyntheticBucketResult> {
    let reps = cfg.scaled(2_000, 100);
    out.heading(&format!(
        "Fig. 5 — RWR bucket experiment, {reps} synthetic betaICMs"
    ));
    let pairs = synthetic_pairs(cfg, reps, |model, u, v, _| {
        let icm = model.expected_icm();
        rwr_flow_estimate(icm.graph(), u, v, &RwrConfig::default(), |e| {
            icm.probability(e)
        })
    });
    let report = BucketReport::build(&pairs, BucketConfig::default());
    out.bucket_report("fig5_rwr_bucket", &report)?;
    out.line(
        "RWR is a similarity, not a probability: estimates crowd near zero and \
         miss the empirical rates (compare fraction-within-CI against Fig. 1).",
    );
    Ok(SyntheticBucketResult { report, pairs })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            scale: 0.0,
            seed: 7,
        }
    }

    #[test]
    fn fig1_is_calibrated_even_at_small_scale() {
        let out = Output::stdout_only();
        let r = run_fig1(&tiny(), &out).unwrap(); // floor = 100 reps
        assert_eq!(r.pairs.len(), 100);
        // At 100 pairs the CI test is loose but the calibration RMSE
        // should already be small.
        assert!(
            r.report.calibration_rmse() < 0.25,
            "rmse {}",
            r.report.calibration_rmse()
        );
        assert!(r.report.fraction_within_ci() > 0.5);
    }

    #[test]
    fn fig5_rwr_is_visibly_miscalibrated_low() {
        let out = Output::stdout_only();
        let mh = run_fig1(&tiny(), &out).unwrap();
        let rwr = run_fig5(&tiny(), &out).unwrap();
        // RWR estimates are crushed toward 0 relative to MH.
        let mean_est = |pairs: &[PredictionOutcome]| {
            pairs.iter().map(|p| p.prediction).sum::<f64>() / pairs.len() as f64
        };
        assert!(
            mean_est(&rwr.pairs) < 0.5 * mean_est(&mh.pairs),
            "rwr {} vs mh {}",
            mean_est(&rwr.pairs),
            mean_est(&mh.pairs)
        );
        // And its calibration is worse.
        assert!(rwr.report.calibration_rmse() > mh.report.calibration_rmse());
    }

    #[test]
    fn pairs_are_seed_deterministic() {
        let cfg = tiny();
        let a = synthetic_pairs(&cfg, 5, |_, _, _, _| 0.5);
        let b = synthetic_pairs(&cfg, 5, |_, _, _, _| 0.5);
        assert_eq!(a, b);
    }
}

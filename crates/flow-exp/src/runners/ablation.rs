//! Ablation study for the sampler's design choices (DESIGN.md §6):
//! proposal-weight convention and thinning interval, scored by
//! effective sample size per wall-clock second, plus a multi-chain
//! Gelman–Rubin convergence check of the default protocol.

use crate::output::Output;
use crate::runners::ExpConfig;
use flow_graph::NodeId;
use flow_icm::synth::{synthetic_beta_icm, SyntheticBetaIcmConfig};
use flow_mcmc::diagnostics::effective_sample_size;
use flow_mcmc::parallel::multi_chain_flow;
use flow_mcmc::sampler::{ProposalKind, PseudoStateSampler};
use flow_mcmc::McmcConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One ablation measurement.
#[derive(Clone, Debug)]
pub struct AblationPoint {
    /// Proposal kind under test.
    pub proposal: ProposalKind,
    /// Thinning interval in steps.
    pub thin: usize,
    /// Acceptance rate over the run.
    pub acceptance: f64,
    /// Effective sample size of the flow-indicator series.
    pub ess: f64,
    /// Effective samples per second of wall-clock time.
    pub ess_per_second: f64,
}

/// Runs the proposal/thinning ablation and the multi-chain check.
pub fn run_ablation(cfg: &ExpConfig, out: &Output) -> std::io::Result<Vec<AblationPoint>> {
    out.heading("Ablation — proposal kind × thinning, scored by ESS/second");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xAB1A_0000);
    let model = synthetic_beta_icm(&mut rng, &SyntheticBetaIcmConfig::paper_defaults(50, 200));
    let icm = model.expected_icm();
    let m = icm.edge_count();
    let (src, dst) = (NodeId(0), NodeId(49));
    let samples = cfg.scaled(4_000, 1_500);

    let mut points = Vec::new();
    for proposal in [
        ProposalKind::ResultingActivity,
        ProposalKind::CurrentActivity,
    ] {
        for thin in [1usize, m / 8, m / 2, 2 * m] {
            let thin = thin.max(1);
            let mut chain_rng = StdRng::seed_from_u64(cfg.seed ^ 0xAB1A_0001);
            let mut sampler = PseudoStateSampler::new(&icm, proposal, &mut chain_rng);
            sampler.run(10 * m, &mut chain_rng);
            // Timing harness: the measured duration is the experiment output.
            #[allow(clippy::disallowed_methods)]
            let started = Instant::now();
            let mut series = Vec::with_capacity(samples);
            for _ in 0..samples {
                sampler.run(thin, &mut chain_rng);
                series.push(if sampler.carries_flow(src, dst) {
                    1.0
                } else {
                    0.0
                });
            }
            let elapsed = started.elapsed().as_secs_f64();
            // Constant indicator series hit the documented 0 sentinel,
            // so a frozen configuration reports ess 0, not ess = n.
            let ess = effective_sample_size(&series);
            points.push(AblationPoint {
                proposal,
                thin,
                acceptance: sampler.acceptance_rate(),
                ess,
                ess_per_second: ess / elapsed.max(1e-9),
            });
        }
    }
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:?}", p.proposal),
                p.thin.to_string(),
                format!("{:.3}", p.acceptance),
                format!("{:.0}", p.ess),
                format!("{:.0}", p.ess_per_second),
            ]
        })
        .collect();
    out.table(&["proposal", "thin", "accept", "ESS", "ESS/s"], &rows);
    out.csv(
        "ablation_sampler",
        &["proposal", "thin", "acceptance", "ess", "ess_per_second"],
        &rows,
    )?;
    out.line(
        "Reading: thinning trades chain updates for per-sample independence; the \
         sweet spot sits near thin ≈ m/2. Both proposal conventions converge — \
         ResultingActivity accepts more because its acceptance ratio collapses to \
         min(Z/Z', 1).",
    );

    // Multi-chain convergence check of the default protocol.
    let est = multi_chain_flow(
        &icm,
        src,
        dst,
        McmcConfig {
            samples: cfg.scaled(2_000, 800),
            ..Default::default()
        },
        4,
        cfg.seed,
        false,
    );
    out.line(format!(
        "multi-chain check: pooled estimate {:.4} ± {:.4} (SE), R-hat {}, total ESS {:.0}",
        est.estimate(),
        est.standard_error(),
        est.r_hat()
            .map(|r| format!("{r:.4}"))
            .unwrap_or_else(|| "-".into()),
        est.effective_samples(),
    ));
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_runs_and_orders_sanely() {
        let cfg = ExpConfig {
            scale: 0.0,
            seed: 19,
        };
        let out = Output::stdout_only();
        let points = run_ablation(&cfg, &out).unwrap();
        assert_eq!(points.len(), 8);
        for p in &points {
            assert!(p.acceptance > 0.0 && p.acceptance <= 1.0);
            assert!(p.ess >= 0.0);
        }
        // More thinning yields more independent samples (ESS rises with
        // thin for a fixed sample count).
        let ra: Vec<&AblationPoint> = points
            .iter()
            .filter(|p| p.proposal == ProposalKind::ResultingActivity)
            .collect();
        let ess_min_thin = ra.iter().find(|p| p.thin == 1).unwrap().ess;
        let ess_max_thin = ra.iter().max_by_key(|p| p.thin).unwrap().ess;
        assert!(
            ess_max_thin > ess_min_thin,
            "thinning should decorrelate: {ess_min_thin} vs {ess_max_thin}"
        );
    }
}

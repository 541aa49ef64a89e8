//! Fig. 11 (Appendix): EM finds only local maxima / weakly-identified
//! ridges; the joint-Bayes MCMC covers the posterior.
//!
//! On the Table II evidence, Saito et al.'s EM is restarted 1000 times
//! (fixed at 200 iterations, as in the paper's caption) and the
//! solutions are scattered in the (A, B) and (A, C) planes; a single
//! joint-Bayes chain contributes 1000 posterior samples for the same
//! planes.

use crate::ascii;
use crate::output::Output;
use crate::runners::ExpConfig;
use flow_learn::fixtures::table_two;
use flow_learn::joint_bayes::{JointBayes, JointBayesConfig};
use flow_learn::saito::{saito_em_restarts, SaitoConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fig. 11 data: EM restart solutions and Bayes posterior samples,
/// each as `(A, B, C)` probability triples.
#[derive(Clone, Debug)]
pub struct MultimodalResult {
    /// One triple per EM restart.
    pub em_solutions: Vec<[f64; 3]>,
    /// One triple per posterior sample.
    pub bayes_samples: Vec<[f64; 3]>,
}

/// Runs Fig. 11.
pub fn run_fig11(cfg: &ExpConfig, out: &Output) -> std::io::Result<MultimodalResult> {
    out.heading("Fig. 11 — Saito EM restarts vs joint-Bayes MCMC on Table II");
    let summary = table_two();
    let restarts = cfg.scaled(1_000, 200);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF16B_0000);
    let em = saito_em_restarts(
        &summary,
        restarts,
        &SaitoConfig {
            max_iterations: 200, // the paper fixes Saito at 200 iterations
            tolerance: 0.0,
        },
        &mut rng,
    );
    let em_solutions: Vec<[f64; 3]> = em
        .iter()
        .map(|s| [s.probs[0], s.probs[1], s.probs[2]])
        .collect();
    let bayes = JointBayes::new(JointBayesConfig {
        samples: 1_000,
        burn_in_sweeps: 1_000,
        thin_sweeps: 10,
        ..Default::default()
    })
    .sample_posterior(&summary, &mut rng);
    let bayes_samples: Vec<[f64; 3]> = bayes.samples.iter().map(|s| [s[0], s[1], s[2]]).collect();

    for (name, data) in [
        ("Saito EM (1000 restarts)", &em_solutions),
        ("Joint Bayes MCMC", &bayes_samples),
    ] {
        let ab: Vec<(f64, f64)> = data.iter().map(|p| (p[0], p[1])).collect();
        let ac: Vec<(f64, f64)> = data.iter().map(|p| (p[0], p[2])).collect();
        out.line(ascii::scatter(&ab, 48, 16, &format!("{name}: B vs A")));
        out.line(ascii::scatter(&ac, 48, 16, &format!("{name}: C vs A")));
    }
    let spread = |data: &[[f64; 3]], j: usize| {
        let lo = data.iter().map(|p| p[j]).fold(f64::INFINITY, f64::min);
        let hi = data.iter().map(|p| p[j]).fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    };
    out.line(format!(
        "A-probability spread: EM restarts {:.3}, Bayes posterior {:.3} — EM's \
         point estimates cannot express the posterior spread the MCMC exposes.",
        spread(&em_solutions, 0),
        spread(&bayes_samples, 0)
    ));
    let rows: Vec<Vec<String>> = em_solutions
        .iter()
        .map(|p| {
            vec![
                "em".to_string(),
                format!("{}", p[0]),
                format!("{}", p[1]),
                format!("{}", p[2]),
            ]
        })
        .chain(bayes_samples.iter().map(|p| {
            vec![
                "bayes".to_string(),
                format!("{}", p[0]),
                format!("{}", p[1]),
                format!("{}", p[2]),
            ]
        }))
        .collect();
    out.csv("fig11_multimodal", &["method", "a", "b", "c"], &rows)?;
    Ok(MultimodalResult {
        em_solutions,
        bayes_samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bayes_spread_exceeds_em_spread() {
        let cfg = ExpConfig {
            scale: 0.0,
            seed: 17,
        };
        let out = Output::stdout_only();
        let r = run_fig11(&cfg, &out).unwrap();
        assert_eq!(r.em_solutions.len(), 200);
        assert_eq!(r.bayes_samples.len(), 1_000);
        let spread = |data: &[[f64; 3]], j: usize| {
            let lo = data.iter().map(|p| p[j]).fold(f64::INFINITY, f64::min);
            let hi = data.iter().map(|p| p[j]).fold(f64::NEG_INFINITY, f64::max);
            hi - lo
        };
        // The posterior genuinely spreads over the weakly identified
        // ridge; EM clusters near the MLE.
        assert!(
            spread(&r.bayes_samples, 0) > spread(&r.em_solutions, 0),
            "bayes {} vs em {}",
            spread(&r.bayes_samples, 0),
            spread(&r.em_solutions, 0)
        );
        // EM solutions respect the pairwise constraint 1-(1-a)(1-b)=0.5.
        for p in r.em_solutions.iter().take(20) {
            let ab = 1.0 - (1.0 - p[0]) * (1.0 - p[1]);
            assert!((ab - 0.5).abs() < 0.05, "noisy-OR(a,b) = {ab}");
        }
    }
}

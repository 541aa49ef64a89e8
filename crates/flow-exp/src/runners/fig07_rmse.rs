//! Fig. 7: RMSE of learned edge probabilities vs ground truth as the
//! number of objects grows — Our (joint Bayes) / Goyal / Filtered /
//! Saito, on the paper's four activation-probability settings:
//!
//! * (a) {0.68, 0.73, 0.85} — without skew
//! * (b) {0.15, 0.68, 0.83} — with skew
//! * (c) {0.82, 0.83, 0.92, 0.92} — without skew
//! * (d) {0.06, 0.69, 0.74, 0.76} — with skew
//!
//! The paper's findings to reproduce: our method's error keeps falling
//! with more data; Saito is marginally worse; Goyal plateaus (credit
//! bias toward the mean) and is "sometimes out-performed by the
//! filtered method", especially under skew. Dashed lines = the 95%
//! credible band of the joint-Bayes RMSE.

use crate::output::Output;
use crate::runners::ExpConfig;
use flow_graph::NodeId;
use flow_learn::goyal::goyal_credit;
use flow_learn::joint_bayes::{JointBayes, JointBayesConfig};
use flow_learn::saito::{saito_em, SaitoConfig};
use flow_learn::summary::{filtered_betas, SinkSummary, TimingAssumption};
use flow_learn::synthetic::{star_episodes, StarConfig};
use flow_stats::metrics::rmse;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The four subplot configurations of Fig. 7.
pub fn paper_configs() -> Vec<(&'static str, Vec<f64>)> {
    vec![
        ("a", vec![0.68, 0.73, 0.85]),
        ("b", vec![0.15, 0.68, 0.83]),
        ("c", vec![0.82, 0.83, 0.92, 0.92]),
        ("d", vec![0.06, 0.69, 0.74, 0.76]),
    ]
}

/// RMSE of each method at one (config, object-count) grid point,
/// averaged over repetitions.
#[derive(Clone, Debug)]
pub struct RmsePoint {
    /// Subplot label.
    pub config: &'static str,
    /// Objects in the training set.
    pub objects: usize,
    /// Joint Bayes posterior-mean RMSE.
    pub ours: f64,
    /// 95% credible band on the joint-Bayes RMSE (from posterior
    /// samples).
    pub ours_band: (f64, f64),
    /// Goyal credit RMSE.
    pub goyal: f64,
    /// Filtered (unambiguous-only) RMSE.
    pub filtered: f64,
    /// Saito EM RMSE.
    pub saito: f64,
}

/// The object-count grid (log-spaced 10⁰…10⁴ like the paper's x-axis).
pub fn object_grid() -> Vec<usize> {
    vec![1, 3, 10, 32, 100, 316, 1_000, 3_162, 10_000]
}

/// Evaluates every method at one grid point.
pub fn rmse_point(
    config: &'static str,
    truths: &[f64],
    objects: usize,
    reps: usize,
    seed: u64,
) -> RmsePoint {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acc = RmsePoint {
        config,
        objects,
        ours: 0.0,
        ours_band: (0.0, 0.0),
        goyal: 0.0,
        filtered: 0.0,
        saito: 0.0,
    };
    let parents: Vec<NodeId> = (0..truths.len() as u32).map(NodeId).collect();
    let sink = NodeId(truths.len() as u32);
    for _ in 0..reps {
        let star = StarConfig::new(truths.to_vec());
        let episodes = star_episodes(&star, objects, &mut rng);
        let summary = SinkSummary::build(
            sink,
            parents.clone(),
            &episodes,
            TimingAssumption::AnyEarlier,
        );
        // Joint Bayes.
        let post = JointBayes::new(JointBayesConfig {
            samples: 400,
            burn_in_sweeps: 300,
            thin_sweeps: 3,
            ..Default::default()
        })
        .sample_posterior(&summary, &mut rng);
        acc.ours += rmse(&post.means(), truths).expect("non-empty");
        // RMSE credible band from posterior samples.
        let mut sample_rmses: Vec<f64> = post
            .samples
            .iter()
            .map(|s| rmse(s, truths).expect("non-empty"))
            .collect();
        sample_rmses.sort_by(f64::total_cmp);
        let q = |p: f64| sample_rmses[((sample_rmses.len() - 1) as f64 * p).round() as usize];
        acc.ours_band.0 += q(0.025);
        acc.ours_band.1 += q(0.975);
        // Baselines.
        acc.goyal += rmse(&goyal_credit(&summary), truths).expect("non-empty");
        let filt: Vec<f64> = filtered_betas(&summary).iter().map(|b| b.mean()).collect();
        acc.filtered += rmse(&filt, truths).expect("non-empty");
        acc.saito +=
            rmse(&saito_em(&summary, &SaitoConfig::default()).probs, truths).expect("non-empty");
    }
    let n = reps as f64;
    acc.ours /= n;
    acc.ours_band.0 /= n;
    acc.ours_band.1 /= n;
    acc.goyal /= n;
    acc.filtered /= n;
    acc.saito /= n;
    acc
}

/// Runs Fig. 7 (all four subplots).
pub fn run_fig7(cfg: &ExpConfig, out: &Output) -> std::io::Result<Vec<RmsePoint>> {
    out.heading("Fig. 7 — RMSE of learned edge probabilities vs ground truth");
    let reps = cfg.scaled(10, 3);
    let mut all = Vec::new();
    for (label, truths) in paper_configs() {
        out.line(format!(
            "subplot ({label}): true probabilities {truths:?}, {reps} repetitions"
        ));
        let mut rows = Vec::new();
        for (gi, &objects) in object_grid().iter().enumerate() {
            let point = rmse_point(
                label,
                &truths,
                objects,
                reps,
                cfg.seed ^ (0xF167_0000 + gi as u64 * 17 + label.len() as u64),
            );
            rows.push(vec![
                objects.to_string(),
                format!("{:.4}", point.ours),
                format!("[{:.3},{:.3}]", point.ours_band.0, point.ours_band.1),
                format!("{:.4}", point.goyal),
                format!("{:.4}", point.filtered),
                format!("{:.4}", point.saito),
            ]);
            all.push(point);
        }
        out.table(
            &[
                "objects",
                "ours",
                "ours 95% band",
                "goyal",
                "filtered",
                "saito",
            ],
            &rows,
        );
        out.csv(
            &format!("fig7_{label}"),
            &[
                "objects", "ours", "band_lo", "band_hi", "goyal", "filtered", "saito",
            ],
            &all.iter()
                .filter(|p| p.config == label)
                .map(|p| {
                    vec![
                        p.objects.to_string(),
                        format!("{}", p.ours),
                        format!("{}", p.ours_band.0),
                        format!("{}", p.ours_band.1),
                        format!("{}", p.goyal),
                        format!("{}", p.filtered),
                        format!("{}", p.saito),
                    ]
                })
                .collect::<Vec<_>>(),
        )?;
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn our_method_improves_with_data() {
        let small = rmse_point("t", &[0.68, 0.73, 0.85], 10, 4, 1);
        let large = rmse_point("t", &[0.68, 0.73, 0.85], 3_000, 4, 2);
        assert!(
            large.ours < small.ours,
            "more data must reduce error: {} -> {}",
            small.ours,
            large.ours
        );
        assert!(large.ours < 0.08, "large-data RMSE {}", large.ours);
        // Credible band brackets the point estimate.
        assert!(large.ours_band.0 <= large.ours + 0.03);
        assert!(large.ours_band.1 >= large.ours - 0.03);
    }

    #[test]
    fn goyal_plateaus_under_skew() {
        // Config (b): one weak edge among strong ones. Goyal's equal
        // credit biases the weak edge up, so at large m our method must
        // beat it clearly.
        let p = rmse_point("b", &[0.15, 0.68, 0.83], 3_000, 4, 3);
        assert!(
            p.ours < p.goyal,
            "ours {} should beat goyal {} under skew",
            p.ours,
            p.goyal
        );
    }

    #[test]
    fn saito_is_competitive_at_large_m() {
        let p = rmse_point("a", &[0.68, 0.73, 0.85], 3_000, 4, 4);
        assert!(p.saito < 0.15, "saito {}", p.saito);
        // "Saito's is marginally worse" than ours, but in the same league.
        assert!(p.saito < 3.0 * p.ours + 0.05);
    }

    #[test]
    fn grid_is_log_spaced_to_ten_thousand() {
        let g = object_grid();
        assert_eq!(*g.first().unwrap(), 1);
        assert_eq!(*g.last().unwrap(), 10_000);
        assert!(g.windows(2).all(|w| w[1] > w[0]));
    }
}

//! Appendix experiment: the paper's *modified* EM (relaxed attribution
//! window) vs Saito et al.'s original discrete-time assumption.
//!
//! The paper's critique of the original formulation: "they assume a
//! time discrete activation process such that if the parent becomes
//! active at time t, the child conditionally activates at only t+1. In
//! many information networks, such as Twitter, there is no guarantee
//! the child receives information posted at t in step t+1."
//!
//! This runner learns edge probabilities under both timing windows on
//! two synthetic regimes — immediate propagation (children activate at
//! exactly t+1) and *delayed* propagation (children activate 1–3 steps
//! later) — and reports the RMSE of each. The modified window should
//! match the original on immediate data and beat it decisively on
//! delayed data.

use crate::output::Output;
use crate::runners::ExpConfig;
use flow_graph::NodeId;
use flow_learn::saito::{saito_em, SaitoConfig};
use flow_learn::summary::{Episode, SinkSummary, TimingAssumption};
use flow_stats::metrics::rmse;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One regime's result.
#[derive(Clone, Debug)]
pub struct AppendixPoint {
    /// "immediate" or "delayed".
    pub regime: &'static str,
    /// RMSE of EM under the relaxed (any-earlier) window.
    pub modified: f64,
    /// RMSE of EM under the original (previous-step) window.
    pub original: f64,
    /// Episodes the original window discarded as spontaneous
    /// (activations it could not attribute to any parent).
    pub original_spontaneous: u64,
}

/// Generates star episodes where each active parent fires at time 0 and
/// a leaking sink activates after `delay(rng)` steps.
fn delayed_star_episodes<R: Rng + ?Sized>(
    true_probs: &[f64],
    objects: usize,
    mut delay: impl FnMut(&mut R) -> u32,
    rng: &mut R,
) -> Vec<Episode> {
    let k = true_probs.len();
    let sink = NodeId(k as u32);
    (0..objects)
        .map(|_| {
            let mut acts = Vec::new();
            let mut miss = 1.0;
            for (j, &p) in true_probs.iter().enumerate() {
                if rng.random::<f64>() < 0.5 {
                    acts.push((NodeId(j as u32), 0));
                    miss *= 1.0 - p;
                }
            }
            if !acts.is_empty() && rng.random::<f64>() < 1.0 - miss {
                acts.push((sink, delay(rng)));
            }
            Episode::new(acts)
        })
        .collect()
}

fn point(regime: &'static str, truths: &[f64], episodes: &[Episode]) -> AppendixPoint {
    let parents: Vec<NodeId> = (0..truths.len() as u32).map(NodeId).collect();
    let sink = NodeId(truths.len() as u32);
    let fit = |timing: TimingAssumption| -> (f64, u64) {
        let s = SinkSummary::build(sink, parents.clone(), episodes, timing);
        let sol = saito_em(&s, &SaitoConfig::default());
        (
            rmse(&sol.probs, truths).expect("non-empty"),
            s.skipped_spontaneous,
        )
    };
    let (modified, _) = fit(TimingAssumption::AnyEarlier);
    let (original, original_spontaneous) = fit(TimingAssumption::PreviousStep);
    AppendixPoint {
        regime,
        modified,
        original,
        original_spontaneous,
    }
}

/// Runs the appendix comparison.
pub fn run_appendix(cfg: &ExpConfig, out: &Output) -> std::io::Result<Vec<AppendixPoint>> {
    out.heading("Appendix — relaxed vs discrete-time attribution window (EM)");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA99E_0000);
    let truths = [0.7, 0.4, 0.2];
    let objects = cfg.scaled(4_000, 1_500);
    // Immediate regime: delay = exactly 1 step (Saito's assumption holds).
    let immediate = delayed_star_episodes(&truths, objects, |_| 1, &mut rng);
    // Delayed regime: 1-3 steps (feeds arrive late, as on Twitter).
    let delayed = delayed_star_episodes(
        &truths,
        objects,
        |r: &mut StdRng| r.random_range(1..=3),
        &mut rng,
    );
    let points = vec![
        point("immediate", &truths, &immediate),
        point("delayed", &truths, &delayed),
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.regime.to_string(),
                format!("{:.4}", p.modified),
                format!("{:.4}", p.original),
                p.original_spontaneous.to_string(),
            ]
        })
        .collect();
    out.table(
        &[
            "regime",
            "modified (any-earlier)",
            "original (t+1)",
            "orig. unattributable",
        ],
        &rows,
    );
    out.csv(
        "appendix_timing",
        &[
            "regime",
            "modified_rmse",
            "original_rmse",
            "original_spontaneous",
        ],
        &rows,
    )?;
    out.line(
        "With delayed propagation the discrete-time window cannot attribute late \
         activations (it discards them as spontaneous) and its estimates collapse; \
         the relaxed window is unaffected — the paper's argument for the modification.",
    );
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modified_window_wins_under_delay() {
        let cfg = ExpConfig {
            scale: 0.0,
            seed: 21,
        };
        let out = Output::stdout_only();
        let points = run_appendix(&cfg, &out).unwrap();
        let immediate = &points[0];
        let delayed = &points[1];
        // Where the discrete-time assumption holds, both windows agree.
        assert!(
            (immediate.modified - immediate.original).abs() < 0.03,
            "immediate: {:?}",
            immediate
        );
        assert_eq!(immediate.original_spontaneous, 0);
        // Under delay the original window loses most leaks and degrades.
        assert!(delayed.original_spontaneous > 0);
        assert!(
            delayed.modified + 0.05 < delayed.original,
            "delayed: modified {} vs original {}",
            delayed.modified,
            delayed.original
        );
        // The relaxed window is itself unaffected by the delay.
        assert!(
            delayed.modified < 0.08,
            "modified rmse {}",
            delayed.modified
        );
    }
}

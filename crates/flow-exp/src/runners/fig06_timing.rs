//! Fig. 6: per-sample cost of our joint-Bayes learner vs Goyal et al.
//!
//! Both methods' costs are `O(nm)` on raw evidence, but "the main
//! computation difference ... \[is\] hidden by the constants": Goyal is
//! one pass of divisions/additions over the raw episodes, while our
//! method pays `n` Beta and `ω` Binomial log-likelihood evaluations per
//! posterior sample — on *summarized* evidence with
//! `ω = O(min(2ⁿ, m))` rows. The paper plots, per dataset size:
//!
//! * (a) core computation: one Goyal pass vs one posterior sample, and
//! * (b) total cost: dots = summarization + one sample, crosses = the
//!   amortized per-sample cost over many samples.

use crate::output::Output;
use crate::runners::ExpConfig;
use flow_graph::NodeId;
use flow_learn::joint_bayes::{JointBayes, JointBayesConfig};
use flow_learn::summary::{Episode, SinkSummary, TimingAssumption};
use flow_learn::synthetic::{star_episodes, StarConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One timing comparison point.
#[derive(Clone, Debug)]
pub struct TimingPoint {
    /// Candidate parents `n`.
    pub parents: usize,
    /// Objects (episodes) `m`.
    pub objects: usize,
    /// Summary width ω (distinct characteristics).
    pub summary_width: usize,
    /// Seconds for one Goyal pass over the raw episodes.
    pub goyal: f64,
    /// Seconds for one posterior sample (core computation, summary
    /// already built).
    pub ours_core: f64,
    /// Seconds for summarization plus one sample (Fig. 6(b) dots).
    pub ours_total_single: f64,
    /// Amortized seconds per sample over a 100-sample run including
    /// summarization (Fig. 6(b) crosses).
    pub ours_amortized: f64,
}

/// Goyal's credit rule evaluated over *raw* episodes (no summary), as
/// the paper times it: `m + n` divisions and `mn` additions.
pub fn goyal_raw(parents: &[NodeId], sink: NodeId, episodes: &[Episode]) -> Vec<f64> {
    let k = parents.len();
    let mut credit = vec![0.0f64; k];
    let mut exposure = vec![0u64; k];
    for ep in episodes {
        let sink_time = ep.activation_time(sink);
        let active: Vec<usize> = (0..k)
            .filter(|&j| match (ep.activation_time(parents[j]), sink_time) {
                (Some(tp), Some(t)) => tp < t,
                (Some(_), None) => true,
                (None, _) => false,
            })
            .collect();
        if active.is_empty() {
            continue;
        }
        let leak = sink_time.is_some();
        let share = if leak { 1.0 / active.len() as f64 } else { 0.0 };
        for &j in &active {
            credit[j] += share;
            exposure[j] += 1;
        }
    }
    (0..k)
        .map(|j| {
            if exposure[j] == 0 {
                0.0
            } else {
                credit[j] / exposure[j] as f64
            }
        })
        .collect()
}

fn single_sample_config() -> JointBayesConfig {
    JointBayesConfig {
        samples: 1,
        burn_in_sweeps: 0,
        thin_sweeps: 1,
        ..Default::default()
    }
}

/// Measures one grid point.
fn measure(parents_n: usize, objects: usize, seed: u64) -> TimingPoint {
    let mut rng = StdRng::seed_from_u64(seed);
    let true_probs: Vec<f64> = (0..parents_n)
        .map(|j| 0.2 + 0.6 * (j as f64 / parents_n as f64))
        .collect();
    let star = StarConfig::new(true_probs);
    let episodes = star_episodes(&star, objects, &mut rng);
    let parents: Vec<NodeId> = (0..parents_n as u32).map(NodeId).collect();
    let sink = NodeId(parents_n as u32);

    let time_it = |f: &mut dyn FnMut()| -> f64 {
        // Timing harness: the measured duration is the experiment output.
        #[allow(clippy::disallowed_methods)]
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    };

    let goyal = time_it(&mut || {
        std::hint::black_box(goyal_raw(&parents, sink, &episodes));
    });

    let mut summary: Option<SinkSummary> = None;
    let summarize_time = time_it(&mut || {
        summary = Some(SinkSummary::build(
            sink,
            parents.clone(),
            &episodes,
            TimingAssumption::AnyEarlier,
        ));
    });
    let summary = summary.expect("built above");

    let mut rng2 = StdRng::seed_from_u64(seed ^ 1);
    let ours_core = time_it(&mut || {
        std::hint::black_box(
            JointBayes::new(single_sample_config()).sample_posterior(&summary, &mut rng2),
        );
    });
    let batch = 100usize;
    let mut rng3 = StdRng::seed_from_u64(seed ^ 2);
    let batch_cfg = JointBayesConfig {
        samples: batch,
        burn_in_sweeps: 0,
        thin_sweeps: 1,
        ..Default::default()
    };
    let batch_time = time_it(&mut || {
        std::hint::black_box(JointBayes::new(batch_cfg).sample_posterior(&summary, &mut rng3));
    });
    TimingPoint {
        parents: parents_n,
        objects,
        summary_width: summary.width(),
        goyal,
        ours_core,
        ours_total_single: summarize_time + ours_core,
        ours_amortized: (summarize_time + batch_time) / batch as f64,
    }
}

/// Runs Fig. 6.
pub fn run_fig6(cfg: &ExpConfig, out: &Output) -> std::io::Result<Vec<TimingPoint>> {
    out.heading("Fig. 6 — per-sample cost: joint Bayes vs Goyal");
    let mut points = Vec::new();
    let object_grid = [300usize, 1_000, 3_000, 10_000, 30_000];
    let objects: Vec<usize> = object_grid.iter().map(|&o| cfg.scaled(o, o / 10)).collect();
    for &parents in &[5usize, 10, 15] {
        for &m in &objects {
            points.push(measure(
                parents,
                m,
                cfg.seed ^ (parents as u64 * 131 + m as u64),
            ));
        }
    }
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.parents.to_string(),
                p.objects.to_string(),
                p.summary_width.to_string(),
                format!("{:.6}", p.goyal),
                format!("{:.6}", p.ours_core),
                format!("{:.6}", p.ours_total_single),
                format!("{:.6}", p.ours_amortized),
            ]
        })
        .collect();
    out.table(
        &[
            "parents",
            "objects",
            "width",
            "goyal(s)",
            "ours core(s)",
            "ours 1st(s)",
            "ours amort(s)",
        ],
        &rows,
    );
    out.csv(
        "fig6_timing",
        &[
            "parents",
            "objects",
            "summary_width",
            "goyal_s",
            "ours_core_s",
            "ours_total_single_s",
            "ours_amortized_s",
        ],
        &rows,
    )?;
    out.line(
        "Summarization makes ω (rows) tiny relative to m, so the amortized \
         per-sample cost stays flat as objects grow while Goyal's pass scales with m.",
    );
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goyal_raw_matches_summary_goyal() {
        let mut rng = StdRng::seed_from_u64(77);
        let star = StarConfig::new(vec![0.7, 0.3, 0.5]);
        let episodes = star_episodes(&star, 2_000, &mut rng);
        let parents: Vec<NodeId> = vec![NodeId(0), NodeId(1), NodeId(2)];
        let sink = NodeId(3);
        let raw = goyal_raw(&parents, sink, &episodes);
        let summary = SinkSummary::build(sink, parents, &episodes, TimingAssumption::AnyEarlier);
        let via_summary = flow_learn::goyal::goyal_credit(&summary);
        for (a, b) in raw.iter().zip(&via_summary) {
            assert!((a - b).abs() < 1e-12, "raw {a} vs summary {b}");
        }
    }

    #[test]
    fn summary_width_is_bounded() {
        let p = measure(5, 2_000, 9);
        assert!(
            p.summary_width <= 31,
            "ω ≤ 2^n − 1, got {}",
            p.summary_width
        );
        assert!(p.goyal > 0.0 && p.ours_core > 0.0);
        assert!(p.ours_total_single >= p.ours_core);
    }

    #[test]
    fn amortized_cost_flattens_with_objects() {
        // The amortized per-sample cost must grow much slower than the
        // raw Goyal pass as the object count scales 20x.
        let small = measure(8, 1_000, 11);
        let large = measure(8, 20_000, 12);
        let goyal_growth = large.goyal / small.goyal.max(1e-9);
        let ours_growth = large.ours_core / small.ours_core.max(1e-9);
        assert!(
            ours_growth < goyal_growth,
            "core sample cost should scale with ω, not m: ours x{ours_growth:.1} vs goyal x{goyal_growth:.1}"
        );
    }
}

//! The paper's joint-Bayes learner (§V-B): posterior sampling over the
//! edge-probability vector of one sink by Metropolis–Hastings.
//!
//! The target is
//!
//! `p(M_k | D_k) ∝ Π_J Bin(L_J; n_J, p_{J,k}) · Π_j Beta(p_{j,k}; α_j, β_j)`
//!
//! where the Beta priors are "calculated from the unambiguous
//! characteristics only" and the default prior is `Beta(1, 1)`. Because
//! an unambiguous row's Binomial likelihood is itself a Beta kernel in
//! its single parent's probability, absorbing those rows into the prior
//! and keeping only ambiguous rows in the likelihood is *exactly*
//! equivalent to a uniform prior with the full likelihood — no evidence
//! is double-counted. That is how this implementation splits the work.
//!
//! The chain updates one coordinate per step with a logistic-scale
//! random walk (`logit p′ = logit p + N(0, σ)`), whose Hastings
//! correction in p-space is `p′(1−p′) / (p(1−p))`. Only the rows
//! containing the updated parent are re-evaluated, so a step costs
//! `O(|rows_j| · |J|)`.

use crate::summary::SinkSummary;
use flow_stats::dist::sample_standard_normal;
use flow_stats::specfn::ln_choose;
use flow_stats::OnlineStats;
use rand::Rng;

/// Joint-Bayes sampler configuration.
#[derive(Clone, Copy, Debug)]
pub struct JointBayesConfig {
    /// Retained posterior samples.
    pub samples: usize,
    /// Discarded full sweeps before sampling.
    pub burn_in_sweeps: usize,
    /// Full sweeps between retained samples.
    pub thin_sweeps: usize,
    /// Standard deviation of the logit-scale random walk.
    pub proposal_scale: f64,
}

impl Default for JointBayesConfig {
    fn default() -> Self {
        JointBayesConfig {
            samples: 1_000,
            burn_in_sweeps: 500,
            thin_sweeps: 5,
            proposal_scale: 0.6,
        }
    }
}

/// Posterior samples over a sink's incident edge probabilities.
#[derive(Clone, Debug)]
pub struct EdgePosterior {
    /// Parent order (matches the summary's).
    pub parents: Vec<flow_graph::NodeId>,
    /// `samples[s][j]` = parent `j`'s probability in retained sample `s`.
    pub samples: Vec<Vec<f64>>,
    /// Mean acceptance rate of the coordinate updates.
    pub acceptance_rate: f64,
}

impl EdgePosterior {
    /// Posterior mean per parent.
    pub fn means(&self) -> Vec<f64> {
        self.per_parent_stats().iter().map(|s| s.mean()).collect()
    }

    /// Posterior standard deviation per parent.
    pub fn std_devs(&self) -> Vec<f64> {
        self.per_parent_stats()
            .iter()
            .map(|s| s.std_dev())
            .collect()
    }

    /// Central credible interval per parent at `level` by empirical
    /// quantiles.
    pub fn credible_intervals(&self, level: f64) -> Vec<(f64, f64)> {
        assert!((0.0..=1.0).contains(&level));
        let k = self.parents.len();
        let tail = (1.0 - level) / 2.0;
        (0..k)
            .map(|j| {
                let mut col: Vec<f64> = self.samples.iter().map(|s| s[j]).collect();
                col.sort_by(|a, b| a.total_cmp(b));
                (
                    flow_stats::empirical_quantile(&col, tail),
                    flow_stats::empirical_quantile(&col, 1.0 - tail),
                )
            })
            .collect()
    }

    /// Pearson correlation between two parents' posterior samples —
    /// the paper notes the joint posterior "can even indicate if some
    /// edges are positively or negatively correlated".
    pub fn correlation(&self, a: usize, b: usize) -> f64 {
        let n = self.samples.len() as f64;
        let ma = self.samples.iter().map(|s| s[a]).sum::<f64>() / n;
        let mb = self.samples.iter().map(|s| s[b]).sum::<f64>() / n;
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for s in &self.samples {
            cov += (s[a] - ma) * (s[b] - mb);
            va += (s[a] - ma) * (s[a] - ma);
            vb += (s[b] - mb) * (s[b] - mb);
        }
        if va <= 0.0 || vb <= 0.0 {
            return 0.0;
        }
        cov / (va.sqrt() * vb.sqrt())
    }

    fn per_parent_stats(&self) -> Vec<OnlineStats> {
        let mut stats = vec![OnlineStats::new(); self.parents.len()];
        for s in &self.samples {
            for (j, &x) in s.iter().enumerate() {
                stats[j].push(x);
            }
        }
        stats
    }
}

/// The joint-Bayes learner for one sink summary.
///
/// ```
/// use flow_learn::fixtures::table_one;
/// use flow_learn::joint_bayes::JointBayes;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let summary = table_one(); // the paper's Table I
/// let mut rng = StdRng::seed_from_u64(7);
/// let posterior = JointBayes::default().sample_posterior(&summary, &mut rng);
/// let means = posterior.means();
/// assert_eq!(means.len(), 3); // parents A, B, C
/// assert!(means.iter().all(|p| (0.0..1.0).contains(p)));
/// ```
#[derive(Clone, Debug)]
pub struct JointBayes {
    config: JointBayesConfig,
}

impl Default for JointBayes {
    fn default() -> Self {
        JointBayes::new(JointBayesConfig::default())
    }
}

impl JointBayes {
    /// Creates a learner with the given chain configuration.
    pub fn new(config: JointBayesConfig) -> Self {
        JointBayes { config }
    }

    /// Samples the posterior over the sink's incident edge
    /// probabilities.
    pub fn sample_posterior<R: Rng + ?Sized>(
        &self,
        summary: &SinkSummary,
        rng: &mut R,
    ) -> EdgePosterior {
        let k = summary.parents.len();
        let priors = crate::summary::filtered_betas(summary);
        // Precompute, per parent, the ambiguous rows it participates in.
        let ambiguous_rows: Vec<usize> = (0..summary.rows.len())
            .filter(|&i| !summary.rows[i].is_unambiguous())
            .collect();
        let rows_of_parent: Vec<Vec<usize>> = (0..k)
            .map(|j| {
                ambiguous_rows
                    .iter()
                    .copied()
                    .filter(|&i| summary.rows[i].characteristic.get(j))
                    .collect()
            })
            .collect();

        // Start at the prior means (always interior points).
        let mut p: Vec<f64> = priors.iter().map(|b| b.mean()).collect();
        let mut row_ll: Vec<f64> = (0..summary.rows.len())
            .map(|i| row_ln_likelihood(summary, i, &p))
            .collect();

        let _sweep = flow_obs::span("joint_bayes.sweep");
        let mut samples = Vec::with_capacity(self.config.samples);
        let mut proposals = 0u64;
        let mut accepts = 0u64;
        let total_sweeps =
            self.config.burn_in_sweeps + self.config.samples * self.config.thin_sweeps.max(1);
        let mut sweeps_done = 0usize;
        let mut next_keep = self.config.burn_in_sweeps + self.config.thin_sweeps.max(1);
        while sweeps_done < total_sweeps {
            for j in 0..k {
                proposals += 1;
                let old = p[j];
                let logit = (old / (1.0 - old)).ln();
                let proposed_logit =
                    logit + self.config.proposal_scale * sample_standard_normal(rng);
                let new = 1.0 / (1.0 + (-proposed_logit).exp());
                if !(new > 0.0 && new < 1.0) {
                    continue; // numerically saturated; reject
                }
                // Δ log prior + Hastings (logit-walk Jacobian).
                let prior = &priors[j];
                let mut delta = prior.ln_pdf(new) - prior.ln_pdf(old);
                delta += (new * (1.0 - new)).ln() - (old * (1.0 - old)).ln();
                // Δ log likelihood over affected ambiguous rows.
                p[j] = new;
                let mut new_lls = Vec::with_capacity(rows_of_parent[j].len());
                for &i in &rows_of_parent[j] {
                    let ll = row_ln_likelihood(summary, i, &p);
                    delta += ll - row_ll[i];
                    new_lls.push(ll);
                }
                if delta >= 0.0 || rng.random::<f64>() < delta.exp() {
                    for (idx, &i) in rows_of_parent[j].iter().enumerate() {
                        row_ll[i] = new_lls[idx];
                    }
                    accepts += 1;
                } else {
                    p[j] = old;
                }
            }
            sweeps_done += 1;
            if sweeps_done == next_keep && samples.len() < self.config.samples {
                samples.push(p.clone());
                next_keep += self.config.thin_sweeps.max(1);
            }
        }
        // Pad in the degenerate case of zero requested thinning cadence.
        while samples.len() < self.config.samples {
            samples.push(p.clone());
        }
        // Bulk counters once per run (not per proposal) keep the hot
        // coordinate loop free of recorder dispatch.
        flow_obs::counter("joint_bayes.proposals", proposals);
        flow_obs::counter("joint_bayes.accepts", accepts);
        flow_obs::event(|| {
            flow_obs::Event::new("joint_bayes.done")
                .step(sweeps_done as u64)
                .u64("parents", k as u64)
                .u64("samples", samples.len() as u64)
                .f64(
                    "acceptance_rate",
                    if proposals == 0 {
                        0.0
                    } else {
                        accepts as f64 / proposals as f64
                    },
                )
        });
        EdgePosterior {
            parents: summary.parents.clone(),
            samples,
            acceptance_rate: if proposals == 0 {
                0.0
            } else {
                accepts as f64 / proposals as f64
            },
        }
    }
}

fn row_ln_likelihood(summary: &SinkSummary, i: usize, probs: &[f64]) -> f64 {
    let row = &summary.rows[i];
    let p = summary.characteristic_probability(row, probs);
    let mut acc = ln_choose(row.count, row.leaks);
    acc += if row.leaks == 0 {
        0.0
    } else if p <= 0.0 {
        return f64::NEG_INFINITY;
    } else {
        row.leaks as f64 * p.ln()
    };
    let misses = row.count - row.leaks;
    acc += if misses == 0 {
        0.0
    } else if p >= 1.0 {
        return f64::NEG_INFINITY;
    } else {
        misses as f64 * (1.0 - p).ln()
    };
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::SummaryRow;
    use flow_graph::{BitSet, NodeId};
    use flow_stats::Beta as BetaDist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// With only unambiguous evidence the posterior is the exact Beta,
    /// so the sampler must reproduce its moments.
    #[test]
    fn posterior_matches_exact_beta_on_unambiguous_evidence() {
        let rows = vec![SummaryRow {
            characteristic: BitSet::from_indices(1, [0]),
            count: 40,
            leaks: 30,
        }];
        let s = SinkSummary::from_rows(n(9), vec![n(0)], rows);
        let exact = BetaDist::new(31.0, 11.0);
        let mut rng = StdRng::seed_from_u64(91);
        let post = JointBayes::new(JointBayesConfig {
            samples: 3_000,
            ..Default::default()
        })
        .sample_posterior(&s, &mut rng);
        assert!((post.means()[0] - exact.mean()).abs() < 0.01);
        assert!((post.std_devs()[0] - exact.std_dev()).abs() < 0.015);
    }

    /// Two always-co-active parents are unidentifiable individually but
    /// their noisy-OR is pinned; posterior samples must respect the
    /// combined constraint and be negatively correlated.
    #[test]
    fn coactive_parents_are_negatively_correlated() {
        let rows = vec![SummaryRow {
            characteristic: BitSet::from_indices(2, [0, 1]),
            count: 200,
            leaks: 150, // noisy-OR pinned near 0.75
        }];
        let s = SinkSummary::from_rows(n(9), vec![n(0), n(1)], rows);
        let mut rng = StdRng::seed_from_u64(92);
        let post = JointBayes::new(JointBayesConfig {
            samples: 3_000,
            ..Default::default()
        })
        .sample_posterior(&s, &mut rng);
        let corr = post.correlation(0, 1);
        assert!(corr < -0.3, "correlation {corr}");
        // The noisy-OR is concentrated near 0.75 across samples.
        let mut or_stats = flow_stats::OnlineStats::new();
        for sample in &post.samples {
            or_stats.push(1.0 - (1.0 - sample[0]) * (1.0 - sample[1]));
        }
        assert!(
            (or_stats.mean() - 0.75).abs() < 0.03,
            "or {}",
            or_stats.mean()
        );
        assert!(or_stats.std_dev() < 0.06);
    }

    /// Recover ground-truth probabilities from a generated mixed
    /// (ambiguous + unambiguous) summary.
    #[test]
    fn recovers_ground_truth_from_mixed_evidence() {
        use rand::Rng as _;
        let truth = [0.8, 0.3];
        let mut rng = StdRng::seed_from_u64(93);
        let mut episodes = Vec::new();
        for _ in 0..1500 {
            let mut acts = Vec::new();
            let mut p_or = 1.0;
            for (j, &t) in truth.iter().enumerate() {
                if rng.random::<f64>() < 0.7 {
                    acts.push((n(j as u32), 0));
                    p_or *= 1.0 - t;
                }
            }
            if !acts.is_empty() && rng.random::<f64>() < 1.0 - p_or {
                acts.push((n(9), 1));
            }
            episodes.push(crate::summary::Episode::new(acts));
        }
        let s = SinkSummary::build(
            n(9),
            vec![n(0), n(1)],
            &episodes,
            crate::summary::TimingAssumption::AnyEarlier,
        );
        let mut rng2 = StdRng::seed_from_u64(94);
        let post = JointBayes::default().sample_posterior(&s, &mut rng2);
        let means = post.means();
        assert!((means[0] - truth[0]).abs() < 0.06, "p0 {}", means[0]);
        assert!((means[1] - truth[1]).abs() < 0.06, "p1 {}", means[1]);
        // Credible intervals should bracket the truth.
        let cis = post.credible_intervals(0.95);
        for (j, &(lo, hi)) in cis.iter().enumerate() {
            assert!(
                lo <= truth[j] && truth[j] <= hi,
                "parent {j}: truth {} outside [{lo}, {hi}]",
                truth[j]
            );
        }
        assert!(post.acceptance_rate > 0.1 && post.acceptance_rate < 0.95);
    }

    #[test]
    fn uniform_posterior_without_evidence() {
        let s = SinkSummary::from_rows(n(9), vec![n(0)], vec![]);
        let mut rng = StdRng::seed_from_u64(95);
        let post = JointBayes::new(JointBayesConfig {
            samples: 4_000,
            ..Default::default()
        })
        .sample_posterior(&s, &mut rng);
        // Beta(1,1): mean 1/2, sd sqrt(1/12) ≈ 0.2887.
        assert!((post.means()[0] - 0.5).abs() < 0.02);
        assert!((post.std_devs()[0] - (1.0f64 / 12.0).sqrt()).abs() < 0.02);
    }

    #[test]
    fn correlation_of_independent_parents_is_small() {
        // Separate unambiguous rows -> independent posteriors.
        let rows = vec![
            SummaryRow {
                characteristic: BitSet::from_indices(2, [0]),
                count: 50,
                leaks: 25,
            },
            SummaryRow {
                characteristic: BitSet::from_indices(2, [1]),
                count: 50,
                leaks: 10,
            },
        ];
        let s = SinkSummary::from_rows(n(9), vec![n(0), n(1)], rows);
        let mut rng = StdRng::seed_from_u64(96);
        let post = JointBayes::new(JointBayesConfig {
            samples: 3_000,
            ..Default::default()
        })
        .sample_posterior(&s, &mut rng);
        assert!(post.correlation(0, 1).abs() < 0.1);
    }
}

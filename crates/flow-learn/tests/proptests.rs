//! Property-based tests for the unattributed learners.

use flow_graph::{BitSet, NodeId};
use flow_learn::goyal::goyal_credit;
use flow_learn::joint_bayes::{JointBayes, JointBayesConfig};
use flow_learn::saito::{saito_em_from, SaitoConfig};
use flow_learn::summary::{filtered_betas, SinkSummary, SummaryRow};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random summary over `k` parents.
fn random_summary() -> impl Strategy<Value = SinkSummary> {
    (2usize..=4).prop_flat_map(|k| {
        let row = (1u64..(1 << k) as u64, 1u64..80).prop_map(move |(bits, count)| (bits, count));
        prop::collection::vec((row, 0.0f64..=1.0), 1..8).prop_map(move |raw| {
            let rows: Vec<SummaryRow> = raw
                .into_iter()
                .map(|((bits, count), leak_frac)| {
                    let leaks = ((count as f64) * leak_frac).floor() as u64;
                    SummaryRow {
                        characteristic: BitSet::from_u64(k, bits),
                        count,
                        leaks: leaks.min(count),
                    }
                })
                .collect();
            // Merge duplicate characteristics to satisfy the invariant.
            let mut merged: std::collections::HashMap<u64, SummaryRow> =
                std::collections::HashMap::new();
            for r in rows {
                let key = r.characteristic.as_u64();
                merged
                    .entry(key)
                    .and_modify(|m| {
                        m.count += r.count;
                        m.leaks += r.leaks;
                    })
                    .or_insert(r);
            }
            SinkSummary::from_rows(
                NodeId(k as u32),
                (0..k as u32).map(NodeId).collect(),
                merged.into_values().collect(),
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        ..ProptestConfig::default()
    })]

    #[test]
    fn goyal_estimates_are_probabilities(s in random_summary()) {
        for (j, p) in goyal_credit(&s).into_iter().enumerate() {
            prop_assert!((0.0..=1.0).contains(&p), "parent {j}: {p}");
        }
    }

    #[test]
    fn filtered_betas_are_proper(s in random_summary()) {
        for b in filtered_betas(&s) {
            prop_assert!(b.alpha() >= 1.0 && b.beta() >= 1.0);
            prop_assert!((0.0..1.0).contains(&b.mean()) || b.mean() == 0.5);
        }
    }

    #[test]
    fn em_never_decreases_likelihood(s in random_summary(), seed in any::<u64>()) {
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(seed);
        let k = s.parents.len();
        let mut probs: Vec<f64> = (0..k).map(|_| rng.random_range(0.05..0.95)).collect();
        let mut last = s.ln_likelihood(&probs);
        for _ in 0..10 {
            let sol = saito_em_from(
                &s,
                &probs,
                &SaitoConfig {
                    max_iterations: 1,
                    tolerance: 0.0,
                },
            );
            // One EM step from the current point must not reduce the
            // (finite) likelihood.
            if last.is_finite() {
                prop_assert!(
                    sol.ln_likelihood >= last - 1e-7,
                    "EM decreased likelihood {last} -> {}",
                    sol.ln_likelihood
                );
            }
            last = sol.ln_likelihood;
            probs = sol.probs;
        }
    }

    #[test]
    fn joint_bayes_posterior_is_proper(s in random_summary(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let post = JointBayes::new(JointBayesConfig {
            samples: 60,
            burn_in_sweeps: 40,
            thin_sweeps: 1,
            ..Default::default()
        })
        .sample_posterior(&s, &mut rng);
        prop_assert_eq!(post.samples.len(), 60);
        for sample in &post.samples {
            for &p in sample {
                prop_assert!((0.0..1.0).contains(&p) || p > 0.0, "invalid probability {p}");
                prop_assert!(p.is_finite());
            }
        }
        let means = post.means();
        let cis = post.credible_intervals(0.9);
        for (m, (lo, hi)) in means.iter().zip(cis) {
            prop_assert!(lo <= *m + 1e-9 && *m <= hi + 1e-9, "mean {m} outside [{lo},{hi}]");
        }
    }

    #[test]
    fn likelihood_is_finite_on_interior_points(s in random_summary()) {
        let k = s.parents.len();
        let interior = vec![0.5; k];
        prop_assert!(s.ln_likelihood(&interior).is_finite());
    }
}

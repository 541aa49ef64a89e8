//! Property-based tests for the statistical substrate.

use flow_stats::{Beta, Binomial, OnlineStats, WeightTree};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn beta_cdf_is_monotone(a in 0.2f64..50.0, b in 0.2f64..50.0) {
        let d = Beta::new(a, b);
        let mut last = 0.0;
        for i in 0..=40 {
            let x = i as f64 / 40.0;
            let c = d.cdf(x);
            prop_assert!((0.0..=1.0).contains(&c));
            prop_assert!(c >= last - 1e-12, "cdf must be nondecreasing");
            last = c;
        }
        prop_assert!((d.cdf(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn beta_quantile_roundtrips(a in 0.3f64..40.0, b in 0.3f64..40.0, p in 0.001f64..0.999) {
        let d = Beta::new(a, b);
        let x = d.quantile(p);
        prop_assert!((0.0..=1.0).contains(&x));
        prop_assert!((d.cdf(x) - p).abs() < 1e-7, "cdf(quantile({p})) = {}", d.cdf(x));
    }

    #[test]
    fn beta_symmetry(a in 0.3f64..30.0, b in 0.3f64..30.0, x in 0.0f64..=1.0) {
        // I_x(a, b) = 1 - I_{1-x}(b, a)
        let d = Beta::new(a, b);
        let r = Beta::new(b, a);
        prop_assert!((d.cdf(x) - (1.0 - r.cdf(1.0 - x))).abs() < 1e-10);
    }

    #[test]
    fn beta_ci_brackets_mass(a in 0.5f64..30.0, b in 0.5f64..30.0, level in 0.5f64..0.99) {
        let d = Beta::new(a, b);
        let (lo, hi) = d.confidence_interval(level);
        prop_assert!(lo <= hi);
        prop_assert!((d.cdf(hi) - d.cdf(lo) - level).abs() < 1e-6);
    }

    #[test]
    fn binomial_pmf_normalizes(n in 0u64..200, p in 0.0f64..=1.0) {
        let d = Binomial::new(n, p);
        let total: f64 = (0..=n).map(|k| d.ln_pmf(k).exp()).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
    }

    #[test]
    fn binomial_sample_in_range(n in 0u64..100, p in 0.0f64..=1.0, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = Binomial::new(n, p).sample(&mut rng);
        prop_assert!(k <= n);
    }

    #[test]
    fn online_stats_merge_matches_sequential(
        data in prop::collection::vec(-1e3f64..1e3, 1..200),
        split in 0usize..200,
    ) {
        let split = split.min(data.len());
        let mut all = OnlineStats::new();
        for &x in &data {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..split] {
            a.push(x);
        }
        for &x in &data[split..] {
            b.push(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), all.count());
        prop_assert!((a.mean() - all.mean()).abs() < 1e-8);
        prop_assert!((a.variance() - all.variance()).abs() < 1e-6);
    }

    #[test]
    fn fenwick_matches_reference_after_random_ops(
        init in prop::collection::vec(0.0f64..5.0, 1..60),
        ops in prop::collection::vec((0usize..60, 0.0f64..5.0), 0..60),
        targets in prop::collection::vec(0.0f64..1.0, 1..20),
    ) {
        let mut weights = init.clone();
        let mut tree = WeightTree::new(&weights);
        for (idx, w) in ops {
            let i = idx % weights.len();
            weights[i] = w;
            tree.try_update(i, w).unwrap();
        }
        let total: f64 = weights.iter().sum();
        prop_assert!((tree.total() - total).abs() < 1e-9);
        for t in targets {
            if total <= 0.0 {
                break;
            }
            let target = t * total * 0.999_999;
            let got = tree.find_by_prefix(target);
            // Reference scan.
            let mut acc = 0.0;
            let mut want = weights.len() - 1;
            for (i, &w) in weights.iter().enumerate() {
                acc += w;
                if target < acc {
                    want = i;
                    break;
                }
            }
            if got != want {
                // Allowed only across zero-weight leaves (FP ties).
                let (lo, hi) = (got.min(want), got.max(want));
                prop_assert!(
                    weights[lo..hi].contains(&0.0),
                    "mismatch {got} vs {want}"
                );
            }
        }
    }
}

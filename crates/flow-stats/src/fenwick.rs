//! A Fenwick (binary-indexed) tree over nonnegative `f64` weights with
//! `O(log m)` point updates and `O(log m)` weighted sampling.
//!
//! This is the “search tree” of §III-C of the paper: the
//! Metropolis–Hastings proposal maintains a multinomial distribution over
//! edges (`q_i`), flips one edge per step, and must both *sample* an edge
//! proportional to its weight and *update* the flipped edge's weight in
//! logarithmic time, while tracking the normalizing constant `Z`.
//!
//! Floating-point drift: weights are stored exactly in a side array, and
//! the prefix sums can be rebuilt in `O(m)` via [`WeightTree::rebuild`];
//! long-running samplers call this periodically.

use flow_core::{fault, FlowError, FlowResult};
use rand::Rng;

/// Weighted-sampling Fenwick tree.
///
/// ```
/// use flow_stats::WeightTree;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut tree = WeightTree::new(&[1.0, 0.0, 3.0]);
/// assert_eq!(tree.total(), 4.0);
/// tree.try_update(1, 2.0).unwrap(); // O(log m)
/// assert_eq!(tree.total(), 6.0);
/// let mut rng = StdRng::seed_from_u64(1);
/// let i = tree.sample(&mut rng).unwrap();  // O(log m), ∝ weight
/// assert!(i < 3);
/// ```
#[derive(Clone, Debug)]
pub struct WeightTree {
    /// Fenwick array of partial sums, 1-indexed internally.
    tree: Vec<f64>,
    /// Exact current weights, 0-indexed.
    weights: Vec<f64>,
    /// `tree.len() - 1` rounded up to a power of two, for the descent.
    mask: usize,
}

impl WeightTree {
    /// Builds a tree over the given weights. All weights must be
    /// nonnegative and finite.
    ///
    /// Panics on a bad weight; use [`WeightTree::try_new`] at
    /// boundaries where corrupt weights are survivable.
    pub fn new(weights: &[f64]) -> Self {
        match Self::try_new(weights) {
            Ok(t) => t,
            // flow-analyze: allow(L1: documented panicking wrapper over try_new, L7: sampler state weights are normalized finite by construction)
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible construction: returns
    /// [`FlowError::NonFiniteWeight`] naming the first offending index
    /// instead of panicking.
    pub fn try_new(weights: &[f64]) -> FlowResult<Self> {
        let n = weights.len();
        let mut copy = Vec::with_capacity(n);
        for (i, &w) in weights.iter().enumerate() {
            let w = fault::poison("weight_tree.new", w);
            if !(w >= 0.0 && w.is_finite()) {
                return Err(FlowError::NonFiniteWeight { index: i, value: w });
            }
            copy.push(w);
        }
        let mut t = WeightTree {
            tree: vec![0.0; n + 1],
            weights: copy,
            mask: n.next_power_of_two(),
        };
        t.rebuild();
        Ok(t)
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True if there are no leaves.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Current weight of leaf `i`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Total weight (the normalizing constant `Z`).
    pub fn total(&self) -> f64 {
        self.prefix_sum(self.weights.len())
    }

    /// Sets leaf `i` to weight `w` in `O(log m)`. Rejects
    /// NaN/infinite/negative weights and out-of-range indices with a
    /// typed error, leaving the tree unchanged.
    pub fn try_update(&mut self, i: usize, w: f64) -> FlowResult<()> {
        let w = fault::poison("weight_tree.update", w);
        if !(w >= 0.0 && w.is_finite()) {
            return Err(FlowError::NonFiniteWeight { index: i, value: w });
        }
        if i >= self.weights.len() {
            return Err(FlowError::GraphInconsistency {
                detail: format!(
                    "weight index {i} out of range for tree of {} leaves",
                    self.weights.len()
                ),
            });
        }
        let delta = w - self.weights[i];
        self.weights[i] = w;
        let mut idx = i + 1;
        while idx < self.tree.len() {
            self.tree[idx] += delta;
            idx += idx & idx.wrapping_neg();
        }
        self.debug_check();
        Ok(())
    }

    /// Audits the whole tree against a fresh recomputation from the
    /// exact leaf weights: every leaf must be finite and non-negative,
    /// and every Fenwick node must equal the sum of the leaf range it
    /// covers (up to incremental-update rounding). `O(m log m)`.
    ///
    /// Returns [`FlowError::NonFiniteWeight`] for a bad leaf and
    /// [`FlowError::GraphInconsistency`] for a node/leaf mismatch.
    pub fn check_consistency(&self) -> FlowResult<()> {
        for (i, &w) in self.weights.iter().enumerate() {
            if !(w >= 0.0 && w.is_finite()) {
                return Err(FlowError::NonFiniteWeight { index: i, value: w });
            }
        }
        for idx in 1..self.tree.len() {
            let lo = idx - (idx & idx.wrapping_neg());
            let expected: f64 = self.weights[lo..idx.min(self.weights.len())].iter().sum();
            let got = self.tree[idx];
            let tol = 1e-9 * expected.abs().max(1.0);
            // A corrupted node may hold NaN/inf even when every leaf is
            // finite, so the non-finite case is checked explicitly.
            if !got.is_finite() || (got - expected).abs() > tol {
                return Err(FlowError::GraphInconsistency {
                    detail: format!(
                        "weight-tree node {idx} holds {got} but its leaf range \
                         [{lo}, {idx}) sums to {expected}"
                    ),
                });
            }
        }
        Ok(())
    }

    /// Runs [`Self::check_consistency`] and panics on violation — but
    /// only in `debug-invariants` builds; otherwise this is a no-op the
    /// optimizer removes. Called after every point update and rebuild.
    #[inline]
    pub fn debug_check(&self) {
        if cfg!(feature = "debug-invariants") {
            if let Err(e) = self.check_consistency() {
                // flow-analyze: allow(L1: tripwire panic is the debug-invariants contract, L7: compiled out of release serving builds — the panic exists only under the debug-invariants feature)
                panic!("weight-tree invariant violated: {e}");
            }
        }
    }

    /// Test support: corrupts one internal Fenwick node in place so
    /// invariant-checking tests can prove [`Self::check_consistency`]
    /// actually detects damage. Hidden from docs; never called by
    /// library code.
    #[doc(hidden)]
    pub fn corrupt_tree_node_for_tests(&mut self, idx: usize, delta: f64) {
        if let Some(node) = self.tree.get_mut(idx) {
            *node += delta;
        }
    }

    /// Sum of weights `0..i`.
    pub fn prefix_sum(&self, i: usize) -> f64 {
        let mut idx = i.min(self.weights.len());
        let mut acc = 0.0;
        while idx > 0 {
            acc += self.tree[idx];
            idx -= idx & idx.wrapping_neg();
        }
        acc
    }

    /// Samples a leaf index with probability proportional to its weight.
    ///
    /// Returns `None` when the total weight is zero (or there are no
    /// leaves). `O(log m)` via Fenwick descent.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<usize> {
        let total = self.total();
        if total <= 0.0 || self.weights.is_empty() {
            return None;
        }
        let target = rng.random::<f64>() * total;
        Some(self.find_by_prefix(target))
    }

    /// Returns the smallest index `i` such that the prefix sum through
    /// leaf `i` exceeds `target`. `target` must be in `[0, total)`.
    pub fn find_by_prefix(&self, mut target: f64) -> usize {
        let mut pos = 0usize;
        let mut step = self.mask;
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && self.tree[next] <= target {
                target -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        // `pos` is the count of leaves whose cumulative weight is <= target.
        // Guard against FP edge cases at the top end and zero-weight leaves.
        let mut i = pos.min(self.weights.len().saturating_sub(1));
        // flow-analyze: allow(L3: zero weights are assigned exactly; skipping them is exact by design)
        while i + 1 < self.weights.len() && self.weights[i] == 0.0 {
            i += 1;
        }
        i
    }

    /// Recomputes all prefix sums from the exact weights, clearing any
    /// accumulated floating-point drift. `O(m)`.
    pub fn rebuild(&mut self) {
        for t in &mut self.tree {
            *t = 0.0;
        }
        for i in 0..self.weights.len() {
            let mut idx = i + 1;
            let w = self.weights[i];
            // Propagate like `try_update` but from a clean slate: add w at
            // every ancestor.
            while idx < self.tree.len() {
                self.tree[idx] += w;
                idx += idx & idx.wrapping_neg();
            }
        }
        self.debug_check();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn total_and_prefix_sums() {
        let t = WeightTree::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.len(), 4);
        assert!((t.total() - 10.0).abs() < 1e-12);
        assert!((t.prefix_sum(0) - 0.0).abs() < 1e-12);
        assert!((t.prefix_sum(2) - 3.0).abs() < 1e-12);
        assert!((t.prefix_sum(4) - 10.0).abs() < 1e-12);
        assert!((t.prefix_sum(100) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn update_changes_total() {
        let mut t = WeightTree::new(&[1.0, 1.0, 1.0]);
        t.try_update(1, 5.0).unwrap();
        assert!((t.total() - 7.0).abs() < 1e-12);
        assert_eq!(t.get(1), 5.0);
        t.try_update(1, 0.0).unwrap();
        assert!((t.total() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn find_by_prefix_boundaries() {
        let t = WeightTree::new(&[2.0, 0.0, 3.0, 5.0]);
        assert_eq!(t.find_by_prefix(0.0), 0);
        assert_eq!(t.find_by_prefix(1.999), 0);
        // Weight-0 leaf is skipped.
        assert_eq!(t.find_by_prefix(2.0), 2);
        assert_eq!(t.find_by_prefix(4.999), 2);
        assert_eq!(t.find_by_prefix(5.0), 3);
        assert_eq!(t.find_by_prefix(9.999), 3);
    }

    #[test]
    fn sample_empirical_frequencies() {
        let mut rng = StdRng::seed_from_u64(21);
        let t = WeightTree::new(&[1.0, 0.0, 2.0, 7.0]);
        let mut counts = [0usize; 4];
        let n = 100_000;
        for _ in 0..n {
            counts[t.sample(&mut rng).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let f0 = counts[0] as f64 / n as f64;
        let f2 = counts[2] as f64 / n as f64;
        let f3 = counts[3] as f64 / n as f64;
        assert!((f0 - 0.1).abs() < 0.01, "f0={f0}");
        assert!((f2 - 0.2).abs() < 0.01, "f2={f2}");
        assert!((f3 - 0.7).abs() < 0.01, "f3={f3}");
    }

    #[test]
    fn sample_none_when_all_zero() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = WeightTree::new(&[0.0, 0.0]);
        assert_eq!(t.sample(&mut rng), None);
        let e = WeightTree::new(&[]);
        assert_eq!(e.sample(&mut rng), None);
    }

    #[test]
    fn rebuild_clears_drift() {
        let mut t = WeightTree::new(&[0.1; 64]);
        // Hammer updates to accumulate drift.
        for i in 0..64 {
            for _ in 0..1000 {
                t.try_update(i, 0.3).unwrap();
                t.try_update(i, 0.1).unwrap();
            }
        }
        t.rebuild();
        assert!((t.total() - 6.4).abs() < 1e-12);
        for i in 0..64 {
            assert_eq!(t.get(i), 0.1);
        }
    }

    #[test]
    fn non_power_of_two_sizes() {
        for n in [1usize, 3, 5, 7, 13, 100] {
            let weights: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
            let t = WeightTree::new(&weights);
            let expect: f64 = weights.iter().sum();
            assert!((t.total() - expect).abs() < 1e-9, "n={n}");
            // find_by_prefix at each leaf boundary.
            let mut acc = 0.0;
            for (i, &w) in weights.iter().enumerate() {
                assert_eq!(t.find_by_prefix(acc), i, "n={n} i={i}");
                acc += w;
                assert_eq!(t.find_by_prefix(acc - 1e-9), i, "n={n} i={i} end");
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_negative_weight() {
        let _ = WeightTree::new(&[1.0, -0.5]);
    }

    #[test]
    fn try_new_reports_offending_index() {
        use flow_core::FlowError;
        for (weights, bad) in [
            (vec![1.0, f64::NAN, 2.0], 1),
            (vec![f64::INFINITY], 0),
            (vec![0.5, 1.0, -0.25], 2),
        ] {
            match WeightTree::try_new(&weights) {
                Err(FlowError::NonFiniteWeight { index, .. }) => assert_eq!(index, bad),
                other => panic!("expected NonFiniteWeight, got {other:?}"),
            }
        }
        assert!(WeightTree::try_new(&[0.0, 1.5]).is_ok());
    }

    #[test]
    fn try_update_rejects_and_preserves_state() {
        use flow_core::FlowError;
        let mut t = WeightTree::new(&[1.0, 2.0, 3.0]);
        assert!(matches!(
            t.try_update(1, f64::NAN),
            Err(FlowError::NonFiniteWeight { index: 1, .. })
        ));
        assert!(matches!(
            t.try_update(5, 1.0),
            Err(FlowError::GraphInconsistency { .. })
        ));
        // Rejected updates leave weights and totals untouched.
        assert_eq!(t.get(1), 2.0);
        assert!((t.total() - 6.0).abs() < 1e-12);
        t.try_update(1, 4.0).unwrap();
        assert!((t.total() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn matches_linear_scan_reference() {
        // Property-style: random updates, then compare sampling CDF
        // boundaries to a naive linear scan.
        let mut rng = StdRng::seed_from_u64(5);
        use rand::Rng as _;
        let n = 37;
        let mut weights: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
        let mut t = WeightTree::new(&weights);
        for _ in 0..500 {
            let i = rng.random_range(0..n);
            let w = if rng.random::<f64>() < 0.2 {
                0.0
            } else {
                rng.random::<f64>() * 3.0
            };
            weights[i] = w;
            t.try_update(i, w).unwrap();
        }
        let total: f64 = weights.iter().sum();
        assert!((t.total() - total).abs() < 1e-9);
        for _ in 0..200 {
            let target = rng.random::<f64>() * total;
            // Naive scan.
            let mut acc = 0.0;
            let mut want = n - 1;
            for (i, &w) in weights.iter().enumerate() {
                acc += w;
                if target < acc {
                    want = i;
                    break;
                }
            }
            let got = t.find_by_prefix(target);
            // Both must land on a leaf with identical cumulative range;
            // allow for FP ties only when weights are zero between them.
            if got != want {
                let (lo, hi) = (got.min(want), got.max(want));
                assert!(
                    (lo..hi).all(|j| weights[j + 1] == 0.0 || weights[j] == 0.0),
                    "mismatch got={got} want={want} target={target}"
                );
            }
        }
    }
}

//! Property-based coverage for the weight-tree invariant checker
//! (`WeightTree::check_consistency`): random operation interleavings
//! must keep every Fenwick node consistent with the exact leaf weights,
//! and deliberate corruption must be caught — including by the armed
//! `debug_check` tripwire in `debug-invariants` builds.

use flow_stats::WeightTree;
use proptest::prelude::*;

proptest! {
    #[test]
    fn random_interleavings_keep_prefix_sums_consistent(
        init in prop::collection::vec(0.0f64..1e3, 1..40),
        ops in prop::collection::vec((any::<usize>(), 0.0f64..1e6), 0..60),
    ) {
        let mut tree = WeightTree::new(&init);
        prop_assert!(tree.check_consistency().is_ok());
        let mut shadow = init.clone();
        for (raw_index, weight) in ops {
            // Roughly one op in nine is a full rebuild, the rest are
            // point updates at a random leaf.
            if raw_index % 9 == 0 {
                tree.rebuild();
            } else {
                let i = raw_index % shadow.len();
                tree.try_update(i, weight).unwrap();
                shadow[i] = weight;
            }
            prop_assert!(
                tree.check_consistency().is_ok(),
                "tree inconsistent after interleaved ops"
            );
        }
        // The audited tree must also agree with the shadow weights.
        let total: f64 = shadow.iter().sum();
        prop_assert!((tree.total() - total).abs() <= 1e-9 * total.max(1.0));
        for (i, &w) in shadow.iter().enumerate() {
            prop_assert_eq!(tree.get(i), w);
        }
    }

    #[test]
    fn corrupted_node_is_always_detected(
        init in prop::collection::vec(0.1f64..1e3, 2..32),
        node_pick in any::<usize>(),
        magnitude in 0.5f64..1e3,
    ) {
        let mut tree = WeightTree::new(&init);
        // Internal nodes are 1..=len; pick one and knock it off by a
        // delta far beyond the checker's rounding tolerance, in either
        // direction.
        let idx = 1 + node_pick % init.len();
        let delta = if node_pick.is_multiple_of(2) { magnitude } else { -magnitude };
        tree.corrupt_tree_node_for_tests(idx, delta);
        prop_assert!(
            tree.check_consistency().is_err(),
            "corruption of node {idx} by {delta} went undetected"
        );
    }
}

/// With `debug-invariants` armed, the very next update after corruption
/// must trip the `debug_check` panic — proving the hot-path wiring, not
/// just the checker function.
#[cfg(feature = "debug-invariants")]
#[test]
fn armed_tripwire_catches_corruption_on_next_update() {
    let result = std::panic::catch_unwind(|| {
        let mut tree = WeightTree::new(&[1.0, 2.0, 3.0, 4.0]);
        tree.corrupt_tree_node_for_tests(2, 5.0);
        // The update audits the whole tree after applying the delta.
        tree.try_update(0, 1.5).unwrap();
    });
    let err = result.expect_err("armed debug_check must panic on a corrupted tree");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("invariant violated") || msg.contains("weight-tree"),
        "unexpected panic payload: {msg}"
    );
}

/// Without the feature, the same corruption is deliberately *not*
/// caught on the hot path (release builds pay zero audit cost); the
/// explicit checker still sees it.
#[cfg(not(feature = "debug-invariants"))]
#[test]
fn unarmed_hot_path_stays_silent_but_checker_detects() {
    let mut tree = WeightTree::new(&[1.0, 2.0, 3.0, 4.0]);
    tree.corrupt_tree_node_for_tests(2, 5.0);
    tree.try_update(0, 1.5).unwrap();
    assert!(tree.check_consistency().is_err());
}

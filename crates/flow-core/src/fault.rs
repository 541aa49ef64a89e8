//! Fault-injection harness, compiled in only with the `fault-inject`
//! cargo feature.
//!
//! Product code marks *fault points* — places where an external fault
//! could corrupt state — by routing values through [`poison`] or
//! gating behavior on [`fires`]. With the feature off both compile to
//! inlined passthroughs, so release binaries carry no injection code.
//! With the feature on, tests arm a [`FaultSpec`] per named point and
//! the hooks deliver the fault; the robustness suite then asserts the
//! runtime converts every injected fault into a typed [`crate::FlowError`]
//! or a flagged partial result instead of panicking.
//!
//! Fault points currently wired through the workspace:
//!
//! | point                        | crate        | effect when armed                    |
//! |------------------------------|--------------|--------------------------------------|
//! | `weight_tree.new`            | flow-stats   | NaN/negative weight into construction |
//! | `weight_tree.update`         | flow-stats   | NaN weight into an in-place update   |
//! | `icm.edge_probability`       | flow-icm     | out-of-range edge probability        |
//! | `learn.beta_params`          | flow-icm     | poisoned Beta posterior parameters   |
//! | `sampler.acceptance`         | flow-mcmc    | NaN acceptance ratio                 |
//! | `sampler.kill_chain`         | flow-mcmc    | chain dies mid-run                   |
//! | `twitter.truncate_line`      | flow-twitter | ingest line truncated mid-record     |
//! | `checkpoint.corrupt`         | flow-mcmc    | checkpoint payload corrupted         |
//! | `persist.torn_write`         | flow-core    | persisted file torn mid-write        |
//! | `persist.torn_append`        | flow-core    | log append torn, never synced        |
//! | `persist.torn_read`          | flow-core    | persisted file's tail lost on read   |
//! | `serve.worker_stall`         | flow-serve   | serving worker stalls on a plan      |
//! | `serve.queue_saturate`       | flow-serve   | admission budget saturated per plan  |
//! | `stream.event_corrupt`       | flow-stream  | ingest event line corrupted mid-read |
//!
//! The three `persist.*` points sit in [`crate::persist`], so they
//! drill every store at once: the serve cache, the stream snapshots and
//! logs, and the experiment checkpoints (only the stream logs append).

/// What an armed fault point does, and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Number of hook invocations to let through before firing.
    pub skip: u64,
    /// How many invocations fire once triggered (`u64::MAX` = forever).
    pub times: u64,
    /// Replacement value delivered by [`poison`] hooks.
    pub value: f64,
}

impl FaultSpec {
    /// Fires on every invocation, delivering `value`.
    pub fn always(value: f64) -> Self {
        FaultSpec {
            skip: 0,
            times: u64::MAX,
            value,
        }
    }

    /// Fires exactly once, after `skip` clean invocations.
    pub fn once_after(skip: u64, value: f64) -> Self {
        FaultSpec {
            skip,
            times: 1,
            value,
        }
    }
}

#[cfg(feature = "fault-inject")]
mod armed {
    use super::FaultSpec;
    use std::collections::HashMap;
    use std::sync::{LazyLock, Mutex};

    struct Entry {
        spec: FaultSpec,
        calls: u64,
        fired: u64,
    }

    fn registry() -> &'static Mutex<HashMap<&'static str, Entry>> {
        static REGISTRY: LazyLock<Mutex<HashMap<&'static str, Entry>>> =
            LazyLock::new(|| Mutex::new(HashMap::new()));
        &REGISTRY
    }

    /// Arms `point` with `spec`, replacing any previous arming.
    pub fn arm(point: &'static str, spec: FaultSpec) {
        registry()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(
                point,
                Entry {
                    spec,
                    calls: 0,
                    fired: 0,
                },
            );
    }

    /// Disarms every fault point. Call between tests.
    pub fn clear_all() {
        registry()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }

    /// Number of times `point` has actually fired.
    pub fn fired_count(point: &'static str) -> u64 {
        registry()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(point)
            .map(|e| e.fired)
            .unwrap_or(0)
    }

    fn check(point: &'static str) -> Option<f64> {
        let mut map = registry()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let entry = map.get_mut(point)?;
        let call = entry.calls;
        entry.calls += 1;
        if call >= entry.spec.skip && entry.fired < entry.spec.times {
            entry.fired += 1;
            Some(entry.spec.value)
        } else {
            None
        }
    }

    /// Returns the armed replacement for `original`, or `original`.
    pub fn poison(point: &'static str, original: f64) -> f64 {
        check(point).unwrap_or(original)
    }

    /// True when the armed fault at `point` fires on this invocation.
    pub fn fires(point: &'static str) -> bool {
        check(point).is_some()
    }
}

#[cfg(feature = "fault-inject")]
pub use armed::{arm, clear_all, fired_count, fires, poison};

#[cfg(not(feature = "fault-inject"))]
mod disarmed {
    /// No-op: the `fault-inject` feature is off.
    #[inline(always)]
    pub fn poison(_point: &'static str, original: f64) -> f64 {
        original
    }

    /// No-op: the `fault-inject` feature is off.
    #[inline(always)]
    pub fn fires(_point: &'static str) -> bool {
        false
    }
}

#[cfg(not(feature = "fault-inject"))]
pub use disarmed::{fires, poison};

#[cfg(all(test, feature = "fault-inject"))]
mod tests {
    use super::*;

    // Registry state is global: run with --test-threads=1 or rely on
    // distinct point names per test, as done here.

    #[test]
    fn unarmed_points_pass_through() {
        assert_eq!(poison("test.passthrough", 1.5), 1.5);
        assert!(!fires("test.passthrough"));
    }

    #[test]
    fn always_fires_every_call() {
        arm("test.always", FaultSpec::always(f64::NAN));
        assert!(poison("test.always", 1.0).is_nan());
        assert!(poison("test.always", 2.0).is_nan());
        assert_eq!(fired_count("test.always"), 2);
    }

    #[test]
    fn once_after_skips_then_fires_once() {
        arm("test.once", FaultSpec::once_after(2, -1.0));
        assert_eq!(poison("test.once", 0.5), 0.5);
        assert_eq!(poison("test.once", 0.5), 0.5);
        assert_eq!(poison("test.once", 0.5), -1.0);
        assert_eq!(poison("test.once", 0.5), 0.5);
        assert_eq!(fired_count("test.once"), 1);
    }

    #[test]
    fn fires_counts_invocations() {
        arm("test.fires", FaultSpec::once_after(1, 0.0));
        assert!(!fires("test.fires"));
        assert!(fires("test.fires"));
        assert!(!fires("test.fires"));
    }
}

#[cfg(all(test, not(feature = "fault-inject")))]
mod tests {
    use super::*;

    #[test]
    fn disarmed_hooks_are_passthrough() {
        assert_eq!(poison("anything", 3.25), 3.25);
        assert!(!fires("anything"));
    }
}

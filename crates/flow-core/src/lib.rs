//! Shared runtime spine for the infoflow workspace.
//!
//! Everything that must not differ between crates lives here:
//!
//! * [`FlowError`] — the typed error taxonomy. Boundary paths
//!   (constructors, ingest, estimators) return `Result<_, FlowError>`
//!   instead of panicking; hot loops keep `debug_assert!`.
//! * Numerical guards ([`check_probability`], [`check_weight`]) that
//!   turn bad floats into typed errors at the edges.
//! * The fault-injection harness ([`fault`]) behind the
//!   `fault-inject` cargo feature, used by the robustness test suite
//!   to prove that injected faults surface as typed errors or flagged
//!   partial results — never panics.
//! * The persistence primitive ([`persist`]): the one atomic,
//!   checksummed record-file writer and reader behind every on-disk
//!   store.
//! * The [`debug_invariant!`] runtime-check macro behind each crate's
//!   `debug-invariants` cargo feature: free in release builds, a
//!   panicking tripwire in checked builds.

pub mod error;
pub mod fault;
pub mod fnv;
pub mod persist;
pub mod schema;

pub use error::{FlowError, FlowResult, Transience};
pub use fnv::Fnv64;
pub use schema::SchemaId;

/// Asserts a structural invariant in `debug-invariants` builds.
///
/// `cfg!(feature = "debug-invariants")` is evaluated **at the expansion
/// site**, so every crate that uses this macro declares its own
/// `debug-invariants` feature (forwarding to its dependencies' features
/// as appropriate); with the feature off the condition is never
/// evaluated and the branch folds away.
///
/// Unlike `debug_assert!`, this is independent of `cfg(debug_assertions)`:
/// release binaries can run with invariants armed
/// (`cargo test --release --features debug-invariants`) and debug
/// binaries can run without them.
#[macro_export]
macro_rules! debug_invariant {
    ($cond:expr, $($arg:tt)+) => {
        if cfg!(feature = "debug-invariants") && !($cond) {
            // flow-analyze: allow(L1: panicking is this macro's contract in checked builds)
            panic!("invariant violated: {}", format_args!($($arg)+));
        }
    };
    ($cond:expr) => {
        $crate::debug_invariant!($cond, "{}", stringify!($cond));
    };
}

/// Validates that `p` is a probability in `[0, 1]`.
///
/// `what` names the parameter in the error (e.g. `"edge probability"`).
pub fn check_probability(p: f64, what: &'static str) -> FlowResult<f64> {
    if p.is_finite() && (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(FlowError::InvalidProbability { what, value: p })
    }
}

/// Validates that `w` is a finite, non-negative weight.
pub fn check_weight(w: f64, index: usize) -> FlowResult<f64> {
    if w.is_finite() && w >= 0.0 {
        Ok(w)
    } else {
        Err(FlowError::NonFiniteWeight { index, value: w })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_guard_accepts_unit_interval() {
        assert_eq!(check_probability(0.0, "p").unwrap(), 0.0);
        assert_eq!(check_probability(1.0, "p").unwrap(), 1.0);
        assert_eq!(check_probability(0.5, "p").unwrap(), 0.5);
    }

    #[test]
    fn probability_guard_rejects_bad_values() {
        for bad in [-0.1, 1.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = check_probability(bad, "edge probability").unwrap_err();
            match err {
                FlowError::InvalidProbability { what, .. } => {
                    assert_eq!(what, "edge probability")
                }
                other => panic!("wrong variant: {other:?}"),
            }
        }
    }

    #[test]
    fn weight_guard_rejects_negative_and_nonfinite() {
        assert!(check_weight(2.5, 0).is_ok());
        assert!(check_weight(0.0, 0).is_ok());
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                check_weight(bad, 7),
                Err(FlowError::NonFiniteWeight { index: 7, .. })
            ));
        }
    }
}

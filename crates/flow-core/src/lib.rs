//! Shared runtime spine for the infoflow workspace.
//!
//! Everything that must not differ between crates lives here:
//!
//! * [`FlowError`] — the typed error taxonomy. Boundary paths
//!   (constructors, ingest, estimators) return `Result<_, FlowError>`
//!   instead of panicking; hot loops keep `debug_assert!`.
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

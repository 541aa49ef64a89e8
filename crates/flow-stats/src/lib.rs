//! Statistical substrate for the `infoflow` workspace.
//!
//! The paper leans on a handful of statistical tools that are implemented
//! here from first principles (no external stats crates):
//!
//! * [`specfn`] — log-gamma (Lanczos), the regularized incomplete beta
//!   function and its inverse (Lentz continued fractions + safeguarded
//!   Newton), and log-binomial coefficients. These back the Beta
//!   cdf/quantile and the likelihoods below.
//! * [`dist`] — the [`Beta`](dist::Beta) distribution (the betaICM edge
//!   posterior and the bucket experiment's empirical confidence
//!   intervals), [`Gamma`](dist::Gamma) (Marsaglia–Tsang sampling, used
//!   to sample Betas), [`Binomial`](dist::Binomial) (the summarized
//!   unattributed likelihood of §V-B), and [`Normal`](dist::Normal)
//!   (the Gaussian edge approximation of Fig. 10).
//! * [`fenwick`] — a Fenwick (binary-indexed) weight tree supporting
//!   `O(log m)` weighted sampling and single-leaf updates; this is the
//!   "search tree" of §III-C that makes each Metropolis–Hastings chain
//!   update logarithmic in the number of edges.
//! * [`metrics`] — the accuracy measures of Table III (normalised
//!   likelihood, Brier probability score), RMSE, and calibration
//!   helpers.
//! * [`summary`] — online mean/variance accumulators and fixed-width
//!   histograms used throughout the experiment harness.

pub mod bootstrap;
pub mod dist;
pub mod fenwick;
pub mod metrics;
pub mod specfn;
pub mod summary;

pub use bootstrap::{bootstrap_interval, BootstrapInterval};
pub use dist::{Beta, Binomial, Exponential, Gamma, Normal};
pub use fenwick::WeightTree;
pub use metrics::{brier_score, normalized_likelihood, rmse, PredictionOutcome};
pub use summary::{empirical_quantile, Histogram, OnlineStats};

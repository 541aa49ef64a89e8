//! Metropolis–Hastings sampling of information flow (§III of the paper).
//!
//! Exact flow evaluation in an ICM is exponential in the edge count, so
//! the paper samples *pseudo-states* with a Markov chain whose proposal
//! flips a single edge drawn from a multinomial distribution maintained
//! in a search tree — `O(log m)` per chain update — and estimates flow
//! probabilities as indicator frequencies over the retained samples
//! (Eq. 5). Conditions (required/forbidden flows, §III-D) enter through
//! the state indicator `I(x, C)`, which simply zeroes the acceptance of
//! any violating proposal.
//!
//! * [`PseudoStateSampler`] — the chain itself, supporting both
//!   conventions for the proposal weights found in the paper (see
//!   [`ProposalKind`]).
//! * `drive` (crate-private) — the one chain driver: burn-in in
//!   budget-checked blocks, thinned sampling, step and wall-clock
//!   budgets, and the phase spans. Every estimator below runs its chain
//!   through it and only reads the retained states.
//! * [`FlowEstimator`] — estimators for end-to-end, joint, conditional,
//!   source-to-community flow, and dispersion/impact distributions.
//! * [`parallel`] — independent chains pooled with Gelman–Rubin checks,
//!   and a budgeted, self-healing variant returning a
//!   [`PartialEstimate`].
//! * [`shared`] — one budgeted, resumable chain answering many targets:
//!   the sampling primitive behind `flow-serve`.
//! * [`nested`] — nested Metropolis–Hastings (§III-E): an outer loop
//!   samples point ICMs from a betaICM, the inner loop estimates the
//!   flow probability of each, yielding a *distribution* over flow
//!   probabilities.
//! * [`diagnostics`] — acceptance rates, effective sample size, and the
//!   Gelman–Rubin statistic for multi-chain checks.
//! * [`timed`] — the Discussion-section extension: per-edge delay
//!   distributions layered over the chain, answering arrival-time and
//!   deadline queries by shortest paths on each sampled active
//!   subgraph.

pub mod budget;
pub mod checkpoint;
pub mod diagnostics;
mod drive;
pub mod estimator;
pub mod influence;
pub mod nested;
pub mod parallel;
pub mod sampler;
pub mod shared;
pub mod timed;

pub use budget::{DegradationReason, EstimateDiagnostics, PartialEstimate, RunBudget};
pub use checkpoint::{ChainCheckpoint, FlowCheckpoint};
pub use estimator::{FlowEstimator, FlowRun, McmcConfig};
pub use influence::{expected_spread, greedy_seeds, InfluenceConfig};
pub use nested::{NestedConfig, NestedSampler};
pub use parallel::{multi_chain_flow, multi_chain_flow_guarded, MultiChainEstimate};
pub use sampler::{ConditionInitError, ProposalKind, PseudoStateSampler};
pub use shared::{
    shared_chain_flows, SharedChainOutcome, SharedChainRequest, SharedTarget, TargetCounts,
};
pub use timed::{ArrivalTimes, DelayModel, TimedFlowEstimator};

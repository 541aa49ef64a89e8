//! # flow-serve — batched, cached, deadline-aware flow-query serving
//!
//! The paper's estimators answer one flow question per chain; a serving
//! deployment answers *streams* of overlapping questions against one
//! learned ICM. This crate is the layer between the two:
//!
//! * [`QueryKey`] — canonical query identity (normalized conditions,
//!   resolved config class, model fingerprint), so equivalent requests
//!   collide and retrained models never serve stale answers; keys
//!   without conditions resolve to exact Eq. 3 draws
//!   ([`ConfigClass::EXACT`]), conditioned keys to the configured
//!   Metropolis–Hastings chain;
//! * [`ServeCache`] — a byte-budgeted LRU of chain *statistics* (counts,
//!   seed, resumable checkpoint), enabling exact cache hits when the
//!   cached precision meets the request tolerance and warm chain
//!   refinement when it almost does;
//! * [`plan_batch`] — the planner: reject contradictions before
//!   sampling, serve hits, group the rest by chain identity so `k`
//!   same-source queries pay one burn-in;
//! * [`run_plans`] — a fixed worker pool (the calling thread plus
//!   helpers) with a bounded admission queue,
//!   a configurable step-budget admission policy (shed plans carry
//!   typed `Overloaded` errors with retry-after hints), and
//!   deterministic capped-backoff retry of transient failures;
//! * [`CircuitBreaker`] — per-chain breakers that short-circuit
//!   persistently failing chains into degraded cached answers, with
//!   half-open probes on a deterministic schedule;
//! * [`ServeEngine`] — ties the above together per batch, maps per-query
//!   deadlines/step budgets onto graceful degradation
//!   ([`flow_mcmc::DegradationReason`], including the serving-specific
//!   `PrecisionNotReached`), and keeps cumulative [`ServeStats`];
//!   constructed through the validating [`EngineBuilder`];
//! * [`route`] — the sharded router: with `shards > 1` each query runs
//!   on the minimal set of shards covering its relevant subgraph, on
//!   per-shard child engines over projected sub-models
//!   ([`flow_icm::SubIcm`]) whose chains walk `m_shard << m` edges;
//! * [`spec`] — the `repro serve` JSONL query-file format.
//!
//! Determinism contract: a query's answer is a pure function of
//! `(engine seed, canonical key, sample budget)` — chain seeds derive
//! from the chain key, not from batch composition, so solo, batched,
//! and cache-hit answers for the same question are bit-identical. The
//! serving architecture is specified in DESIGN.md §11 and its failure
//! semantics (shedding, retry, breakers, cache quarantine) in §12.

pub mod breaker;
pub mod cache;
pub mod engine;
pub mod exec;
pub mod key;
pub mod plan;
pub mod route;
pub mod spec;

pub use breaker::{BreakerConfig, BreakerDecision, CircuitBreaker};
pub use cache::{half_width, CacheEntry, ServeCache};
pub use engine::{
    Answer, EngineBuilder, QueryOutcome, ServeConfig, ServeEngine, ServeStats, Served,
};
pub use exec::{
    run_plans, run_plans_report, run_plans_strict, ExecReport, ExecutorConfig, PlanStatus,
    RetryPolicy,
};
pub use key::{model_fingerprint, ConfigClass, Fnv64, QueryKey};
pub use plan::{
    mix64, plan_batch, samples_for_tolerance, BatchPlan, EarlyResolution, FlowQuery, Plan,
    PlanEntry, PlanWork, PlannerConfig,
};
pub use route::{route_query, Route};
pub use spec::{parse_query_file, ModelSpec, QueryFile, QuerySpec};

// Re-exported so engine consumers can build targets and read counts
// without depending on flow-mcmc directly.
pub use flow_mcmc::{SharedTarget, TargetCounts};

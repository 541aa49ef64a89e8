//! The query planner: canonicalize, consult the cache, group, budget.
//!
//! Planning happens before any sampling and decides, per query:
//!
//! * **reject** — directly contradictory conditions become a typed
//!   [`FlowError`] immediately (`find_contradiction` runs inside key
//!   canonicalization), so malformed queries cost zero chain steps;
//! * **hit** — a cache entry for the same canonical key whose
//!   half-width already meets the request tolerance is served without
//!   sampling;
//! * **refine** — a cache entry that exists but is too loose seeds a
//!   warm continuation of its own chain for just the missing samples;
//! * **share** — remaining queries group by [`QueryKey::chain_key`]
//!   (same source, conditions, config class, model): one chain serves
//!   the whole group, reading every member's target off each retained
//!   sample. This is where batched serving beats a per-query loop — a
//!   group of `k` same-source queries pays one burn-in instead of `k`.
//!
//! Chain seeds are derived from `mix64(engine_seed, chain_key)` — a
//! pure function of the *question*, not of batch composition — so a
//! query's trajectory (and hence its estimate, bit for bit) is the same
//! whether it runs alone, in a group, or against a warm cache.
//!
//! Planning also mints each query's **trace id** ([`trace_id`]): a
//! deterministic, clock-free causal coordinate derived from the
//! canonical key hash and the query's batch index. The planner enters
//! the query's [`flow_obs::TraceContext`] while resolving it (so cache
//! lookups and rejections carry the trace) and every [`PlanEntry`]
//! carries its query's trace; the executor re-enters the plan's
//! primary trace around execution, and `serve.query.planned` link
//! events tie every member query to the plan that serves it.

use crate::cache::{CacheEntry, ServeCache};
use crate::key::QueryKey;
use flow_core::FlowError;
use flow_graph::NodeId;
use flow_icm::{FlowCondition, Icm};
use flow_mcmc::{
    shared_chain_flows, McmcConfig, SharedChainOutcome, SharedChainRequest, SharedTarget,
};
use std::collections::HashMap;
use std::time::Duration;

/// One serving request, as submitted by a client.
#[derive(Clone, Debug)]
pub struct FlowQuery {
    /// Flow source.
    pub source: NodeId,
    /// Flow target: single sink or community.
    pub target: SharedTarget,
    /// Flow conditions (any order; canonicalized by the planner).
    pub conditions: Vec<FlowCondition>,
    /// Requested confidence half-width; engine default when `None`.
    pub tolerance: Option<f64>,
    /// Per-query chain-step budget (deterministic degradation knob).
    pub max_steps: Option<u64>,
    /// Per-query wall-clock deadline in milliseconds.
    pub deadline_ms: Option<u64>,
}

impl FlowQuery {
    /// A plain source-to-sink query with engine defaults.
    pub fn flow(source: NodeId, sink: NodeId) -> Self {
        FlowQuery {
            source,
            target: SharedTarget::Sink(sink),
            conditions: Vec::new(),
            tolerance: None,
            max_steps: None,
            deadline_ms: None,
        }
    }
}

/// Planner knobs (a slice of the engine's `ServeConfig`).
#[derive(Clone, Copy, Debug)]
pub struct PlannerConfig {
    /// Baseline chain configuration (class + minimum samples).
    pub mcmc: McmcConfig,
    /// Tolerance applied when a query does not state one.
    pub default_tolerance: f64,
    /// Engine seed mixed into every chain seed.
    pub engine_seed: u64,
    /// Hard per-plan cap on retained samples.
    pub max_samples: usize,
    /// Shard slot stamped into every canonical key: `0` for the global
    /// engine, `s + 1` for the per-shard engines of a sharded router
    /// (see [`QueryKey::shard`]).
    pub shard: u32,
}

/// Retained samples needed to promise `tolerance` at worst-case
/// Bernoulli variance, floored by the engine's baseline sample count
/// and capped by `max_samples`.
pub fn samples_for_tolerance(tolerance: f64, floor: usize, cap: usize) -> usize {
    let tol = tolerance.max(1e-6);
    let needed = (0.98 / tol).powi(2).ceil() as usize;
    needed.max(floor).min(cap.max(floor))
}

/// SplitMix64-style mixer for deriving chain seeds.
pub fn mix64(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Domain separator for trace ids, so a trace can never collide with a
/// chain seed derived from the same key hash.
const TRACE_DOMAIN: u64 = 0x7_1ace_1d00;

/// Deterministic trace id for the `query_index`-th query of a batch.
///
/// A pure function of the canonical key hash and the batch position —
/// no clocks, no randomness — so two runs of the same batch mint
/// byte-identical trace ids. Rejected queries (no canonical key) use
/// their engine's shard slot as `key_hash` (`0` on an unsharded
/// engine); the batch index still makes their traces unique.
pub fn trace_id(key_hash: u64, query_index: usize) -> u64 {
    mix64(key_hash ^ TRACE_DOMAIN, query_index as u64)
}

/// One query's slot inside a plan.
#[derive(Clone, Debug)]
pub struct PlanEntry {
    /// Index into the submitted batch.
    pub query_index: usize,
    /// The query's canonical key.
    pub key: QueryKey,
    /// Resolved tolerance for this query.
    pub tolerance: f64,
    /// The query's causal trace id ([`trace_id`]).
    pub trace: u64,
}

/// The sampling work one plan performs.
#[derive(Clone, Debug)]
pub enum PlanWork {
    /// A cold shared chain answering one or more same-chain queries.
    Shared {
        /// The group's chain identity.
        chain_key: u64,
        /// Derived chain seed (`mix64(engine_seed, chain_key)`).
        seed: u64,
        /// Retained samples to collect (max of members' needs).
        samples: usize,
        /// Member queries, each read off every retained sample.
        entries: Vec<PlanEntry>,
    },
    /// A warm continuation of a cached chain for one query.
    Refine {
        /// The query being refined.
        entry: PlanEntry,
        /// The cached entry providing counts and chain state (boxed:
        /// a checkpoint carries the full edge-state vector).
        base: Box<CacheEntry>,
        /// Additional retained samples to collect.
        extra_samples: usize,
    },
}

/// A schedulable unit of sampling work.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Dense plan id (index into the executor's result vector).
    pub id: usize,
    /// What to sample.
    pub work: PlanWork,
    /// Most restrictive member step budget.
    pub max_steps: Option<u64>,
    /// Most restrictive member deadline.
    pub deadline: Option<Duration>,
}

impl Plan {
    /// The chain identity this plan samples (refinements continue the
    /// cached entry's chain). Used by the per-chain circuit breaker.
    pub fn chain_key(&self) -> u64 {
        match &self.work {
            PlanWork::Shared { chain_key, .. } => *chain_key,
            PlanWork::Refine { entry, .. } => entry.key.chain_key(),
        }
    }

    /// The plan's primary trace: the first member query's trace id.
    /// Execution-side telemetry (worker spans, chain events,
    /// degradations) is recorded under this trace; `serve.query.planned`
    /// link events connect every member query's own trace to it.
    pub fn trace(&self) -> u64 {
        match &self.work {
            PlanWork::Shared { entries, .. } => entries.first().map_or(0, |e| e.trace),
            PlanWork::Refine { entry, .. } => entry.trace,
        }
    }

    /// Deterministic upper-bound cost estimate in chain steps, used by
    /// admission control. A shared chain pays burn-in plus one thinned
    /// step per retained sample; a refinement skips burn-in (it resumes
    /// a warm checkpoint). An explicit `max_steps` bound caps the
    /// estimate: the chain cannot legally spend more.
    pub fn estimated_steps(&self) -> u64 {
        let raw = match &self.work {
            PlanWork::Shared {
                samples, entries, ..
            } => {
                let class = entries.first().map(|e| e.key.config);
                let (burn_in, thin) = class.map_or((0, 1), |c| (c.burn_in, c.thin.max(1)));
                burn_in + (*samples as u64) * thin
            }
            PlanWork::Refine {
                entry,
                extra_samples,
                ..
            } => (*extra_samples as u64) * entry.key.config.thin.max(1),
        };
        match self.max_steps {
            Some(cap) => raw.min(cap),
            None => raw,
        }
    }

    /// Runs this plan's chain to completion (or budget exhaustion).
    pub fn execute(&self, icm: &Icm) -> flow_core::FlowResult<SharedChainOutcome> {
        match &self.work {
            PlanWork::Shared {
                seed,
                samples,
                entries,
                ..
            } => {
                let Some(first) = entries.first() else {
                    return Err(FlowError::GraphInconsistency {
                        detail: "empty shared plan".into(),
                    });
                };
                let targets: Vec<SharedTarget> =
                    entries.iter().map(|e| e.key.target.clone()).collect();
                let config = first.key.config.to_config(*samples);
                shared_chain_flows(
                    icm,
                    &config,
                    &SharedChainRequest {
                        source: first.key.source,
                        targets: &targets,
                        conditions: &first.key.conditions,
                        seed: *seed,
                        warm: None,
                        samples: *samples,
                        max_steps: self.max_steps,
                        deadline: self.deadline,
                    },
                )
            }
            PlanWork::Refine {
                entry,
                base,
                extra_samples,
            } => {
                let targets = [entry.key.target.clone()];
                let config = entry.key.config.to_config(*extra_samples);
                shared_chain_flows(
                    icm,
                    &config,
                    &SharedChainRequest {
                        source: entry.key.source,
                        targets: &targets,
                        conditions: &entry.key.conditions,
                        seed: base.seed,
                        warm: Some(&base.checkpoint),
                        samples: *extra_samples,
                        max_steps: self.max_steps,
                        deadline: self.deadline,
                    },
                )
            }
        }
    }
}

/// How the planner resolved a query before any sampling.
#[derive(Clone, Debug)]
pub enum EarlyResolution {
    /// Served from cache: `(estimate, half_width, samples)`.
    Hit(f64, f64, u64),
    /// Rejected with a typed error (contradictory conditions).
    Failed(FlowError),
}

/// The planner's output for one batch.
#[derive(Debug, Default)]
pub struct BatchPlan {
    /// Per-query early resolutions (`None` = handled by a plan).
    pub early: Vec<Option<EarlyResolution>>,
    /// Sampling plans, densely numbered from zero.
    pub plans: Vec<Plan>,
    /// Per-query trace ids, aligned with the submitted batch
    /// (rejected and cache-hit queries included).
    pub traces: Vec<u64>,
}

/// Plans a batch: canonicalize every query, serve what the cache can,
/// refine what it almost can, and group the rest into shared chains.
pub fn plan_batch(
    icm: &Icm,
    cache: &mut ServeCache,
    config: &PlannerConfig,
    queries: &[FlowQuery],
) -> BatchPlan {
    let mut early: Vec<Option<EarlyResolution>> = vec![None; queries.len()];
    let mut traces: Vec<u64> = vec![0; queries.len()];
    let mut refines: Vec<(PlanEntry, Box<CacheEntry>, usize)> = Vec::new();
    let mut groups: HashMap<u64, Vec<PlanEntry>> = HashMap::new();
    let mut group_order: Vec<u64> = Vec::new();

    for (i, q) in queries.iter().enumerate() {
        let tolerance = q.tolerance.unwrap_or(config.default_tolerance);
        let key = match QueryKey::canonical(q.source, &q.target, &q.conditions, &config.mcmc, icm) {
            Ok(k) => k.with_shard(config.shard),
            Err(e) => {
                // No key to hash: the shard slot keeps the traces of
                // concurrently served shard units apart.
                let trace = trace_id(u64::from(config.shard), i);
                traces[i] = trace;
                flow_obs::event(|| {
                    flow_obs::Event::new("serve.query.rejected")
                        .trace(trace)
                        .u64("query", i as u64)
                        .str("error", e.to_string())
                });
                early[i] = Some(EarlyResolution::Failed(e));
                continue;
            }
        };
        let trace = trace_id(key.hash64(), i);
        traces[i] = trace;
        // Everything resolved for this query — cache lookup included —
        // records under its trace.
        let _t = flow_obs::TraceContext::enter(trace);
        match cache.lookup(&key) {
            Some(entry) if entry.half_width() <= tolerance => {
                early[i] = Some(EarlyResolution::Hit(
                    entry.estimate(),
                    entry.half_width(),
                    entry.samples,
                ));
            }
            Some(entry) => {
                // Cached but too loose: continue its chain for the
                // missing samples only.
                let total_needed =
                    samples_for_tolerance(tolerance, config.mcmc.samples, config.max_samples);
                let extra = total_needed
                    .saturating_sub(entry.samples as usize)
                    .max(config.mcmc.samples.clamp(16, 64));
                let base = Box::new(entry.clone());
                refines.push((
                    PlanEntry {
                        query_index: i,
                        key,
                        tolerance,
                        trace,
                    },
                    base,
                    extra,
                ));
            }
            None => {
                let chain_key = key.chain_key();
                if !groups.contains_key(&chain_key) {
                    group_order.push(chain_key);
                }
                groups.entry(chain_key).or_default().push(PlanEntry {
                    query_index: i,
                    key,
                    tolerance,
                    trace,
                });
            }
        }
    }

    let combine_budgets = |entries: &[PlanEntry]| -> (Option<u64>, Option<Duration>) {
        let mut max_steps: Option<u64> = None;
        let mut deadline: Option<Duration> = None;
        for e in entries {
            let Some(q) = queries.get(e.query_index) else {
                continue;
            };
            if let Some(s) = q.max_steps {
                max_steps = Some(max_steps.map_or(s, |cur| cur.min(s)));
            }
            if let Some(ms) = q.deadline_ms {
                let d = Duration::from_millis(ms);
                deadline = Some(deadline.map_or(d, |cur| cur.min(d)));
            }
        }
        (max_steps, deadline)
    };

    let mut plans = Vec::new();
    for chain_key in group_order {
        let Some(entries) = groups.remove(&chain_key) else {
            continue;
        };
        let samples = entries
            .iter()
            .map(|e| samples_for_tolerance(e.tolerance, config.mcmc.samples, config.max_samples))
            .max()
            .unwrap_or(config.mcmc.samples);
        let (max_steps, deadline) = combine_budgets(&entries);
        plans.push(Plan {
            id: plans.len(),
            work: PlanWork::Shared {
                chain_key,
                seed: mix64(config.engine_seed, chain_key),
                samples,
                entries,
            },
            max_steps,
            deadline,
        });
    }
    for (entry, base, extra_samples) in refines {
        let (max_steps, deadline) = combine_budgets(std::slice::from_ref(&entry));
        plans.push(Plan {
            id: plans.len(),
            work: PlanWork::Refine {
                entry,
                base,
                extra_samples,
            },
            max_steps,
            deadline,
        });
    }

    // Link events: one per planned query, recorded under the *member*
    // query's own trace and naming the plan (and its primary trace)
    // that will serve it. The trace-tree reconstructor joins member
    // traces to execution telemetry through these.
    for plan in &plans {
        let plan_trace = plan.trace();
        let entries: &[PlanEntry] = match &plan.work {
            PlanWork::Shared { entries, .. } => entries,
            PlanWork::Refine { entry, .. } => std::slice::from_ref(entry),
        };
        for e in entries {
            flow_obs::event(|| {
                flow_obs::Event::new("serve.query.planned")
                    .trace(e.trace)
                    .u64("query", e.query_index as u64)
                    .u64("plan", plan.id as u64)
                    .u64("plan_trace", plan_trace)
            });
        }
    }
    BatchPlan {
        early,
        plans,
        traces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_graph::graph::graph_from_edges;

    fn icm() -> Icm {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        Icm::new(g, vec![0.7, 0.4, 0.5, 0.6, 0.3])
    }

    fn planner_config() -> PlannerConfig {
        PlannerConfig {
            mcmc: McmcConfig {
                samples: 200,
                ..Default::default()
            },
            default_tolerance: 0.05,
            engine_seed: 17,
            max_samples: 100_000,
            shard: 0,
        }
    }

    #[test]
    fn same_source_queries_share_one_plan() {
        let model = icm();
        let mut cache = ServeCache::new(1 << 20);
        let queries = vec![
            FlowQuery::flow(NodeId(0), NodeId(3)),
            FlowQuery::flow(NodeId(0), NodeId(4)),
            FlowQuery::flow(NodeId(1), NodeId(4)),
        ];
        let plan = plan_batch(&model, &mut cache, &planner_config(), &queries);
        assert_eq!(plan.plans.len(), 2, "two sources, two shared chains");
        let sizes: Vec<usize> = plan
            .plans
            .iter()
            .map(|p| match &p.work {
                PlanWork::Shared { entries, .. } => entries.len(),
                PlanWork::Refine { .. } => 0,
            })
            .collect();
        assert_eq!(sizes, vec![2, 1]);
    }

    #[test]
    fn differing_conditions_split_chains() {
        let model = icm();
        let mut cache = ServeCache::new(1 << 20);
        let mut conditioned = FlowQuery::flow(NodeId(0), NodeId(3));
        conditioned.conditions = vec![FlowCondition::requires(NodeId(0), NodeId(1))];
        let queries = vec![FlowQuery::flow(NodeId(0), NodeId(3)), conditioned];
        let plan = plan_batch(&model, &mut cache, &planner_config(), &queries);
        assert_eq!(plan.plans.len(), 2, "conditions change the chain identity");
    }

    #[test]
    fn contradictions_fail_early_without_plans() {
        let model = icm();
        let mut cache = ServeCache::new(1 << 20);
        let mut bad = FlowQuery::flow(NodeId(0), NodeId(3));
        bad.conditions = vec![
            FlowCondition::requires(NodeId(1), NodeId(3)),
            FlowCondition::forbids(NodeId(1), NodeId(3)),
        ];
        let plan = plan_batch(&model, &mut cache, &planner_config(), &[bad]);
        assert!(plan.plans.is_empty());
        assert!(matches!(
            plan.early.first(),
            Some(Some(EarlyResolution::Failed(
                FlowError::GraphInconsistency { .. }
            )))
        ));
    }

    #[test]
    fn seeds_are_batch_composition_independent() {
        let model = icm();
        let cfg = planner_config();
        let solo = plan_batch(
            &model,
            &mut ServeCache::new(1 << 20),
            &cfg,
            &[FlowQuery::flow(NodeId(0), NodeId(3))],
        );
        let batch = plan_batch(
            &model,
            &mut ServeCache::new(1 << 20),
            &cfg,
            &[
                FlowQuery::flow(NodeId(1), NodeId(4)),
                FlowQuery::flow(NodeId(0), NodeId(3)),
            ],
        );
        let seed_of = |bp: &BatchPlan, source: u32| -> u64 {
            bp.plans
                .iter()
                .find_map(|p| match &p.work {
                    PlanWork::Shared { seed, entries, .. }
                        if entries.iter().any(|e| e.key.source == NodeId(source)) =>
                    {
                        Some(*seed)
                    }
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(seed_of(&solo, 0), seed_of(&batch, 0));
    }

    #[test]
    fn trace_ids_are_deterministic_and_unique_per_query() {
        let model = icm();
        let cfg = planner_config();
        let queries = vec![
            FlowQuery::flow(NodeId(0), NodeId(3)),
            FlowQuery::flow(NodeId(0), NodeId(4)),
            // Same canonical key as query 0, different batch position.
            FlowQuery::flow(NodeId(0), NodeId(3)),
        ];
        let a = plan_batch(&model, &mut ServeCache::new(1 << 20), &cfg, &queries);
        let b = plan_batch(&model, &mut ServeCache::new(1 << 20), &cfg, &queries);
        assert_eq!(a.traces, b.traces, "trace ids are a pure batch function");
        let mut uniq = a.traces.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 3, "batch index separates identical keys");
        for p in &a.plans {
            if let PlanWork::Shared { entries, .. } = &p.work {
                for e in entries {
                    assert_eq!(a.traces[e.query_index], e.trace);
                }
            }
        }
    }

    #[test]
    fn samples_scale_with_tolerance() {
        assert_eq!(samples_for_tolerance(0.5, 10, 100_000), 10);
        let tight = samples_for_tolerance(0.01, 10, 1_000_000);
        assert!(tight >= 9604, "0.98^2/0.01^2 = 9604, got {tight}");
        assert_eq!(samples_for_tolerance(0.001, 10, 50_000), 50_000, "capped");
    }
}

//! The serving engine: batch execution, cache maintenance, statistics.
//!
//! [`ServeEngine::execute_batch`] is the one entry point: it plans the
//! batch ([`crate::plan`]), runs the sampling plans on the bounded
//! worker pool ([`crate::exec`]), folds outcomes back into per-query
//! [`QueryOutcome`]s in submission order, and updates the estimate
//! cache so the *next* batch gets hits and warm starts.
//!
//! Engines are constructed through the validating [`EngineBuilder`]
//! (`ServeEngine::builder()`); invalid configurations are typed
//! [`FlowError::Config`] errors at build time, never panics at serve
//! time.
//!
//! With `shards > 1` the engine becomes a **sharded router**
//! (DESIGN.md §16): the model's edges are partitioned deterministically
//! ([`flow_graph::partition_edges`]), each query is routed to the
//! minimal shard set covering its relevant subgraph
//! ([`crate::route`]), and routed queries run on per-shard child
//! engines — each with its own cache, breaker, and stats — over a
//! projected [`SubIcm`] whose chains walk a sub-multinomial of
//! `m_shard << m` edges. Queries spanning every shard fall back to the
//! global path, which is byte-identical to an unsharded engine.
//!
//! The precision contract: every answered query reports its achieved
//! 95% half-width, and when that is looser than the requested tolerance
//! (budget exhaustion, deadline degradation, or sample caps) the answer
//! carries an explicit
//! [`DegradationReason::PrecisionNotReached`] rather than silently
//! under-delivering.

use crate::breaker::{BreakerDecision, CircuitBreaker};
use crate::cache::{half_width, CacheEntry, ServeCache};
use crate::exec::{run_plans_report, ExecutorConfig, PlanStatus};
use crate::plan::{
    mix64, plan_batch, trace_id, BatchPlan, EarlyResolution, FlowQuery, Plan, PlanWork,
    PlannerConfig,
};
use crate::route::{route_query, Route};
use flow_core::{FlowError, FlowResult};
use flow_graph::{partition_edges, EdgeId, EdgePartition};
use flow_icm::{model_fingerprint, Icm, SubIcm};
use flow_mcmc::{DegradationReason, McmcConfig, SharedChainOutcome, TargetCounts};
use std::collections::BTreeMap;

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Baseline chain configuration (class + minimum samples).
    pub mcmc: McmcConfig,
    /// Tolerance applied when a query does not state one.
    pub default_tolerance: f64,
    /// Worker pool, admission policy, and retry budget.
    pub executor: ExecutorConfig,
    /// Consecutive stall-like failures that open a chain's circuit
    /// breaker (0 disables the breaker).
    pub breaker_trip_after: u32,
    /// Estimate-cache byte budget (0 disables caching).
    pub cache_bytes: usize,
    /// Engine seed; chain seeds derive from it and each chain key.
    pub engine_seed: u64,
    /// Hard per-plan cap on retained samples.
    pub max_samples: usize,
    /// Shard count for the sharded router; `1` (the default) serves
    /// every query on the global, unsharded path.
    pub shards: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            mcmc: McmcConfig::default(),
            default_tolerance: 0.02,
            executor: ExecutorConfig::default(),
            breaker_trip_after: 5,
            cache_bytes: 8 << 20,
            engine_seed: 0,
            max_samples: 200_000,
            shards: 1,
        }
    }
}

impl ServeConfig {
    fn planner(&self) -> PlannerConfig {
        PlannerConfig {
            mcmc: self.mcmc,
            default_tolerance: self.default_tolerance,
            engine_seed: self.engine_seed,
            max_samples: self.max_samples,
            shard: 0,
        }
    }
}

/// Validating constructor for [`ServeEngine`]:
/// `ServeEngine::builder().config(..).cache(..).build()?`.
/// A [`ServeConfig`] is the one way to configure an engine.
///
/// Every invalid configuration is a typed [`FlowError::Config`] at
/// build time — a zero-worker executor, a non-positive tolerance, a
/// zero sample cap — instead of a panic or a silent misbehaviour at
/// serve time.
#[derive(Default)]
pub struct EngineBuilder {
    config: ServeConfig,
    cache: Option<ServeCache>,
}

impl EngineBuilder {
    /// Sets the engine configuration (default: `ServeConfig::default()`).
    #[must_use]
    pub fn config(mut self, config: ServeConfig) -> Self {
        self.config = config;
        self
    }

    /// Starts the engine over a pre-populated (e.g. loaded-from-disk)
    /// cache instead of a cold one. The cache keeps its own byte
    /// budget; `ServeConfig::cache_bytes` sizes only a cold cache.
    #[must_use]
    pub fn cache(mut self, cache: ServeCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Validates and builds the engine.
    pub fn build(self) -> FlowResult<ServeEngine> {
        let EngineBuilder { config, cache } = self;
        let invalid = |detail: String| Err(FlowError::Config { detail });
        if !(config.default_tolerance.is_finite() && config.default_tolerance > 0.0) {
            return invalid(format!(
                "default_tolerance must be positive and finite, got {}",
                config.default_tolerance
            ));
        }
        if config.max_samples == 0 {
            return invalid("max_samples must be at least 1".into());
        }
        if config.executor.workers == 0 {
            return invalid("executor needs at least one worker".into());
        }
        if config.executor.max_attempts == 0 {
            return invalid(
                "executor needs at least one attempt per plan (max_attempts = 0 would \
                 never run a plan)"
                    .into(),
            );
        }
        if config.shards == 0 {
            return invalid("shard count must be at least 1 (1 = unsharded)".into());
        }
        let cache = cache.unwrap_or_else(|| ServeCache::new(config.cache_bytes));
        Ok(ServeEngine::from_parts(config, cache, 0))
    }
}

/// How an answer was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// Fresh sampling on a (possibly shared) cold chain.
    Fresh,
    /// Straight from cache; zero chain steps spent.
    CacheHit,
    /// Warm continuation of a cached chain, counts pooled.
    WarmRefinement,
    /// Short-circuited by an open circuit breaker: served from
    /// whatever warm statistics exist (possibly none), zero chain
    /// steps spent, always flagged
    /// [`DegradationReason::BreakerOpen`].
    ShortCircuited,
}

/// A served estimate.
#[derive(Clone, Debug)]
pub struct Answer {
    /// Flow-probability estimate (all-targets frequency).
    pub estimate: f64,
    /// Achieved 95% confidence half-width.
    pub half_width: f64,
    /// Retained samples behind the estimate.
    pub samples: u64,
    /// Production path.
    pub served: Served,
    /// Every way the answer fell short; empty means clean.
    pub degradation: Vec<DegradationReason>,
}

/// Per-query result of a batch.
#[derive(Clone, Debug)]
pub enum QueryOutcome {
    /// The query was answered (possibly degraded; see the answer).
    Answered(Answer),
    /// Explicit backpressure: admission shed the query. The carried
    /// error is always [`FlowError::Overloaded`] with a deterministic
    /// retry-after hint; clients should retry, not fail.
    Rejected {
        /// The typed overload rejection.
        error: FlowError,
    },
    /// The query failed with a typed error before or during sampling.
    Failed(FlowError),
}

/// Counters accumulated across batches.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Queries submitted.
    pub queries: u64,
    /// Queries answered (any `Served` path).
    pub answered: u64,
    /// Answers served straight from cache.
    pub cache_hits: u64,
    /// Answers requiring fresh sampling.
    pub fresh: u64,
    /// Answers served by warm refinement.
    pub refined: u64,
    /// Queries rejected by backpressure.
    pub rejected: u64,
    /// Queries failed with typed errors.
    pub failed: u64,
    /// Shared plans executed.
    pub plans: u64,
    /// Total chain steps spent.
    pub steps: u64,
    /// Answers carrying at least one degradation reason.
    pub degraded: u64,
    /// Transient-failure retries performed by the executor.
    pub retries: u64,
    /// Plans shed by admission control (subset of `rejected` queries).
    pub shed: u64,
    /// Answers short-circuited by an open circuit breaker.
    pub breaker_answers: u64,
}

/// One shard's serving unit: the projected sub-model and a child
/// engine (own cache, breaker, stats) whose canonical keys carry the
/// shard's slot.
struct ShardUnit {
    sub: SubIcm,
    engine: ServeEngine,
}

/// The sharded router's materialized state, lazily (re)built per
/// parent-model fingerprint.
struct Sharding {
    /// Fingerprint of the parent model the partition was built for.
    fingerprint: u64,
    partition: EdgePartition,
    /// One unit per shard, indexed by shard id (empty shards included
    /// for alignment; routing never selects them).
    units: Vec<ShardUnit>,
    /// Lazily materialized merged units for cross-shard routes, keyed
    /// by the sorted member-shard set.
    merged: Vec<(Vec<u32>, ShardUnit)>,
}

/// Where a routed group runs: a per-shard unit or a merged unit,
/// indexed into [`Sharding::units`] / [`Sharding::merged`].
#[derive(Clone, Copy)]
enum UnitSlot {
    Shard(usize),
    Merged(usize),
}

/// Shard slot for a merged cross-shard unit: a pure function of the
/// member set (so chain seeds stay batch-order independent) offset
/// into the high half of the slot space, where it can never collide
/// with a per-shard slot `s + 1`.
fn merged_slot(set: &[u32]) -> u32 {
    let mut h = 0x5eed_ca57u64;
    for &s in set {
        h = mix64(h, u64::from(s) + 1);
    }
    (h as u32) | 0x8000_0000
}

impl Sharding {
    /// Index of the merged unit for `set`, materializing it on first
    /// use: the sub-model over the union of the member shards' edges,
    /// in ascending parent edge order (visit-order independent).
    fn merged_index(
        &mut self,
        icm: &Icm,
        set: Vec<u32>,
        config: &ServeConfig,
    ) -> FlowResult<usize> {
        if let Some(ix) = self.merged.iter().position(|(s, _)| *s == set) {
            return Ok(ix);
        }
        let mut edges: Vec<EdgeId> = Vec::new();
        for &s in &set {
            edges.extend(self.partition.edges_of(s));
        }
        edges.sort_unstable_by_key(|e| e.index());
        let sub = SubIcm::project(icm, &edges)?;
        let slot = merged_slot(&set);
        let unit = ShardUnit {
            sub,
            engine: child_engine(*config, slot),
        };
        self.merged.push((set, unit));
        Ok(self.merged.len() - 1)
    }
}

/// A per-shard child engine: same knobs as the parent but unsharded,
/// with a cold cache and its canonical keys pinned to `slot`.
fn child_engine(mut config: ServeConfig, slot: u32) -> ServeEngine {
    config.shards = 1;
    ServeEngine::from_parts(config, ServeCache::new(config.cache_bytes), slot)
}

/// The serving engine. Owns the cache; one instance per model-serving
/// process (the model itself is passed per batch so a retrain shows up
/// as a fingerprint change, not an engine rebuild). Construct via
/// [`ServeEngine::builder`].
pub struct ServeEngine {
    config: ServeConfig,
    cache: ServeCache,
    breaker: CircuitBreaker,
    stats: ServeStats,
    /// Shard slot stamped into this engine's canonical keys: `0` for
    /// the global engine, `s + 1` for the sharded router's children.
    shard_slot: u32,
    /// Router state, present once a sharded engine has seen a model.
    sharding: Option<Box<Sharding>>,
}

impl ServeEngine {
    /// The validating builder — the supported way to construct an
    /// engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    fn from_parts(config: ServeConfig, cache: ServeCache, shard_slot: u32) -> Self {
        ServeEngine {
            config,
            cache,
            breaker: CircuitBreaker::new(config.breaker_trip_after),
            stats: ServeStats::default(),
            shard_slot,
            sharding: None,
        }
    }

    /// The engine's circuit breaker (read-only; for tests/telemetry).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// The engine's cache (e.g. for persistence).
    pub fn cache(&self) -> &ServeCache {
        &self.cache
    }

    /// Accumulated statistics. Under a sharded engine these aggregate
    /// across the router: routed queries' outcomes are absorbed into
    /// the parent's counters as they are stitched back.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Per-shard child-engine statistics, indexed by shard id. Empty
    /// until a sharded engine has served its first batch (or `[]`
    /// forever on an unsharded engine).
    pub fn shard_stats(&self) -> Vec<ServeStats> {
        self.sharding
            .as_ref()
            .map(|s| s.units.iter().map(|u| u.engine.stats).collect())
            .unwrap_or_default()
    }

    /// Installs a new model version, shard-granularly.
    ///
    /// The global cache drops entries keyed on any other fingerprint,
    /// and a sharded engine re-partitions eagerly: shards whose
    /// projected sub-model fingerprint is unchanged keep their unit —
    /// cache, breaker, and stats intact — while changed shards are
    /// rebuilt cold. Returns how many cache entries were dropped across
    /// the global cache and all retired units.
    ///
    /// The model itself is still passed per batch
    /// ([`Self::execute_batch`]), so a swap cannot interrupt in-flight
    /// work — the current batch holds `&mut self` and finishes on the
    /// model it was handed; the next batch simply arrives with the new
    /// `Icm` whose fingerprint now matches the surviving entries.
    /// Calling this is an eager-reclamation optimization plus telemetry
    /// hook, not a correctness requirement: stale entries can never hit
    /// anyway because the fingerprint is part of every key.
    pub fn install_model_icm(&mut self, icm: &Icm) -> usize {
        let fingerprint = model_fingerprint(icm);
        let mut dropped = self.cache.invalidate_stale(fingerprint);
        if self.config.shards > 1 {
            match self.ensure_sharding(icm, fingerprint) {
                Ok(d) => dropped += d,
                // A failed rebuild leaves the router unmaterialized;
                // the next batch retries (and falls back globally).
                Err(_) => self.sharding = None,
            }
        }
        dropped
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// (Re)builds the router state for `icm`, whose fingerprint is
    /// `fingerprint`, reusing every unit whose projected sub-model is
    /// unchanged. Returns how many cache entries the retired units held.
    fn ensure_sharding(&mut self, icm: &Icm, fingerprint: u64) -> FlowResult<usize> {
        if self
            .sharding
            .as_ref()
            .is_some_and(|s| s.fingerprint == fingerprint)
        {
            return Ok(0);
        }
        let partition = partition_edges(icm.graph(), self.config.shards);
        let (mut old_units, old_merged) = match self.sharding.take() {
            Some(old) => (
                old.units.into_iter().map(Some).collect::<Vec<_>>(),
                old.merged,
            ),
            None => (Vec::new(), Vec::new()),
        };
        let shard_count = partition.shard_count();
        let mut reused = vec![false; shard_count as usize];
        let mut units = Vec::with_capacity(shard_count as usize);
        for s in 0..shard_count {
            let sub = SubIcm::project(icm, &partition.edges_of(s))?;
            let carried = old_units.get_mut(s as usize).and_then(|slot| {
                if slot
                    .as_ref()
                    .is_some_and(|u| u.sub.fingerprint() == sub.fingerprint())
                {
                    slot.take()
                } else {
                    None
                }
            });
            match carried {
                Some(unit) => {
                    reused[s as usize] = true;
                    units.push(unit);
                }
                None => units.push(ShardUnit {
                    sub,
                    engine: child_engine(self.config, s + 1),
                }),
            }
        }
        let mut dropped: usize = old_units
            .into_iter()
            .flatten()
            .map(|u| u.engine.cache.len())
            .sum();
        // A merged unit survives exactly when every member shard was
        // reused: equal member fingerprints mean the union sub-model —
        // and hence every cached answer — is unchanged.
        let mut merged = Vec::new();
        for (set, unit) in old_merged {
            let intact = set
                .iter()
                .all(|&s| reused.get(s as usize).copied().unwrap_or(false));
            if intact {
                merged.push((set, unit));
            } else {
                dropped += unit.engine.cache.len();
            }
        }
        flow_obs::event(|| {
            flow_obs::Event::new("serve.shard.rebuilt")
                .u64("shards", u64::from(shard_count))
                .u64("reused", reused.iter().filter(|&&r| r).count() as u64)
                .u64("dropped_entries", dropped as u64)
        });
        self.sharding = Some(Box::new(Sharding {
            fingerprint,
            partition,
            units,
            merged,
        }));
        Ok(dropped)
    }

    /// Executes a batch of queries, returning one outcome per query in
    /// submission order. A `shards > 1` engine routes each query to the
    /// minimal shard set covering its relevant subgraph and
    /// scatter-gathers the per-unit sub-batches; everything else — and
    /// every query spanning too many shards — runs on the global path,
    /// byte-identical to an unsharded engine.
    pub fn execute_batch(&mut self, icm: &Icm, queries: &[FlowQuery]) -> Vec<QueryOutcome> {
        if self.config.shards > 1 {
            self.execute_batch_sharded(icm, queries)
        } else {
            // Opened here rather than in the local path: a sharded
            // router's units run that path concurrently, and an
            // untraced span from several threads would reorder the
            // deterministic trace.
            let _batch = flow_obs::span("serve.batch");
            self.execute_batch_local(icm, queries)
        }
    }

    /// The sharded router: route, scatter per-unit sub-batches across
    /// threads, gather outcomes back into submission order.
    fn execute_batch_sharded(&mut self, icm: &Icm, queries: &[FlowQuery]) -> Vec<QueryOutcome> {
        let _batch = flow_obs::span("serve.batch.sharded");
        if let Err(e) = self.ensure_sharding(icm, model_fingerprint(icm)) {
            // Partitioning failed (malformed model): serve the whole
            // batch on the global path rather than dropping it.
            flow_obs::event(|| {
                flow_obs::Event::new("serve.shard.disabled").str("error", e.to_string())
            });
            return self.execute_batch_local(icm, queries);
        }
        let Some(mut sharding) = self.sharding.take() else {
            return self.execute_batch_local(icm, queries);
        };

        let mut outcomes: Vec<Option<QueryOutcome>> = vec![None; queries.len()];
        let mut global: Vec<usize> = Vec::new();
        let mut groups: BTreeMap<Vec<u32>, Vec<usize>> = BTreeMap::new();
        for (i, q) in queries.iter().enumerate() {
            match route_query(icm, &sharding.partition, q) {
                Route::Global => global.push(i),
                Route::Shards(set) => {
                    flow_obs::event(|| {
                        let ids: Vec<String> = set.iter().map(|s| s.to_string()).collect();
                        flow_obs::Event::new("serve.query.routed")
                            .u64("query", i as u64)
                            .u64("span", set.len() as u64)
                            .str("shards", ids.join(","))
                    });
                    groups.entry(set).or_default().push(i);
                }
                Route::Reject(e) => {
                    let trace = trace_id(0, i);
                    self.stats.queries += 1;
                    self.stats.failed += 1;
                    flow_obs::event(|| {
                        flow_obs::Event::new("serve.query.rejected")
                            .trace(trace)
                            .u64("query", i as u64)
                            .str("error", e.to_string())
                    });
                    flow_obs::event(|| {
                        flow_obs::Event::new("serve.query.resolved")
                            .trace(trace)
                            .u64("query", i as u64)
                            .str("path", "failed")
                    });
                    outcomes[i] = Some(QueryOutcome::Failed(e));
                }
            }
        }

        // Scatter: each routed group runs on its unit's child engine
        // over the projected sub-model (node ids are preserved, so the
        // queries need no translation). Every group is resolved to its
        // unit first — merged units materialize here — and then each
        // unit serves its sub-batch on a scoped thread while this
        // thread serves the global remainder. Every chain seed is a
        // pure function of (engine seed, canonical key) and units
        // share no state, so concurrency cannot change any answer;
        // stats and outcomes are absorbed in group order (the
        // BTreeMap's set order).
        let mut jobs: Vec<(UnitSlot, Vec<usize>)> = Vec::with_capacity(groups.len());
        for (set, idxs) in groups {
            let slot = if let [s] = set.as_slice() {
                UnitSlot::Shard(*s as usize)
            } else {
                match sharding.merged_index(icm, set, &self.config) {
                    Ok(ix) => UnitSlot::Merged(ix),
                    // Unprojectable union (cannot happen for a
                    // well-formed partition): global fallback.
                    Err(_) => {
                        global.extend(idxs);
                        continue;
                    }
                }
            };
            jobs.push((slot, idxs));
        }
        global.sort_unstable();
        let mut shard_units: Vec<Option<&mut ShardUnit>> =
            sharding.units.iter_mut().map(Some).collect();
        let mut merged_units: Vec<Option<&mut ShardUnit>> =
            sharding.merged.iter_mut().map(|(_, u)| Some(u)).collect();
        let work: Vec<(Option<&mut ShardUnit>, &[usize])> = jobs
            .iter()
            .map(|(slot, idxs)| {
                let unit = match *slot {
                    UnitSlot::Shard(s) => shard_units.get_mut(s).and_then(Option::take),
                    UnitSlot::Merged(ix) => merged_units.get_mut(ix).and_then(Option::take),
                };
                (unit, idxs.as_slice())
            })
            .collect();
        let recorder = flow_obs::current_recorder();
        let (unit_results, global_outcomes) = std::thread::scope(|scope| {
            let handles: Vec<_> = work
                .into_iter()
                .map(|(unit, idxs)| {
                    let recorder = recorder.clone();
                    scope.spawn(move || {
                        let _guard = recorder.map(flow_obs::ScopedRecorder::install);
                        let unit = unit?;
                        let sub_queries: Vec<FlowQuery> =
                            idxs.iter().map(|&i| queries[i].clone()).collect();
                        let before = unit.engine.stats;
                        // The local path directly: a child engine's
                        // untraced `serve.batch` span would interleave
                        // across unit threads.
                        let outcomes = unit
                            .engine
                            .execute_batch_local(unit.sub.icm(), &sub_queries);
                        Some((before, unit.engine.stats, outcomes))
                    })
                })
                .collect();
            // The global remainder runs on the local path (its own
            // stats accounting) beside the units.
            let global_outcomes = if global.is_empty() {
                Vec::new()
            } else {
                let global_queries: Vec<FlowQuery> =
                    global.iter().map(|&i| queries[i].clone()).collect();
                self.execute_batch_local(icm, &global_queries)
            };
            let unit_results: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().ok().flatten())
                .collect();
            (unit_results, global_outcomes)
        });
        for ((_, idxs), result) in jobs.iter().zip(unit_results) {
            self.stats.queries += idxs.len() as u64;
            let Some((before, after, sub_outcomes)) = result else {
                // A unit that could not run answers nothing; its
                // queries fail typed instead of vanishing.
                for &i in idxs {
                    let outcome = QueryOutcome::Failed(FlowError::Io {
                        detail: "shard unit did not complete its sub-batch".into(),
                    });
                    self.absorb_outcome(&outcome);
                    outcomes[i] = Some(outcome);
                }
                continue;
            };
            self.stats.plans += after.plans - before.plans;
            self.stats.steps += after.steps - before.steps;
            self.stats.retries += after.retries - before.retries;
            self.stats.shed += after.shed - before.shed;
            for (&i, outcome) in idxs.iter().zip(sub_outcomes) {
                self.absorb_outcome(&outcome);
                outcomes[i] = Some(outcome);
            }
        }
        self.sharding = Some(sharding);
        for (&i, outcome) in global.iter().zip(global_outcomes) {
            outcomes[i] = Some(outcome);
        }

        outcomes
            .into_iter()
            .map(|o| {
                o.unwrap_or(QueryOutcome::Failed(FlowError::Io {
                    detail: "query matched no route".into(),
                }))
            })
            .collect()
    }

    /// Folds a routed query's outcome into the parent's counters (the
    /// child engine keeps its own full accounting).
    fn absorb_outcome(&mut self, outcome: &QueryOutcome) {
        match outcome {
            QueryOutcome::Answered(a) => {
                self.stats.answered += 1;
                match a.served {
                    Served::CacheHit => self.stats.cache_hits += 1,
                    Served::Fresh => self.stats.fresh += 1,
                    Served::WarmRefinement => self.stats.refined += 1,
                    Served::ShortCircuited => self.stats.breaker_answers += 1,
                }
                if !a.degradation.is_empty() {
                    self.stats.degraded += 1;
                }
            }
            QueryOutcome::Rejected { .. } => self.stats.rejected += 1,
            QueryOutcome::Failed(_) => self.stats.failed += 1,
        }
    }

    /// The unsharded serving path (and the sharded router's global
    /// fallback).
    fn execute_batch_local(&mut self, icm: &Icm, queries: &[FlowQuery]) -> Vec<QueryOutcome> {
        self.stats.queries += queries.len() as u64;
        let mut planner = self.config.planner();
        planner.shard = self.shard_slot;
        let batch: BatchPlan = plan_batch(icm, &mut self.cache, &planner, queries);
        self.stats.plans += batch.plans.len() as u64;

        // Breaker gate: an open chain's plans never reach the executor.
        // Re-id the executable subset densely (the executor indexes its
        // result vector by plan id) and remember each slot's original
        // plan.
        let mut exec_plans: Vec<Plan> = Vec::new();
        let mut origin: Vec<usize> = Vec::new();
        let mut short_circuited: Vec<(usize, u64)> = Vec::new();
        for (i, plan) in batch.plans.iter().enumerate() {
            let _t = flow_obs::TraceContext::enter(plan.trace());
            match self.breaker.decide(plan.chain_key()) {
                BreakerDecision::ShortCircuit { failures } => short_circuited.push((i, failures)),
                BreakerDecision::Allow | BreakerDecision::Probe => {
                    let mut p = plan.clone();
                    p.id = exec_plans.len();
                    origin.push(i);
                    exec_plans.push(p);
                }
            }
        }

        let (statuses, report) = run_plans_report(icm, &exec_plans, &self.config.executor);
        self.stats.retries += report.retries;
        self.stats.shed += report.shed;

        // Feed executed-plan results back into the breaker. Only
        // stall-like signals count as failures: client-shaped
        // degradations (step budgets, deadlines, precision misses)
        // must not trip it, or clean runs would stop being
        // byte-identical. Shed plans never ran, so they carry no
        // signal either way.
        for (slot, status) in statuses.iter().enumerate() {
            let plan = &batch.plans[origin[slot]];
            let _t = flow_obs::TraceContext::enter(plan.trace());
            match status {
                PlanStatus::Completed(out) => {
                    let stall_like = out.degradation.iter().any(|d| {
                        matches!(
                            d,
                            DegradationReason::ChainRestarted { .. }
                                | DegradationReason::ChainStalled { .. }
                                | DegradationReason::ChainFailed { .. }
                        )
                    });
                    self.breaker.record(plan.chain_key(), !stall_like);
                }
                PlanStatus::Failed(_) => self.breaker.record(plan.chain_key(), false),
                PlanStatus::Rejected(_) => {}
            }
        }

        let mut outcomes: Vec<Option<QueryOutcome>> = vec![None; queries.len()];
        for (i, early) in batch.early.iter().enumerate() {
            let _t = flow_obs::TraceContext::enter(batch.traces.get(i).copied().unwrap_or(0));
            match early {
                Some(EarlyResolution::Hit(estimate, hw, samples)) => {
                    let tolerance = queries
                        .get(i)
                        .and_then(|q| q.tolerance)
                        .unwrap_or(self.config.default_tolerance);
                    outcomes[i] = Some(self.answered(Answer {
                        estimate: *estimate,
                        half_width: *hw,
                        samples: *samples,
                        served: Served::CacheHit,
                        degradation: precision_check(*hw, tolerance),
                    }));
                }
                Some(EarlyResolution::Failed(e)) => {
                    self.stats.failed += 1;
                    outcomes[i] = Some(QueryOutcome::Failed(e.clone()));
                }
                None => {}
            }
        }

        for (i, failures) in short_circuited {
            self.short_circuit_plan(&batch.plans[i], failures, &mut outcomes);
        }
        for (slot, status) in statuses.into_iter().enumerate() {
            self.fold_plan(&batch.plans[origin[slot]], status, &mut outcomes);
        }

        let outcomes: Vec<QueryOutcome> = outcomes
            .into_iter()
            .map(|o| {
                o.unwrap_or(QueryOutcome::Failed(FlowError::Io {
                    detail: "query matched no plan and no early resolution".into(),
                }))
            })
            .collect();

        // Terminal per-query marker: the last event of every trace,
        // naming how the query was ultimately served.
        for (i, outcome) in outcomes.iter().enumerate() {
            let trace = batch.traces.get(i).copied().unwrap_or(0);
            flow_obs::event(|| {
                let e = flow_obs::Event::new("serve.query.resolved")
                    .trace(trace)
                    .u64("query", i as u64);
                match outcome {
                    QueryOutcome::Answered(a) => e
                        .str("path", served_label(a.served))
                        .u64("samples", a.samples)
                        .u64("degraded", a.degradation.len() as u64),
                    QueryOutcome::Rejected { .. } => e.str("path", "rejected"),
                    QueryOutcome::Failed(_) => e.str("path", "failed"),
                }
            });
        }
        outcomes
    }

    fn answered(&mut self, answer: Answer) -> QueryOutcome {
        self.stats.answered += 1;
        match answer.served {
            Served::CacheHit => self.stats.cache_hits += 1,
            Served::Fresh => self.stats.fresh += 1,
            Served::WarmRefinement => self.stats.refined += 1,
            Served::ShortCircuited => self.stats.breaker_answers += 1,
        }
        if !answer.degradation.is_empty() {
            self.stats.degraded += 1;
        }
        QueryOutcome::Answered(answer)
    }

    /// Serves every query of a breaker-blocked plan without sampling:
    /// refinements answer from their cached base statistics, cold plans
    /// answer with an honest zero-sample stub. Either way the answer is
    /// structured and flagged `BreakerOpen` — never an error, never a
    /// panic.
    fn short_circuit_plan(
        &mut self,
        plan: &Plan,
        failures: u64,
        outcomes: &mut [Option<QueryOutcome>],
    ) {
        match &plan.work {
            PlanWork::Refine { entry, base, .. } => {
                let _t = flow_obs::TraceContext::enter(entry.trace);
                let reason = DegradationReason::BreakerOpen {
                    failures,
                    cached_samples: base.samples,
                };
                flow_obs::event(|| reason.to_obs_event());
                let hw = base.half_width();
                let mut degradation = vec![reason];
                degradation.extend(precision_check(hw, entry.tolerance));
                let answer = Answer {
                    estimate: base.estimate(),
                    half_width: hw,
                    samples: base.samples,
                    served: Served::ShortCircuited,
                    degradation,
                };
                if let Some(o) = outcomes.get_mut(entry.query_index) {
                    *o = Some(self.answered(answer));
                }
            }
            PlanWork::Shared { entries, .. } => {
                for entry in entries {
                    let _t = flow_obs::TraceContext::enter(entry.trace);
                    let reason = DegradationReason::BreakerOpen {
                        failures,
                        cached_samples: 0,
                    };
                    flow_obs::event(|| reason.to_obs_event());
                    let mut degradation = vec![reason];
                    degradation.extend(precision_check(f64::INFINITY, entry.tolerance));
                    let answer = Answer {
                        estimate: 0.0,
                        half_width: f64::INFINITY,
                        samples: 0,
                        served: Served::ShortCircuited,
                        degradation,
                    };
                    if let Some(o) = outcomes.get_mut(entry.query_index) {
                        *o = Some(self.answered(answer));
                    }
                }
            }
        }
    }

    fn fold_plan(
        &mut self,
        plan: &Plan,
        status: PlanStatus,
        outcomes: &mut [Option<QueryOutcome>],
    ) {
        match (&plan.work, status) {
            (PlanWork::Shared { entries, seed, .. }, PlanStatus::Completed(outcome)) => {
                self.stats.steps += outcome.steps;
                for (slot, entry) in entries.iter().enumerate() {
                    let _t = flow_obs::TraceContext::enter(entry.trace);
                    let counts = outcome
                        .counts
                        .get(slot)
                        .copied()
                        .unwrap_or(TargetCounts::default());
                    let answer = self.finish_answer(
                        entry.tolerance,
                        counts,
                        outcome.samples_done as u64,
                        Served::Fresh,
                        &outcome,
                    );
                    // Only clean collections are admitted: a budget- or
                    // deadline-truncated result is shaped by *this*
                    // request's limits and must not answer later ones
                    // (it would also make warm replays diverge from
                    // cold ones in their reported degradations).
                    if outcome.samples_done > 0 && outcome.degradation.is_empty() {
                        self.cache.insert(CacheEntry {
                            key: entry.key.clone(),
                            counts,
                            samples: outcome.samples_done as u64,
                            seed: *seed,
                            model_version: entry.key.fingerprint,
                            checkpoint: outcome.checkpoint.clone(),
                        });
                    }
                    if let Some(o) = outcomes.get_mut(entry.query_index) {
                        *o = Some(self.answered(answer));
                    }
                }
            }
            (PlanWork::Refine { entry, base, .. }, PlanStatus::Completed(outcome)) => {
                let _t = flow_obs::TraceContext::enter(entry.trace);
                self.stats.steps += outcome.steps;
                let fresh = outcome
                    .counts
                    .first()
                    .copied()
                    .unwrap_or(TargetCounts::default());
                let pooled = base.counts.merge(&fresh);
                let samples = base.samples + outcome.samples_done as u64;
                let answer = self.finish_answer(
                    entry.tolerance,
                    pooled,
                    samples,
                    Served::WarmRefinement,
                    &outcome,
                );
                // Same clean-collections-only admission rule as above.
                if outcome.samples_done > 0 && outcome.degradation.is_empty() {
                    self.cache.insert(CacheEntry {
                        key: entry.key.clone(),
                        counts: pooled,
                        samples,
                        seed: base.seed,
                        model_version: entry.key.fingerprint,
                        checkpoint: outcome.checkpoint.clone(),
                    });
                }
                if let Some(o) = outcomes.get_mut(entry.query_index) {
                    *o = Some(self.answered(answer));
                }
            }
            (work, PlanStatus::Rejected(e)) => {
                for idx in work_query_indices(work) {
                    self.stats.rejected += 1;
                    if let Some(o) = outcomes.get_mut(idx) {
                        *o = Some(QueryOutcome::Rejected { error: e.clone() });
                    }
                }
            }
            (work, PlanStatus::Failed(e)) => {
                for idx in work_query_indices(work) {
                    self.stats.failed += 1;
                    if let Some(o) = outcomes.get_mut(idx) {
                        *o = Some(QueryOutcome::Failed(e.clone()));
                    }
                }
            }
        }
    }

    fn finish_answer(
        &mut self,
        tolerance: f64,
        counts: TargetCounts,
        samples: u64,
        served: Served,
        outcome: &SharedChainOutcome,
    ) -> Answer {
        let estimate = if samples == 0 {
            0.0
        } else {
            counts.all as f64 / samples as f64
        };
        let hw = half_width(estimate, samples);
        let mut degradation = outcome.degradation.clone();
        degradation.extend(precision_check(hw, tolerance));
        Answer {
            estimate,
            half_width: hw,
            samples,
            served,
            degradation,
        }
    }
}

fn served_label(served: Served) -> &'static str {
    match served {
        Served::Fresh => "fresh",
        Served::CacheHit => "cache_hit",
        Served::WarmRefinement => "warm_refinement",
        Served::ShortCircuited => "short_circuited",
    }
}

/// Emits and returns a `PrecisionNotReached` degradation when the
/// achieved half-width misses the tolerance.
fn precision_check(achieved: f64, target: f64) -> Vec<DegradationReason> {
    if achieved <= target {
        return Vec::new();
    }
    let reason = DegradationReason::PrecisionNotReached { achieved, target };
    flow_obs::event(|| reason.to_obs_event());
    vec![reason]
}

fn work_query_indices(work: &PlanWork) -> Vec<usize> {
    match work {
        PlanWork::Shared { entries, .. } => entries.iter().map(|e| e.query_index).collect(),
        PlanWork::Refine { entry, .. } => vec![entry.query_index],
    }
}

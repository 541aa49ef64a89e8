//! The traced replay: the timed run's request sequence driven again,
//! layer by layer, through each layer's public functions with the
//! benchmark's own spans around every call.
//!
//! The replay routes (`route_query`), plans (`plan_batch`), executes
//! (`run_plans_report`) and folds results into per-unit `ServeCache`s
//! exactly as `ServeEngine::execute_batch` does, so its answers must
//! equal the timed run's bit for bit. The bootstrap and the evidence
//! epochs run the timed run's own code (`stack::bootstrap`,
//! `Stack::apply_epoch`) with the tracer on. Every
//! `PROBE_EVERY`-th batch additionally runs probe-only calls — a timed
//! `ServeCache::lookup` and `model_fingerprint` per query,
//! `run_plans_report` on no plans, every plan serially through
//! `Plan::execute`, and each chain re-driven through
//! `PseudoStateSampler::try_run` and `reach_set` — whose results are
//! checked against the batch's own. Probe time is kept out of the
//! replay's wall, which is compared with the untraced run's wall to
//! give the tracing overhead.

use crate::stack::{self, AnswerBits, Stack, FAILED, FRESH, HIT, REFINE, REJECTED};
use crate::trace::Tracer;
use crate::workload::{Inputs, Spec, Timed};
use flow_graph::{partition_edges, EdgePartition};
use flow_icm::{model_fingerprint, Icm, SubIcm};
use flow_mcmc::diagnostics::effective_sample_size;
use flow_mcmc::{PseudoStateSampler, SharedTarget, TargetCounts};
use flow_serve::{
    half_width, plan_batch, route_query, run_plans_report, BatchPlan, CacheEntry, EarlyResolution,
    FlowQuery, Plan, PlanStatus, PlanWork, PlannerConfig, QueryKey, Route, ServeCache, ServeConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Every this many batches also runs the probe-only calls.
pub const PROBE_EVERY: usize = 5;

/// Counters gathered while replaying.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Queries replayed.
    pub queries: u64,
    /// Answered from cache.
    pub hits: u64,
    /// Answered by warm refinement.
    pub refines: u64,
    /// Answered by fresh chains.
    pub fresh: u64,
    /// Sampling plans executed.
    pub plans: u64,
    /// Queries served by those plans.
    pub planned_queries: u64,
    /// Chain steps spent by the plans.
    pub steps: u64,
    /// Burn-in steps among them.
    pub burn_in_steps: u64,
    /// Retained samples collected.
    pub samples: u64,
    /// Plans shed by admission.
    pub shed: u64,
    /// Transient retries.
    pub retries: u64,
    /// Queries sent through `route_query`.
    pub routed_calls: u64,
    /// Of those, routed to a proper shard subset.
    pub routed: u64,
    /// Model swaps.
    pub swaps: u64,
    /// Cache entries the swaps invalidated.
    pub invalidated: u64,
    /// Snapshot bytes written by the swaps' seals.
    pub snapshot_bytes: u64,
    /// Evictions from caches retired by shard rebuilds.
    pub retired_evictions: u64,
    /// Peak summed cache bytes at a batch end.
    pub peak_cache_bytes: u64,
    /// Probe: summed serial `Plan::execute` time.
    pub serial_exec_ns: u64,
    /// Probe: `run_plans_report` time of the batches probed serially.
    pub probed_report_ns: u64,
    /// Probe: chain steps re-driven through `try_run`.
    pub split_steps: u64,
    /// Probe: accepted proposals among them.
    pub split_accepted: u64,
    /// Probe: samples re-driven through `reach_set`.
    pub split_samples: u64,
    /// Probe: reach-set nodes summed over those samples.
    pub split_nodes: u64,
    /// Probe: summed ESS / n over non-constant indicator series.
    pub ess_ratio_sum: f64,
    /// Probe: series behind `ess_ratio_sum`.
    pub ess_series: u64,
    /// Probe: `ServeCache::lookup` calls (they also bump the caches'
    /// own hit/miss counters).
    pub probe_lookups: u64,
}

struct ShardUnit {
    sub: SubIcm,
    cache: ServeCache,
}

/// The engine's serving units, mirrored: the global cache (slot 0) and,
/// on a sharded configuration, one projected sub-model and cache per
/// shard (slot `s + 1`).
struct Units {
    config: ServeConfig,
    fingerprint: Option<u64>,
    partition: Option<EdgePartition>,
    shards: Vec<ShardUnit>,
    global: ServeCache,
}

impl Units {
    fn new(config: ServeConfig) -> Self {
        Units {
            config,
            fingerprint: None,
            partition: None,
            shards: Vec::new(),
            global: ServeCache::new(config.cache_bytes),
        }
    }

    /// Mirrors `ServeEngine::install_model_icm`: stale global entries
    /// are dropped, and a sharded configuration re-partitions, keeping
    /// every shard whose projected sub-model is unchanged. Returns the
    /// entries dropped.
    fn install(&mut self, icm: &Icm, t: &mut Tracer, counts: &mut Counts) -> Result<usize, String> {
        let fingerprint = model_fingerprint(icm);
        let mut dropped = self.global.invalidate_stale(fingerprint);
        if self.config.shards <= 1 || self.fingerprint == Some(fingerprint) {
            return Ok(dropped);
        }
        let (partition, subs) = t.time("route.partition", None, || {
            partition_and_project(icm, self.config.shards)
        })?;
        let mut old: Vec<Option<ShardUnit>> = std::mem::take(&mut self.shards)
            .into_iter()
            .map(Some)
            .collect();
        for (s, sub) in subs.into_iter().enumerate() {
            let kept = old.get_mut(s).and_then(|slot| {
                if slot
                    .as_ref()
                    .is_some_and(|u| u.sub.fingerprint() == sub.fingerprint())
                {
                    slot.take()
                } else {
                    None
                }
            });
            self.shards.push(kept.unwrap_or(ShardUnit {
                sub,
                cache: ServeCache::new(self.config.cache_bytes),
            }));
        }
        for unit in old.into_iter().flatten() {
            dropped += unit.cache.len();
            counts.retired_evictions += unit.cache.evictions();
        }
        self.partition = Some(partition);
        self.fingerprint = Some(fingerprint);
        Ok(dropped)
    }

    fn caches(&self) -> impl Iterator<Item = &ServeCache> {
        std::iter::once(&self.global).chain(self.shards.iter().map(|u| &u.cache))
    }
}

/// `partition_edges` plus one `SubIcm::project` per shard.
fn partition_and_project(icm: &Icm, shards: u32) -> Result<(EdgePartition, Vec<SubIcm>), String> {
    let partition = partition_edges(icm.graph(), shards);
    let subs = (0..partition.shard_count())
        .map(|s| SubIcm::project(icm, &partition.edges_of(s)).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((partition, subs))
}

/// What the replay measured.
pub struct Replayed {
    /// The spans, reduced later to per-layer metrics and self times.
    pub tracer: Tracer,
    /// Replay counters.
    pub counts: Counts,
    /// Wall of the replayed batch loop, probe time excluded.
    pub wall_s: f64,
    /// Everything the replay found different from the timed run.
    pub mismatches: Vec<String>,
    /// Summed hit/miss/eviction counters and resident entries of the
    /// caches alive at the end.
    pub cache_counters: [u64; 4],
}

struct Replayer {
    config: ServeConfig,
    units: Units,
    tracer: Tracer,
    counts: Counts,
    mismatches: Vec<String>,
}

fn note(mismatches: &mut Vec<String>, what: String) {
    if mismatches.len() < 8 {
        mismatches.push(what);
    }
}

/// Replays the timed run of `spec` under tracing.
pub fn replay(
    spec: &Spec,
    inputs: &Inputs,
    timed: &Timed,
    store: &Path,
) -> Result<Replayed, String> {
    let config = spec.config();
    let mut r = Replayer {
        config,
        units: Units::new(config),
        tracer: Tracer::on(),
        counts: Counts::default(),
        mismatches: Vec::new(),
    };
    let mut stack = stack::bootstrap(&inputs.bootstrap, config, store, &mut r.tracer)?;
    r.units.install(&stack.icm, &mut r.tracer, &mut r.counts)?;

    // Warm-up is untimed in the measured run: replay it untraced, then
    // start counting.
    let traced = std::mem::replace(&mut r.tracer, Tracer::off());
    let mut warm = Vec::new();
    for batch in &inputs.warmup {
        warm.extend(r.batch(&stack.icm, batch, false)?);
    }
    r.tracer = traced;
    r.counts = Counts {
        retired_evictions: r.counts.retired_evictions,
        ..Counts::default()
    };
    r.compare("warm-up answers", &warm, &timed.warmup_answers);

    let mut replayed = Vec::with_capacity(timed.answers.len());
    let mut probe_ns = 0u64;
    let start = Instant::now();
    for (b, batch) in inputs.batches.iter().enumerate() {
        r.tracer.set_batch(b);
        let (invalidated, ns) = r.epoch(&mut stack, &inputs.epochs[b])?;
        probe_ns += ns;
        r.check_invalidated(b, invalidated, timed);
        let (answers, ns) = r.timed_batch(&stack.icm, batch, b % PROBE_EVERY == 0)?;
        probe_ns += ns;
        replayed.extend(answers);
    }
    let wall_s = (start.elapsed().as_nanos() as u64).saturating_sub(probe_ns) as f64 * 1e-9;
    r.compare("timed answers", &replayed, &timed.answers);
    r.check_counts(timed);
    let mut cache_counters = [0u64; 4];
    for c in r.units.caches() {
        cache_counters[0] += c.hits();
        cache_counters[1] += c.misses();
        cache_counters[2] += c.evictions();
        cache_counters[3] += c.len() as u64;
    }
    Ok(Replayed {
        tracer: r.tracer,
        counts: r.counts,
        wall_s,
        mismatches: r.mismatches,
        cache_counters,
    })
}

impl Replayer {
    fn compare(&mut self, what: &str, replayed: &[AnswerBits], timed: &[AnswerBits]) {
        if replayed.len() != timed.len() {
            note(
                &mut self.mismatches,
                format!(
                    "{what}: {} replayed vs {} timed",
                    replayed.len(),
                    timed.len()
                ),
            );
            return;
        }
        if let Some(i) = replayed.iter().zip(timed).position(|(a, b)| a != b) {
            note(
                &mut self.mismatches,
                format!(
                    "{what}: answer {i} differs: replay {:?} vs timed {:?}",
                    replayed[i], timed[i]
                ),
            );
        }
    }

    fn check_invalidated(&mut self, k: usize, replayed: usize, timed: &Timed) {
        if timed.invalidated.get(k) != Some(&replayed) {
            note(
                &mut self.mismatches,
                format!(
                    "swap {k} invalidated {replayed} entries, timed {:?}",
                    timed.invalidated.get(k)
                ),
            );
        }
    }

    fn check_counts(&mut self, timed: &Timed) {
        let c = self.counts;
        let s = timed.stats;
        let pairs = [
            ("plans", c.plans, s.plans),
            ("steps", c.steps, s.steps),
            ("hits", c.hits, s.cache_hits),
            ("refines", c.refines, s.refined),
            ("fresh", c.fresh, s.fresh),
        ];
        for (name, replayed, engine) in pairs {
            if replayed != engine {
                note(
                    &mut self.mismatches,
                    format!("{name}: replay {replayed} vs engine {engine}"),
                );
            }
        }
    }

    /// One evidence epoch through `Stack::apply_epoch`, traced. The
    /// replay's engine is only the swap target; the replay's own units
    /// follow the swap through a probe-only install. Returns the entries
    /// the units dropped and the probe time.
    fn epoch(&mut self, stack: &mut Stack, lines: &[String]) -> Result<(usize, u64), String> {
        let epoch = stack.apply_epoch(lines, &mut self.tracer)?;
        let t = &mut self.tracer;
        let probe = t.begin("probe", None);
        if let Some(path) = &epoch.snapshot {
            self.counts.snapshot_bytes += std::fs::metadata(path).map_or(0, |m| m.len());
        }
        let dropped = self.units.install(&stack.icm, t, &mut self.counts)?;
        t.end(probe);
        self.counts.swaps += 1;
        self.counts.invalidated += dropped as u64;
        Ok((dropped, t.spans()[probe].ns()))
    }

    /// One replayed batch, returning its answers and its probe time.
    fn timed_batch(
        &mut self,
        icm: &Icm,
        queries: &[FlowQuery],
        probe: bool,
    ) -> Result<(Vec<AnswerBits>, u64), String> {
        let before = self.tracer.spans().len();
        let answers = self.batch(icm, queries, probe)?;
        let probe_ns = self.tracer.spans()[before..]
            .iter()
            .filter(|s| s.name == "probe")
            .map(|s| s.ns())
            .sum();
        let bytes: u64 = self.units.caches().map(|c| c.bytes() as u64).sum();
        self.counts.peak_cache_bytes = self.counts.peak_cache_bytes.max(bytes);
        Ok((answers, probe_ns))
    }

    /// Mirrors `ServeEngine::execute_batch`: route (sharded only), serve
    /// each single-shard group on its unit, then the global remainder.
    fn batch(
        &mut self,
        icm: &Icm,
        queries: &[FlowQuery],
        probe: bool,
    ) -> Result<Vec<AnswerBits>, String> {
        self.counts.queries += queries.len() as u64;
        let mut answers: Vec<Option<AnswerBits>> = vec![None; queries.len()];
        let mut global: Vec<usize> = Vec::new();
        let mut groups: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        match &self.units.partition {
            Some(partition) if self.config.shards > 1 => {
                for (i, q) in queries.iter().enumerate() {
                    let route = self.tracer.time("route.route_query", Some(i), || {
                        route_query(icm, partition, q)
                    });
                    self.counts.routed_calls += 1;
                    match route {
                        Route::Global => global.push(i),
                        Route::Shards(set) if set.len() == 1 => {
                            self.counts.routed += 1;
                            groups.entry(set[0]).or_default().push(i);
                        }
                        Route::Shards(set) => {
                            return Err(format!(
                                "query {i} spans shards {set:?}; the workload routes to one"
                            ))
                        }
                        Route::Reject(_) => answers[i] = Some(AnswerBits::unanswered(FAILED)),
                    }
                }
            }
            _ => global = (0..queries.len()).collect(),
        }
        let Replayer {
            units,
            tracer,
            counts,
            mismatches,
            config,
            ..
        } = self;
        for (shard, idxs) in groups {
            let unit = units
                .shards
                .get_mut(shard as usize)
                .ok_or_else(|| format!("route to missing shard {shard}"))?;
            let sub: Vec<FlowQuery> = idxs.iter().map(|&i| queries[i].clone()).collect();
            let out = serve_unit(
                tracer,
                counts,
                mismatches,
                config,
                &mut unit.cache,
                unit.sub.icm(),
                shard + 1,
                &sub,
                probe,
            )?;
            for (&i, a) in idxs.iter().zip(out) {
                answers[i] = Some(a);
            }
        }
        if !global.is_empty() {
            let sub: Vec<FlowQuery> = global.iter().map(|&i| queries[i].clone()).collect();
            let out = serve_unit(
                tracer,
                counts,
                mismatches,
                config,
                &mut units.global,
                icm,
                0,
                &sub,
                probe,
            )?;
            for (&i, a) in global.iter().zip(out) {
                answers[i] = Some(a);
            }
        }
        Ok(answers
            .into_iter()
            .map(|a| a.unwrap_or_else(|| AnswerBits::unanswered(FAILED)))
            .collect())
    }
}

/// Mirrors the engine's local path on one unit: plan, execute, fold.
#[allow(clippy::too_many_arguments)]
fn serve_unit(
    t: &mut Tracer,
    counts: &mut Counts,
    mismatches: &mut Vec<String>,
    config: &ServeConfig,
    cache: &mut ServeCache,
    icm: &Icm,
    slot: u32,
    queries: &[FlowQuery],
    probe: bool,
) -> Result<Vec<AnswerBits>, String> {
    let planner = PlannerConfig {
        mcmc: config.mcmc,
        default_tolerance: config.default_tolerance,
        engine_seed: config.engine_seed,
        max_samples: config.max_samples,
        shard: slot,
    };
    if probe {
        let id = t.begin("probe", None);
        for (i, q) in queries.iter().enumerate() {
            t.time("plan.model_fingerprint", Some(i), || model_fingerprint(icm));
            if let Ok(key) =
                QueryKey::canonical(q.source, &q.target, &q.conditions, &config.mcmc, icm)
            {
                let key = key.with_shard(slot);
                t.time("cache.lookup", Some(i), || cache.lookup(&key).is_some());
                counts.probe_lookups += 1;
            }
        }
        t.end(id);
    }
    let batch = t.time("plan.plan_batch", None, || {
        plan_batch(icm, cache, &planner, queries)
    });
    let report_id = t.begin("exec.run_plans_report", None);
    let (statuses, report) = run_plans_report(icm, &batch.plans, &config.executor);
    t.end(report_id);
    counts.shed += report.shed;
    counts.retries += report.retries;
    if probe {
        let id = t.begin("probe", None);
        t.time("exec.spawn", None, || {
            run_plans_report(icm, &[], &config.executor)
        });
        counts.probed_report_ns += t.spans()[report_id].ns();
        for (plan, status) in batch.plans.iter().zip(&statuses) {
            let serial = t.time("exec.plan_execute", None, || plan.execute(icm));
            let expected = match status {
                PlanStatus::Completed(out) => &out.counts,
                _ => continue,
            };
            if serial.as_ref().map(|o| &o.counts) != Ok(expected) {
                note(
                    mismatches,
                    format!("serial Plan::execute differs on plan {}", plan.id),
                );
            }
            if !split_chain(t, counts, icm, plan, expected)? {
                note(
                    mismatches,
                    format!("try_run/reach_set replay differs on plan {}", plan.id),
                );
            }
        }
        t.end(id);
        counts.serial_exec_ns += t
            .spans()
            .iter()
            .skip(id)
            .filter(|s| s.name == "exec.plan_execute")
            .map(|s| s.ns())
            .sum::<u64>();
    }
    Ok(t.time("serve.fold", None, || {
        fold(cache, config, queries, &batch, statuses, counts)
    }))
}

/// Mirrors the engine's fold: per-query answers from early resolutions
/// and completed plans, and cache admission of clean collections.
fn fold(
    cache: &mut ServeCache,
    config: &ServeConfig,
    queries: &[FlowQuery],
    batch: &BatchPlan,
    statuses: Vec<PlanStatus>,
    counts: &mut Counts,
) -> Vec<AnswerBits> {
    let mut answers: Vec<Option<AnswerBits>> = vec![None; queries.len()];
    let bits = |estimate: f64, hw: f64, samples: u64, path: u8, clean: bool| AnswerBits {
        estimate: estimate.to_bits(),
        half_width: hw.to_bits(),
        samples,
        path,
        clean,
    };
    for (i, early) in batch.early.iter().enumerate() {
        match early {
            Some(EarlyResolution::Hit(estimate, hw, samples)) => {
                let tolerance = queries[i].tolerance.unwrap_or(config.default_tolerance);
                counts.hits += 1;
                answers[i] = Some(bits(*estimate, *hw, *samples, HIT, *hw <= tolerance));
            }
            Some(EarlyResolution::Failed(_)) => answers[i] = Some(AnswerBits::unanswered(FAILED)),
            None => {}
        }
    }
    for (plan, status) in batch.plans.iter().zip(statuses) {
        counts.plans += 1;
        match (&plan.work, status) {
            (PlanWork::Shared { entries, seed, .. }, PlanStatus::Completed(out)) => {
                counts.steps += out.steps;
                counts.samples += out.samples_done as u64;
                counts.planned_queries += entries.len() as u64;
                if let Some(first) = entries.first() {
                    counts.burn_in_steps += first.key.config.burn_in.min(out.steps);
                }
                let n = out.samples_done as u64;
                for (slot, entry) in entries.iter().enumerate() {
                    let c = out.counts.get(slot).copied().unwrap_or_default();
                    let estimate = if n == 0 { 0.0 } else { c.all as f64 / n as f64 };
                    let hw = half_width(estimate, n);
                    if n > 0 && out.degradation.is_empty() {
                        cache.insert(CacheEntry {
                            key: entry.key.clone(),
                            counts: c,
                            samples: n,
                            seed: *seed,
                            model_version: entry.key.fingerprint,
                            checkpoint: out.checkpoint.clone(),
                        });
                    }
                    counts.fresh += 1;
                    let clean = out.degradation.is_empty() && hw <= entry.tolerance;
                    answers[entry.query_index] = Some(bits(estimate, hw, n, FRESH, clean));
                }
            }
            (PlanWork::Refine { entry, base, .. }, PlanStatus::Completed(out)) => {
                counts.steps += out.steps;
                counts.samples += out.samples_done as u64;
                counts.planned_queries += 1;
                let fresh = out.counts.first().copied().unwrap_or_default();
                let pooled = base.counts.merge(&fresh);
                let n = base.samples + out.samples_done as u64;
                let estimate = if n == 0 {
                    0.0
                } else {
                    pooled.all as f64 / n as f64
                };
                let hw = half_width(estimate, n);
                if out.samples_done > 0 && out.degradation.is_empty() {
                    cache.insert(CacheEntry {
                        key: entry.key.clone(),
                        counts: pooled,
                        samples: n,
                        seed: base.seed,
                        model_version: entry.key.fingerprint,
                        checkpoint: out.checkpoint.clone(),
                    });
                }
                counts.refines += 1;
                let clean = out.degradation.is_empty() && hw <= entry.tolerance;
                answers[entry.query_index] = Some(bits(estimate, hw, n, REFINE, clean));
            }
            (work, status) => {
                let path = if matches!(status, PlanStatus::Rejected(_)) {
                    REJECTED
                } else {
                    FAILED
                };
                let idxs: Vec<usize> = match work {
                    PlanWork::Shared { entries, .. } => {
                        entries.iter().map(|e| e.query_index).collect()
                    }
                    PlanWork::Refine { entry, .. } => vec![entry.query_index],
                };
                for i in idxs {
                    answers[i] = Some(AnswerBits::unanswered(path));
                }
            }
        }
    }
    answers
        .into_iter()
        .map(|a| a.unwrap_or_else(|| AnswerBits::unanswered(FAILED)))
        .collect()
}

/// Re-drives one plan's chain the way `shared_chain_flows` does, with
/// spans around every `try_run` and `reach_set`, and returns whether
/// its target counts equal `expected`.
fn split_chain(
    t: &mut Tracer,
    counts: &mut Counts,
    icm: &Icm,
    plan: &Plan,
    expected: &[TargetCounts],
) -> Result<bool, String> {
    let (source, targets, conditions, class, samples, warm, seed) = match &plan.work {
        PlanWork::Shared {
            seed,
            samples,
            entries,
            ..
        } => {
            let first = entries.first().ok_or("empty shared plan")?;
            let targets: Vec<SharedTarget> = entries.iter().map(|e| e.key.target.clone()).collect();
            (
                first.key.source,
                targets,
                first.key.conditions.clone(),
                first.key.config,
                *samples,
                None,
                *seed,
            )
        }
        PlanWork::Refine {
            entry,
            base,
            extra_samples,
        } => (
            entry.key.source,
            vec![entry.key.target.clone()],
            entry.key.conditions.clone(),
            entry.key.config,
            *extra_samples,
            Some(&base.checkpoint),
            base.seed,
        ),
    };
    let config = class.to_config(samples);
    let m = icm.edge_count();
    let thin = config.thin_steps(m);
    let (mut sampler, mut rng) = match warm {
        Some(ckpt) => ckpt
            .restore_with_conditions(icm, conditions)
            .map_err(|e| e.to_string())?,
        None => {
            let mut rng = StdRng::seed_from_u64(seed);
            let sampler =
                PseudoStateSampler::with_conditions(icm, config.proposal, conditions, &mut rng)
                    .map_err(|e| e.to_string())?;
            (sampler, rng)
        }
    };
    let (steps0, accepted0) = (sampler.steps(), sampler.accepted());
    if warm.is_none() {
        let mut remaining = config.burn_in_steps(m);
        while remaining > 0 {
            let block = remaining.min(thin.max(64));
            t.time("sampler.try_run", None, || sampler.try_run(block, &mut rng))
                .map_err(|e| e.to_string())?;
            remaining -= block;
        }
    }
    let mut got = vec![TargetCounts::default(); targets.len()];
    let mut series: Vec<Vec<f64>> = vec![Vec::with_capacity(samples); targets.len()];
    for _ in 0..samples {
        t.time("sampler.try_run", None, || sampler.try_run(thin, &mut rng))
            .map_err(|e| e.to_string())?;
        let id = t.begin("traverse.reach_set", None);
        let reach = sampler.reach_set(&[source]);
        t.end(id);
        counts.split_nodes += reach.count_ones() as u64;
        for ((target, c), s) in targets.iter().zip(&mut got).zip(&mut series) {
            let all = match target {
                SharedTarget::Sink(sink) => {
                    let hit = *sink != source && reach.get(sink.index());
                    let h = u64::from(hit);
                    c.any += h;
                    c.members += h;
                    hit
                }
                SharedTarget::Community(members) => {
                    let reached = members
                        .iter()
                        .filter(|&&v| v != source && reach.get(v.index()))
                        .count() as u64;
                    c.any += u64::from(reached > 0);
                    c.members += reached;
                    reached == members.len() as u64 && !members.is_empty()
                }
            };
            c.all += u64::from(all);
            s.push(f64::from(u8::from(all)));
        }
    }
    counts.split_steps += sampler.steps() - steps0;
    counts.split_accepted += sampler.accepted() - accepted0;
    counts.split_samples += samples as u64;
    for s in &series {
        if s.iter().any(|&x| x != s[0]) {
            counts.ess_ratio_sum += effective_sample_size(s) / s.len() as f64;
            counts.ess_series += 1;
        }
    }
    Ok(got == expected)
}

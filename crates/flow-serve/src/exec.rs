//! The bounded executor: a fixed worker pool with explicit backpressure,
//! admission control, and per-plan retry.
//!
//! Serving must fail *predictably* under load, so admission is decided
//! before any thread runs: the whole batch is submitted to a bounded
//! queue first, and every plan beyond `queue_capacity` — or beyond the
//! configured [`ExecutorConfig::admission_step_budget`] of estimated
//! chain steps — is shed up front with a typed
//! [`FlowError::Overloaded`] carrying a deterministic retry-after hint.
//! That makes backpressure deterministic: which plans get `Rejected`
//! depends only on batch order, capacity, and estimated cost, never on
//! worker timing.
//!
//! Workers retry *transient* plan failures (stalled chains, I/O
//! hiccups; see [`flow_core::Transience`]) with a deterministic capped
//! exponential backoff ([`RetryPolicy`]); permanent errors surface
//! immediately. Each retry emits a `serve.retry` event, each shed plan
//! a `serve.shed` event.
//!
//! The calling thread drains the queue itself, beside
//! `min(workers, admitted) − 1` scoped helper threads, so a batch
//! with zero or one admitted plan spawns no thread at all. Each helper
//! re-installs the submitting thread's `flow-obs` recorder (via
//! [`flow_obs::current_recorder`]), so telemetry from helper threads
//! lands in the caller's sink — a test's `MemorySink` included. The
//! queue depth is exported as the `serve.queue.depth` gauge, and every
//! plan runs under its own trace and a `serve.plan` span with
//! start/finish events carrying the plan id, whichever thread runs it.

use crate::plan::Plan;
use flow_core::{fault, FlowError, FlowResult};
use flow_icm::Icm;
use flow_mcmc::SharedChainOutcome;
use flow_obs::{ScopedRecorder, TraceContext};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Assumed chain-step throughput per worker, used only to turn a shed
/// plan's queued-steps backlog into a millisecond retry-after hint.
/// Deliberately a constant: the hint must be a pure function of the
/// batch, not of measured machine speed.
const ASSUMED_STEPS_PER_MS: u64 = 500;

/// Deterministic retry policy for transient plan failures.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts per plan, including the first (floored at 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds.
    pub base_backoff_ms: u64,
    /// Backoff cap, in milliseconds.
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 2,
            max_backoff_ms: 50,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..Default::default()
        }
    }

    /// Backoff before retry number `attempt` (1-based): capped
    /// exponential, no jitter — retries must not perturb determinism.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(16);
        (self.base_backoff_ms << shift).min(self.max_backoff_ms)
    }
}

/// Worker-pool shape and admission policy.
#[derive(Clone, Copy, Debug)]
pub struct ExecutorConfig {
    /// Fixed worker-thread count (floored at 1).
    pub workers: usize,
    /// Maximum plans admitted per batch; the rest are rejected.
    pub queue_capacity: usize,
    /// Maximum estimated chain steps admitted per batch; plans beyond
    /// it are shed with [`FlowError::Overloaded`]. `0` = unlimited.
    pub admission_step_budget: u64,
    /// Retry policy for transient plan failures.
    pub retry: RetryPolicy,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            workers: 4,
            queue_capacity: 256,
            admission_step_budget: 0,
            retry: RetryPolicy::default(),
        }
    }
}

/// What happened to one submitted plan.
#[derive(Clone, Debug)]
pub enum PlanStatus {
    /// The plan ran; its chain outcome (possibly degraded) is attached.
    Completed(SharedChainOutcome),
    /// Admission shed the plan (queue full or step budget exceeded);
    /// it never ran. Always [`FlowError::Overloaded`] with a
    /// deterministic retry-after hint.
    Rejected(FlowError),
    /// The plan ran and failed with a hard error (after any retries).
    Failed(FlowError),
}

/// Executor-level counters for one batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecReport {
    /// Transient-failure retries performed across all workers.
    pub retries: u64,
    /// Plans shed by admission control (step budget or saturation),
    /// not counting plain queue-capacity rejections.
    pub shed: u64,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Deterministic retry-after hint for a shed plan: how long the queued
/// backlog takes to drain at the assumed per-worker step rate.
fn retry_after_hint(queued_steps: u64, workers: usize) -> u64 {
    let rate = ASSUMED_STEPS_PER_MS * workers.max(1) as u64;
    (queued_steps / rate).max(1)
}

fn overloaded(detail: String, queued_steps: u64, workers: usize) -> FlowError {
    FlowError::Overloaded {
        detail,
        retry_after_ms: retry_after_hint(queued_steps, workers),
    }
}

/// Runs a batch of plans on the worker pool, returning per-plan
/// statuses (indexed by plan id, always complete) plus executor
/// counters.
pub fn run_plans_report(
    icm: &Icm,
    plans: &[Plan],
    config: &ExecutorConfig,
) -> (Vec<PlanStatus>, ExecReport) {
    let mut results: Vec<Option<PlanStatus>> = vec![None; plans.len()];
    let mut report = ExecReport::default();

    // Admission first: deterministic backpressure. Plans are admitted
    // in batch order while both the queue capacity and the step budget
    // hold; everything else is shed with a typed `Overloaded`.
    let budget = config.admission_step_budget;
    let mut queued_steps: u64 = 0;
    let mut queue: VecDeque<&Plan> = VecDeque::new();
    for plan in plans {
        // Admission decisions (shed/reject events) record under the
        // plan's primary trace.
        let _t = TraceContext::enter(plan.trace());
        let cost = plan.estimated_steps();
        // The fault harness can saturate admission wholesale, modelling
        // a pool that cannot drain.
        let saturated = fault::fires("serve.queue_saturate");
        let over_budget =
            budget > 0 && !queue.is_empty() && queued_steps.saturating_add(cost) > budget;
        if queue.len() >= config.queue_capacity {
            flow_obs::counter("serve.queue.rejected", 1);
            flow_obs::event(|| {
                flow_obs::Event::new("serve.plan.rejected").u64("plan", plan.id as u64)
            });
            results[plan.id] = Some(PlanStatus::Rejected(overloaded(
                format!("submission queue full ({} plans)", config.queue_capacity),
                queued_steps,
                config.workers,
            )));
        } else if saturated || over_budget {
            report.shed += 1;
            flow_obs::counter("serve.shed", 1);
            flow_obs::event(|| {
                flow_obs::Event::new("serve.shed")
                    .u64("plan", plan.id as u64)
                    .u64("estimated_steps", cost)
                    .u64("queued_steps", queued_steps)
                    .u64("budget", budget)
            });
            results[plan.id] = Some(PlanStatus::Rejected(overloaded(
                if saturated {
                    "admission saturated (injected)".to_string()
                } else {
                    format!(
                        "admission step budget {budget} exceeded: {queued_steps} queued + {cost} estimated"
                    )
                },
                queued_steps,
                config.workers,
            )));
        } else {
            queued_steps = queued_steps.saturating_add(cost);
            queue.push_back(plan);
        }
    }
    flow_obs::gauge("serve.queue.depth", queue.len() as f64);

    let helpers = config.workers.max(1).min(queue.len()).saturating_sub(1);
    let retry = config.retry;
    let retries = AtomicU64::new(0);
    let queue = Mutex::new(queue);
    let slots = Mutex::new(&mut results);
    let drain = || loop {
        let (plan, depth) = {
            let mut q = lock(&queue);
            let plan = q.pop_front();
            (plan, q.len())
        };
        let Some(plan) = plan else { break };
        flow_obs::gauge("serve.queue.depth", depth as f64);
        // Everything this plan does — start/finish markers, retries,
        // chain spans inside shared_chain_flows — records under its
        // primary trace, which also gives the deterministic JSONL sink
        // a single-writer stream per plan.
        let _t = TraceContext::enter(plan.trace());
        flow_obs::event(|| flow_obs::Event::new("serve.plan.start").u64("plan", plan.id as u64));
        let status = execute_with_retry(icm, plan, &retry, &retries);
        flow_obs::event(|| {
            let e = flow_obs::Event::new("serve.plan.finish").u64("plan", plan.id as u64);
            match &status {
                PlanStatus::Completed(out) => e
                    .u64("samples", out.samples_done as u64)
                    .u64("steps", out.steps)
                    .u64("degraded", out.degradation.len() as u64),
                PlanStatus::Failed(err) => e.str("error", err.to_string()),
                PlanStatus::Rejected(err) => e.str("error", err.to_string()),
            }
        });
        let mut s = lock(&slots);
        if let Some(slot) = s.get_mut(plan.id) {
            *slot = Some(status);
        }
    };

    let recorder = flow_obs::current_recorder();
    std::thread::scope(|scope| {
        for _ in 0..helpers {
            let recorder = recorder.clone();
            scope.spawn(move || {
                let _guard = recorder.map(ScopedRecorder::install);
                drain();
            });
        }
        drain();
    });

    report.retries = retries.load(Ordering::Relaxed);
    let statuses = results
        .into_iter()
        .map(|r| {
            r.unwrap_or(PlanStatus::Failed(FlowError::Io {
                detail: "executor dropped a plan without recording a status".into(),
            }))
        })
        .collect();
    (statuses, report)
}

/// Runs one plan, retrying transient failures per the policy. The
/// `serve.worker_stall` fault point injects a stalled-chain error
/// before execution, exercising exactly this retry path.
fn execute_with_retry(
    icm: &Icm,
    plan: &Plan,
    retry: &RetryPolicy,
    retries: &AtomicU64,
) -> PlanStatus {
    let max_attempts = retry.max_attempts.max(1);
    let mut attempt = 1u32;
    loop {
        let result = {
            let _span = flow_obs::span("serve.plan");
            if fault::fires("serve.worker_stall") {
                Err(FlowError::ChainStalled {
                    chain: plan.id,
                    steps: 0,
                    acceptance_rate: 0.0,
                })
            } else {
                plan.execute(icm)
            }
        };
        match result {
            Ok(outcome) => return PlanStatus::Completed(outcome),
            Err(e) if e.is_transient() && attempt < max_attempts => {
                let backoff = retry.backoff_ms(attempt);
                retries.fetch_add(1, Ordering::Relaxed);
                flow_obs::counter("serve.retry", 1);
                flow_obs::event(|| {
                    flow_obs::Event::new("serve.retry")
                        .u64("plan", plan.id as u64)
                        .u64("attempt", u64::from(attempt))
                        .u64("backoff_ms", backoff)
                        .str("error", e.to_string())
                });
                // The backoff is wall-clock politeness, not identity:
                // the re-executed plan is a pure function of its seed,
                // so sleeping never perturbs results.
                std::thread::sleep(Duration::from_millis(backoff));
                attempt += 1;
            }
            Err(e) => return PlanStatus::Failed(e),
        }
    }
}

/// Runs a batch of plans on the worker pool. The returned vector is
/// indexed by plan id and always complete: every plan is `Completed`,
/// `Rejected`, or `Failed`.
pub fn run_plans(icm: &Icm, plans: &[Plan], config: &ExecutorConfig) -> Vec<PlanStatus> {
    run_plans_report(icm, plans, config).0
}

/// Convenience: run plans and return a typed result per plan, mapping
/// `Rejected` to its carried [`FlowError::Overloaded`] for callers that
/// do not model backpressure separately.
pub fn run_plans_strict(
    icm: &Icm,
    plans: &[Plan],
    config: &ExecutorConfig,
) -> Vec<FlowResult<SharedChainOutcome>> {
    run_plans(icm, plans, config)
        .into_iter()
        .map(|s| match s {
            PlanStatus::Completed(out) => Ok(out),
            PlanStatus::Failed(e) | PlanStatus::Rejected(e) => Err(e),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ServeCache;
    use crate::plan::{plan_batch, FlowQuery, PlannerConfig};
    use flow_graph::graph::graph_from_edges;
    use flow_graph::NodeId;
    use flow_mcmc::McmcConfig;
    use flow_obs::MemorySink;
    use std::sync::Arc;

    fn icm() -> Icm {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        Icm::new(g, vec![0.7, 0.4, 0.5, 0.6, 0.3])
    }

    fn cfg() -> PlannerConfig {
        PlannerConfig {
            mcmc: McmcConfig {
                samples: 100,
                ..Default::default()
            },
            default_tolerance: 0.5,
            engine_seed: 5,
            max_samples: 10_000,
            shard: 0,
        }
    }

    #[test]
    fn overflow_plans_are_rejected_deterministically() {
        let model = icm();
        let queries: Vec<FlowQuery> = (0..4)
            .map(|s| FlowQuery::flow(NodeId(s), NodeId(4)))
            .collect();
        let batch = plan_batch(&model, &mut ServeCache::new(1 << 20), &cfg(), &queries);
        assert_eq!(batch.plans.len(), 4);
        let exec = ExecutorConfig {
            workers: 2,
            queue_capacity: 2,
            ..Default::default()
        };
        for _ in 0..3 {
            let statuses = run_plans(&model, &batch.plans, &exec);
            assert!(matches!(statuses[0], PlanStatus::Completed(_)));
            assert!(matches!(statuses[1], PlanStatus::Completed(_)));
            assert!(matches!(
                statuses[2],
                PlanStatus::Rejected(FlowError::Overloaded { .. })
            ));
            assert!(matches!(
                statuses[3],
                PlanStatus::Rejected(FlowError::Overloaded { .. })
            ));
        }
    }

    #[test]
    fn step_budget_sheds_excess_plans_with_retry_hint() {
        let model = icm();
        let queries: Vec<FlowQuery> = (0..3)
            .map(|s| FlowQuery::flow(NodeId(s), NodeId(4)))
            .collect();
        let batch = plan_batch(&model, &mut ServeCache::new(1 << 20), &cfg(), &queries);
        let per_plan = batch.plans[0].estimated_steps();
        assert!(per_plan > 0);
        // Budget covers exactly one plan; the first is always admitted,
        // the other two are shed.
        let exec = ExecutorConfig {
            workers: 2,
            admission_step_budget: per_plan,
            ..Default::default()
        };
        let (statuses, report) = run_plans_report(&model, &batch.plans, &exec);
        assert!(matches!(statuses[0], PlanStatus::Completed(_)));
        for s in &statuses[1..] {
            match s {
                PlanStatus::Rejected(FlowError::Overloaded { retry_after_ms, .. }) => {
                    assert!(*retry_after_ms >= 1);
                }
                other => panic!("expected Overloaded shed, got {other:?}"),
            }
        }
        assert_eq!(report.shed, 2);
    }

    #[test]
    fn unlimited_budget_admits_everything() {
        let model = icm();
        let queries: Vec<FlowQuery> = (0..3)
            .map(|s| FlowQuery::flow(NodeId(s), NodeId(4)))
            .collect();
        let batch = plan_batch(&model, &mut ServeCache::new(1 << 20), &cfg(), &queries);
        let (statuses, report) = run_plans_report(&model, &batch.plans, &ExecutorConfig::default());
        assert!(statuses
            .iter()
            .all(|s| matches!(s, PlanStatus::Completed(_))));
        assert_eq!(report.shed, 0);
        assert_eq!(report.retries, 0);
    }

    #[test]
    fn backoff_schedule_is_capped_exponential() {
        let retry = RetryPolicy {
            max_attempts: 6,
            base_backoff_ms: 4,
            max_backoff_ms: 20,
        };
        let schedule: Vec<u64> = (1..=5).map(|a| retry.backoff_ms(a)).collect();
        assert_eq!(schedule, vec![4, 8, 16, 20, 20]);
    }

    /// Records which thread emitted each plan event.
    #[derive(Default)]
    struct ThreadLog(std::sync::Mutex<Vec<std::thread::ThreadId>>);

    impl flow_obs::Recorder for ThreadLog {
        fn event(&self, event: &flow_obs::Event) {
            if event.name == "serve.plan.finish" {
                lock(&self.0).push(std::thread::current().id());
            }
        }
    }

    #[test]
    fn calls_with_at_most_one_plan_spawn_no_thread() {
        let model = icm();
        let log = Arc::new(ThreadLog::default());
        let run = |sources: u32| {
            let queries: Vec<FlowQuery> = (0..sources)
                .map(|s| FlowQuery::flow(NodeId(s), NodeId(4)))
                .collect();
            let batch = plan_batch(&model, &mut ServeCache::new(1 << 20), &cfg(), &queries);
            assert_eq!(batch.plans.len(), sources as usize);
            let _r = ScopedRecorder::install(log.clone());
            let statuses = run_plans(&model, &batch.plans, &ExecutorConfig::default());
            assert!(statuses
                .iter()
                .all(|s| matches!(s, PlanStatus::Completed(_))));
        };
        run(0);
        run(1);
        let caller = std::thread::current().id();
        assert_eq!(*lock(&log.0), vec![caller]);
        // Several plans still all finish, the caller taking its share.
        run(4);
        assert_eq!(lock(&log.0).len(), 5);
    }

    #[test]
    fn worker_threads_report_into_the_callers_sink() {
        let model = icm();
        let queries = vec![
            FlowQuery::flow(NodeId(0), NodeId(3)),
            FlowQuery::flow(NodeId(1), NodeId(4)),
        ];
        let batch = plan_batch(&model, &mut ServeCache::new(1 << 20), &cfg(), &queries);
        let sink = Arc::new(MemorySink::new());
        {
            let _r = ScopedRecorder::install(sink.clone());
            let statuses = run_plans(&model, &batch.plans, &ExecutorConfig::default());
            assert!(statuses
                .iter()
                .all(|s| matches!(s, PlanStatus::Completed(_))));
        }
        assert!(
            sink.counter_value("sampler.steps") > 0,
            "worker sampling must reach the caller's recorder"
        );
        assert_eq!(sink.events_named("serve.plan.start").len(), 2);
        assert_eq!(sink.events_named("serve.plan.finish").len(), 2);
    }
}

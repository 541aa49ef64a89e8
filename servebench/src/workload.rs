//! The three workloads: their engine configuration, their seeded
//! inputs, and the untraced closed-loop measured phase.

use crate::inputs::{self, EvidenceWriter};
use crate::stack::{self, answer_bits, AnswerBits, Stack};
use crate::trace::Tracer;
use flow_graph::NodeId;
use flow_icm::Icm;
use flow_mcmc::McmcConfig;
use flow_serve::{ExecutorConfig, FlowQuery, ServeConfig, ServeStats};
use std::path::Path;
use std::time::Instant;

/// Retained samples per cold chain for each second of `--seconds`.
pub const COLD_SAMPLES_PER_SECOND: usize = 100;
/// Retained samples per cold-conditioned chain for each second of
/// `--seconds` (condition checks make its steps several times dearer).
pub const CONDITIONED_SAMPLES_PER_SECOND: usize = 26;
/// Live-sharded batches for each second of `--seconds`.
pub const LIVE_BATCHES_PER_SECOND: usize = 8;
/// Engine default tolerance (every workload).
pub const TOLERANCE: f64 = 0.05;
/// Live-sharded retained samples per fresh chain. It lies above the
/// default tolerance's count (385), so refills are long enough that a
/// stalled worker thread moves a batch's time less, and below the tight
/// tolerance's (1 068), so tight reads still refine.
pub const LIVE_SAMPLE_FLOOR: usize = 768;
/// Set-up samples per run: the bootstrap that builds the serving stack,
/// then up to `SETUP_SAMPLES - 1` bootstraps between batches, one at
/// every `batches / SETUP_SAMPLES`-th batch of the measured phase.
pub const SETUP_SAMPLES: usize = 20;

/// A workload name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Unconditioned never-asked keys on an unsharded engine.
    ColdPlain,
    /// The same cold stream, every query conditioned.
    ColdConditioned,
    /// Zipf-hot reads beside per-batch evidence epochs, sharded.
    LiveSharded,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ColdPlain,
        Workload::ColdConditioned,
        Workload::LiveSharded,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPlain => "cold-plain",
            Workload::ColdConditioned => "cold-conditioned",
            Workload::LiveSharded => "live-sharded",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the sharded engine.
    pub fn sharded(self) -> bool {
        self == Workload::LiveSharded
    }
}

/// One run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Nominal run length; fixes the amount of work, never a deadline.
    pub seconds: usize,
}

impl Spec {
    /// The workload's engine configuration; executor workers equal
    /// the available cores.
    pub fn config(&self) -> ServeConfig {
        let samples = match self.workload {
            Workload::LiveSharded => LIVE_SAMPLE_FLOOR,
            Workload::ColdConditioned => CONDITIONED_SAMPLES_PER_SECOND * self.seconds,
            Workload::ColdPlain => COLD_SAMPLES_PER_SECOND * self.seconds,
        };
        ServeConfig {
            mcmc: McmcConfig {
                samples,
                ..McmcConfig::default()
            },
            default_tolerance: TOLERANCE,
            executor: ExecutorConfig {
                workers: crate::sys::cores(),
                ..ExecutorConfig::default()
            },
            engine_seed: self.seed,
            shards: if self.workload.sharded() {
                inputs::COMMUNITIES as u32
            } else {
                1
            },
            ..ServeConfig::default()
        }
    }

    /// Timed batches in one run.
    pub fn batches(&self) -> usize {
        match self.workload {
            Workload::LiveSharded => LIVE_BATCHES_PER_SECOND * self.seconds,
            _ => inputs::COLD_BATCHES,
        }
    }
}

/// Everything a run sends, generated before timing.
pub struct Inputs {
    /// The ground truth the evidence is simulated from.
    pub truth: Icm,
    /// Bootstrap evidence log, graph header first.
    pub bootstrap: Vec<String>,
    /// Untimed warm-up batches.
    pub warmup: Vec<Vec<FlowQuery>>,
    /// Timed batches.
    pub batches: Vec<Vec<FlowQuery>>,
    /// Evidence epochs, one before each timed batch: on live-sharded
    /// each touches one community in rotation; on the cold workloads
    /// each is a few cascades anywhere in the graph.
    pub epochs: Vec<Vec<String>>,
    /// Distinct keys the request stream can ask.
    pub distinct_keys: usize,
}

/// Generates a run's inputs from its seed.
pub fn inputs(spec: &Spec) -> Inputs {
    let seed = spec.seed;
    let live = spec.workload.sharded();
    let truth = if live {
        inputs::live_truth()
    } else {
        inputs::cold_truth()
    };
    let graph = truth.graph();
    let all: Vec<NodeId> = graph.nodes().collect();
    let mut writer = EvidenceWriter::new(seed, 6);
    let mut bootstrap = vec![EvidenceWriter::header(graph)];
    bootstrap.extend(writer.cascades(&truth, &all, inputs::BOOTSTRAP_CASCADES));
    let (warmup, batches) = match spec.workload {
        Workload::LiveSharded => {
            let traffic = inputs::live_traffic(graph, seed, spec.batches());
            (traffic.warmup, traffic.batches)
        }
        Workload::ColdPlain => (
            Vec::new(),
            inputs::cold_plain_batches(graph, seed, spec.batches()),
        ),
        Workload::ColdConditioned => (
            Vec::new(),
            inputs::cold_conditioned_batches(&truth, seed, spec.batches()),
        ),
    };
    // Live: the warm-up asks every hot key once. Cold: no key repeats.
    let distinct_keys = if live {
        warmup.iter().map(Vec::len).sum()
    } else {
        batches.iter().map(Vec::len).sum()
    };
    let epochs = (0..spec.batches())
        .map(|b| {
            if live {
                let community = inputs::community_nodes(b % inputs::COMMUNITIES);
                writer.cascades(&truth, &community, inputs::EPOCH_CASCADES)
            } else {
                writer.cascades(&truth, &all, inputs::EPOCH_CASCADES)
            }
        })
        .collect();
    Inputs {
        truth,
        bootstrap,
        warmup,
        batches,
        epochs,
        distinct_keys,
    }
}

/// What the untraced measured phase observed.
pub struct Timed {
    /// Wall time of the measured phase, the interleaved bootstraps
    /// left out.
    pub wall_s: f64,
    /// Process CPU time (user + sys) over the measured phase, the
    /// interleaved bootstraps left out.
    pub cpu_s: f64,
    /// Share of machine CPU time stolen by the hypervisor during the
    /// phase (context for reading the wall-clock metrics).
    pub steal_share: f64,
    /// Wall time of each `execute_batch` call.
    pub latencies_ms: Vec<f64>,
    /// Every timed answer, in submission order.
    pub answers: Vec<AnswerBits>,
    /// Every warm-up answer, in submission order.
    pub warmup_answers: Vec<AnswerBits>,
    /// Time for each evidence epoch to reach the engine.
    pub update_ms: Vec<f64>,
    /// Cache entries each swap invalidated.
    pub invalidated: Vec<usize>,
    /// Wall time of each bootstrap interleaved with the batches.
    pub setup_s: Vec<f64>,
    /// Engine counters accumulated over the measured phase.
    pub stats: ServeStats,
    /// Per-shard counters at the end of the run.
    pub shard_stats: Vec<ServeStats>,
}

fn delta(after: ServeStats, before: ServeStats) -> ServeStats {
    ServeStats {
        queries: after.queries - before.queries,
        answered: after.answered - before.answered,
        cache_hits: after.cache_hits - before.cache_hits,
        fresh: after.fresh - before.fresh,
        refined: after.refined - before.refined,
        rejected: after.rejected - before.rejected,
        failed: after.failed - before.failed,
        plans: after.plans - before.plans,
        steps: after.steps - before.steps,
        degraded: after.degraded - before.degraded,
        retries: after.retries - before.retries,
        shed: after.shed - before.shed,
        breaker_answers: after.breaker_answers - before.breaker_answers,
    }
}

/// The measured phase: one closed-loop client sends each batch when the
/// previous `execute_batch` has returned, and an evidence epoch reaches
/// the engine before every batch, so `update_p50_ms` samples the whole
/// phase. On the cold workloads the epochs are small (about 1% of the
/// phase) and change no serving path: cold keys never hit the cache.
///
/// Between batches, at fixed positions, the client also bootstraps a
/// second stack from `inputs.bootstrap` (snapshots under `scratch`) and
/// drops it. Those set-ups sample machine speed over the same window as
/// the batches; their time is left out of the phase's wall and CPU.
pub fn run_timed(
    stack: &mut Stack,
    inputs: &Inputs,
    config: ServeConfig,
    scratch: &Path,
) -> Result<Timed, String> {
    let mut off = Tracer::off();
    let mut warmup_answers = Vec::new();
    for batch in &inputs.warmup {
        let out = stack.engine.execute_batch(&stack.icm, batch);
        warmup_answers.extend(out.iter().map(answer_bits));
    }
    let setup_every = (inputs.batches.len() / SETUP_SAMPLES).max(1);
    let before = stack.engine.stats();
    let mut latencies_ms = Vec::with_capacity(inputs.batches.len());
    let mut answers = Vec::new();
    let mut update_ms = Vec::new();
    let mut invalidated = Vec::new();
    let mut setup_s = Vec::new();
    // Time spent on the interleaved set-ups, kept out of the phase.
    let mut aside_s = 0.0;
    let mut aside_cpu_s = 0.0;
    let cpu0 = crate::sys::cpu_seconds();
    let steal0 = crate::sys::steal_ticks();
    let start = Instant::now();
    for (b, batch) in inputs.batches.iter().enumerate() {
        if b > 0 && b % setup_every == 0 && setup_s.len() + 1 < SETUP_SAMPLES {
            let cpu = crate::sys::cpu_seconds();
            let t0 = Instant::now();
            let dir = scratch.join(format!("setup-{b}"));
            let built = stack::bootstrap(&inputs.bootstrap, config, &dir, &mut off)?;
            setup_s.push(t0.elapsed().as_secs_f64());
            drop(built);
            std::fs::remove_dir_all(&dir).ok();
            aside_s += t0.elapsed().as_secs_f64();
            aside_cpu_s += crate::sys::cpu_seconds() - cpu;
        }
        let epoch = stack.apply_epoch(&inputs.epochs[b], &mut off)?;
        update_ms.push(epoch.secs * 1e3);
        invalidated.push(epoch.swap.invalidated);
        let t0 = Instant::now();
        let out = stack.engine.execute_batch(&stack.icm, batch);
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        answers.extend(out.iter().map(answer_bits));
    }
    let wall_s = start.elapsed().as_secs_f64() - aside_s;
    let cpu_s = crate::sys::cpu_seconds() - cpu0 - aside_cpu_s;
    let steal_share = crate::sys::steal_share(steal0, crate::sys::steal_ticks());
    let stats = delta(stack.engine.stats(), before);
    Ok(Timed {
        wall_s,
        cpu_s,
        steal_share,
        latencies_ms,
        answers,
        warmup_answers,
        update_ms,
        invalidated,
        setup_s,
        stats,
        shard_stats: stack.engine.shard_stats(),
    })
}

//! The serving stack under test, assembled only from public API:
//! flow-stream ingest and registry feeding a flow-serve engine.

use crate::trace::Tracer;
use flow_icm::Icm;
use flow_learn::summary::TimingAssumption;
use flow_serve::{QueryOutcome, ServeConfig, ServeEngine, Served};
use flow_stream::{IngestConfig, Ingestor, ModelRegistry, SnapshotStore, StreamModel, SwapReport};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A bootstrapped stack: the ingestor keeps its late-event watermark,
/// the registry owns the live model, the engine serves it.
pub struct Stack {
    /// The evidence ingestor.
    pub ingestor: Ingestor,
    /// The live model and its snapshot store.
    pub registry: ModelRegistry,
    /// The serving engine.
    pub engine: ServeEngine,
    /// The model the next batch is served against.
    pub icm: Icm,
    /// Evidence lines pushed so far (the next line's number is one
    /// more).
    pub lines: usize,
}

/// Ingest settings: room for the whole bootstrap log in one epoch.
fn ingest_config() -> IngestConfig {
    IngestConfig {
        max_pending_events: 1 << 22,
    }
}

fn learning_error(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Pushes every line of `log` into `ingestor`, one `ingest.push_line`
/// span each; the first line number is `first_line`.
fn push_all(
    ingestor: &mut Ingestor,
    log: &[String],
    first_line: usize,
    t: &mut Tracer,
) -> Result<(), String> {
    for (i, line) in log.iter().enumerate() {
        t.time("ingest.push_line", None, || {
            ingestor.push_line(first_line + i, line)
        })
        .map_err(|e| learning_error("evidence line rejected", e))?;
    }
    Ok(())
}

/// Learns the model from the bootstrap evidence log (graph header
/// first) and builds an engine ready to answer: ingest, seal, apply and
/// snapshot, `serving_icm`, `EngineBuilder::build`, and on a sharded
/// engine `install_model_icm`, which partitions the shards eagerly.
/// Each call runs inside a span of `t`.
pub fn bootstrap(
    log: &[String],
    config: ServeConfig,
    store: &Path,
    t: &mut Tracer,
) -> Result<Stack, String> {
    let mut ingestor = Ingestor::new(ingest_config());
    push_all(&mut ingestor, log, 1, t)?;
    let delta = t.time("ingest.seal_epoch", None, || ingestor.seal_epoch());
    let graph = ingestor
        .graph()
        .cloned()
        .ok_or_else(|| "bootstrap log has no graph header".to_string())?;
    let mut registry = ModelRegistry::new(
        StreamModel::new(graph, TimingAssumption::AnyEarlier),
        Some(SnapshotStore::new(store)),
    );
    t.time("registry.seal_epoch", None, || registry.seal_epoch(&delta))
        .map_err(|e| learning_error("bootstrap seal", e))?;
    let icm = t.time("model.serving_icm", None, || registry.model().serving_icm());
    let mut engine = t
        .time("engine.build", None, || {
            ServeEngine::builder().config(config).build()
        })
        .map_err(|e| learning_error("engine build", e))?;
    if config.shards > 1 {
        t.time("engine.install_model_icm", None, || {
            engine.install_model_icm(&icm)
        });
    }
    Ok(Stack {
        ingestor,
        registry,
        engine,
        icm,
        lines: log.len(),
    })
}

/// What one evidence epoch did.
pub struct Epoch {
    /// The swap into the engine.
    pub swap: SwapReport,
    /// The snapshot the seal wrote.
    pub snapshot: Option<PathBuf>,
    /// Wall time from the first `push_line` to the new `serving_icm`.
    pub secs: f64,
}

impl Stack {
    /// One evidence epoch, end to end: `push_line` for every line,
    /// `Ingestor::seal_epoch`, `ModelRegistry::seal_epoch` (apply plus
    /// snapshot write), `swap_into` the engine, and the `serving_icm`
    /// the next batch uses. Each call runs inside a span of `t`.
    pub fn apply_epoch(&mut self, lines: &[String], t: &mut Tracer) -> Result<Epoch, String> {
        let start = Instant::now();
        push_all(&mut self.ingestor, lines, self.lines + 1, t)?;
        self.lines += lines.len();
        let delta = t.time("ingest.seal_epoch", None, || self.ingestor.seal_epoch());
        let sealed = t
            .time("registry.seal_epoch", None, || {
                self.registry.seal_epoch(&delta)
            })
            .map_err(|e| learning_error("epoch seal", e))?;
        let swap = t.time("registry.swap_into", None, || {
            self.registry.swap_into(&mut self.engine)
        });
        self.icm = t.time("model.serving_icm", None, || {
            self.registry.model().serving_icm()
        });
        Ok(Epoch {
            swap,
            snapshot: sealed.snapshot,
            secs: start.elapsed().as_secs_f64(),
        })
    }
}

/// One answer reduced to comparable bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnswerBits {
    /// Estimate bits.
    pub estimate: u64,
    /// Half-width bits.
    pub half_width: u64,
    /// Retained samples.
    pub samples: u64,
    /// Production path (see [`path_code`]).
    pub path: u8,
    /// True when the answer carries no degradation reason.
    pub clean: bool,
}

/// Path codes for [`AnswerBits::path`].
pub const FRESH: u8 = 0;
/// Served straight from cache.
pub const HIT: u8 = 1;
/// Warm refinement of a cached chain.
pub const REFINE: u8 = 2;
/// Breaker short-circuit.
pub const SHORT: u8 = 3;
/// Rejected by admission.
pub const REJECTED: u8 = 4;
/// Failed with a typed error.
pub const FAILED: u8 = 5;

/// The path code of a served answer.
pub fn path_code(served: Served) -> u8 {
    match served {
        Served::Fresh => FRESH,
        Served::CacheHit => HIT,
        Served::WarmRefinement => REFINE,
        Served::ShortCircuited => SHORT,
    }
}

/// Reduces an outcome to its bits.
pub fn answer_bits(outcome: &QueryOutcome) -> AnswerBits {
    match outcome {
        QueryOutcome::Answered(a) => AnswerBits {
            estimate: a.estimate.to_bits(),
            half_width: a.half_width.to_bits(),
            samples: a.samples,
            path: path_code(a.served),
            clean: a.degradation.is_empty(),
        },
        QueryOutcome::Rejected { .. } => AnswerBits::unanswered(REJECTED),
        QueryOutcome::Failed(_) => AnswerBits::unanswered(FAILED),
    }
}

impl AnswerBits {
    /// A query that got no answer, on `path` `REJECTED` or `FAILED`.
    pub fn unanswered(path: u8) -> Self {
        AnswerBits {
            estimate: 0,
            half_width: f64::INFINITY.to_bits(),
            samples: 0,
            path,
            clean: false,
        }
    }

    /// True when the answer is an estimate in [0, 1] with a finite
    /// half-width.
    pub fn in_range(&self) -> bool {
        let e = f64::from_bits(self.estimate);
        let hw = f64::from_bits(self.half_width);
        (0.0..=1.0).contains(&e) && hw.is_finite() && hw >= 0.0
    }

    /// True when the query was answered (any path).
    pub fn answered(&self) -> bool {
        self.path <= SHORT
    }
}

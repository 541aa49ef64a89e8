//! Fault-injection robustness suite.
//!
//! Arms every fault point wired through the workspace (see
//! `flow_core::fault` for the full table) and asserts that each injected
//! fault surfaces as a typed [`FlowError`] or a flagged
//! [`PartialEstimate`] — never a panic, never silent corruption.
//!
//! Run with:
//!
//! ```text
//! cargo test --features fault-inject --test robustness
//! ```
//!
//! Without the feature the whole file compiles away (the hooks are
//! inlined passthroughs in normal builds).
#![cfg(feature = "fault-inject")]

use std::sync::{Arc, Mutex, MutexGuard};

use flow_core::fault::{self, FaultSpec};
use flow_core::FlowError;
use flow_graph::graph::graph_from_edges;
use flow_graph::NodeId;
use flow_icm::Icm;
use flow_learn::summary::TimingAssumption;
use flow_mcmc::{
    multi_chain_flow_guarded, DegradationReason, FlowEstimator, McmcConfig, ProposalKind,
    PseudoStateSampler, RunBudget,
};
use flow_obs::{FieldValue, MemorySink, ScopedRecorder};
use flow_serve::{FlowQuery, QueryOutcome, ServeCache, ServeConfig, ServeEngine};
use flow_stats::{Beta, WeightTree};
use flow_stream::{
    IngestConfig, IngestMark, Ingestor, ModelRegistry, Push, SnapshotStore, StreamModel,
};
use flow_twitter::read_tsv_lossy;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The fault registry is process-global, so tests that arm points must
/// not interleave. Each test takes this lock for its whole body and
/// starts from a clean registry.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn armed() -> MutexGuard<'static, ()> {
    // A previous test that failed while holding the lock poisons it;
    // the registry is still in a defined state, so continue.
    let guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear_all();
    guard
}

fn diamond_icm() -> Icm {
    let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
    Icm::new(g, vec![0.6, 0.7, 0.8, 0.5])
}

#[test]
fn poisoned_weight_tree_construction_is_a_typed_error() {
    let _guard = armed();
    fault::arm("weight_tree.new", FaultSpec::always(f64::NAN));
    let err = WeightTree::try_new(&[1.0, 2.0, 3.0]).unwrap_err();
    match err {
        FlowError::NonFiniteWeight { index, value } => {
            assert_eq!(index, 0);
            assert!(value.is_nan());
        }
        other => panic!("expected NonFiniteWeight, got {other:?}"),
    }
    assert_eq!(fault::fired_count("weight_tree.new"), 1);
}

#[test]
fn poisoned_weight_tree_update_leaves_tree_usable() {
    let _guard = armed();
    let mut tree = WeightTree::try_new(&[1.0, 2.0, 3.0]).unwrap();
    fault::arm("weight_tree.update", FaultSpec::always(-2.0));
    let err = tree.try_update(1, 0.9).unwrap_err();
    assert!(matches!(
        err,
        FlowError::NonFiniteWeight { index: 1, value } if value == -2.0
    ));
    assert_eq!(fault::fired_count("weight_tree.update"), 1);
    // The rejected update must not have corrupted the tree.
    fault::clear_all();
    tree.try_update(1, 0.9).unwrap();
}

#[test]
fn poisoned_edge_probability_is_a_typed_error() {
    let _guard = armed();
    fault::arm("icm.edge_probability", FaultSpec::always(1.5));
    let g = graph_from_edges(2, &[(0, 1)]);
    let err = Icm::try_new(g, vec![0.5]).unwrap_err();
    assert!(matches!(
        err,
        FlowError::InvalidProbability {
            what: "edge activation probability",
            value,
        } if value == 1.5
    ));
    assert_eq!(fault::fired_count("icm.edge_probability"), 1);
}

#[test]
fn poisoned_beta_posterior_is_a_typed_error() {
    let _guard = armed();
    fault::arm("learn.beta_params", FaultSpec::always(-1.0));
    let err = Beta::try_new(3.0, 4.0).unwrap_err();
    assert!(matches!(
        err,
        FlowError::InvalidProbability {
            what: "Beta alpha parameter",
            value,
        } if value == -1.0
    ));
    assert_eq!(fault::fired_count("learn.beta_params"), 1);
}

#[test]
fn nan_acceptance_probability_stops_the_chain() {
    let _guard = armed();
    let icm = diamond_icm();
    let mut rng = StdRng::seed_from_u64(7);
    let mut sampler = PseudoStateSampler::new(&icm, ProposalKind::ResultingActivity, &mut rng);
    // Let a few proposals through, then poison one acceptance ratio.
    // NaN is the nastiest case: `rng.random() > NaN` is false, so an
    // unguarded chain would silently accept every proposal.
    fault::arm("sampler.acceptance", FaultSpec::once_after(10, f64::NAN));
    let err = sampler.try_run(10_000, &mut rng).unwrap_err();
    assert!(matches!(
        err,
        FlowError::InvalidProbability {
            what: "MH acceptance probability",
            value,
        } if value.is_nan()
    ));
    assert_eq!(fault::fired_count("sampler.acceptance"), 1);
}

#[test]
fn killed_chain_is_restarted_and_the_estimate_survives() {
    let _guard = armed();
    let icm = diamond_icm();
    let config = McmcConfig {
        samples: 300,
        ..Default::default()
    };
    // Kill one chain mid-burn-in; the watchdog restarts it with a
    // fresh seed and the pooled estimate comes out clean.
    fault::arm("sampler.kill_chain", FaultSpec::once_after(1_000, 0.0));
    let est = multi_chain_flow_guarded(
        &icm,
        NodeId(0),
        NodeId(3),
        config,
        2,
        42,
        RunBudget::unlimited(),
        3,
        false,
    );
    assert_eq!(fault::fired_count("sampler.kill_chain"), 1);
    assert!(est
        .degradation
        .iter()
        .any(|d| matches!(d, DegradationReason::ChainRestarted { .. })));
    assert!((0.0..=1.0).contains(&est.value));
    assert_eq!(est.diagnostics.included_chains.len(), 2);
}

#[test]
fn persistently_dying_chains_degrade_to_a_flagged_estimate() {
    let _guard = armed();
    let icm = diamond_icm();
    let config = McmcConfig {
        samples: 100,
        ..Default::default()
    };
    // Every step dies: restarts are exhausted and each chain is
    // reported as failed — flagged degradation, not a panic.
    fault::arm("sampler.kill_chain", FaultSpec::always(0.0));
    let est = multi_chain_flow_guarded(
        &icm,
        NodeId(0),
        NodeId(3),
        config,
        2,
        42,
        RunBudget::unlimited(),
        1,
        false,
    );
    let failed = est
        .degradation
        .iter()
        .filter(|d| matches!(d, DegradationReason::ChainFailed { .. }))
        .count();
    assert_eq!(failed, 2, "both chains should be reported failed");
    assert!(est.is_degraded());
    assert!(est.diagnostics.included_chains.is_empty());
    assert_eq!(est.value, 0.0);
}

#[test]
fn corrupted_checkpoint_is_rejected_on_resume() {
    let _guard = armed();
    let icm = diamond_icm();
    let config = McmcConfig {
        samples: 200,
        ..Default::default()
    };
    let estimator = FlowEstimator::new(&icm, config);
    let mut ckpt = None;
    estimator
        .estimate_flow_checkpointed(NodeId(0), NodeId(3), 9, 50, |c| {
            ckpt.get_or_insert_with(|| c.clone());
        })
        .unwrap();
    let ckpt = ckpt.expect("at least one checkpoint captured");

    fault::arm("checkpoint.corrupt", FaultSpec::always(0.0));
    let err = estimator.resume_from(&ckpt).unwrap_err();
    assert!(matches!(err, FlowError::Checkpoint { .. }));
    assert_eq!(fault::fired_count("checkpoint.corrupt"), 1);

    // Disarmed, the same checkpoint resumes fine.
    fault::clear_all();
    let run = estimator.resume_from(&ckpt).unwrap();
    assert_eq!(run.series.len(), 200);
}

// ------------------------------------------------------- serving path
//
// Each serving-path fault point must surface as a structured outcome —
// an `Answered` (possibly degraded), a typed `Rejected`, or a typed
// `Failed` — never a panic, and with injection disabled results must be
// byte-identical to a resilience-free run.

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        mcmc: McmcConfig {
            samples: 200,
            ..Default::default()
        },
        default_tolerance: 0.5,
        engine_seed: seed,
        ..Default::default()
    }
}

/// Builder-based construction; these configs are always valid.
fn build_engine(config: ServeConfig) -> ServeEngine {
    ServeEngine::builder()
        .config(config)
        .build()
        .expect("valid engine config")
}

#[test]
fn stalled_serving_worker_is_retried_and_recovers() {
    let _guard = armed();
    let icm = diamond_icm();
    // Two stalls, then the default 3-attempt policy's last try succeeds.
    fault::arm(
        "serve.worker_stall",
        FaultSpec {
            skip: 0,
            times: 2,
            value: 0.0,
        },
    );
    let mut engine = build_engine(serve_config(11));
    let outcomes = engine.execute_batch(&icm, &[FlowQuery::flow(NodeId(0), NodeId(3))]);
    assert!(matches!(outcomes[0], QueryOutcome::Answered(_)));
    assert_eq!(engine.stats().retries, 2);
    assert_eq!(fault::fired_count("serve.worker_stall"), 2);
}

#[test]
fn exhausted_retries_surface_a_typed_stall_not_a_panic() {
    let _guard = armed();
    let icm = diamond_icm();
    fault::arm("serve.worker_stall", FaultSpec::always(0.0));
    let mut engine = build_engine(serve_config(12));
    let outcomes = engine.execute_batch(&icm, &[FlowQuery::flow(NodeId(0), NodeId(3))]);
    assert!(matches!(
        outcomes[0],
        QueryOutcome::Failed(FlowError::ChainStalled { .. })
    ));
    // 3 attempts = 2 retries before the error surfaces.
    assert_eq!(engine.stats().retries, 2);
    assert_eq!(engine.stats().failed, 1);
}

#[test]
fn saturated_admission_sheds_with_a_retry_hint() {
    let _guard = armed();
    let icm = diamond_icm();
    fault::arm("serve.queue_saturate", FaultSpec::always(0.0));
    let mut engine = build_engine(serve_config(13));
    let queries = vec![
        FlowQuery::flow(NodeId(0), NodeId(3)),
        FlowQuery::flow(NodeId(1), NodeId(3)),
    ];
    let outcomes = engine.execute_batch(&icm, &queries);
    for o in &outcomes {
        match o {
            QueryOutcome::Rejected {
                error: FlowError::Overloaded { retry_after_ms, .. },
            } => assert!(*retry_after_ms >= 1),
            other => panic!("expected Overloaded rejection, got {other:?}"),
        }
    }
    assert_eq!(engine.stats().shed, 2);
    assert_eq!(engine.stats().rejected, 2);
}

#[test]
fn corrupted_cache_read_quarantines_and_serving_continues() {
    let _guard = armed();
    let icm = diamond_icm();
    let dir = std::env::temp_dir().join(format!("flow-robust-read-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Populate and persist a healthy cache.
    let mut engine = build_engine(serve_config(14));
    let queries = vec![
        FlowQuery::flow(NodeId(0), NodeId(3)),
        FlowQuery::flow(NodeId(1), NodeId(3)),
        FlowQuery::flow(NodeId(2), NodeId(3)),
    ];
    engine.execute_batch(&icm, &queries);
    engine.cache().save_to_dir(&dir).unwrap();
    let healthy = engine.cache().len();
    assert!(healthy >= 2, "need several entries to lose a tail");

    // A torn read drops the tail: the intact prefix loads, the rest is
    // quarantined, and the engine still answers everything fresh.
    fault::arm("persist.torn_read", FaultSpec::always(0.0));
    let loaded = ServeCache::load_from_dir(&dir, 1 << 20).unwrap();
    assert!(loaded.quarantined() >= 1, "torn tail must be quarantined");
    assert!(loaded.len() < healthy);
    assert!(dir.join("quarantine").join("block-0000.txt").exists());

    fault::clear_all();
    let mut warm = ServeEngine::builder()
        .config(serve_config(14))
        .cache(loaded)
        .build()
        .expect("valid engine config");
    let outcomes = warm.execute_batch(&icm, &queries);
    assert!(outcomes
        .iter()
        .all(|o| matches!(o, QueryOutcome::Answered(_))));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_cache_write_loses_the_tail_but_never_the_loader() {
    let _guard = armed();
    let icm = diamond_icm();
    let dir = std::env::temp_dir().join(format!("flow-robust-write-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let mut engine = build_engine(serve_config(15));
    let queries = vec![
        FlowQuery::flow(NodeId(0), NodeId(3)),
        FlowQuery::flow(NodeId(1), NodeId(3)),
        FlowQuery::flow(NodeId(2), NodeId(3)),
    ];
    engine.execute_batch(&icm, &queries);
    let healthy = engine.cache().len();

    fault::arm("persist.torn_write", FaultSpec::always(0.0));
    engine.cache().save_to_dir(&dir).unwrap();
    assert_eq!(fault::fired_count("persist.torn_write"), 1);
    fault::clear_all();

    // The torn file loads without error: intact prefix kept, damage
    // quarantined and counted.
    let loaded = ServeCache::load_from_dir(&dir, 1 << 20).unwrap();
    assert!(loaded.len() < healthy);
    assert!(loaded.quarantined() >= 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disarmed_serving_is_byte_identical_with_resilience_on_or_off() {
    use flow_serve::ExecutorConfig;
    let _guard = armed();
    let icm = diamond_icm();
    let queries = vec![
        FlowQuery::flow(NodeId(0), NodeId(3)),
        FlowQuery::flow(NodeId(1), NodeId(3)),
    ];
    let answers = |config: ServeConfig| -> Vec<(u64, f64, f64)> {
        let mut engine = build_engine(config);
        engine
            .execute_batch(&icm, &queries)
            .into_iter()
            .map(|o| match o {
                QueryOutcome::Answered(a) => (a.samples, a.estimate, a.half_width),
                other => panic!("expected an answer, got {other:?}"),
            })
            .collect()
    };
    let defaults = answers(serve_config(16));
    let bare = answers(ServeConfig {
        executor: ExecutorConfig {
            admission_step_budget: 0,
            max_attempts: 1,
            ..Default::default()
        },
        breaker_trip_after: 0,
        ..serve_config(16)
    });
    assert_eq!(
        defaults, bare,
        "with no faults armed, the resilience layer must be invisible"
    );
}

#[test]
fn truncated_ingest_lines_are_recorded_not_fatal() {
    let _guard = armed();
    // Lines 2 and 3 are shaped so cutting them in half lands before
    // the text separator: one loses its timestamp field, the other
    // keeps a half-digit timestamp that no longer parses.
    let tsv = "alice\t10\thello world\n\
               bob_the_builder\t11\tRT\n\
               carol\t1200\tz\n\
               dave\t13\tRT @bob hello world\n";
    // Chop lines 2 and 3 in half mid-record, as a crawl cut would.
    fault::arm(
        "twitter.truncate_line",
        FaultSpec {
            skip: 1,
            times: 2,
            value: 0.0,
        },
    );
    let report = read_tsv_lossy(tsv.as_bytes()).unwrap();
    assert_eq!(fault::fired_count("twitter.truncate_line"), 2);
    assert_eq!(report.good_lines, 2);
    assert_eq!(report.bad_lines, 2);
    assert_eq!(report.tweets.len(), 2);
    let lines: Vec<usize> = report
        .errors
        .iter()
        .map(|e| match e {
            FlowError::Parse { line, .. } => *line,
            other => panic!("expected Parse error, got {other:?}"),
        })
        .collect();
    assert_eq!(lines, vec![2, 3]);
}

// ------------------------------------------------------ streaming path
//
// The streaming layer's contract under faults: a corrupted wire line
// costs exactly that line (typed rejection + telemetry, the stream
// keeps flowing), a torn snapshot write is caught by the checksum on
// load with fallback to the newest intact epoch, and a log append torn
// before its sync costs only the epoch it was sealing.

#[test]
fn corrupted_stream_event_is_rejected_and_the_stream_flows_on() {
    let _guard = armed();
    let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
    let mut ing = Ingestor::with_graph(g, IngestConfig::default());
    let sink = Arc::new(MemorySink::new());

    fault::arm("stream.event_corrupt", FaultSpec::always(0.0));
    let err = {
        let _r = ScopedRecorder::install(sink.clone());
        ing.push_line(1, r#"{"cascade": 1, "node": 0, "t": 0}"#)
            .unwrap_err()
    };
    match err {
        FlowError::RejectedEvent { line, reason, .. } => {
            assert_eq!(line, 1);
            assert_eq!(reason, "malformed");
        }
        other => panic!("expected RejectedEvent, got {other:?}"),
    }
    assert_eq!(fault::fired_count("stream.event_corrupt"), 1);
    assert_eq!(ing.stats().rejected_malformed, 1);

    // The drop is announced on the obs bus with its line and reason.
    let rejects = sink.events_named("stream.reject");
    assert_eq!(rejects.len(), 1);
    assert!(rejects[0]
        .fields
        .iter()
        .any(|(k, v)| *k == "reason" && matches!(v, FieldValue::Str(s) if s == "malformed")));

    // Disarmed, the very same line is accepted: one torn read costs
    // one event, never the stream.
    fault::clear_all();
    assert!(matches!(
        ing.push_line(2, r#"{"cascade": 1, "node": 0, "t": 0}"#),
        Ok(Push::Accepted)
    ));
    assert_eq!(ing.stats().accepted, 1);
}

#[test]
fn torn_snapshot_write_fails_the_checksum_and_the_last_good_epoch_survives() {
    let _guard = armed();
    let dir = std::env::temp_dir().join(format!("flow-robust-snap-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut store = SnapshotStore::new(dir.clone());

    // Two sealed epochs' worth of evidence on a 3-node chain.
    let mut ing = Ingestor::with_graph(
        graph_from_edges(3, &[(0, 1), (1, 2)]),
        IngestConfig::default(),
    );
    ing.push_line(1, r#"{"cascade": 1, "node": 0, "t": 0}"#)
        .unwrap();
    ing.push_line(2, r#"{"cascade": 1, "node": 1, "t": 1, "parent": 0}"#)
        .unwrap();
    let delta1 = ing.seal_epoch();
    ing.push_line(3, r#"{"cascade": 2, "node": 1, "t": 0}"#)
        .unwrap();
    ing.push_line(4, r#"{"cascade": 2, "node": 2, "t": 2}"#)
        .unwrap();
    let delta2 = ing.seal_epoch();

    let mut model = StreamModel::new(
        graph_from_edges(3, &[(0, 1), (1, 2)]),
        TimingAssumption::AnyEarlier,
    );
    model.apply(&delta1).unwrap();
    let fp1 = model.state_fingerprint();
    let good = store.persist(&model).unwrap();

    // Epoch 2's write is torn mid-file: the rename still lands, but the
    // tail — checksum line included — is gone.
    model.apply(&delta2).unwrap();
    fault::arm("persist.torn_write", FaultSpec::always(0.0));
    let torn = store.persist(&model).unwrap();
    assert_eq!(fault::fired_count("persist.torn_write"), 1);
    fault::clear_all();

    let err = store.load(&torn).unwrap_err();
    assert!(matches!(err, FlowError::Checkpoint { .. }));

    // Recovery skips the torn epoch and lands on the newest intact one,
    // bit-for-bit the state that was sealed there.
    let (latest, recovered) = store.load_latest().unwrap().expect("epoch 1 must survive");
    assert_eq!(recovered.snapshot, good);
    assert_eq!(latest.epoch(), 1);
    assert_eq!(latest.state_fingerprint(), fp1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn append_torn_before_its_sync_costs_only_the_epoch_it_sealed() {
    let _guard = armed();
    let dir = std::env::temp_dir().join(format!("flow-robust-log-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let graph = graph_from_edges(3, &[(0, 1), (1, 2)]);
    let lines = [
        r#"{"cascade": 1, "node": 0, "t": 0}"#,
        r#"{"cascade": 1, "node": 1, "t": 1, "parent": 0}"#,
        r#"{"seal": true}"#,
        r#"{"cascade": 2, "node": 1, "t": 0}"#,
        r#"{"cascade": 2, "node": 2, "t": 2}"#,
        r#"{"seal": true}"#,
        r#"{"cascade": 3, "node": 0, "t": 0}"#,
        r#"{"cascade": 3, "node": 1, "t": 1, "parent": 0}"#,
        r#"{"cascade": 3, "node": 2, "t": 2, "parent": 1}"#,
        r#"{"seal": true}"#,
    ];
    // Feeds `lines` from just after `mark.line` into `registry`, sealing
    // at each marker; stops at the first seal that fails.
    let feed = |registry: &mut ModelRegistry, mark: IngestMark| -> Result<(), FlowError> {
        let mut ing = Ingestor::resume(graph.clone(), IngestConfig::default(), mark);
        for (i, line) in lines.iter().enumerate().skip(mark.line) {
            if let Ok(Push::Sealed(delta)) = ing.push_line(i + 1, line) {
                registry.seal_epoch(&delta)?;
            }
        }
        Ok(())
    };
    let fresh = || StreamModel::new(graph.clone(), TimingAssumption::AnyEarlier);

    // The uninterrupted stream: epoch 1 snapshots, epochs 2 and 3 log.
    let mut live = ModelRegistry::new(fresh(), None);
    feed(&mut live, IngestMark::default()).unwrap();
    assert_eq!(live.model().epoch(), 3);

    // The crashing one: epoch 1's snapshot lands, epoch 2's record is
    // torn before its sync and the seal fails.
    fault::arm("persist.torn_append", FaultSpec::always(0.0));
    let mut crashed = ModelRegistry::new(fresh(), Some(SnapshotStore::new(&dir)));
    let err = feed(&mut crashed, IngestMark::default()).unwrap_err();
    assert!(matches!(err, FlowError::Io { .. }), "{err}");
    assert_eq!(fault::fired_count("persist.torn_append"), 1);
    fault::clear_all();

    // Recovery keeps the snapshot, drops the torn record, and resumes
    // at epoch 1's mark; re-sealing from there ends on the live state.
    let (mut resumed, recovered) = ModelRegistry::recover(SnapshotStore::new(&dir))
        .unwrap()
        .expect("epoch 1's snapshot survives");
    assert_eq!(recovered.replayed, 0);
    assert_eq!(resumed.model().epoch(), 1);
    assert_eq!(resumed.model().mark().line, 3);
    let mark = resumed.model().mark();
    feed(&mut resumed, mark).unwrap();
    assert_eq!(
        resumed.model().state_fingerprint(),
        live.model().state_fingerprint()
    );
    assert_eq!(resumed.model().mark(), live.model().mark());
    std::fs::remove_dir_all(&dir).ok();
}

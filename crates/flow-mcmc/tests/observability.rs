//! Integration tests for the flow-obs instrumentation of the MCMC
//! runtime: watchdog telemetry must agree with the `PartialEstimate`
//! degradation report, spans must pair up, and instrumentation must
//! never perturb the chains' RNG streams.

use std::sync::Arc;

use flow_graph::graph::graph_from_edges;
use flow_graph::NodeId;
use flow_icm::Icm;
use flow_mcmc::budget::{DegradationReason, RunBudget};
use flow_mcmc::estimator::McmcConfig;
use flow_mcmc::parallel::multi_chain_flow_guarded;
use flow_mcmc::timed::{DelayModel, TimedFlowEstimator};
use flow_obs::{FieldValue, MemorySink, ScopedRecorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn diamond_icm() -> Icm {
    let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
    Icm::new(g, vec![0.7, 0.4, 0.5, 0.6])
}

/// An ICM whose every edge has probability zero: all proposal weights
/// vanish, the sampler's acceptance rate stays at exactly 0, and the
/// stall watchdog must fire deterministically.
fn frozen_icm() -> Icm {
    let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
    Icm::with_uniform_probability(g, 0.0)
}

/// The stalled-chain scenario: `watchdog.stall` events must carry the
/// same chain id as the `ChainStalled` entries in the degradation
/// report, and their `step` coordinate must equal the steps the chain
/// actually consumed (burn-in plus thinned sampling).
#[test]
fn stall_events_match_partial_estimate_report() {
    let icm = frozen_icm();
    let m = icm.edge_count();
    let config = McmcConfig {
        samples: 50,
        ..Default::default()
    };
    let sink = Arc::new(MemorySink::new());
    let est = {
        let _r = ScopedRecorder::install(sink.clone());
        multi_chain_flow_guarded(
            &icm,
            NodeId(0),
            NodeId(2),
            config,
            2,
            41,
            RunBudget::unlimited(),
            1,
            false,
        )
    };

    let stalled: Vec<(usize, f64)> = est
        .degradation
        .iter()
        .filter_map(|d| match d {
            DegradationReason::ChainStalled {
                chain,
                acceptance_rate,
            } => Some((*chain, *acceptance_rate)),
            _ => None,
        })
        .collect();
    assert_eq!(
        stalled.len(),
        2,
        "both frozen chains must be reported stalled: {:?}",
        est.degradation
    );

    let stall_events = sink.events_named("watchdog.stall");
    assert_eq!(stall_events.len(), 2, "one stall event per stalled chain");
    let expected_steps = (config.burn_in_steps(m) + config.samples * config.thin_steps(m)) as u64;
    for (chain, rate) in &stalled {
        let ev = stall_events
            .iter()
            .find(|e| e.chain == Some(*chain as u64))
            .unwrap_or_else(|| panic!("no watchdog.stall event for chain {chain}"));
        assert_eq!(ev.step, Some(expected_steps), "stall step coordinate");
        assert_eq!(
            ev.field("acceptance_rate").and_then(FieldValue::as_f64),
            Some(*rate),
            "event acceptance rate mirrors the degradation report"
        );
    }

    // The restart attempts that preceded the final stall are also on
    // the trace, with matching chain coordinates.
    let restarts = sink.events_named("watchdog.restart");
    assert_eq!(restarts.len(), 2, "each chain restarted once");
    for ev in &restarts {
        assert!(stalled.iter().any(|(c, _)| ev.chain == Some(*c as u64)));
    }
}

/// Budget exhaustion telemetry: the `budget.steps_exhausted` event's
/// coordinates and sample counts must mirror the `StepBudgetExhausted`
/// degradation entry.
#[test]
fn step_budget_event_matches_degradation_entry() {
    let icm = diamond_icm();
    let m = icm.edge_count();
    let config = McmcConfig {
        samples: 10_000,
        ..Default::default()
    };
    let per_chain = (config.burn_in_steps(m) + 100 * config.thin_steps(m)) as u64;
    let sink = Arc::new(MemorySink::new());
    let est = {
        let _r = ScopedRecorder::install(sink.clone());
        multi_chain_flow_guarded(
            &icm,
            NodeId(0),
            NodeId(3),
            config,
            1,
            19,
            RunBudget::unlimited().with_max_steps(per_chain),
            0,
            false,
        )
    };
    let reported: Vec<usize> = est
        .degradation
        .iter()
        .filter_map(|d| match d {
            DegradationReason::StepBudgetExhausted {
                chain,
                samples_collected,
                ..
            } => {
                assert_eq!(*chain, 0);
                Some(*samples_collected)
            }
            _ => None,
        })
        .collect();
    assert_eq!(reported.len(), 1, "degradation: {:?}", est.degradation);

    let events = sink.events_named("budget.steps_exhausted");
    assert_eq!(events.len(), 1);
    let ev = &events[0];
    assert_eq!(ev.chain, Some(0));
    assert_eq!(
        ev.field("samples_collected").and_then(FieldValue::as_u64),
        Some(reported[0] as u64)
    );
    // The step coordinate never exceeds the budget it respected.
    assert!(ev.step.is_some_and(|s| s <= per_chain));
}

/// Every span the runtime opens must close: `span.enter` and
/// `span.exit` events pair up one-to-one, and the timed estimator's
/// phases land in the timing registry.
#[test]
fn timed_estimator_spans_pair_and_register() {
    let icm = diamond_icm();
    let sink = Arc::new(MemorySink::new());
    {
        let _r = ScopedRecorder::install(sink.clone());
        let est = TimedFlowEstimator::with_uniform_delay(
            &icm,
            DelayModel::Fixed(1.0),
            McmcConfig {
                samples: 100,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(5);
        let at = est.arrival_times(NodeId(0), NodeId(3), &mut rng);
        assert_eq!(at.samples.len(), 100);
    }
    let enters = sink.events_named("span.enter");
    let exits = sink.events_named("span.exit");
    assert_eq!(enters.len(), exits.len(), "every span closes");
    let mut enter_names: Vec<String> = enters
        .iter()
        .filter_map(|e| e.field("span").and_then(FieldValue::as_str))
        .map(str::to_owned)
        .collect();
    let mut exit_names: Vec<String> = exits
        .iter()
        .filter_map(|e| e.field("span").and_then(FieldValue::as_str))
        .map(str::to_owned)
        .collect();
    enter_names.sort();
    exit_names.sort();
    assert_eq!(enter_names, exit_names);
    assert!(enter_names.iter().any(|n| n == "timed.burn_in"));
    assert!(enter_names.iter().any(|n| n == "timed.sampling"));
    let snapshot = sink.snapshot();
    for phase in ["timed.burn_in", "timed.sampling"] {
        let stat = snapshot
            .quantiles
            .get(phase)
            .unwrap_or_else(|| panic!("no timing for {phase}"));
        assert_eq!(stat.count, 1, "{phase} ran once");
    }
    // The arrivals summary event carries the sample accounting.
    let arrivals = sink.events_named("timed.arrivals");
    assert_eq!(arrivals.len(), 1);
    assert_eq!(
        arrivals[0].field("samples").and_then(FieldValue::as_u64),
        Some(100)
    );
}

/// A healthy guarded run must leave a merge event whose value equals
/// the estimate, and per-chain lifecycle events for every chain.
#[test]
fn merge_event_mirrors_estimate() {
    let icm = diamond_icm();
    let sink = Arc::new(MemorySink::new());
    let est = {
        let _r = ScopedRecorder::install(sink.clone());
        multi_chain_flow_guarded(
            &icm,
            NodeId(0),
            NodeId(3),
            McmcConfig {
                samples: 300,
                ..Default::default()
            },
            3,
            7,
            RunBudget::unlimited(),
            1,
            false,
        )
    };
    assert!(est.is_clean(), "degradation: {:?}", est.degradation);
    let merges = sink.events_named("estimate.merge");
    assert_eq!(merges.len(), 1);
    assert_eq!(
        merges[0].field("value").and_then(FieldValue::as_f64),
        Some(est.value)
    );
    assert_eq!(
        merges[0]
            .field("chains_included")
            .and_then(FieldValue::as_u64),
        Some(3)
    );
    assert_eq!(sink.events_named("chain.start").len(), 3);
    assert_eq!(sink.events_named("chain.finish").len(), 3);
    let snapshots = sink.events_named("chain.snapshot");
    assert_eq!(snapshots.len(), 3);
    for s in &snapshots {
        assert_eq!(
            s.field("samples").and_then(FieldValue::as_u64),
            Some(300),
            "snapshot sample count"
        );
        assert!(s
            .field("ess")
            .and_then(FieldValue::as_f64)
            .is_some_and(|e| e >= 0.0));
    }
    // Sampler counters flowed into the registry.
    assert!(sink.counter_value("sampler.steps") > 0);
    assert!(sink.counter_value("sampler.accepts") > 0);
}

/// Installing a recorder must not change what the chains compute: the
/// instrumentation never draws from the chain RNG streams.
#[test]
fn instrumented_run_matches_uninstrumented() {
    let icm = diamond_icm();
    let config = McmcConfig {
        samples: 500,
        ..Default::default()
    };
    let run = |record: bool| -> f64 {
        let sink = Arc::new(MemorySink::new());
        let _r = record.then(|| ScopedRecorder::install(sink));
        multi_chain_flow_guarded(
            &icm,
            NodeId(0),
            NodeId(3),
            config,
            2,
            13,
            RunBudget::unlimited(),
            1,
            false,
        )
        .value
    };
    let plain = run(false);
    let recorded = run(true);
    assert_eq!(plain, recorded, "telemetry must not consume RNG draws");
}

/// Two aggregators fed the identical event stream must render
/// byte-identical snapshots — the quantile sketch and windowed
/// counters are pure functions of the stream, with no clocks or
/// iteration-order dependence.
#[test]
fn stats_snapshot_is_deterministic_for_identical_streams() {
    let run = || {
        let agg = Arc::new(flow_obs::StatsAggregator::new());
        {
            let _r = ScopedRecorder::install(agg.clone());
            for i in 0..200u64 {
                flow_obs::counter("serve.cache.hit", i % 2);
                flow_obs::counter("serve.cache.miss", (i + 1) % 2);
                flow_obs::event(|| {
                    flow_obs::Event::new("serve.query.resolved")
                        .trace(0xDEAD_BEEF_CAFE_0000 + i)
                        .u64("query", i)
                });
            }
            // Timings land in the quantile sketch; feed a fixed ramp.
            let sink = flow_obs::current_recorder().expect("recorder installed");
            for i in 1..=100u64 {
                sink.timing("serve.plan", i * 1_000);
            }
        }
        agg.roll_windows();
        agg.snapshot()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.render_json(), b.render_json());
    assert_eq!(a.render_text(), b.render_text());
    assert_eq!(a.serve.cache_hits, 100);
    assert_eq!(a.serve.cache_hit_ratio, 0.5);
    // The sketch's p50 of the 1k..100k ns ramp sits near 50k within
    // the DDSketch ±5% relative-error bound.
    let p50 = a.quantiles["serve.plan"].p50;
    assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.06, "p50 = {p50}");
}

/// Window rollover: counts recorded after a roll land in a fresh
/// window; closed windows retain per-batch subtotals oldest-first and
/// the all-time total is unaffected by rolling.
#[test]
fn windowed_counters_roll_at_batch_boundaries() {
    let agg = Arc::new(flow_obs::StatsAggregator::new());
    {
        let _r = ScopedRecorder::install(agg.clone());
        flow_obs::counter("serve.shed", 3);
        agg.roll_windows();
        flow_obs::counter("serve.shed", 5);
        agg.roll_windows();
        flow_obs::counter("serve.shed", 7);
    }
    let snap = agg.snapshot();
    let c = &snap.counters["serve.shed"];
    assert_eq!(c.total, 15);
    assert_eq!(c.open_window, 7);
    assert_eq!(c.closed_windows, vec![3, 5]);
    assert_eq!(snap.windows_rolled, 2);
    assert_eq!(snap.serve.shed, 15);
}

/// Running the estimator under an ambient TraceContext (as the serve
/// executor does per plan) must not change what the chains compute:
/// trace stamping touches telemetry metadata only, never the RNG
/// streams. Estimates must match bit-for-bit with traces on, off, and
/// absent entirely.
#[test]
fn trace_context_is_rng_neutral() {
    let icm = diamond_icm();
    let config = McmcConfig {
        samples: 400,
        ..Default::default()
    };
    let run = |record: bool, trace: Option<u64>| -> f64 {
        let sink = Arc::new(flow_obs::JsonlSink::new());
        let _r = record.then(|| ScopedRecorder::install(sink));
        let _t = trace.map(flow_obs::TraceContext::enter);
        multi_chain_flow_guarded(
            &icm,
            NodeId(0),
            NodeId(3),
            config,
            2,
            13,
            RunBudget::unlimited(),
            1,
            false,
        )
        .value
    };
    let untraced = run(true, None);
    let traced = run(true, Some(0x7_1ace_1d00));
    let bare = run(false, None);
    assert_eq!(untraced, traced, "trace ids must not consume RNG draws");
    assert_eq!(bare, traced, "tracing on/off must be bit-equal");
}

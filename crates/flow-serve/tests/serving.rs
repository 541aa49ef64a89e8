//! End-to-end serving contracts: determinism with and without the
//! cache, zero-cost warm hits, shared-chain agreement, typed rejection
//! of contradictory conditions, degradation reporting, backpressure,
//! and cache persistence across engine instances.

use flow_core::FlowError;
use flow_graph::graph::graph_from_edges;
use flow_graph::NodeId;
use flow_icm::exact::enumerate_flow_probability;
use flow_icm::synth::{skewed_probability_mixture, synthetic_icm};
use flow_icm::{FlowCondition, Icm};
use flow_mcmc::{
    shared_chain_flows, DegradationReason, FlowEstimator, McmcConfig, SharedChainRequest,
    SharedTarget,
};
use flow_obs::{MemorySink, ScopedRecorder};
use flow_serve::exec::MAX_QUEUED_PLANS;
use flow_serve::{
    Answer, ConfigClass, ExecutorConfig, FlowQuery, QueryOutcome, ServeCache, ServeConfig,
    ServeEngine, Served,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn small_icm() -> Icm {
    let g = graph_from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5), (5, 4)]);
    Icm::new(g, vec![0.7, 0.4, 0.5, 0.6, 0.3, 0.8, 0.5])
}

fn synth_icm(seed: u64) -> Icm {
    let mut rng = StdRng::seed_from_u64(seed);
    synthetic_icm(&mut rng, 40, 120, skewed_probability_mixture())
}

fn config(seed: u64) -> ServeConfig {
    ServeConfig {
        mcmc: McmcConfig {
            samples: 2_000,
            ..Default::default()
        },
        default_tolerance: 0.05,
        engine_seed: seed,
        ..Default::default()
    }
}

fn answer(outcome: &QueryOutcome) -> &Answer {
    match outcome {
        QueryOutcome::Answered(a) => a,
        other => panic!("expected an answer, got {other:?}"),
    }
}

/// Builder-based construction used across these tests; invalid configs
/// are impossible here, so the expect documents the contract.
fn build_engine(config: ServeConfig) -> ServeEngine {
    ServeEngine::builder()
        .config(config)
        .build()
        .expect("valid engine config")
}

#[test]
fn same_seed_same_query_is_bit_equal_with_cache_on_and_off() {
    let icm = small_icm();
    let queries = vec![
        FlowQuery::flow(NodeId(0), NodeId(4)),
        FlowQuery::flow(NodeId(0), NodeId(3)),
        FlowQuery::flow(NodeId(2), NodeId(4)),
    ];

    let mut cached = build_engine(config(11));
    let mut uncached = build_engine(ServeConfig {
        cache_bytes: 0,
        ..config(11)
    });

    let with_cache = cached.execute_batch(&icm, &queries);
    let without_cache = uncached.execute_batch(&icm, &queries);
    for (a, b) in with_cache.iter().zip(&without_cache) {
        let (a, b) = (answer(a), answer(b));
        assert_eq!(
            a.estimate.to_bits(),
            b.estimate.to_bits(),
            "cache must not perturb the trajectory"
        );
        assert_eq!(a.samples, b.samples);
    }

    // Re-running the cached engine serves hits with the identical bits.
    let again = cached.execute_batch(&icm, &queries);
    for (first, hit) in with_cache.iter().zip(&again) {
        let (first, hit) = (answer(first), answer(hit));
        assert_eq!(hit.served, Served::CacheHit);
        assert_eq!(first.estimate.to_bits(), hit.estimate.to_bits());
    }
}

#[test]
fn solo_and_batched_queries_get_identical_answers() {
    let icm = small_icm();
    let shared_query = FlowQuery::flow(NodeId(0), NodeId(4));

    let mut solo = build_engine(ServeConfig {
        cache_bytes: 0,
        ..config(23)
    });
    let solo_answer = solo.execute_batch(&icm, std::slice::from_ref(&shared_query));

    let mut batched = build_engine(ServeConfig {
        cache_bytes: 0,
        ..config(23)
    });
    let batch = vec![
        FlowQuery::flow(NodeId(1), NodeId(3)),
        shared_query.clone(),
        FlowQuery::flow(NodeId(0), NodeId(3)), // shares source 0's chain
        FlowQuery::flow(NodeId(2), NodeId(5)),
    ];
    let batched_answers = batched.execute_batch(&icm, &batch);

    assert_eq!(
        answer(&solo_answer[0]).estimate.to_bits(),
        answer(&batched_answers[1]).estimate.to_bits(),
        "an answer must not depend on what else is in the batch"
    );
}

#[test]
fn warm_cache_hit_spends_zero_sampler_steps() {
    let icm = small_icm();
    let queries = vec![
        FlowQuery::flow(NodeId(0), NodeId(4)),
        FlowQuery {
            target: SharedTarget::Community(vec![NodeId(3), NodeId(4)]),
            ..FlowQuery::flow(NodeId(0), NodeId(4))
        },
    ];
    let sink = Arc::new(MemorySink::new());
    let mut engine = build_engine(config(3));
    {
        let _r = ScopedRecorder::install(sink.clone());
        engine.execute_batch(&icm, &queries);
    }
    let steps_after_cold = sink.counter_value("sampler.steps");
    assert!(steps_after_cold > 0, "cold batch must sample");

    let outcomes = {
        let _r = ScopedRecorder::install(sink.clone());
        engine.execute_batch(&icm, &queries)
    };
    for o in &outcomes {
        assert_eq!(answer(o).served, Served::CacheHit);
    }
    assert_eq!(
        sink.counter_value("sampler.steps"),
        steps_after_cold,
        "a warm hit must not run the sampler at all"
    );
    assert_eq!(engine.stats().cache_hits, 2);
}

#[test]
fn shared_chain_batch_agrees_with_independent_estimates() {
    let icm = synth_icm(7);
    let sinks = [NodeId(5), NodeId(11), NodeId(17), NodeId(23)];
    let source = NodeId(1);

    let mcmc = McmcConfig {
        samples: 12_000,
        ..Default::default()
    };
    let mut engine = build_engine(ServeConfig {
        mcmc,
        cache_bytes: 0,
        default_tolerance: 0.5,
        engine_seed: 99,
        ..Default::default()
    });
    let queries: Vec<FlowQuery> = sinks.iter().map(|&s| FlowQuery::flow(source, s)).collect();
    let outcomes = engine.execute_batch(&icm, &queries);
    assert_eq!(
        engine.stats().plans,
        1,
        "same-source queries must share one chain"
    );

    let estimator = FlowEstimator::new(&icm, mcmc);
    for (query, outcome) in queries.iter().zip(&outcomes) {
        let got = answer(outcome);
        let mut rng = StdRng::seed_from_u64(1234);
        let SharedTarget::Sink(sink) = query.target else {
            unreachable!()
        };
        let independent = estimator.estimate_flow(source, sink, &mut rng);
        assert!(
            (got.estimate - independent).abs() < 0.04,
            "shared-chain {} vs independent {} for sink {sink:?}",
            got.estimate,
            independent
        );
    }
}

#[test]
fn contradictory_conditions_fail_typed_without_sampling() {
    let icm = small_icm();
    // The same flow required and forbidden, and a forbidden self-flow
    // (a node always reaches itself).
    for conditions in [
        vec![
            FlowCondition::requires(NodeId(0), NodeId(3)),
            FlowCondition::forbids(NodeId(0), NodeId(3)),
        ],
        vec![FlowCondition::forbids(NodeId(3), NodeId(3))],
    ] {
        let query = FlowQuery {
            conditions,
            ..FlowQuery::flow(NodeId(0), NodeId(4))
        };
        let sink = Arc::new(MemorySink::new());
        let mut engine = build_engine(config(1));
        let outcomes = {
            let _r = ScopedRecorder::install(sink.clone());
            engine.execute_batch(&icm, std::slice::from_ref(&query))
        };
        match &outcomes[0] {
            QueryOutcome::Failed(FlowError::GraphInconsistency { detail }) => {
                assert!(
                    detail.contains("contradictory"),
                    "unexpected error {detail}"
                );
            }
            other => panic!("contradiction must fail, got {other:?}"),
        }
        assert_eq!(
            sink.counter_value("sampler.steps"),
            0,
            "a rejected query must not spend sampling work"
        );
        assert_eq!(sink.events_named("serve.query.rejected").len(), 1);
        assert_eq!(engine.stats().failed, 1);
    }
}

#[test]
fn required_self_flow_serves_the_unconditioned_answer() {
    let icm = small_icm();
    let plain = FlowQuery::flow(NodeId(0), NodeId(4));
    let vacuous = FlowQuery {
        conditions: vec![FlowCondition::requires(NodeId(0), NodeId(0))],
        ..plain.clone()
    };
    let mut engine = build_engine(config(3));
    let outcomes = engine.execute_batch(&icm, &[plain, vacuous]);
    let (a, b) = (answer(&outcomes[0]), answer(&outcomes[1]));
    assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
    assert_eq!(a.half_width.to_bits(), b.half_width.to_bits());
    assert_eq!(a.samples, b.samples);
    // One key, one exact-draw chain: every step is a retained sample.
    let steps = engine.stats().steps;
    assert_eq!(steps, a.samples, "{steps} steps for {} samples", a.samples);
}

#[test]
fn step_budget_exhaustion_degrades_instead_of_failing() {
    let icm = small_icm();
    let query = FlowQuery {
        max_steps: Some(700),
        ..FlowQuery::flow(NodeId(0), NodeId(4))
    };
    let mut engine = build_engine(config(5));
    let outcomes = engine.execute_batch(&icm, std::slice::from_ref(&query));
    let got = answer(&outcomes[0]);
    assert!(
        got.degradation
            .iter()
            .any(|d| matches!(d, DegradationReason::StepBudgetExhausted { .. })),
        "expected a step-budget degradation, got {:?}",
        got.degradation
    );
    assert!(
        (got.samples as usize) < engine.config().mcmc.samples,
        "budget must cut the sample count"
    );
    assert_eq!(engine.stats().degraded, 1);
}

#[test]
fn queue_overflow_is_explicit_backpressure() {
    // A path graph with one source per plan: two plans more than the
    // submission queue holds.
    let n = MAX_QUEUED_PLANS as u32 + 3;
    let edges: Vec<(u32, u32)> = (0..n - 1).map(|v| (v, v + 1)).collect();
    let icm = Icm::new(graph_from_edges(n as usize, &edges), vec![0.5; edges.len()]);
    let queries: Vec<FlowQuery> = (0..n - 1)
        .map(|s| FlowQuery::flow(NodeId(s), NodeId(n - 1)))
        .collect();
    let mut engine = build_engine(ServeConfig {
        mcmc: McmcConfig {
            samples: 100,
            ..Default::default()
        },
        default_tolerance: 0.5,
        executor: ExecutorConfig {
            workers: 2,
            ..Default::default()
        },
        cache_bytes: 0,
        ..config(2)
    });
    let outcomes = engine.execute_batch(&icm, &queries);
    let (admitted, overflow) = outcomes.split_at(MAX_QUEUED_PLANS);
    assert!(admitted
        .iter()
        .all(|o| matches!(o, QueryOutcome::Answered(_))));
    assert_eq!(overflow.len(), 2);
    for o in overflow {
        assert!(matches!(
            o,
            QueryOutcome::Rejected {
                error: FlowError::Overloaded { .. }
            }
        ));
    }
    assert_eq!(engine.stats().rejected, 2);
}

#[test]
fn warm_refinement_pools_cached_and_fresh_samples() {
    let icm = small_icm();
    let loose = FlowQuery {
        tolerance: Some(0.2),
        ..FlowQuery::flow(NodeId(0), NodeId(4))
    };
    let tight = FlowQuery {
        tolerance: Some(0.02),
        ..FlowQuery::flow(NodeId(0), NodeId(4))
    };
    let mut engine = build_engine(ServeConfig {
        mcmc: McmcConfig {
            samples: 300,
            ..Default::default()
        },
        ..config(17)
    });
    let first = engine.execute_batch(&icm, std::slice::from_ref(&loose));
    let first = answer(&first[0]).clone();
    assert_eq!(first.served, Served::Fresh);

    let second = engine.execute_batch(&icm, std::slice::from_ref(&tight));
    let second = answer(&second[0]).clone();
    assert_eq!(
        second.served,
        Served::WarmRefinement,
        "a tighter re-ask must continue the cached chain"
    );
    assert!(
        second.samples > first.samples,
        "pooled samples {} must exceed the cold run's {}",
        second.samples,
        first.samples
    );
    assert!(second.half_width < first.half_width);
    assert_eq!(engine.stats().refined, 1);
}

#[test]
fn cache_persists_across_engine_instances() {
    let icm = small_icm();
    let dir = std::env::temp_dir().join(format!("flow-serve-persist-{}", std::process::id()));
    let queries = vec![
        FlowQuery::flow(NodeId(0), NodeId(4)),
        FlowQuery::flow(NodeId(1), NodeId(3)),
        FlowQuery {
            conditions: vec![FlowCondition::requires(NodeId(0), NodeId(1))],
            ..FlowQuery::flow(NodeId(0), NodeId(3))
        },
    ];

    let mut first = build_engine(config(41));
    let cold = first.execute_batch(&icm, &queries);
    first.cache().save_to_dir(&dir).unwrap();
    // Exact-draw entries persist their class tag next to the MH one.
    let text = std::fs::read_to_string(dir.join("cache.flowserve")).unwrap();
    assert_eq!(text.matches(" prop=2 ").count(), 2);
    assert_eq!(text.matches("proposal=independent\n").count(), 2);
    assert_eq!(text.matches(" prop=0 ").count(), 1);

    let loaded = ServeCache::load_from_dir(&dir, 8 << 20).unwrap();
    assert_eq!(loaded.len(), 3);
    let mut second = ServeEngine::builder()
        .config(config(41))
        .cache(loaded)
        .build()
        .expect("valid engine config");
    let warm = second.execute_batch(&icm, &queries);
    for (a, b) in cold.iter().zip(&warm) {
        let (a, b) = (answer(a), answer(b));
        assert_eq!(b.served, Served::CacheHit);
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
    }
    assert_eq!(second.stats().cache_hits, 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retrained_model_invalidates_cached_answers() {
    let icm = small_icm();
    let query = FlowQuery::flow(NodeId(0), NodeId(4));
    let mut engine = build_engine(config(13));
    engine.execute_batch(&icm, std::slice::from_ref(&query));

    // Same structure, one nudged probability: a different fingerprint.
    let g = graph_from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5), (5, 4)]);
    let retrained = Icm::new(g, vec![0.7, 0.4, 0.5, 0.6, 0.3, 0.8, 0.51]);
    let outcomes = engine.execute_batch(&retrained, std::slice::from_ref(&query));
    assert_eq!(
        answer(&outcomes[0]).served,
        Served::Fresh,
        "a retrain must never serve the old model's cached answer"
    );
}

#[test]
fn exact_draws_continued_warm_equal_one_longer_cold_run() {
    let icm = synth_icm(7);
    let targets = [
        SharedTarget::Sink(NodeId(5)),
        SharedTarget::Community(vec![NodeId(3), NodeId(9), NodeId(21)]),
    ];
    let run = |samples: usize, warm| {
        shared_chain_flows(
            &icm,
            &ConfigClass::EXACT.to_config(samples),
            &SharedChainRequest {
                source: NodeId(0),
                targets: &targets,
                conditions: &[],
                seed: 99,
                warm,
                samples,
                max_steps: None,
                deadline: None,
            },
        )
        .expect("exact draws need no condition search")
    };
    let (n, k) = (300, 200);
    let cold = run(n, None);
    let warm = run(k, Some(&cold.checkpoint));
    let long = run(n + k, None);
    for ((c, w), l) in cold.counts.iter().zip(&warm.counts).zip(&long.counts) {
        assert_eq!(c.merge(w), *l);
    }
    assert_eq!(warm.checkpoint, long.checkpoint);
    // One step per retained sample, no burn-in, every step accepted.
    assert_eq!((cold.steps, warm.steps, long.steps), (300, 200, 500));
    assert_eq!(long.checkpoint.accepted, 500);
}

#[test]
fn exact_warm_refinement_matches_a_cold_tight_answer_bit_for_bit() {
    let icm = synth_icm(8);
    let query = |tolerance| FlowQuery {
        tolerance: Some(tolerance),
        ..FlowQuery::flow(NodeId(0), NodeId(5))
    };
    let cfg = ServeConfig {
        mcmc: McmcConfig {
            samples: 16,
            ..Default::default()
        },
        ..config(23)
    };
    let mut warm = build_engine(cfg);
    warm.execute_batch(&icm, &[query(0.1)]);
    let refined = warm.execute_batch(&icm, &[query(0.03)]);
    let refined = answer(&refined[0]);
    assert_eq!(refined.served, Served::WarmRefinement);
    let cold = build_engine(cfg).execute_batch(&icm, &[query(0.03)]);
    let cold = answer(&cold[0]);
    assert_eq!(cold.served, Served::Fresh);
    assert_eq!(refined.samples, cold.samples);
    assert_eq!(refined.estimate.to_bits(), cold.estimate.to_bits());
    assert_eq!(warm.stats().steps, cold.samples);
}

/// A random 6-node, 12-edge model: small enough to enumerate exactly.
fn enumerable_icm(seed: u64) -> Icm {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = flow_graph::generate::uniform_edges(&mut rng, 6, 12);
    let probs = (0..g.edge_count())
        .map(|_| rng.random_range(0.05..0.95))
        .collect();
    Icm::new(g, probs)
}

#[test]
fn unconditioned_intervals_cover_exact_flows() {
    let (mut covered, mut total) = (0usize, 0usize);
    for seed in 0..32u64 {
        let icm = enumerable_icm(1_000 + seed);
        let mut engine = build_engine(config(seed));
        let queries: Vec<FlowQuery> = (1..6)
            .map(|t| FlowQuery::flow(NodeId(0), NodeId(t)))
            .collect();
        let outcomes = engine.execute_batch(&icm, &queries);
        for (q, outcome) in queries.iter().zip(&outcomes) {
            let a = answer(outcome);
            assert_eq!(a.served, Served::Fresh);
            let SharedTarget::Sink(sink) = q.target else {
                unreachable!("sink queries only")
            };
            let exact = enumerate_flow_probability(&icm, q.source, sink);
            total += 1;
            if (a.estimate - exact).abs() <= a.half_width {
                covered += 1;
            }
        }
        // The five same-source queries share one plan of exact draws:
        // one step per retained sample, no burn-in.
        assert_eq!(engine.stats().plans, 1);
        assert_eq!(engine.stats().steps, answer(&outcomes[0]).samples);
    }
    let coverage = covered as f64 / total as f64;
    assert!(
        coverage >= 0.9,
        "95% intervals covered {covered}/{total} exact flows"
    );
}

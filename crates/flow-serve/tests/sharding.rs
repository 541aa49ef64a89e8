//! Sharded-serving contracts: `--shards 1` byte-identity, tolerance
//! agreement between routed and global answers, batch-order-independent
//! cross-shard merges, one condition policy whatever the shard count
//! (typed rejection of required conditions outside the reachable
//! subgraph, forbidden ones dropped), empty-shard tolerance, builder
//! validation,
//! byte-identical traces with concurrently served shard units, and the
//! deprecated-constructor shims.

use flow_core::FlowError;
use flow_graph::graph::graph_from_edges;
use flow_graph::{partition_edges, NodeId};
use flow_icm::{FlowCondition, Icm};
use flow_mcmc::McmcConfig;
use flow_obs::{JsonlSink, ScopedRecorder};
use flow_serve::{route_query, FlowQuery, QueryOutcome, Route, ServeConfig, ServeEngine};

/// Three disjoint communities: two diamonds (0–3, 4–7) and a path
/// (8–10). Every community is a weak component, so `partition_edges`
/// keeps each whole on one shard when `shards <= 3`.
fn three_communities() -> Icm {
    let g = graph_from_edges(
        11,
        &[
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (4, 5),
            (4, 6),
            (5, 7),
            (6, 7),
            (8, 9),
            (9, 10),
        ],
    );
    Icm::new(g, vec![0.7, 0.4, 0.5, 0.6, 0.3, 0.8, 0.5, 0.6, 0.9, 0.7])
}

fn config(seed: u64, shards: u32) -> ServeConfig {
    ServeConfig {
        mcmc: McmcConfig {
            samples: 1_500,
            ..Default::default()
        },
        default_tolerance: 1.0,
        engine_seed: seed,
        shards,
        ..Default::default()
    }
}

fn build(seed: u64, shards: u32) -> ServeEngine {
    ServeEngine::builder()
        .config(config(seed, shards))
        .build()
        .expect("valid engine config")
}

fn answer(outcome: &QueryOutcome) -> &flow_serve::Answer {
    match outcome {
        QueryOutcome::Answered(a) => a,
        other => panic!("expected an answer, got {other:?}"),
    }
}

#[test]
fn shards_one_is_byte_identical_to_unsharded() {
    let icm = three_communities();
    let queries = vec![
        FlowQuery::flow(NodeId(0), NodeId(3)),
        FlowQuery::flow(NodeId(4), NodeId(7)),
        FlowQuery::flow(NodeId(8), NodeId(10)),
    ];
    let mut unsharded = build(17, 1);
    let mut one = ServeEngine::builder()
        .config(config(17, 1))
        .build()
        .expect("valid engine config");
    let a = unsharded.execute_batch(&icm, &queries);
    let b = one.execute_batch(&icm, &queries);
    for (x, y) in a.iter().zip(&b) {
        let (x, y) = (answer(x), answer(y));
        assert_eq!(
            x.estimate.to_bits(),
            y.estimate.to_bits(),
            "--shards 1 must be byte-identical to unsharded serving"
        );
        assert_eq!(x.samples, y.samples);
        assert_eq!(x.served, y.served);
    }
    assert!(
        one.shard_stats().is_empty(),
        "K = 1 never materializes shards"
    );
}

#[test]
fn routed_answers_agree_and_global_fallback_is_bit_identical() {
    let icm = three_communities();
    let queries = vec![
        FlowQuery::flow(NodeId(0), NodeId(3)),
        FlowQuery::flow(NodeId(4), NodeId(7)),
        FlowQuery::flow(NodeId(8), NodeId(10)),
        // 0 cannot reach 7: no relevant edges, global fallback.
        FlowQuery::flow(NodeId(0), NodeId(7)),
    ];
    let mut unsharded = build(29, 1);
    let mut sharded = build(29, 3);
    let u = unsharded.execute_batch(&icm, &queries);
    let s = sharded.execute_batch(&icm, &queries);

    for (q, (x, y)) in queries.iter().zip(u.iter().zip(&s)).take(3) {
        let (x, y) = (answer(x), answer(y));
        // Routed chains run over the shard's sub-multinomial with a
        // different chain key: independent draws of the same
        // distribution, so they agree within joint tolerance.
        let slack = (x.half_width + y.half_width).max(0.05);
        assert!(
            (x.estimate - y.estimate).abs() <= slack,
            "{q:?}: unsharded {} vs sharded {} beyond {slack}",
            x.estimate,
            y.estimate
        );
    }
    // The fallback query never left the global engine, whose canonical
    // keys carry shard slot 0: bit-identical by construction.
    let (x, y) = (answer(&u[3]), answer(&s[3]));
    assert_eq!(x.estimate.to_bits(), y.estimate.to_bits());
    assert_eq!(x.samples, y.samples);

    // All three community queries actually took the sharded path.
    let routed: u64 = sharded.shard_stats().iter().map(|st| st.queries).sum();
    assert_eq!(routed, 3, "{:?}", sharded.shard_stats());
    assert_eq!(sharded.stats().queries, 4);
    assert_eq!(sharded.stats().answered, 4);
}

#[test]
fn concurrent_shard_units_keep_traces_byte_identical() {
    let icm = three_communities();
    let mut contradictory = FlowQuery::flow(NodeId(4), NodeId(7));
    contradictory.conditions = vec![
        FlowCondition::requires(NodeId(4), NodeId(5)),
        FlowCondition::forbids(NodeId(4), NodeId(5)),
    ];
    let mut conditioned = FlowQuery::flow(NodeId(8), NodeId(10));
    conditioned.conditions = vec![FlowCondition::requires(NodeId(8), NodeId(9))];
    let queries = vec![
        FlowQuery::flow(NodeId(0), NodeId(3)),
        // Contradictions are rejected while routing, beside the units.
        FlowQuery {
            conditions: contradictory.conditions.clone(),
            ..FlowQuery::flow(NodeId(0), NodeId(3))
        },
        contradictory,
        FlowQuery::flow(NodeId(4), NodeId(7)),
        conditioned,
        // Global fallback, served beside the units.
        FlowQuery::flow(NodeId(0), NodeId(7)),
    ];
    let traced = || {
        let sink = std::sync::Arc::new(JsonlSink::new());
        let mut engine = build(41, 3);
        let outcomes = {
            let _r = ScopedRecorder::install(sink.clone());
            engine.execute_batch(&icm, &queries);
            engine.execute_batch(&icm, &queries)
        };
        assert_eq!(engine.stats().queries, 2 * queries.len() as u64);
        let failed = outcomes
            .iter()
            .filter(|o| matches!(o, QueryOutcome::Failed(_)))
            .count();
        assert_eq!(failed, 2);
        sink.render()
    };
    let first = traced();
    assert!(first.contains("serve.batch.sharded"));
    for _ in 0..4 {
        assert_eq!(
            traced(),
            first,
            "sharded trace must not depend on thread timing"
        );
    }
}

#[test]
fn cross_shard_merge_is_batch_order_independent() {
    let icm = three_communities();
    let partition = partition_edges(icm.graph(), 3);
    // A C0 flow question conditioned on a C2 flow: two shards merge.
    let mut q = FlowQuery::flow(NodeId(0), NodeId(3));
    q.conditions = vec![FlowCondition::requires(NodeId(8), NodeId(10))];
    match route_query(&icm, &partition, &q) {
        Route::Shards(s) => assert_eq!(s.len(), 2, "{s:?}"),
        other => panic!("expected a two-shard route, got {other:?}"),
    }
    let filler_a = FlowQuery::flow(NodeId(4), NodeId(7));
    let filler_b = FlowQuery::flow(NodeId(8), NodeId(10));

    let mut solo = build(31, 3);
    let solo_bits = answer(&solo.execute_batch(&icm, std::slice::from_ref(&q))[0])
        .estimate
        .to_bits();

    let mut first = build(31, 3);
    let first_bits =
        answer(&first.execute_batch(&icm, &[q.clone(), filler_a.clone(), filler_b.clone()])[0])
            .estimate
            .to_bits();

    let mut last = build(31, 3);
    let last_bits = answer(&last.execute_batch(&icm, &[filler_b, filler_a, q])[2])
        .estimate
        .to_bits();

    assert_eq!(
        solo_bits, first_bits,
        "merged-unit answers must not depend on batch composition"
    );
    assert_eq!(solo_bits, last_bits, "nor on batch order");
}

#[test]
fn condition_outside_reachable_subgraph_is_a_typed_failure() {
    let icm = three_communities();
    let mut q = FlowQuery::flow(NodeId(0), NodeId(3));
    // 4 ~> 0 has no directed path anywhere in the graph.
    q.conditions = vec![FlowCondition::requires(NodeId(4), NodeId(0))];
    let mut sharded = build(37, 3);
    let outcomes = sharded.execute_batch(&icm, std::slice::from_ref(&q));
    match &outcomes[0] {
        QueryOutcome::Failed(FlowError::GraphInconsistency { detail }) => {
            assert!(
                detail.contains("outside the reachable subgraph"),
                "{detail}"
            );
        }
        other => panic!("expected a typed rejection, got {other:?}"),
    }
    assert_eq!(sharded.stats().failed, 1);
    assert_eq!(sharded.stats().queries, 1);
}

#[test]
fn a_forbidden_flow_with_no_path_is_dropped_on_every_shard_count() {
    let icm = three_communities();
    let plain = FlowQuery::flow(NodeId(0), NodeId(3));
    // 4 ~> 3 has no directed path, so forbidding it conditions on
    // nothing: the query is the plain one, an exact-class key.
    let mut vacuous = plain.clone();
    vacuous.conditions = vec![FlowCondition::forbids(NodeId(4), NodeId(3))];
    let queries = [plain, vacuous];
    let mut answers = Vec::new();
    for shards in [1, 3] {
        let outcomes = build(43, shards).execute_batch(&icm, &queries);
        let (p, v) = (answer(&outcomes[0]), answer(&outcomes[1]));
        assert_eq!(
            p.estimate.to_bits(),
            v.estimate.to_bits(),
            "{shards} shards"
        );
        assert_eq!(p.samples, v.samples, "{shards} shards");
        answers.push((v.estimate, v.half_width));
    }
    let ((one, hw1), (three, hw3)) = (answers[0], answers[1]);
    assert!(
        (one - three).abs() <= (hw1 + hw3).max(0.05),
        "1 shard {one} vs 3 shards {three}"
    );
}

#[test]
fn empty_shard_partitions_are_tolerated() {
    let icm = three_communities();
    // Sixteen shards over ten edges: the balanced cut skips shard ids
    // outright, leaving several shards with no edges at all.
    let partition = partition_edges(icm.graph(), 16);
    assert!(
        (0..16).any(|s| partition.is_empty(s)),
        "fixture must produce empty shards: {:?}",
        partition.edge_counts()
    );
    let mut sharded = build(41, 16);
    let queries = vec![
        FlowQuery::flow(NodeId(0), NodeId(3)),
        FlowQuery::flow(NodeId(8), NodeId(10)),
        FlowQuery::flow(NodeId(0), NodeId(7)),
    ];
    let outcomes = sharded.execute_batch(&icm, &queries);
    assert!(matches!(outcomes[0], QueryOutcome::Answered(_)));
    assert!(matches!(outcomes[1], QueryOutcome::Answered(_)));
    assert!(matches!(outcomes[2], QueryOutcome::Answered(_)));
}

#[test]
fn shard_granular_swap_keeps_untouched_shard_units() {
    let icm = three_communities();
    let mut sharded = build(43, 3);
    let q0 = FlowQuery::flow(NodeId(0), NodeId(3));
    let q2 = FlowQuery::flow(NodeId(8), NodeId(10));
    sharded.execute_batch(&icm, &[q0.clone(), q2.clone()]);
    let before = sharded.shard_stats();
    let served_before: u64 = before.iter().map(|s| s.queries).sum();
    assert_eq!(served_before, 2);

    // Perturb one probability inside the path community only.
    let mut probs: Vec<f64> = (0..icm.edge_count())
        .map(|e| icm.probability(flow_graph::EdgeId(e as u32)))
        .collect();
    probs[9] = 0.35;
    let swapped = Icm::new(
        graph_from_edges(
            11,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (4, 5),
                (4, 6),
                (5, 7),
                (6, 7),
                (8, 9),
                (9, 10),
            ],
        ),
        probs,
    );
    sharded.install_model_icm(&swapped);

    // The untouched shards kept their units: their child stats (and
    // caches) survive; the perturbed shard was rebuilt cold.
    let after = sharded.shard_stats();
    assert_eq!(after.len(), before.len());
    let survivors: u64 = after.iter().map(|s| s.queries).sum();
    assert_eq!(
        survivors, 1,
        "exactly the diamond shard's unit survives the swap: {after:?}"
    );

    // The swapped model serves correctly on the surviving router.
    let outcomes = sharded.execute_batch(&swapped, &[q0, q2]);
    assert!(matches!(outcomes[0], QueryOutcome::Answered(_)));
    assert!(matches!(outcomes[1], QueryOutcome::Answered(_)));
}

#[test]
fn builder_rejects_invalid_configurations() {
    let build_with = |edit: fn(&mut ServeConfig)| {
        let mut config = ServeConfig::default();
        edit(&mut config);
        ServeEngine::builder().config(config).build()
    };
    match build_with(|c| c.shards = 0) {
        Err(FlowError::Config { detail }) => assert!(detail.contains("shard count"), "{detail}"),
        Err(other) => panic!("expected Config error, got {other:?}"),
        Ok(_) => panic!("zero shards must not build"),
    }
    assert!(matches!(
        build_with(|c| c.max_samples = 0),
        Err(FlowError::Config { .. })
    ));
    assert!(matches!(
        build_with(|c| c.default_tolerance = f64::NAN),
        Err(FlowError::Config { .. })
    ));
    assert!(matches!(
        build_with(|c| c.default_tolerance = 0.0),
        Err(FlowError::Config { .. })
    ));
    match build_with(|c| c.executor.workers = 0) {
        Err(FlowError::Config { detail }) => {
            assert!(detail.contains("at least one worker"), "{detail}")
        }
        Err(other) => panic!("expected Config error, got {other:?}"),
        Ok(_) => panic!("a zero-worker executor must not build"),
    }
    // The happy path still builds.
    assert!(ServeEngine::builder().build().is_ok());
}

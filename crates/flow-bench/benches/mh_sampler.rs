//! §IV-C timing claims: per-chain-update and per-output-sample cost at
//! Twitter scale (≈6K users / 14K edges), plus the `O(log m)` update
//! scaling across model sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use flow_bench::{scaling_icm, twitter_scale_icm};
use flow_graph::NodeId;
use flow_mcmc::sampler::{ProposalKind, PseudoStateSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn chain_update_twitter_scale(c: &mut Criterion) {
    let icm = twitter_scale_icm(1);
    let mut rng = StdRng::seed_from_u64(2);
    let mut sampler = PseudoStateSampler::new(&icm, ProposalKind::ResultingActivity, &mut rng);
    sampler.run(5_000, &mut rng); // settle in
    let mut group = c.benchmark_group("mh_twitter_scale");
    group.throughput(Throughput::Elements(1));
    // The paper reports 0.13 ms per chain update at this scale.
    group.bench_function("chain_update_6k_nodes_14k_edges", |b| {
        b.iter(|| black_box(sampler.step(&mut rng)))
    });
    // The paper reports 27 ms per output sample (update burst + flow test).
    let thin = 200;
    group.bench_function("output_sample_thin200_plus_reach", |b| {
        b.iter(|| {
            sampler.run(thin, &mut rng);
            black_box(sampler.carries_flow(NodeId(0), NodeId(5_999)))
        })
    });
    group.finish();
}

fn chain_update_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("mh_update_scaling");
    for m in [500usize, 2_000, 8_000, 32_000, 128_000] {
        let icm = scaling_icm(m, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut sampler = PseudoStateSampler::new(&icm, ProposalKind::ResultingActivity, &mut rng);
        sampler.run(2_000, &mut rng);
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| black_box(sampler.step(&mut rng)))
        });
    }
    group.finish();
}

fn conditional_step_overhead(c: &mut Criterion) {
    // Conditions add one O(m) BFS from the condition source per accepted
    // proposal that flips an edge leaving the source's reach set (and is
    // not an activation into it); every other proposal skips it.
    let icm = scaling_icm(2_000, 5);
    let mut rng = StdRng::seed_from_u64(6);
    let conditions = vec![flow_icm::FlowCondition::requires(NodeId(0), NodeId(1))];
    let mut plain = PseudoStateSampler::new(&icm, ProposalKind::ResultingActivity, &mut rng);
    let mut cond = PseudoStateSampler::with_conditions(
        &icm,
        ProposalKind::ResultingActivity,
        conditions,
        &mut rng,
    )
    .expect("satisfiable");
    plain.run(1_000, &mut rng);
    cond.run(1_000, &mut rng);
    let mut group = c.benchmark_group("mh_conditional_overhead");
    group.bench_function("marginal_step_m2000", |b| {
        b.iter(|| black_box(plain.step(&mut rng)))
    });
    group.bench_function("conditional_step_m2000", |b| {
        b.iter(|| black_box(cond.step(&mut rng)))
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3));
    targets = chain_update_twitter_scale, chain_update_scaling, conditional_step_overhead
);
criterion_main!(benches);

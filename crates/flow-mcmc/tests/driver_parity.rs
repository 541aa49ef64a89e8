//! Output parity for every public chain entry point.
//!
//! Each case runs one entry point at a fixed seed and folds its whole
//! output into a `flow_core::Fnv64` digest: every estimate's bits,
//! every retained indicator, every degradation reason, the checkpoint
//! text a call hands back, and — for calls that borrow the caller's
//! RNG — the RNG's next draw afterwards, so a change in how many draws
//! a call consumes shows up too. The cases cover the three proposal
//! kinds on models of 4, 40 and 120 edges (thinning below and above
//! the 64-step burn-in block).
//!
//! The expected digests were computed once and must not be edited: a
//! refactor of the chain loops has to reproduce them bit for bit. They
//! were re-pinned once, on purpose: when the independence kernel began
//! drawing each world as one key whose coins its searches read, instead
//! of redrawing every edge per step, its random stream changed by
//! design, and the 94 `Independent` entries that moved (84 of
//! `EXPECTED`, 10 of `CONDITIONED_EXPECTED`) were recomputed. No
//! `ResultingActivity` or `CurrentActivity` entry changed. On a
//! mismatch the failure message prints the full table of actual
//! digests. Three further tests pin conditioned chains with several
//! condition sources or many conditions on one source, the one case the
//! shared driver changes, and the zero-sample convention every entry
//! point follows.

use flow_core::Fnv64;
use flow_graph::graph::graph_from_edges;
use flow_graph::NodeId;
use flow_icm::{BetaIcm, FlowCondition, Icm};
use flow_mcmc::{
    multi_chain_flow, multi_chain_flow_guarded, shared_chain_flows, DelayModel, FlowEstimator,
    McmcConfig, NestedConfig, NestedSampler, PartialEstimate, ProposalKind, RunBudget,
    SharedChainRequest, SharedTarget, TimedFlowEstimator,
};
use flow_stats::Beta;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Digest builder over the values an entry point returns.
struct Digest(Fnv64);

impl Digest {
    fn new() -> Self {
        Digest(Fnv64::new())
    }

    fn u64(self, v: u64) -> Self {
        Digest(self.0.u64(v))
    }

    fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    fn f64s(self, vs: &[f64]) -> Self {
        vs.iter().fold(self.u64(vs.len() as u64), |d, &v| d.f64(v))
    }

    fn text(self, s: &str) -> Self {
        Digest(self.0.u64(s.len() as u64).bytes(s.as_bytes()))
    }

    /// Folds in the caller RNG's next draw.
    fn rng(self, rng: &mut StdRng) -> Self {
        self.u64(rng.random::<u64>())
    }

    fn finish(self) -> u64 {
        self.0.finish()
    }
}

/// SplitMix64: a self-contained stream for building the test models, so
/// the digests do not depend on any generator in the workspace.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A model with `m` edges: the 4-edge diamond, or a path through all
/// nodes (so every flow and condition below is satisfiable) topped up
/// with distinct seeded random edges.
fn model(m: usize) -> Icm {
    if m == 4 {
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        return Icm::new(g, vec![0.7, 0.4, 0.5, 0.6]);
    }
    let n = m / 3 + 2;
    let mut rng = Mix(m as u64);
    let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|u| (u, u + 1)).collect();
    while edges.len() < m {
        let u = rng.below(n as u64) as u32;
        let v = rng.below(n as u64) as u32;
        if u != v && !edges.contains(&(u, v)) {
            edges.push((u, v));
        }
    }
    let probs = (0..m)
        .map(|_| 0.05 + 0.9 * rng.below(1000) as f64 / 1000.0)
        .collect();
    Icm::new(graph_from_edges(n, &edges), probs)
}

const MODELS: [usize; 3] = [4, 40, 120];
const KINDS: [ProposalKind; 3] = [
    ProposalKind::ResultingActivity,
    ProposalKind::CurrentActivity,
    ProposalKind::Independent,
];

fn config(kind: ProposalKind, samples: usize) -> McmcConfig {
    McmcConfig {
        samples,
        proposal: kind,
        ..Default::default()
    }
}

/// Source, sink and a midpoint of the model's spanning path.
fn ends(icm: &Icm) -> (NodeId, NodeId, NodeId) {
    let n = icm.node_count() as u32;
    (NodeId(0), NodeId(n - 1), NodeId(n / 2))
}

fn conditions(icm: &Icm) -> Vec<FlowCondition> {
    let (source, sink, mid) = ends(icm);
    if icm.edge_count() == 4 {
        return vec![
            FlowCondition::requires(source, mid),
            FlowCondition::forbids(NodeId(2), sink),
        ];
    }
    vec![
        FlowCondition::requires(source, mid),
        FlowCondition::forbids(NodeId(1), sink),
    ]
}

fn partial(d: Digest, est: &PartialEstimate) -> Digest {
    let diag = &est.diagnostics;
    d.f64(est.value)
        .f64(diag.effective_samples)
        .text(&format!("{:?}", diag.r_hat.map(f64::to_bits)))
        .f64(diag.standard_error)
        .f64s(&diag.acceptance_rates)
        .text(&format!("{:?}", diag.included_chains))
        .text(&format!("{:?}", est.degradation))
}

/// Every `FlowEstimator` entry point on one model and proposal.
fn estimator_cases(icm: &Icm, kind: ProposalKind, out: &mut Vec<(String, u64)>) {
    let tag = format!("m{}/{kind:?}", icm.edge_count());
    let (source, sink, mid) = ends(icm);
    let est = FlowEstimator::new(icm, config(kind, 40));
    let conds = conditions(icm);
    let mut push = |name: &str, d: Digest| out.push((format!("{tag}/{name}"), d.finish()));

    let mut rng = StdRng::seed_from_u64(1);
    let v = est.estimate_flow(source, sink, &mut rng);
    push("estimate_flow", Digest::new().f64(v).rng(&mut rng));

    let mut rng = StdRng::seed_from_u64(2);
    let v = est.estimate_flows_from(source, &[sink, mid, source], &mut rng);
    push("estimate_flows_from", Digest::new().f64s(&v).rng(&mut rng));

    let mut rng = StdRng::seed_from_u64(3);
    let v = est.estimate_conditional_flow(source, sink, &conds[..1], &mut rng);
    push(
        "estimate_conditional_flow",
        Digest::new()
            .text(&format!("{:?}", v.map(f64::to_bits)))
            .rng(&mut rng),
    );

    let mut rng = StdRng::seed_from_u64(4);
    let v = est.estimate_conditional_flows_from(source, &[sink, mid], &conds, &mut rng);
    push(
        "estimate_conditional_flows_from",
        Digest::new()
            .text(&format!(
                "{:?}",
                v.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            ))
            .rng(&mut rng),
    );

    let mut ckpts = Vec::new();
    let run = est.estimate_flow_checkpointed(source, sink, 5, 15, |c| ckpts.push(c.clone()));
    let mut d = Digest::new().text(&format!("{run:?}"));
    for c in &ckpts {
        d = d.text(&c.to_text());
        d = d.text(&format!("{:?}", est.resume_from(c)));
    }
    push("estimate_flow_checkpointed+resume_from", d);

    let mut rng = StdRng::seed_from_u64(6);
    let v = est.estimate_joint_flow(&[(source, mid), (source, sink)], &mut rng);
    push("estimate_joint_flow", Digest::new().f64(v).rng(&mut rng));

    let mut rng = StdRng::seed_from_u64(7);
    let c = est.estimate_community_flow(source, &[mid, sink, source], &mut rng);
    push(
        "estimate_community_flow",
        Digest::new()
            .f64(c.all)
            .f64(c.any)
            .f64(c.expected_fraction)
            .rng(&mut rng),
    );

    let mut rng = StdRng::seed_from_u64(8);
    let v = est.impact_distribution(source, &mut rng);
    let d = v.iter().fold(Digest::new(), |d, &i| d.u64(i as u64));
    push("impact_distribution", d.rng(&mut rng));
}

/// `multi_chain_flow` and `multi_chain_flow_guarded`, with budgets that
/// run out in the sampling phase (never inside burn-in, whose block
/// rule differs from the parent's below 64-step thinning).
fn multi_chain_cases(icm: &Icm, kind: ProposalKind, out: &mut Vec<(String, u64)>) {
    let tag = format!("m{}/{kind:?}", icm.edge_count());
    let (source, sink, _) = ends(icm);
    let cfg = config(kind, 30);
    let m = icm.edge_count();
    let (burn, thin) = (cfg.burn_in_steps(m) as u64, cfg.thin_steps(m) as u64);
    let mut push = |name: &str, d: Digest| out.push((format!("{tag}/{name}"), d.finish()));

    for threads in [false, true] {
        let est = multi_chain_flow(icm, source, sink, cfg, 3, 9, threads);
        let d = est
            .chains
            .iter()
            .fold(Digest::new(), |d, c| d.f64s(c))
            .f64s(&est.acceptance_rates);
        push(&format!("multi_chain_flow/threads={threads}"), d);
    }

    let budgets = [
        ("unlimited", RunBudget::unlimited()),
        (
            "steps_in_sampling",
            RunBudget::unlimited().with_max_steps(burn + 7 * thin + 3),
        ),
        (
            "wall_never_fires",
            RunBudget::unlimited().with_max_wall(Duration::from_secs(3_600)),
        ),
        (
            "quality_targets",
            RunBudget::unlimited()
                .with_max_rhat(1.000_001)
                .with_target_ess(1e9),
        ),
    ];
    for (name, budget) in budgets {
        for threads in [false, true] {
            let est = multi_chain_flow_guarded(icm, source, sink, cfg, 4, 10, budget, 1, threads);
            push(
                &format!("multi_chain_flow_guarded/{name}/threads={threads}"),
                partial(Digest::new(), &est),
            );
        }
    }
    if thin >= 64 {
        // At and above 64-step thinning the burn-in blocks are `thin`
        // steps, as in the parent's guarded runner.
        let budget = RunBudget::unlimited().with_max_steps(burn / 2 + 5);
        let est = multi_chain_flow_guarded(icm, source, sink, cfg, 2, 11, budget, 0, false);
        push(
            "multi_chain_flow_guarded/steps_in_burn_in",
            partial(Digest::new(), &est),
        );
    }
}

/// `shared_chain_flows`: cold, conditioned, warm, and budgeted calls,
/// each with the checkpoint text it returns.
fn shared_cases(icm: &Icm, kind: ProposalKind, out: &mut Vec<(String, u64)>) {
    let tag = format!("m{}/{kind:?}", icm.edge_count());
    let (source, sink, mid) = ends(icm);
    let cfg = config(kind, 30);
    let m = icm.edge_count();
    let (burn, thin) = (cfg.burn_in_steps(m) as u64, cfg.thin_steps(m) as u64);
    let targets = vec![
        SharedTarget::Sink(sink),
        SharedTarget::Sink(source),
        SharedTarget::Community(vec![mid, sink]),
        SharedTarget::Community(vec![]),
    ];
    let conds = conditions(icm);
    let request = |seed| SharedChainRequest {
        source,
        targets: &targets,
        conditions: &[],
        seed,
        warm: None,
        samples: 30,
        max_steps: None,
        deadline: None,
    };
    let digest = |r: &flow_core::FlowResult<flow_mcmc::SharedChainOutcome>| match r {
        Ok(o) => Digest::new()
            .text(&format!("{:?}", o.counts))
            .u64(o.samples_done as u64)
            .u64(o.steps)
            .text(&format!("{:?}", o.degradation))
            .text(&o.checkpoint.to_text()),
        Err(e) => Digest::new().text(&e.to_string()),
    };
    let mut push =
        |name: &str, d: Digest| out.push((format!("{tag}/shared_chain_flows/{name}"), d.finish()));

    let cold = shared_chain_flows(icm, &cfg, &request(12));
    push("cold", digest(&cold));
    let conditioned = shared_chain_flows(
        icm,
        &cfg,
        &SharedChainRequest {
            conditions: &conds,
            ..request(13)
        },
    );
    push("conditioned", digest(&conditioned));
    if let Ok(cold) = &cold {
        let warm = shared_chain_flows(
            icm,
            &cfg,
            &SharedChainRequest {
                warm: Some(&cold.checkpoint),
                samples: 20,
                max_steps: Some(11 * thin + 1),
                ..request(0)
            },
        );
        push("warm_budgeted", digest(&warm));
    }
    let in_sampling = shared_chain_flows(
        icm,
        &cfg,
        &SharedChainRequest {
            max_steps: Some(burn + 5 * thin + 2),
            ..request(14)
        },
    );
    push("steps_in_sampling", digest(&in_sampling));
    let in_burn_in = shared_chain_flows(
        icm,
        &cfg,
        &SharedChainRequest {
            max_steps: Some(burn / 2),
            ..request(15)
        },
    );
    push("steps_in_burn_in", digest(&in_burn_in));
    let wall = shared_chain_flows(
        icm,
        &cfg,
        &SharedChainRequest {
            deadline: Some(Duration::from_secs(3_600)),
            ..request(16)
        },
    );
    push("wall_never_fires", digest(&wall));
}

/// `TimedFlowEstimator` and `NestedSampler`.
fn timed_and_nested_cases(icm: &Icm, kind: ProposalKind, out: &mut Vec<(String, u64)>) {
    let tag = format!("m{}/{kind:?}", icm.edge_count());
    let (source, sink, _) = ends(icm);
    let mut push = |name: &str, d: Digest| out.push((format!("{tag}/{name}"), d.finish()));

    let timed =
        TimedFlowEstimator::with_uniform_delay(icm, DelayModel::Exponential(2.0), config(kind, 30));
    let mut rng = StdRng::seed_from_u64(17);
    let at = timed.arrival_times(source, sink, &mut rng);
    let d = at.samples.iter().fold(Digest::new(), |d, s| match s {
        Some(t) => d.u64(1).f64(*t),
        None => d.u64(0),
    });
    push("arrival_times", d.rng(&mut rng));
    let mut rng = StdRng::seed_from_u64(18);
    let v = timed.expected_reach_within(source, 2.5, &mut rng);
    push("expected_reach_within", Digest::new().f64(v).rng(&mut rng));

    let betas = icm
        .probabilities()
        .iter()
        .map(|&p| Beta::new(1.0 + 8.0 * p, 1.0 + 8.0 * (1.0 - p)))
        .collect();
    let beta_icm = BetaIcm::new(icm.graph().clone(), betas);
    let nested = NestedSampler::new(
        &beta_icm,
        NestedConfig {
            outer_samples: 4,
            inner: config(kind, 20),
        },
    );
    let mut rng = StdRng::seed_from_u64(19);
    let dist = nested.flow_probability_distribution(source, sink, &mut rng);
    push(
        "flow_probability_distribution",
        Digest::new().f64s(&dist.samples).rng(&mut rng),
    );
    let mut rng = StdRng::seed_from_u64(20);
    let means = nested.impact_mean_distribution(source, &mut rng);
    push(
        "impact_mean_distribution",
        Digest::new().f64s(&means).rng(&mut rng),
    );
}

/// A frozen model (every edge at probability 0): every chain stalls, so
/// the guarded runner restarts, flags and pools them.
fn watchdog_cases(out: &mut Vec<(String, u64)>) {
    let icm = Icm::with_uniform_probability(graph_from_edges(3, &[(0, 1), (1, 2)]), 0.0);
    for kind in KINDS {
        let est = multi_chain_flow_guarded(
            &icm,
            NodeId(0),
            NodeId(2),
            config(kind, 25),
            3,
            21,
            RunBudget::unlimited().with_max_rhat(1.1),
            2,
            false,
        );
        out.push((
            format!("frozen/{kind:?}/multi_chain_flow_guarded"),
            partial(Digest::new(), &est).finish(),
        ));
    }
}

fn all_digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for m in MODELS {
        let icm = model(m);
        for kind in KINDS {
            estimator_cases(&icm, kind, &mut out);
            multi_chain_cases(&icm, kind, &mut out);
            shared_cases(&icm, kind, &mut out);
            timed_and_nested_cases(&icm, kind, &mut out);
        }
    }
    watchdog_cases(&mut out);
    out
}

/// Conditions on three distinct sources whose reach sets overlap (each
/// lies on the spanning path downstream of the previous one), mixing
/// required and forbidden flows.
fn three_source_conditions(icm: &Icm) -> Vec<FlowCondition> {
    let n = icm.node_count() as u32;
    let (a, b) = (n / 4, n / 2);
    vec![
        FlowCondition::requires(NodeId(0), NodeId(b)),
        FlowCondition::forbids(NodeId(1), NodeId(n - 1)),
        FlowCondition::requires(NodeId(1), NodeId(a)),
        FlowCondition::requires(NodeId(a), NodeId(b + 1)),
        FlowCondition::forbids(NodeId(a), NodeId(n - 2)),
    ]
}

/// Five known flows of one source, the shape of Fig. 2(c,d)'s
/// conditioned panels: the query source's observed reach, some users
/// reached and some not.
fn five_on_one_source(icm: &Icm) -> Vec<FlowCondition> {
    let n = icm.node_count() as u32;
    let source = NodeId(0);
    vec![
        FlowCondition::requires(source, NodeId(2)),
        FlowCondition::forbids(source, NodeId(n - 1)),
        FlowCondition::requires(source, NodeId(n / 3)),
        FlowCondition::forbids(source, NodeId(n - 3)),
        FlowCondition::requires(source, NodeId(n / 2)),
    ]
}

/// Conditioned chains whose condition sets the pins above do not reach:
/// several condition sources, five conditions on one source, and a warm
/// continuation of a conditioned shared chain.
fn conditioned_cases(icm: &Icm, kind: ProposalKind, out: &mut Vec<(String, u64)>) {
    let m = icm.edge_count();
    let tag = format!("m{m}/{kind:?}");
    let (source, sink, mid) = ends(icm);
    let three = three_source_conditions(icm);
    let five = five_on_one_source(icm);
    let mut push = |name: &str, d: Digest| out.push((format!("{tag}/{name}"), d.finish()));
    let values = |v: Result<Vec<f64>, flow_mcmc::ConditionInitError>| {
        format!(
            "{:?}",
            v.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        )
    };

    let est = FlowEstimator::new(icm, config(kind, 40));
    let mut rng = StdRng::seed_from_u64(40);
    let v = est.estimate_conditional_flows_from(source, &[sink, mid, NodeId(3)], &three, &mut rng);
    push(
        "three_sources/estimate_conditional_flows_from",
        Digest::new().text(&values(v)).rng(&mut rng),
    );

    // Fig. 2(c,d) thins conditioned chains at a quarter of the edges.
    let fig2 = FlowEstimator::new(
        icm,
        McmcConfig {
            thin: Some((m / 4).max(8)),
            ..config(kind, 40)
        },
    );
    let mut rng = StdRng::seed_from_u64(41);
    let v = fig2.estimate_conditional_flows_from(
        source,
        &[NodeId(1), NodeId(mid.0 + 1)],
        &five,
        &mut rng,
    );
    push(
        "five_on_one_source/estimate_conditional_flows_from",
        Digest::new().text(&values(v)).rng(&mut rng),
    );

    let cfg = config(kind, 30);
    let thin = cfg.thin_steps(m) as u64;
    let targets = vec![
        SharedTarget::Sink(sink),
        SharedTarget::Sink(mid),
        SharedTarget::Community(vec![NodeId(2), mid, sink]),
    ];
    let request = |conditions, seed| SharedChainRequest {
        source,
        targets: &targets,
        conditions,
        seed,
        warm: None,
        samples: 30,
        max_steps: None,
        deadline: None,
    };
    let digest = |r: &flow_core::FlowResult<flow_mcmc::SharedChainOutcome>| match r {
        Ok(o) => Digest::new()
            .text(&format!("{:?}", o.counts))
            .u64(o.samples_done as u64)
            .u64(o.steps)
            .text(&format!("{:?}", o.degradation))
            .text(&o.checkpoint.to_text()),
        Err(e) => Digest::new().text(&e.to_string()),
    };
    let cold = shared_chain_flows(icm, &cfg, &request(&three, 42));
    push("three_sources/shared_chain_flows/cold", digest(&cold));
    if let Ok(cold) = &cold {
        let warm = shared_chain_flows(
            icm,
            &cfg,
            &SharedChainRequest {
                warm: Some(&cold.checkpoint),
                samples: 25,
                max_steps: Some(20 * thin + 3),
                ..request(&three, 0)
            },
        );
        push("three_sources/shared_chain_flows/warm", digest(&warm));
    }
    let five_shared = shared_chain_flows(icm, &cfg, &request(&five, 43));
    push(
        "five_on_one_source/shared_chain_flows",
        digest(&five_shared),
    );
}

fn check(expected: &[(&str, u64)], actual: &[(String, u64)]) {
    let table: String = actual
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    let mismatched: Vec<&str> = expected
        .iter()
        .zip(actual)
        .filter(|((en, ed), (an, ad))| en != an || ed != ad)
        .map(|((en, _), _)| *en)
        .collect();
    assert!(
        expected.len() == actual.len() && mismatched.is_empty(),
        "{} of {} digests differ ({mismatched:?}); actual table:\n{table}",
        mismatched.len() + expected.len().abs_diff(actual.len()),
        actual.len()
    );
}

#[test]
fn every_entry_point_matches_its_pinned_digest() {
    check(EXPECTED, &all_digests());
}

/// Conditioned chains on the 40- and 120-edge models, for every proposal
/// kind (the two single-flip MH kernels and the independence kernel).
#[test]
fn conditioned_chains_match_their_pinned_digests() {
    let mut out = Vec::new();
    for m in [40, 120] {
        let icm = model(m);
        for kind in KINDS {
            conditioned_cases(&icm, kind, &mut out);
        }
    }
    check(CONDITIONED_EXPECTED, &out);
}

/// The one case the shared chain driver changes. A guarded chain whose
/// step budget runs out inside burn-in, on a model thinned below 64
/// steps, stops on the driver's 64-step burn-in block boundary; before
/// the driver, the guarded runner sliced burn-in by `thin` and stopped
/// later. The chain's acceptance rate at the stop moves with it
/// (Independent chains accept every step, so theirs does not).
#[test]
fn guarded_burn_in_budget_stops_on_a_64_step_block() {
    let mut out = Vec::new();
    for m in [4, 40] {
        let icm = model(m);
        let (source, sink, _) = ends(&icm);
        for kind in KINDS {
            let cfg = config(kind, 30);
            let budget = RunBudget::unlimited().with_max_steps(cfg.burn_in_steps(m) as u64 / 2 + 5);
            let est = multi_chain_flow_guarded(&icm, source, sink, cfg, 2, 11, budget, 0, false);
            out.push((
                format!("m{m}/{kind:?}/multi_chain_flow_guarded/steps_in_burn_in"),
                partial(Digest::new(), &est).finish(),
            ));
        }
    }
    check(BURN_IN_BLOCK_EXPECTED, &out);
}

/// With `samples: 0` every estimate is 0, never the NaN of 0/0: the
/// convention `FlowRun::value` and `MultiChainEstimate::estimate`
/// already follow.
#[test]
fn every_entry_point_returns_zero_without_samples() {
    for m in MODELS {
        let icm = model(m);
        let (source, sink, mid) = ends(&icm);
        let conds = conditions(&icm);
        let cfg = config(ProposalKind::ResultingActivity, 0);
        let est = FlowEstimator::new(&icm, cfg);
        let mut rng = StdRng::seed_from_u64(30);
        let community = est.estimate_community_flow(source, &[mid, sink], &mut rng);
        let timed = TimedFlowEstimator::with_uniform_delay(&icm, DelayModel::Fixed(1.0), cfg);
        let betas = vec![Beta::new(2.0, 2.0); icm.edge_count()];
        let beta_icm = BetaIcm::new(icm.graph().clone(), betas);
        let nested = NestedSampler::new(
            &beta_icm,
            NestedConfig {
                outer_samples: 2,
                inner: cfg,
            },
        );
        let checkpointed = est.estimate_flow_checkpointed(source, sink, 31, 5, |_| {});
        let shared = shared_chain_flows(
            &icm,
            &cfg,
            &SharedChainRequest {
                source,
                targets: &[SharedTarget::Sink(sink)],
                conditions: &[],
                seed: 32,
                warm: None,
                samples: 0,
                max_steps: None,
                deadline: None,
            },
        );
        let mut values = vec![
            ("estimate_flow", est.estimate_flow(source, sink, &mut rng)),
            (
                "estimate_conditional_flow",
                est.estimate_conditional_flow(source, sink, &conds, &mut rng)
                    .unwrap_or(f64::NAN),
            ),
            (
                "estimate_joint_flow",
                est.estimate_joint_flow(&[(source, sink)], &mut rng),
            ),
            ("community.all", community.all),
            ("community.any", community.any),
            ("community.expected_fraction", community.expected_fraction),
            (
                "expected_reach_within",
                timed.expected_reach_within(source, 3.0, &mut rng),
            ),
            (
                "arrival_times",
                timed
                    .arrival_times(source, sink, &mut rng)
                    .flow_probability(),
            ),
            (
                "estimate_flow_checkpointed",
                checkpointed.map_or(f64::NAN, |run| run.value()),
            ),
            (
                "multi_chain_flow",
                multi_chain_flow(&icm, source, sink, cfg, 2, 33, false).estimate(),
            ),
            (
                "multi_chain_flow_guarded",
                multi_chain_flow_guarded(
                    &icm,
                    source,
                    sink,
                    cfg,
                    2,
                    34,
                    RunBudget::unlimited(),
                    0,
                    false,
                )
                .value,
            ),
            (
                "shared_chain_flows",
                shared.map_or(f64::NAN, |o| o.counts[0].all as f64),
            ),
        ];
        let named = |name| move |v| (name, v);
        values.extend(
            est.estimate_flows_from(source, &[sink, mid], &mut rng)
                .into_iter()
                .map(named("estimate_flows_from")),
        );
        values.extend(
            est.estimate_conditional_flows_from(source, &[sink, mid], &conds, &mut rng)
                .unwrap_or_else(|_| vec![f64::NAN])
                .into_iter()
                .map(named("estimate_conditional_flows_from")),
        );
        values.extend(
            nested
                .impact_mean_distribution(source, &mut rng)
                .into_iter()
                .map(named("impact_mean_distribution")),
        );
        values.extend(
            nested
                .flow_probability_distribution(source, sink, &mut rng)
                .samples
                .into_iter()
                .map(named("flow_probability_distribution")),
        );
        for (name, v) in values {
            assert_eq!(v.to_bits(), 0.0f64.to_bits(), "m{m} {name}: {v}");
        }
        assert!(est.impact_distribution(source, &mut rng).is_empty());
    }
}

const CONDITIONED_EXPECTED: &[(&str, u64)] = &[
    (
        "m40/ResultingActivity/three_sources/estimate_conditional_flows_from",
        0x9c4d10b599b07151,
    ),
    (
        "m40/ResultingActivity/five_on_one_source/estimate_conditional_flows_from",
        0xa37e6859a048d68e,
    ),
    (
        "m40/ResultingActivity/three_sources/shared_chain_flows/cold",
        0x7c87b81911de1dab,
    ),
    (
        "m40/ResultingActivity/three_sources/shared_chain_flows/warm",
        0x413ad45ee452e506,
    ),
    (
        "m40/ResultingActivity/five_on_one_source/shared_chain_flows",
        0x30cac465474e8db0,
    ),
    (
        "m40/CurrentActivity/three_sources/estimate_conditional_flows_from",
        0x848d5535d69915ce,
    ),
    (
        "m40/CurrentActivity/five_on_one_source/estimate_conditional_flows_from",
        0x50284261033f96ca,
    ),
    (
        "m40/CurrentActivity/three_sources/shared_chain_flows/cold",
        0xcfd8948578d40ffe,
    ),
    (
        "m40/CurrentActivity/three_sources/shared_chain_flows/warm",
        0x72e195a159e735fc,
    ),
    (
        "m40/CurrentActivity/five_on_one_source/shared_chain_flows",
        0xe84d5b88417a4e9a,
    ),
    (
        "m40/Independent/three_sources/estimate_conditional_flows_from",
        0x2236eb1d7821e30c,
    ),
    (
        "m40/Independent/five_on_one_source/estimate_conditional_flows_from",
        0x462e3e678111f034,
    ),
    (
        "m40/Independent/three_sources/shared_chain_flows/cold",
        0x11e4f8a490200e9e,
    ),
    (
        "m40/Independent/three_sources/shared_chain_flows/warm",
        0x0284c3521b223381,
    ),
    (
        "m40/Independent/five_on_one_source/shared_chain_flows",
        0x83df4323b3c8643a,
    ),
    (
        "m120/ResultingActivity/three_sources/estimate_conditional_flows_from",
        0x7acbc08344ce005e,
    ),
    (
        "m120/ResultingActivity/five_on_one_source/estimate_conditional_flows_from",
        0x7d8a04c676033113,
    ),
    (
        "m120/ResultingActivity/three_sources/shared_chain_flows/cold",
        0x11a580992249183c,
    ),
    (
        "m120/ResultingActivity/three_sources/shared_chain_flows/warm",
        0x30208389cacf8d1d,
    ),
    (
        "m120/ResultingActivity/five_on_one_source/shared_chain_flows",
        0x336caf9e02edb5b9,
    ),
    (
        "m120/CurrentActivity/three_sources/estimate_conditional_flows_from",
        0x1d6374a26f60bedb,
    ),
    (
        "m120/CurrentActivity/five_on_one_source/estimate_conditional_flows_from",
        0x10c21750109ec121,
    ),
    (
        "m120/CurrentActivity/three_sources/shared_chain_flows/cold",
        0xc2b1f02e7624babf,
    ),
    (
        "m120/CurrentActivity/three_sources/shared_chain_flows/warm",
        0x26827cbb46414e99,
    ),
    (
        "m120/CurrentActivity/five_on_one_source/shared_chain_flows",
        0x21d7dcce11ac8fd3,
    ),
    (
        "m120/Independent/three_sources/estimate_conditional_flows_from",
        0xd5cd9aaf0aa94468,
    ),
    (
        "m120/Independent/five_on_one_source/estimate_conditional_flows_from",
        0x35edf4617c57484c,
    ),
    (
        "m120/Independent/three_sources/shared_chain_flows/cold",
        0x0cc2bb2d080fb9cc,
    ),
    (
        "m120/Independent/three_sources/shared_chain_flows/warm",
        0xe9cce8251cae415a,
    ),
    (
        "m120/Independent/five_on_one_source/shared_chain_flows",
        0x7cd37bce6fcfefc8,
    ),
];

const BURN_IN_BLOCK_EXPECTED: &[(&str, u64)] = &[
    (
        "m4/ResultingActivity/multi_chain_flow_guarded/steps_in_burn_in",
        0xb639ac9dfa705ae1,
    ),
    (
        "m4/CurrentActivity/multi_chain_flow_guarded/steps_in_burn_in",
        0x9cce76f59727fbd2,
    ),
    (
        "m4/Independent/multi_chain_flow_guarded/steps_in_burn_in",
        0x1ba05719da2619a8,
    ),
    (
        "m40/ResultingActivity/multi_chain_flow_guarded/steps_in_burn_in",
        0xe95753f82c32e87b,
    ),
    (
        "m40/CurrentActivity/multi_chain_flow_guarded/steps_in_burn_in",
        0x29f40f8eb4500c49,
    ),
    (
        "m40/Independent/multi_chain_flow_guarded/steps_in_burn_in",
        0x1ba05719da2619a8,
    ),
];

const EXPECTED: &[(&str, u64)] = &[
    ("m4/ResultingActivity/estimate_flow", 0xff7829363f897e7d),
    (
        "m4/ResultingActivity/estimate_flows_from",
        0xe9ee735e77a4146d,
    ),
    (
        "m4/ResultingActivity/estimate_conditional_flow",
        0x4b5efd72815e9521,
    ),
    (
        "m4/ResultingActivity/estimate_conditional_flows_from",
        0xdade0e80fb686ab5,
    ),
    (
        "m4/ResultingActivity/estimate_flow_checkpointed+resume_from",
        0x9ae7bf229746066e,
    ),
    (
        "m4/ResultingActivity/estimate_joint_flow",
        0x673e85f75fe095fe,
    ),
    (
        "m4/ResultingActivity/estimate_community_flow",
        0xeaad0924d5c173b4,
    ),
    (
        "m4/ResultingActivity/impact_distribution",
        0x52459cc7db92b8e1,
    ),
    (
        "m4/ResultingActivity/multi_chain_flow/threads=false",
        0xf3eeda3ff105f011,
    ),
    (
        "m4/ResultingActivity/multi_chain_flow/threads=true",
        0xf3eeda3ff105f011,
    ),
    (
        "m4/ResultingActivity/multi_chain_flow_guarded/unlimited/threads=false",
        0xb1e7bb83800c3f74,
    ),
    (
        "m4/ResultingActivity/multi_chain_flow_guarded/unlimited/threads=true",
        0xb1e7bb83800c3f74,
    ),
    (
        "m4/ResultingActivity/multi_chain_flow_guarded/steps_in_sampling/threads=false",
        0x93f493bc4765a9f4,
    ),
    (
        "m4/ResultingActivity/multi_chain_flow_guarded/steps_in_sampling/threads=true",
        0x93f493bc4765a9f4,
    ),
    (
        "m4/ResultingActivity/multi_chain_flow_guarded/wall_never_fires/threads=false",
        0xb1e7bb83800c3f74,
    ),
    (
        "m4/ResultingActivity/multi_chain_flow_guarded/wall_never_fires/threads=true",
        0xb1e7bb83800c3f74,
    ),
    (
        "m4/ResultingActivity/multi_chain_flow_guarded/quality_targets/threads=false",
        0x177ea687c6529eb2,
    ),
    (
        "m4/ResultingActivity/multi_chain_flow_guarded/quality_targets/threads=true",
        0x177ea687c6529eb2,
    ),
    (
        "m4/ResultingActivity/shared_chain_flows/cold",
        0x8131155beb085e1f,
    ),
    (
        "m4/ResultingActivity/shared_chain_flows/conditioned",
        0x7e482840bf3c6c29,
    ),
    (
        "m4/ResultingActivity/shared_chain_flows/warm_budgeted",
        0xf181092f1acde672,
    ),
    (
        "m4/ResultingActivity/shared_chain_flows/steps_in_sampling",
        0xe4509a6097e15b69,
    ),
    (
        "m4/ResultingActivity/shared_chain_flows/steps_in_burn_in",
        0xa8f264f7d5178f59,
    ),
    (
        "m4/ResultingActivity/shared_chain_flows/wall_never_fires",
        0x68646efd37b9013e,
    ),
    ("m4/ResultingActivity/arrival_times", 0x4539eb7fbf9af6d6),
    (
        "m4/ResultingActivity/expected_reach_within",
        0x6d5e599818e780be,
    ),
    (
        "m4/ResultingActivity/flow_probability_distribution",
        0xf4fced46e0564c60,
    ),
    (
        "m4/ResultingActivity/impact_mean_distribution",
        0x6e66ed6c0555c681,
    ),
    ("m4/CurrentActivity/estimate_flow", 0x35805850fc5a21a9),
    ("m4/CurrentActivity/estimate_flows_from", 0xcffe4c5e5b47f78c),
    (
        "m4/CurrentActivity/estimate_conditional_flow",
        0xa5ec19a4c81dd970,
    ),
    (
        "m4/CurrentActivity/estimate_conditional_flows_from",
        0xa9618afd8da97969,
    ),
    (
        "m4/CurrentActivity/estimate_flow_checkpointed+resume_from",
        0xa1a3784605523e72,
    ),
    ("m4/CurrentActivity/estimate_joint_flow", 0x3c89384eb8511616),
    (
        "m4/CurrentActivity/estimate_community_flow",
        0xe2b936a5df1dc7d5,
    ),
    ("m4/CurrentActivity/impact_distribution", 0x9652aa43a224e2ee),
    (
        "m4/CurrentActivity/multi_chain_flow/threads=false",
        0x0e3b57bfca7b94e1,
    ),
    (
        "m4/CurrentActivity/multi_chain_flow/threads=true",
        0x0e3b57bfca7b94e1,
    ),
    (
        "m4/CurrentActivity/multi_chain_flow_guarded/unlimited/threads=false",
        0x74bd099d501cf1de,
    ),
    (
        "m4/CurrentActivity/multi_chain_flow_guarded/unlimited/threads=true",
        0x74bd099d501cf1de,
    ),
    (
        "m4/CurrentActivity/multi_chain_flow_guarded/steps_in_sampling/threads=false",
        0x4216e0a1e75730c1,
    ),
    (
        "m4/CurrentActivity/multi_chain_flow_guarded/steps_in_sampling/threads=true",
        0x4216e0a1e75730c1,
    ),
    (
        "m4/CurrentActivity/multi_chain_flow_guarded/wall_never_fires/threads=false",
        0x74bd099d501cf1de,
    ),
    (
        "m4/CurrentActivity/multi_chain_flow_guarded/wall_never_fires/threads=true",
        0x74bd099d501cf1de,
    ),
    (
        "m4/CurrentActivity/multi_chain_flow_guarded/quality_targets/threads=false",
        0xa44b5aaac80572c3,
    ),
    (
        "m4/CurrentActivity/multi_chain_flow_guarded/quality_targets/threads=true",
        0xa44b5aaac80572c3,
    ),
    (
        "m4/CurrentActivity/shared_chain_flows/cold",
        0x35751d5d422a9cf5,
    ),
    (
        "m4/CurrentActivity/shared_chain_flows/conditioned",
        0x275cb8cae8b1bd1c,
    ),
    (
        "m4/CurrentActivity/shared_chain_flows/warm_budgeted",
        0x25f766ff48ee0dda,
    ),
    (
        "m4/CurrentActivity/shared_chain_flows/steps_in_sampling",
        0x2cf026d690de0ae1,
    ),
    (
        "m4/CurrentActivity/shared_chain_flows/steps_in_burn_in",
        0xcd45b4eaef1e6c68,
    ),
    (
        "m4/CurrentActivity/shared_chain_flows/wall_never_fires",
        0x857e8b91debb6aa7,
    ),
    ("m4/CurrentActivity/arrival_times", 0x537afd13660157ee),
    (
        "m4/CurrentActivity/expected_reach_within",
        0xc135af0d2b841fd9,
    ),
    (
        "m4/CurrentActivity/flow_probability_distribution",
        0xe3bf7dd3b033c1c3,
    ),
    (
        "m4/CurrentActivity/impact_mean_distribution",
        0xd4a5d1ff245d609f,
    ),
    ("m4/Independent/estimate_flow", 0xdb63a1d01eb8b512),
    ("m4/Independent/estimate_flows_from", 0xf7f09b7bd140e69a),
    (
        "m4/Independent/estimate_conditional_flow",
        0xe4a8e4e34894c542,
    ),
    (
        "m4/Independent/estimate_conditional_flows_from",
        0x78089b3095bbd2ab,
    ),
    (
        "m4/Independent/estimate_flow_checkpointed+resume_from",
        0x8f2c584b6b14db92,
    ),
    ("m4/Independent/estimate_joint_flow", 0x74ba93c8a70f8938),
    ("m4/Independent/estimate_community_flow", 0x040b29857c818a47),
    ("m4/Independent/impact_distribution", 0x18f5719f13a00594),
    (
        "m4/Independent/multi_chain_flow/threads=false",
        0xbf658a1172e4fde5,
    ),
    (
        "m4/Independent/multi_chain_flow/threads=true",
        0xbf658a1172e4fde5,
    ),
    (
        "m4/Independent/multi_chain_flow_guarded/unlimited/threads=false",
        0xfeb6af214598ba08,
    ),
    (
        "m4/Independent/multi_chain_flow_guarded/unlimited/threads=true",
        0xfeb6af214598ba08,
    ),
    (
        "m4/Independent/multi_chain_flow_guarded/steps_in_sampling/threads=false",
        0xb2f389a28cb0105d,
    ),
    (
        "m4/Independent/multi_chain_flow_guarded/steps_in_sampling/threads=true",
        0xb2f389a28cb0105d,
    ),
    (
        "m4/Independent/multi_chain_flow_guarded/wall_never_fires/threads=false",
        0xfeb6af214598ba08,
    ),
    (
        "m4/Independent/multi_chain_flow_guarded/wall_never_fires/threads=true",
        0xfeb6af214598ba08,
    ),
    (
        "m4/Independent/multi_chain_flow_guarded/quality_targets/threads=false",
        0xb68768cb516950d7,
    ),
    (
        "m4/Independent/multi_chain_flow_guarded/quality_targets/threads=true",
        0xb68768cb516950d7,
    ),
    ("m4/Independent/shared_chain_flows/cold", 0xe3359ef722f83c84),
    (
        "m4/Independent/shared_chain_flows/conditioned",
        0x2cf5a80ccd8c91aa,
    ),
    (
        "m4/Independent/shared_chain_flows/warm_budgeted",
        0xa747b42f146922c7,
    ),
    (
        "m4/Independent/shared_chain_flows/steps_in_sampling",
        0x43b0cbe5df1ff511,
    ),
    (
        "m4/Independent/shared_chain_flows/steps_in_burn_in",
        0xad3d7cb42e0fcfd6,
    ),
    (
        "m4/Independent/shared_chain_flows/wall_never_fires",
        0xfa109c9a087545d7,
    ),
    ("m4/Independent/arrival_times", 0xc65eb79247a692b4),
    ("m4/Independent/expected_reach_within", 0x3af10d18b8750b7b),
    (
        "m4/Independent/flow_probability_distribution",
        0xfeb83fba69a3c21b,
    ),
    (
        "m4/Independent/impact_mean_distribution",
        0xa7c64489e14115fc,
    ),
    ("m40/ResultingActivity/estimate_flow", 0x4804064d2afa8e5e),
    (
        "m40/ResultingActivity/estimate_flows_from",
        0x0bfd9ccf6cbaa5d8,
    ),
    (
        "m40/ResultingActivity/estimate_conditional_flow",
        0xc78c66d36d11a2c8,
    ),
    (
        "m40/ResultingActivity/estimate_conditional_flows_from",
        0x045e0c8d0bfc6368,
    ),
    (
        "m40/ResultingActivity/estimate_flow_checkpointed+resume_from",
        0x7a0bc0853318f25f,
    ),
    (
        "m40/ResultingActivity/estimate_joint_flow",
        0x772693cd51e19cbe,
    ),
    (
        "m40/ResultingActivity/estimate_community_flow",
        0x9efc959234244776,
    ),
    (
        "m40/ResultingActivity/impact_distribution",
        0xcf8b2ebcbe902240,
    ),
    (
        "m40/ResultingActivity/multi_chain_flow/threads=false",
        0x1fbc2b8a53f81a9b,
    ),
    (
        "m40/ResultingActivity/multi_chain_flow/threads=true",
        0x1fbc2b8a53f81a9b,
    ),
    (
        "m40/ResultingActivity/multi_chain_flow_guarded/unlimited/threads=false",
        0x3e0f5f3aeb7b9550,
    ),
    (
        "m40/ResultingActivity/multi_chain_flow_guarded/unlimited/threads=true",
        0x3e0f5f3aeb7b9550,
    ),
    (
        "m40/ResultingActivity/multi_chain_flow_guarded/steps_in_sampling/threads=false",
        0x1052ad8a5f247cf8,
    ),
    (
        "m40/ResultingActivity/multi_chain_flow_guarded/steps_in_sampling/threads=true",
        0x1052ad8a5f247cf8,
    ),
    (
        "m40/ResultingActivity/multi_chain_flow_guarded/wall_never_fires/threads=false",
        0x3e0f5f3aeb7b9550,
    ),
    (
        "m40/ResultingActivity/multi_chain_flow_guarded/wall_never_fires/threads=true",
        0x3e0f5f3aeb7b9550,
    ),
    (
        "m40/ResultingActivity/multi_chain_flow_guarded/quality_targets/threads=false",
        0x13a2390c1cc3a5a1,
    ),
    (
        "m40/ResultingActivity/multi_chain_flow_guarded/quality_targets/threads=true",
        0x13a2390c1cc3a5a1,
    ),
    (
        "m40/ResultingActivity/shared_chain_flows/cold",
        0x6c197c98512cc03d,
    ),
    (
        "m40/ResultingActivity/shared_chain_flows/conditioned",
        0xdc7626c1df80e262,
    ),
    (
        "m40/ResultingActivity/shared_chain_flows/warm_budgeted",
        0xfff00079f808dfea,
    ),
    (
        "m40/ResultingActivity/shared_chain_flows/steps_in_sampling",
        0x4730740f72220884,
    ),
    (
        "m40/ResultingActivity/shared_chain_flows/steps_in_burn_in",
        0x45cf73aca6a02e01,
    ),
    (
        "m40/ResultingActivity/shared_chain_flows/wall_never_fires",
        0xe27fa25ec4a0c02a,
    ),
    ("m40/ResultingActivity/arrival_times", 0xb5a111dfecd79e64),
    (
        "m40/ResultingActivity/expected_reach_within",
        0xc51447d43760dc6a,
    ),
    (
        "m40/ResultingActivity/flow_probability_distribution",
        0x213b774164302368,
    ),
    (
        "m40/ResultingActivity/impact_mean_distribution",
        0xcb95731566942304,
    ),
    ("m40/CurrentActivity/estimate_flow", 0x3c8f2b5906615a78),
    (
        "m40/CurrentActivity/estimate_flows_from",
        0xd1bbb70e82ef3f76,
    ),
    (
        "m40/CurrentActivity/estimate_conditional_flow",
        0x5f8b92083efbb597,
    ),
    (
        "m40/CurrentActivity/estimate_conditional_flows_from",
        0x9ff2e12bc3e6e0b1,
    ),
    (
        "m40/CurrentActivity/estimate_flow_checkpointed+resume_from",
        0xe7b9446d77b1f923,
    ),
    (
        "m40/CurrentActivity/estimate_joint_flow",
        0x5cb1452edf0fde5a,
    ),
    (
        "m40/CurrentActivity/estimate_community_flow",
        0x0786897687c2c105,
    ),
    (
        "m40/CurrentActivity/impact_distribution",
        0xbd0b639a8778b5e6,
    ),
    (
        "m40/CurrentActivity/multi_chain_flow/threads=false",
        0x09e09c0f39470258,
    ),
    (
        "m40/CurrentActivity/multi_chain_flow/threads=true",
        0x09e09c0f39470258,
    ),
    (
        "m40/CurrentActivity/multi_chain_flow_guarded/unlimited/threads=false",
        0x2489d5bbb2df2bcf,
    ),
    (
        "m40/CurrentActivity/multi_chain_flow_guarded/unlimited/threads=true",
        0x2489d5bbb2df2bcf,
    ),
    (
        "m40/CurrentActivity/multi_chain_flow_guarded/steps_in_sampling/threads=false",
        0xcf026c76bd611ac2,
    ),
    (
        "m40/CurrentActivity/multi_chain_flow_guarded/steps_in_sampling/threads=true",
        0xcf026c76bd611ac2,
    ),
    (
        "m40/CurrentActivity/multi_chain_flow_guarded/wall_never_fires/threads=false",
        0x2489d5bbb2df2bcf,
    ),
    (
        "m40/CurrentActivity/multi_chain_flow_guarded/wall_never_fires/threads=true",
        0x2489d5bbb2df2bcf,
    ),
    (
        "m40/CurrentActivity/multi_chain_flow_guarded/quality_targets/threads=false",
        0x86d28d3845724763,
    ),
    (
        "m40/CurrentActivity/multi_chain_flow_guarded/quality_targets/threads=true",
        0x86d28d3845724763,
    ),
    (
        "m40/CurrentActivity/shared_chain_flows/cold",
        0x679c0eac64acdc29,
    ),
    (
        "m40/CurrentActivity/shared_chain_flows/conditioned",
        0x01a396c63ab8ef6e,
    ),
    (
        "m40/CurrentActivity/shared_chain_flows/warm_budgeted",
        0xb6e4a35644c4f2bc,
    ),
    (
        "m40/CurrentActivity/shared_chain_flows/steps_in_sampling",
        0x90b773a4e8b6b2c6,
    ),
    (
        "m40/CurrentActivity/shared_chain_flows/steps_in_burn_in",
        0x63854d255b694099,
    ),
    (
        "m40/CurrentActivity/shared_chain_flows/wall_never_fires",
        0x4d1c777ee50cf224,
    ),
    ("m40/CurrentActivity/arrival_times", 0x3ef0ba94ed86ec5c),
    (
        "m40/CurrentActivity/expected_reach_within",
        0xcd0f944c1bde4244,
    ),
    (
        "m40/CurrentActivity/flow_probability_distribution",
        0x8e68a68935c6e0d9,
    ),
    (
        "m40/CurrentActivity/impact_mean_distribution",
        0x8b2aa48994f7171e,
    ),
    ("m40/Independent/estimate_flow", 0xf09139cfbe248a6f),
    ("m40/Independent/estimate_flows_from", 0xb1ad35d1bfaaa87a),
    (
        "m40/Independent/estimate_conditional_flow",
        0xc824aa9410b5f230,
    ),
    (
        "m40/Independent/estimate_conditional_flows_from",
        0x6220afcdd4d3b8c4,
    ),
    (
        "m40/Independent/estimate_flow_checkpointed+resume_from",
        0x7cb1da976e4f26c2,
    ),
    ("m40/Independent/estimate_joint_flow", 0xb514c3fcc4a5f74c),
    (
        "m40/Independent/estimate_community_flow",
        0xd04bc2304d601cd5,
    ),
    ("m40/Independent/impact_distribution", 0xbc31f0a74f55d1d8),
    (
        "m40/Independent/multi_chain_flow/threads=false",
        0x97acaf4198ebe725,
    ),
    (
        "m40/Independent/multi_chain_flow/threads=true",
        0x97acaf4198ebe725,
    ),
    (
        "m40/Independent/multi_chain_flow_guarded/unlimited/threads=false",
        0xacd4fd50913ba43a,
    ),
    (
        "m40/Independent/multi_chain_flow_guarded/unlimited/threads=true",
        0xacd4fd50913ba43a,
    ),
    (
        "m40/Independent/multi_chain_flow_guarded/steps_in_sampling/threads=false",
        0x8caf44f17827c55a,
    ),
    (
        "m40/Independent/multi_chain_flow_guarded/steps_in_sampling/threads=true",
        0x8caf44f17827c55a,
    ),
    (
        "m40/Independent/multi_chain_flow_guarded/wall_never_fires/threads=false",
        0xacd4fd50913ba43a,
    ),
    (
        "m40/Independent/multi_chain_flow_guarded/wall_never_fires/threads=true",
        0xacd4fd50913ba43a,
    ),
    (
        "m40/Independent/multi_chain_flow_guarded/quality_targets/threads=false",
        0x6c6019b0c7da396d,
    ),
    (
        "m40/Independent/multi_chain_flow_guarded/quality_targets/threads=true",
        0x6c6019b0c7da396d,
    ),
    (
        "m40/Independent/shared_chain_flows/cold",
        0xe00cd606acf30602,
    ),
    (
        "m40/Independent/shared_chain_flows/conditioned",
        0x126c3fcc5be161f1,
    ),
    (
        "m40/Independent/shared_chain_flows/warm_budgeted",
        0xd8fb140693e3532b,
    ),
    (
        "m40/Independent/shared_chain_flows/steps_in_sampling",
        0xc0fb5087fef83175,
    ),
    (
        "m40/Independent/shared_chain_flows/steps_in_burn_in",
        0x940295b41c82bf5a,
    ),
    (
        "m40/Independent/shared_chain_flows/wall_never_fires",
        0x56b5943b7699322d,
    ),
    ("m40/Independent/arrival_times", 0x8583c357e44b15c3),
    ("m40/Independent/expected_reach_within", 0xb548590aea83e957),
    (
        "m40/Independent/flow_probability_distribution",
        0x4e1c5c891296377d,
    ),
    (
        "m40/Independent/impact_mean_distribution",
        0x59aef85cdd90af96,
    ),
    ("m120/ResultingActivity/estimate_flow", 0x23321219636a555e),
    (
        "m120/ResultingActivity/estimate_flows_from",
        0x9133fa5937d46322,
    ),
    (
        "m120/ResultingActivity/estimate_conditional_flow",
        0x76927823ba765af9,
    ),
    (
        "m120/ResultingActivity/estimate_conditional_flows_from",
        0x968c0524987dd448,
    ),
    (
        "m120/ResultingActivity/estimate_flow_checkpointed+resume_from",
        0x456e859254113338,
    ),
    (
        "m120/ResultingActivity/estimate_joint_flow",
        0xbf06eb27bb51f570,
    ),
    (
        "m120/ResultingActivity/estimate_community_flow",
        0x45009368af9bc3ff,
    ),
    (
        "m120/ResultingActivity/impact_distribution",
        0xf12cb98dc3cef543,
    ),
    (
        "m120/ResultingActivity/multi_chain_flow/threads=false",
        0xc6402b5b3fdcb6a8,
    ),
    (
        "m120/ResultingActivity/multi_chain_flow/threads=true",
        0xc6402b5b3fdcb6a8,
    ),
    (
        "m120/ResultingActivity/multi_chain_flow_guarded/unlimited/threads=false",
        0xad4ad28baf3105b1,
    ),
    (
        "m120/ResultingActivity/multi_chain_flow_guarded/unlimited/threads=true",
        0xad4ad28baf3105b1,
    ),
    (
        "m120/ResultingActivity/multi_chain_flow_guarded/steps_in_sampling/threads=false",
        0x54d7bf54c2116a32,
    ),
    (
        "m120/ResultingActivity/multi_chain_flow_guarded/steps_in_sampling/threads=true",
        0x54d7bf54c2116a32,
    ),
    (
        "m120/ResultingActivity/multi_chain_flow_guarded/wall_never_fires/threads=false",
        0xad4ad28baf3105b1,
    ),
    (
        "m120/ResultingActivity/multi_chain_flow_guarded/wall_never_fires/threads=true",
        0xad4ad28baf3105b1,
    ),
    (
        "m120/ResultingActivity/multi_chain_flow_guarded/quality_targets/threads=false",
        0x9f27f1a41a0e820c,
    ),
    (
        "m120/ResultingActivity/multi_chain_flow_guarded/quality_targets/threads=true",
        0x9f27f1a41a0e820c,
    ),
    (
        "m120/ResultingActivity/multi_chain_flow_guarded/steps_in_burn_in",
        0xbe7812f7a52555ee,
    ),
    (
        "m120/ResultingActivity/shared_chain_flows/cold",
        0x40df71e65da12687,
    ),
    (
        "m120/ResultingActivity/shared_chain_flows/conditioned",
        0xec9822c55b85b509,
    ),
    (
        "m120/ResultingActivity/shared_chain_flows/warm_budgeted",
        0x72cf148de50237a8,
    ),
    (
        "m120/ResultingActivity/shared_chain_flows/steps_in_sampling",
        0x77d47bf7d3fbdf7b,
    ),
    (
        "m120/ResultingActivity/shared_chain_flows/steps_in_burn_in",
        0x8cead94256958a61,
    ),
    (
        "m120/ResultingActivity/shared_chain_flows/wall_never_fires",
        0x96da47b20144f501,
    ),
    ("m120/ResultingActivity/arrival_times", 0x4738e3098684504c),
    (
        "m120/ResultingActivity/expected_reach_within",
        0x7d3c66aa6a215bde,
    ),
    (
        "m120/ResultingActivity/flow_probability_distribution",
        0xd88536f48eefa417,
    ),
    (
        "m120/ResultingActivity/impact_mean_distribution",
        0x2d610e45debb9d9d,
    ),
    ("m120/CurrentActivity/estimate_flow", 0x09c3f8f8b687c237),
    (
        "m120/CurrentActivity/estimate_flows_from",
        0x85c64fdd27565cc3,
    ),
    (
        "m120/CurrentActivity/estimate_conditional_flow",
        0xc84e5ed0b54a2fce,
    ),
    (
        "m120/CurrentActivity/estimate_conditional_flows_from",
        0x035d6143027c6ecc,
    ),
    (
        "m120/CurrentActivity/estimate_flow_checkpointed+resume_from",
        0xa921962c41004c7c,
    ),
    (
        "m120/CurrentActivity/estimate_joint_flow",
        0x38191cf3852de983,
    ),
    (
        "m120/CurrentActivity/estimate_community_flow",
        0x2ea5f65d9fed2734,
    ),
    (
        "m120/CurrentActivity/impact_distribution",
        0x8e41ce1d5fef2351,
    ),
    (
        "m120/CurrentActivity/multi_chain_flow/threads=false",
        0xac7d4020a20e8aae,
    ),
    (
        "m120/CurrentActivity/multi_chain_flow/threads=true",
        0xac7d4020a20e8aae,
    ),
    (
        "m120/CurrentActivity/multi_chain_flow_guarded/unlimited/threads=false",
        0xf3f9b166f4eb6a77,
    ),
    (
        "m120/CurrentActivity/multi_chain_flow_guarded/unlimited/threads=true",
        0xf3f9b166f4eb6a77,
    ),
    (
        "m120/CurrentActivity/multi_chain_flow_guarded/steps_in_sampling/threads=false",
        0x0b8d0d3a873cf15b,
    ),
    (
        "m120/CurrentActivity/multi_chain_flow_guarded/steps_in_sampling/threads=true",
        0x0b8d0d3a873cf15b,
    ),
    (
        "m120/CurrentActivity/multi_chain_flow_guarded/wall_never_fires/threads=false",
        0xf3f9b166f4eb6a77,
    ),
    (
        "m120/CurrentActivity/multi_chain_flow_guarded/wall_never_fires/threads=true",
        0xf3f9b166f4eb6a77,
    ),
    (
        "m120/CurrentActivity/multi_chain_flow_guarded/quality_targets/threads=false",
        0x8d870ff6c6566313,
    ),
    (
        "m120/CurrentActivity/multi_chain_flow_guarded/quality_targets/threads=true",
        0x8d870ff6c6566313,
    ),
    (
        "m120/CurrentActivity/multi_chain_flow_guarded/steps_in_burn_in",
        0x765755d4223aaaf2,
    ),
    (
        "m120/CurrentActivity/shared_chain_flows/cold",
        0x9be9abc6233cf4ef,
    ),
    (
        "m120/CurrentActivity/shared_chain_flows/conditioned",
        0x15259142521c7bdb,
    ),
    (
        "m120/CurrentActivity/shared_chain_flows/warm_budgeted",
        0x92a393a6c8124e8e,
    ),
    (
        "m120/CurrentActivity/shared_chain_flows/steps_in_sampling",
        0x35afb204ce926145,
    ),
    (
        "m120/CurrentActivity/shared_chain_flows/steps_in_burn_in",
        0x8ea4cc42b99484a0,
    ),
    (
        "m120/CurrentActivity/shared_chain_flows/wall_never_fires",
        0xf682a17e18c6cd2e,
    ),
    ("m120/CurrentActivity/arrival_times", 0xb861da112c440002),
    (
        "m120/CurrentActivity/expected_reach_within",
        0x2333a4d050fddca2,
    ),
    (
        "m120/CurrentActivity/flow_probability_distribution",
        0x31e615572b354449,
    ),
    (
        "m120/CurrentActivity/impact_mean_distribution",
        0xf4ef28fdfbffb0d2,
    ),
    ("m120/Independent/estimate_flow", 0x3d557c3f3d3c1d07),
    ("m120/Independent/estimate_flows_from", 0x56302b66ebb2569b),
    (
        "m120/Independent/estimate_conditional_flow",
        0x6ba7db0ad6575b8d,
    ),
    (
        "m120/Independent/estimate_conditional_flows_from",
        0x4389f069cc8db5a9,
    ),
    (
        "m120/Independent/estimate_flow_checkpointed+resume_from",
        0x10cefbc1a23eacc4,
    ),
    ("m120/Independent/estimate_joint_flow", 0x0087d3bb17a17568),
    (
        "m120/Independent/estimate_community_flow",
        0x9dd29e8d294f863f,
    ),
    ("m120/Independent/impact_distribution", 0x19481dbe0ce2f807),
    (
        "m120/Independent/multi_chain_flow/threads=false",
        0x511316a58d0fd481,
    ),
    (
        "m120/Independent/multi_chain_flow/threads=true",
        0x511316a58d0fd481,
    ),
    (
        "m120/Independent/multi_chain_flow_guarded/unlimited/threads=false",
        0x4f617dd9bb39db4f,
    ),
    (
        "m120/Independent/multi_chain_flow_guarded/unlimited/threads=true",
        0x4f617dd9bb39db4f,
    ),
    (
        "m120/Independent/multi_chain_flow_guarded/steps_in_sampling/threads=false",
        0x99b71d6aea14d43a,
    ),
    (
        "m120/Independent/multi_chain_flow_guarded/steps_in_sampling/threads=true",
        0x99b71d6aea14d43a,
    ),
    (
        "m120/Independent/multi_chain_flow_guarded/wall_never_fires/threads=false",
        0x4f617dd9bb39db4f,
    ),
    (
        "m120/Independent/multi_chain_flow_guarded/wall_never_fires/threads=true",
        0x4f617dd9bb39db4f,
    ),
    (
        "m120/Independent/multi_chain_flow_guarded/quality_targets/threads=false",
        0xb9b8dda649d9cc1e,
    ),
    (
        "m120/Independent/multi_chain_flow_guarded/quality_targets/threads=true",
        0xb9b8dda649d9cc1e,
    ),
    (
        "m120/Independent/multi_chain_flow_guarded/steps_in_burn_in",
        0x1ba05719da2619a8,
    ),
    (
        "m120/Independent/shared_chain_flows/cold",
        0xdb2d1c9c2777af9b,
    ),
    (
        "m120/Independent/shared_chain_flows/conditioned",
        0x210254251e5f9497,
    ),
    (
        "m120/Independent/shared_chain_flows/warm_budgeted",
        0x1a6200488232fbf6,
    ),
    (
        "m120/Independent/shared_chain_flows/steps_in_sampling",
        0x8144050098a499ed,
    ),
    (
        "m120/Independent/shared_chain_flows/steps_in_burn_in",
        0xa339d8ff81caaae3,
    ),
    (
        "m120/Independent/shared_chain_flows/wall_never_fires",
        0x952df7dcc4ab227c,
    ),
    ("m120/Independent/arrival_times", 0xbd493b5ded67049e),
    ("m120/Independent/expected_reach_within", 0x017597065d275645),
    (
        "m120/Independent/flow_probability_distribution",
        0xcac246b9a810520e,
    ),
    (
        "m120/Independent/impact_mean_distribution",
        0x78cc76949ca00cf1,
    ),
    (
        "frozen/ResultingActivity/multi_chain_flow_guarded",
        0xcefc30707c90978d,
    ),
    (
        "frozen/CurrentActivity/multi_chain_flow_guarded",
        0xcefc30707c90978d,
    ),
    (
        "frozen/Independent/multi_chain_flow_guarded",
        0x40cc27366dd0e062,
    ),
];

//! Shared-chain, budget-aware flow evaluation — the sampling primitive
//! behind the `flow-serve` query engine.
//!
//! [`FlowEstimator::estimate_flows_from`] already amortizes one chain
//! across many sinks, but it always pays full burn-in, cannot resume
//! from a cached chain, and has no notion of a deadline. The serving
//! workload (many overlapping queries against one learned model) needs
//! all three, so [`shared_chain_flows`] generalizes it:
//!
//! * **many targets, one chain** — each retained pseudo-state computes
//!   the source's reach set once (`O(m)`) and reads off every target:
//!   plain sinks and whole communities ([`SharedTarget`]);
//! * **warm starts** — an optional [`ChainCheckpoint`] seeds the chain
//!   mid-trajectory, skipping burn-in entirely (the serving cache's
//!   refinement path);
//! * **budgets** — per-call step and wall-clock bounds; when one runs
//!   out the call returns what it collected plus an explicit
//!   [`DegradationReason`] instead of stalling the batch;
//! * **resumability** — the outcome carries a checkpoint of the final
//!   chain state, so the *next* query for the same chain can continue
//!   where this one stopped.
//!
//! The chain runs through the crate's chain driver (`drive.rs`), which
//! owns the burn-in blocks, the budget checks and the phase spans.
//!
//! Telemetry emitted here (the `mcmc.burn_in`/`mcmc.sampling` spans and
//! budget degradation events) carries no explicit trace coordinate:
//! when the caller runs this under a `flow_obs::TraceContext` — as the
//! serve executor does per plan — every event inherits the query's
//! trace ambiently, so a `repro report --by-query` can attribute chain
//! work to the query that caused it.

use crate::budget::DegradationReason;
use crate::checkpoint::ChainCheckpoint;
use crate::drive::{drive, Protocol, MCMC_PHASES};
use crate::estimator::McmcConfig;
use crate::sampler::PseudoStateSampler;
use flow_core::FlowResult;
use flow_graph::{BitSet, NodeId};
use flow_icm::{FlowCondition, Icm};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// One thing a shared chain evaluates at every retained sample.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SharedTarget {
    /// End-to-end flow `source ~> sink` (Eq. 5/6).
    Sink(NodeId),
    /// Source-to-community flow (§II's multiple-sink flow): tracked as
    /// all-reached / any-reached / member-count statistics.
    Community(Vec<NodeId>),
}

impl SharedTarget {
    /// The nodes this target counts: a sink is a one-member community.
    fn members(&self) -> &[NodeId] {
        match self {
            SharedTarget::Sink(sink) => std::slice::from_ref(sink),
            SharedTarget::Community(members) => members,
        }
    }
}

/// Hit counters for one target, accumulated over retained samples.
///
/// For a [`SharedTarget::Sink`] the three counters coincide (`members`
/// counts hits); for a community they are the numerators of the
/// all / any / expected-fraction statistics of
/// [`crate::estimator::CommunityFlow`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TargetCounts {
    /// Samples in which *every* member (or the sink) was reached.
    pub all: u64,
    /// Samples in which *at least one* member (or the sink) was reached.
    pub any: u64,
    /// Total member hits across samples (= `all` for a sink).
    pub members: u64,
}

impl TargetCounts {
    /// Merges counts from a second run over the same chain/target
    /// (pooling cached and refinement samples).
    pub fn merge(&self, other: &TargetCounts) -> TargetCounts {
        TargetCounts {
            all: self.all + other.all,
            any: self.any + other.any,
            members: self.members + other.members,
        }
    }

    /// Counts one retained sample: which of `members` the source's
    /// reach set holds (the source itself never counts as reached).
    pub(crate) fn record(&mut self, members: &[NodeId], source: NodeId, reach: &BitSet) {
        let reached = members
            .iter()
            .filter(|&&v| v != source && reach.get(v.index()))
            .count() as u64;
        if reached == members.len() as u64 && !members.is_empty() {
            self.all += 1;
        }
        if reached > 0 {
            self.any += 1;
        }
        self.members += reached;
    }
}

/// One shared-chain evaluation request.
#[derive(Clone, Debug)]
pub struct SharedChainRequest<'a> {
    /// Flow source shared by every target.
    pub source: NodeId,
    /// Targets read off each retained sample.
    pub targets: &'a [SharedTarget],
    /// Flow conditions (normalized upstream; they shape the chain).
    pub conditions: &'a [FlowCondition],
    /// Chain seed (ignored when `warm` is given — the checkpoint's RNG
    /// state continues instead).
    pub seed: u64,
    /// Optional chain state to continue from, skipping burn-in.
    pub warm: Option<&'a ChainCheckpoint>,
    /// Retained samples to collect in this call.
    pub samples: usize,
    /// Step budget for this call (burn-in plus thinning).
    pub max_steps: Option<u64>,
    /// Wall-clock budget for this call.
    pub deadline: Option<Duration>,
}

/// What a shared-chain evaluation produced.
#[derive(Clone, Debug)]
pub struct SharedChainOutcome {
    /// Per-target counters, aligned with the request's target order.
    pub counts: Vec<TargetCounts>,
    /// Retained samples actually collected (≤ requested on budget
    /// exhaustion).
    pub samples_done: usize,
    /// Chain steps consumed by this call.
    pub steps: u64,
    /// Every way the call fell short; empty means it ran to completion.
    pub degradation: Vec<DegradationReason>,
    /// The final chain state, capturable for warm continuation.
    pub checkpoint: ChainCheckpoint,
}

/// Estimates flows to many targets from a single chain under a budget.
///
/// Cold starts pay `config`'s burn-in; warm starts continue the
/// checkpointed trajectory directly. The call never spins past its
/// budget: on exhaustion it returns the counts collected so far with a
/// [`DegradationReason::StepBudgetExhausted`] /
/// [`DegradationReason::WallClockExhausted`] marker, and the returned
/// checkpoint lets a later call continue the same chain.
pub fn shared_chain_flows(
    icm: &Icm,
    config: &McmcConfig,
    req: &SharedChainRequest<'_>,
) -> FlowResult<SharedChainOutcome> {
    let (mut sampler, mut rng) = match req.warm {
        Some(ckpt) => ckpt.restore_with_conditions(icm, req.conditions.to_vec())?,
        None => {
            let mut rng = StdRng::seed_from_u64(req.seed);
            let sampler = PseudoStateSampler::with_conditions(
                icm,
                config.proposal,
                req.conditions.to_vec(),
                &mut rng,
            )?;
            (sampler, rng)
        }
    };
    let entry_steps = sampler.steps();
    let mut protocol = Protocol {
        samples: req.samples,
        max_steps: req.max_steps,
        max_wall: req.deadline,
        phases: Some(MCMC_PHASES),
        ..Protocol::new(config, icm.edge_count())
    };
    if req.warm.is_some() {
        // A warm chain continues its trajectory: no burn-in.
        protocol.burn_in = 0;
    }
    let mut counts = vec![TargetCounts::default(); req.targets.len()];
    let driven = drive(&protocol, &mut sampler, &mut rng, |sampler, _, _| {
        let reach = sampler.reach_set(&[req.source]);
        for (count, target) in counts.iter_mut().zip(req.targets) {
            count.record(target.members(), req.source, reach);
        }
    })?;
    let checkpoint = ChainCheckpoint::capture(&mut sampler, &rng);
    Ok(SharedChainOutcome {
        counts,
        samples_done: driven.samples,
        steps: sampler.steps() - entry_steps,
        degradation: driven.degradation.into_iter().collect(),
        checkpoint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::FlowEstimator;
    use flow_graph::graph::graph_from_edges;
    use flow_icm::exact::enumerate_flow_probability;

    fn diamond_icm() -> Icm {
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        Icm::new(g, vec![0.7, 0.4, 0.5, 0.6])
    }

    fn cfg(samples: usize) -> McmcConfig {
        McmcConfig {
            samples,
            ..Default::default()
        }
    }

    #[test]
    fn shared_chain_matches_enumeration() -> FlowResult<()> {
        let icm = diamond_icm();
        let targets = vec![
            SharedTarget::Sink(NodeId(1)),
            SharedTarget::Sink(NodeId(2)),
            SharedTarget::Sink(NodeId(3)),
            SharedTarget::Community(vec![NodeId(1), NodeId(3)]),
        ];
        let out = shared_chain_flows(
            &icm,
            &cfg(20_000),
            &SharedChainRequest {
                source: NodeId(0),
                targets: &targets,
                conditions: &[],
                seed: 11,
                warm: None,
                samples: 20_000,
                max_steps: None,
                deadline: None,
            },
        )?;
        assert!(out.degradation.is_empty());
        assert_eq!(out.samples_done, 20_000);
        let n = out.samples_done as f64;
        for (k, sink) in [NodeId(1), NodeId(2), NodeId(3)].iter().enumerate() {
            let exact = enumerate_flow_probability(&icm, NodeId(0), *sink);
            let got = out.counts[k].all as f64 / n;
            assert!((got - exact).abs() < 0.012, "sink {sink}: {got} vs {exact}");
        }
        // Community counters are internally coherent.
        let c = out.counts[3];
        assert!(c.all <= c.any);
        assert!(c.members <= 2 * out.samples_done as u64);
        assert!(c.all + c.any <= c.members + out.samples_done as u64);
        Ok(())
    }

    #[test]
    fn shared_chain_is_seed_deterministic_and_target_independent() -> FlowResult<()> {
        let icm = diamond_icm();
        let run = |targets: &[SharedTarget]| {
            shared_chain_flows(
                &icm,
                &cfg(500),
                &SharedChainRequest {
                    source: NodeId(0),
                    targets,
                    conditions: &[],
                    seed: 99,
                    warm: None,
                    samples: 500,
                    max_steps: None,
                    deadline: None,
                },
            )
        };
        let solo = run(&[SharedTarget::Sink(NodeId(3))])?;
        let batch = run(&[SharedTarget::Sink(NodeId(1)), SharedTarget::Sink(NodeId(3))])?;
        // Adding targets must not perturb the trajectory: the sink-3
        // counts are identical whether estimated alone or in a batch.
        assert_eq!(solo.counts[0], batch.counts[1]);
        assert_eq!(solo.checkpoint, batch.checkpoint);
        Ok(())
    }

    #[test]
    fn step_budget_degrades_instead_of_stalling() -> FlowResult<()> {
        let icm = diamond_icm();
        let targets = vec![SharedTarget::Sink(NodeId(3))];
        let out = shared_chain_flows(
            &icm,
            &cfg(1_000),
            &SharedChainRequest {
                source: NodeId(0),
                targets: &targets,
                conditions: &[],
                seed: 5,
                warm: None,
                samples: 1_000,
                max_steps: Some(600), // burn-in alone is 500
                deadline: None,
            },
        )?;
        assert!(out.samples_done < 1_000);
        assert!(out.steps <= 600 + 64);
        assert!(matches!(
            out.degradation.as_slice(),
            [DegradationReason::StepBudgetExhausted { .. }]
        ));
        Ok(())
    }

    #[test]
    fn warm_start_skips_burn_in_and_continues() -> FlowResult<()> {
        let icm = diamond_icm();
        let targets = vec![SharedTarget::Sink(NodeId(3))];
        let cold = shared_chain_flows(
            &icm,
            &cfg(400),
            &SharedChainRequest {
                source: NodeId(0),
                targets: &targets,
                conditions: &[],
                seed: 7,
                warm: None,
                samples: 400,
                max_steps: None,
                deadline: None,
            },
        )?;
        let warm = shared_chain_flows(
            &icm,
            &cfg(400),
            &SharedChainRequest {
                source: NodeId(0),
                targets: &targets,
                conditions: &[],
                seed: 0, // ignored on warm start
                warm: Some(&cold.checkpoint),
                samples: 400,
                max_steps: None,
                deadline: None,
            },
        )?;
        // No burn-in: exactly thin steps per retained sample.
        let thin = cfg(400).thin_steps(icm.edge_count()) as u64;
        assert_eq!(warm.steps, 400 * thin);
        assert_eq!(warm.samples_done, 400);
        // Pooled estimate is statistically sane.
        let exact = enumerate_flow_probability(&icm, NodeId(0), NodeId(3));
        let pooled = cold.counts[0].merge(&warm.counts[0]);
        let got = pooled.all as f64 / 800.0;
        assert!((got - exact).abs() < 0.08, "{got} vs {exact}");
        Ok(())
    }

    #[test]
    fn conditions_are_respected() -> FlowResult<()> {
        let icm = diamond_icm();
        let conditions = vec![FlowCondition::requires(NodeId(0), NodeId(1))];
        let targets = vec![SharedTarget::Sink(NodeId(1))];
        let out = shared_chain_flows(
            &icm,
            &cfg(300),
            &SharedChainRequest {
                source: NodeId(0),
                targets: &targets,
                conditions: &conditions,
                seed: 3,
                warm: None,
                samples: 300,
                max_steps: None,
                deadline: None,
            },
        )?;
        // The required flow holds in every retained sample.
        assert_eq!(out.counts[0].all, 300);
        Ok(())
    }

    #[test]
    fn shared_chain_agrees_with_flow_estimator() {
        // The serving primitive and the paper-facing estimator are two
        // views of the same chain protocol; their estimates must agree.
        let icm = diamond_icm();
        let targets = vec![SharedTarget::Sink(NodeId(3))];
        let out = shared_chain_flows(
            &icm,
            &cfg(20_000),
            &SharedChainRequest {
                source: NodeId(0),
                targets: &targets,
                conditions: &[],
                seed: 21,
                warm: None,
                samples: 20_000,
                max_steps: None,
                deadline: None,
            },
        )
        .unwrap();
        let shared = out.counts[0].all as f64 / out.samples_done as f64;
        let mut rng = StdRng::seed_from_u64(22);
        let est =
            FlowEstimator::new(&icm, cfg(20_000)).estimate_flow(NodeId(0), NodeId(3), &mut rng);
        assert!((shared - est).abs() < 0.02, "shared {shared} vs est {est}");
    }
}

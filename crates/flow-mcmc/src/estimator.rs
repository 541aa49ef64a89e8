//! Flow-probability estimation on top of the pseudo-state chain.
//!
//! [`FlowEstimator`] runs the paper's burn-in/thinning protocol (§III-B:
//! discard the first δ states, then keep every δ′-th state) through the
//! crate's chain driver and turns retained pseudo-states into the
//! quantities the paper queries:
//!
//! * end-to-end flow probabilities (Eq. 5),
//! * the same conditioned on required/forbidden flows (Eq. 6),
//! * joint flow probabilities,
//! * source-to-community flow, and
//! * the dispersion/impact distribution (how many nodes an object
//!   reaches — Fig. 4's retweet-count prediction).

use crate::checkpoint::{ChainCheckpoint, FlowCheckpoint};
use crate::drive::{drive, drive_offline, per_sample, Protocol, MCMC_PHASES};
use crate::sampler::{ConditionInitError, ProposalKind, PseudoStateSampler};
use crate::shared::TargetCounts;
use flow_core::{FlowError, FlowResult};
use flow_graph::NodeId;
use flow_icm::{FlowCondition, Icm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Burn-in / thinning / sample-count configuration.
///
/// `burn_in` and `thin` are in chain *steps*; when left `None` they
/// default to scale with the model's edge count `m` (each step touches
/// one edge, so order-`m` steps are needed to decorrelate a state).
#[derive(Clone, Copy, Debug)]
pub struct McmcConfig {
    /// Number of retained samples.
    pub samples: usize,
    /// Steps discarded before sampling; default `max(10·m, 500)`.
    pub burn_in: Option<usize>,
    /// Steps between retained samples (the paper's δ′); default
    /// `max(m, 8)`.
    pub thin: Option<usize>,
    /// Proposal-weight convention.
    pub proposal: ProposalKind,
}

impl Default for McmcConfig {
    fn default() -> Self {
        McmcConfig {
            samples: 2_000,
            burn_in: None,
            thin: None,
            proposal: ProposalKind::ResultingActivity,
        }
    }
}

impl McmcConfig {
    /// A lighter configuration for hot loops (fewer samples).
    pub fn fast() -> Self {
        McmcConfig {
            samples: 500,
            ..Self::default()
        }
    }

    /// Resolved burn-in steps for a model with `m` edges.
    pub fn burn_in_steps(&self, m: usize) -> usize {
        self.burn_in.unwrap_or_else(|| (10 * m).max(500))
    }

    /// Resolved thinning interval for a model with `m` edges.
    pub fn thin_steps(&self, m: usize) -> usize {
        self.thin.unwrap_or_else(|| m.max(8))
    }
}

/// Source-to-community flow summary (§II's "flow to multiple sink
/// nodes").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommunityFlow {
    /// Probability that *every* community member is reached.
    pub all: f64,
    /// Probability that *at least one* community member is reached.
    pub any: f64,
    /// Expected fraction of the community reached.
    pub expected_fraction: f64,
}

/// The outcome of a checkpointable flow estimate: the pooled value plus
/// the full retained 0/1 indicator series (the unit of bit-exact
/// resume comparison).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowRun {
    /// The retained indicator series, one 0/1 entry per sample.
    pub series: Vec<u8>,
}

impl FlowRun {
    fn from_series(series: Vec<u8>) -> Self {
        FlowRun { series }
    }

    /// The flow-probability estimate (mean of the indicator series).
    pub fn value(&self) -> f64 {
        let hits = self.series.iter().map(|&b| b as u64).sum();
        per_sample(hits, self.series.len())
    }
}

/// Estimates flow probabilities for one ICM by Metropolis–Hastings.
#[derive(Clone, Debug)]
pub struct FlowEstimator<'a> {
    icm: &'a Icm,
    config: McmcConfig,
}

impl<'a> FlowEstimator<'a> {
    /// Creates an estimator over `icm` with the given chain protocol.
    pub fn new(icm: &'a Icm, config: McmcConfig) -> Self {
        FlowEstimator { icm, config }
    }

    /// The model under estimation.
    pub fn icm(&self) -> &Icm {
        self.icm
    }

    /// The chain configuration.
    pub fn config(&self) -> McmcConfig {
        self.config
    }

    /// The configured chain protocol, unbudgeted and without spans.
    fn protocol(&self) -> Protocol {
        Protocol::new(&self.config, self.icm.edge_count())
    }

    /// The configured protocol with the `mcmc.*` phase spans.
    fn traced_protocol(&self) -> Protocol {
        Protocol {
            phases: Some(MCMC_PHASES),
            ..self.protocol()
        }
    }

    /// Estimates `Pr[source ~> sink | M]` (Eq. 5).
    pub fn estimate_flow<R: Rng + ?Sized>(&self, source: NodeId, sink: NodeId, rng: &mut R) -> f64 {
        self.estimate_flows_from(source, &[sink], rng)[0]
    }

    /// Estimates `Pr[source ~> sink]` for many sinks from a single
    /// chain: each retained sample computes the source's reach set once
    /// (`O(m)`) and reads off every sink.
    pub fn estimate_flows_from<R: Rng + ?Sized>(
        &self,
        source: NodeId,
        sinks: &[NodeId],
        rng: &mut R,
    ) -> Vec<f64> {
        let mut sampler = PseudoStateSampler::new(self.icm, self.config.proposal, rng);
        self.collect_flow_counts(&mut sampler, source, sinks, rng)
    }

    /// Estimates `Pr[source ~> sink | M, C]` for the given conditions
    /// (Eq. 6/8).
    pub fn estimate_conditional_flow<R: Rng + ?Sized>(
        &self,
        source: NodeId,
        sink: NodeId,
        conditions: &[FlowCondition],
        rng: &mut R,
    ) -> Result<f64, ConditionInitError> {
        Ok(self.estimate_conditional_flows_from(source, &[sink], conditions, rng)?[0])
    }

    /// Conditional variant of [`Self::estimate_flows_from`].
    pub fn estimate_conditional_flows_from<R: Rng + ?Sized>(
        &self,
        source: NodeId,
        sinks: &[NodeId],
        conditions: &[FlowCondition],
        rng: &mut R,
    ) -> Result<Vec<f64>, ConditionInitError> {
        let mut sampler = PseudoStateSampler::with_conditions(
            self.icm,
            self.config.proposal,
            conditions.to_vec(),
            rng,
        )?;
        Ok(self.collect_flow_counts(&mut sampler, source, sinks, rng))
    }

    fn collect_flow_counts<R: Rng + ?Sized>(
        &self,
        sampler: &mut PseudoStateSampler<'_>,
        source: NodeId,
        sinks: &[NodeId],
        rng: &mut R,
    ) -> Vec<f64> {
        let mut hits = vec![0u64; sinks.len()];
        drive_offline(&self.traced_protocol(), sampler, rng, |sampler, _, _| {
            let reach = sampler.reach_set(&[source]);
            for (k, &sink) in sinks.iter().enumerate() {
                if sink != source && reach.get(sink.index()) {
                    hits[k] += 1;
                }
            }
        });
        hits.iter()
            .map(|&h| per_sample(h, self.config.samples))
            .collect()
    }

    /// Estimates `Pr[source ~> sink]` with periodic checkpointing: after
    /// every `every` retained samples a [`FlowCheckpoint`] capturing the
    /// full resumable state (chain, RNG, series so far) is handed to
    /// `on_checkpoint`. A run resumed from any of those checkpoints via
    /// [`Self::resume_from`] produces a retained-sample series
    /// *bit-identical* to this uninterrupted run.
    ///
    /// The chain RNG is owned by this method (seeded from `seed`) so its
    /// state can be captured exactly.
    pub fn estimate_flow_checkpointed(
        &self,
        source: NodeId,
        sink: NodeId,
        seed: u64,
        every: usize,
        mut on_checkpoint: impl FnMut(&FlowCheckpoint),
    ) -> FlowResult<FlowRun> {
        assert!(every > 0, "checkpoint cadence must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sampler = PseudoStateSampler::new(self.icm, self.config.proposal, &mut rng);
        let samples = self.config.samples;
        let mut series: Vec<u8> = Vec::with_capacity(samples);
        drive(
            &self.traced_protocol(),
            &mut sampler,
            &mut rng,
            |sampler, rng, k| {
                let flow = sampler.carries_flow(source, sink);
                series.push(u8::from(flow));
                flow_obs::event(|| {
                    flow_obs::Event::new("sample")
                        .step(sampler.steps())
                        .u64("index", k as u64)
                        .u64("flow", u64::from(flow))
                });
                if (k + 1) % every == 0 && k + 1 < samples {
                    // `capture` rebuilds the weight tree, keeping this run
                    // on the exact same floating-point trajectory as any
                    // resumed continuation (which rebuilds from scratch).
                    let _capture = flow_obs::span("checkpoint.capture");
                    let ckpt = FlowCheckpoint {
                        chain: ChainCheckpoint::capture(sampler, rng),
                        source: source.0,
                        sink: sink.0,
                        samples_done: k + 1,
                        every,
                        series: series.clone(),
                    };
                    flow_obs::event(|| {
                        flow_obs::Event::new("checkpoint.capture")
                            .step(sampler.steps())
                            .u64("samples_done", (k + 1) as u64)
                    });
                    on_checkpoint(&ckpt);
                }
            },
        )?;
        Ok(FlowRun::from_series(series))
    }

    /// Resumes a checkpointed flow estimate, continuing until the
    /// configured sample count. The concatenated series (checkpointed
    /// prefix plus resumed suffix) is bit-identical to the uninterrupted
    /// run that produced the checkpoint, provided the estimator
    /// configuration matches.
    pub fn resume_from(&self, ckpt: &FlowCheckpoint) -> FlowResult<FlowRun> {
        if ckpt.samples_done > self.config.samples {
            return Err(FlowError::Checkpoint {
                detail: format!(
                    "checkpoint has {} samples but the configuration asks for {}",
                    ckpt.samples_done, self.config.samples
                ),
            });
        }
        if ckpt.every == 0 {
            return Err(FlowError::Checkpoint {
                detail: "checkpoint cadence must be positive".into(),
            });
        }
        let (mut sampler, mut rng) = ckpt.chain.restore(self.icm)?;
        let (source, sink) = (NodeId(ckpt.source), NodeId(ckpt.sink));
        flow_obs::event(|| {
            flow_obs::Event::new("checkpoint.resume")
                .step(sampler.steps())
                .u64("samples_done", ckpt.samples_done as u64)
        });
        let (done, samples) = (ckpt.samples_done, self.config.samples);
        let mut series = ckpt.series.clone();
        let rest = Protocol {
            burn_in: 0,
            samples: samples - done,
            ..self.traced_protocol()
        };
        drive(&rest, &mut sampler, &mut rng, |sampler, _, i| {
            series.push(u8::from(sampler.carries_flow(source, sink)));
            let k = done + i;
            if (k + 1) % ckpt.every == 0 && k + 1 < samples {
                // Mirror the uninterrupted run's rebuild at every
                // checkpoint boundary to stay on its exact trajectory.
                sampler.rebuild_tree();
            }
        })?;
        Ok(FlowRun::from_series(series))
    }

    /// Estimates the probability that *all* the given flows are present
    /// simultaneously — a joint flow probability.
    pub fn estimate_joint_flow<R: Rng + ?Sized>(
        &self,
        flows: &[(NodeId, NodeId)],
        rng: &mut R,
    ) -> f64 {
        let mut sampler = PseudoStateSampler::new(self.icm, self.config.proposal, rng);
        let mut hits = 0u64;
        drive_offline(&self.protocol(), &mut sampler, rng, |sampler, _, _| {
            if flows.iter().all(|&(u, v)| sampler.carries_flow(u, v)) {
                hits += 1;
            }
        });
        per_sample(hits, self.config.samples)
    }

    /// Estimates source-to-community flow: the probability of reaching
    /// all (resp. any) of `community`, and the expected fraction.
    pub fn estimate_community_flow<R: Rng + ?Sized>(
        &self,
        source: NodeId,
        community: &[NodeId],
        rng: &mut R,
    ) -> CommunityFlow {
        assert!(!community.is_empty(), "community must be non-empty");
        let mut sampler = PseudoStateSampler::new(self.icm, self.config.proposal, rng);
        let mut counts = TargetCounts::default();
        drive_offline(&self.protocol(), &mut sampler, rng, |sampler, _, _| {
            counts.record(community, source, sampler.reach_set(&[source]));
        });
        let n = self.config.samples;
        CommunityFlow {
            all: per_sample(counts.all, n),
            any: per_sample(counts.any, n),
            expected_fraction: per_sample(counts.members, n * community.len()),
        }
    }

    /// Samples the *impact* distribution of a source: for each retained
    /// pseudo-state, the number of non-source nodes reached. This is the
    /// dispersion measure behind Fig. 4 (predicted retweet counts).
    pub fn impact_distribution<R: Rng + ?Sized>(&self, source: NodeId, rng: &mut R) -> Vec<usize> {
        let mut sampler = PseudoStateSampler::new(self.icm, self.config.proposal, rng);
        let mut impacts = Vec::with_capacity(self.config.samples);
        drive_offline(&self.protocol(), &mut sampler, rng, |sampler, _, _| {
            impacts.push(sampler.reach_set(&[source]).count_ones() - 1); // exclude the source
        });
        impacts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_graph::graph::graph_from_edges;
    use flow_icm::exact::{
        enumerate_conditional_probability, enumerate_event_probability, enumerate_flow_probability,
    };
    use flow_icm::PseudoState;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_config() -> McmcConfig {
        McmcConfig {
            samples: 20_000,
            ..Default::default()
        }
    }

    fn diamond_icm() -> Icm {
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        Icm::new(g, vec![0.7, 0.4, 0.5, 0.6])
    }

    #[test]
    fn end_to_end_matches_enumeration() {
        let icm = diamond_icm();
        let exact = enumerate_flow_probability(&icm, NodeId(0), NodeId(3));
        let mut rng = StdRng::seed_from_u64(1);
        let est =
            FlowEstimator::new(&icm, test_config()).estimate_flow(NodeId(0), NodeId(3), &mut rng);
        assert!((est - exact).abs() < 0.012, "est {est}, exact {exact}");
    }

    #[test]
    fn multi_sink_estimates_match_singletons() {
        let icm = diamond_icm();
        let mut rng = StdRng::seed_from_u64(2);
        let est = FlowEstimator::new(&icm, test_config());
        let all = est.estimate_flows_from(
            NodeId(0),
            &[NodeId(1), NodeId(2), NodeId(3), NodeId(0)],
            &mut rng,
        );
        for (k, sink) in [NodeId(1), NodeId(2), NodeId(3)].iter().enumerate() {
            let exact = enumerate_flow_probability(&icm, NodeId(0), *sink);
            assert!(
                (all[k] - exact).abs() < 0.012,
                "sink {sink}: got {}, exact {exact}",
                all[k]
            );
        }
        // Flow to self is zero by the (vk ∈ Vi \ Vi⊕) definition.
        assert_eq!(all[3], 0.0);
    }

    #[test]
    fn joint_flow_matches_enumeration() {
        let icm = diamond_icm();
        let graph = icm.graph().clone();
        let exact = enumerate_event_probability(&icm, |x| {
            x.carries_flow(&graph, NodeId(0), NodeId(1))
                && x.carries_flow(&graph, NodeId(0), NodeId(3))
        });
        let mut rng = StdRng::seed_from_u64(3);
        let est = FlowEstimator::new(&icm, test_config())
            .estimate_joint_flow(&[(NodeId(0), NodeId(1)), (NodeId(0), NodeId(3))], &mut rng);
        assert!((est - exact).abs() < 0.012, "est {est}, exact {exact}");
    }

    #[test]
    fn conditional_flow_matches_enumeration() -> flow_core::FlowResult<()> {
        let icm = diamond_icm();
        let graph = icm.graph().clone();
        let conditions = vec![FlowCondition::requires(NodeId(0), NodeId(1))];
        let exact = enumerate_conditional_probability(
            &icm,
            |x| x.carries_flow(&graph, NodeId(0), NodeId(3)),
            |x| x.carries_flow(&graph, NodeId(0), NodeId(1)),
        )
        .ok_or(flow_core::FlowError::GraphInconsistency {
            detail: "conditioning event 0 ~> 1 has zero probability".into(),
        })?;
        let mut rng = StdRng::seed_from_u64(4);
        let est = FlowEstimator::new(&icm, test_config()).estimate_conditional_flow(
            NodeId(0),
            NodeId(3),
            &conditions,
            &mut rng,
        )?;
        assert!((est - exact).abs() < 0.012, "est {est}, exact {exact}");
        Ok(())
    }

    #[test]
    fn community_flow_consistency() {
        let icm = diamond_icm();
        let graph = icm.graph().clone();
        let community = [NodeId(1), NodeId(3)];
        let mut rng = StdRng::seed_from_u64(5);
        let cf = FlowEstimator::new(&icm, test_config()).estimate_community_flow(
            NodeId(0),
            &community,
            &mut rng,
        );
        assert!(cf.all <= cf.any + 1e-12);
        assert!(cf.all <= cf.expected_fraction + 1e-12);
        assert!(cf.expected_fraction <= cf.any + 1e-12);
        let exact_all = enumerate_event_probability(&icm, |x| {
            x.carries_flow(&graph, NodeId(0), NodeId(1))
                && x.carries_flow(&graph, NodeId(0), NodeId(3))
        });
        let exact_any = enumerate_event_probability(&icm, |x| {
            x.carries_flow(&graph, NodeId(0), NodeId(1))
                || x.carries_flow(&graph, NodeId(0), NodeId(3))
        });
        assert!((cf.all - exact_all).abs() < 0.015);
        assert!((cf.any - exact_any).abs() < 0.015);
    }

    #[test]
    fn impact_distribution_mean_matches_enumeration() {
        let icm = diamond_icm();
        let graph = icm.graph().clone();
        // E[impact] = sum over nodes v != src of P(src ~> v).
        let want: f64 = [NodeId(1), NodeId(2), NodeId(3)]
            .iter()
            .map(|&v| enumerate_flow_probability(&icm, NodeId(0), v))
            .sum();
        let mut rng = StdRng::seed_from_u64(6);
        let impacts =
            FlowEstimator::new(&icm, test_config()).impact_distribution(NodeId(0), &mut rng);
        assert_eq!(impacts.len(), 20_000);
        let mean = impacts.iter().sum::<usize>() as f64 / impacts.len() as f64;
        assert!((mean - want).abs() < 0.03, "mean {mean}, want {want}");
        assert!(impacts.iter().all(|&i| i < graph.node_count()));
    }

    #[test]
    fn config_defaults_scale_with_edges() {
        let c = McmcConfig::default();
        assert_eq!(c.burn_in_steps(200), 2_000);
        assert_eq!(c.thin_steps(200), 200);
        assert_eq!(c.burn_in_steps(10), 500);
        assert_eq!(c.thin_steps(2), 8);
        let explicit = McmcConfig {
            burn_in: Some(7),
            thin: Some(3),
            ..Default::default()
        };
        assert_eq!(explicit.burn_in_steps(200), 7);
        assert_eq!(explicit.thin_steps(200), 3);
        assert_eq!(McmcConfig::fast().samples, 500);
    }

    #[test]
    fn estimator_is_seed_deterministic() {
        let icm = diamond_icm();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            FlowEstimator::new(&icm, McmcConfig::fast()).estimate_flow(
                NodeId(0),
                NodeId(3),
                &mut rng,
            )
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn kill_and_resume_is_bit_identical() -> flow_core::FlowResult<()> {
        // The acceptance-criterion test: an uninterrupted checkpointed
        // run vs a run killed at a checkpoint and resumed must produce
        // identical retained-sample series.
        let icm = diamond_icm();
        let config = McmcConfig {
            samples: 400,
            ..Default::default()
        };
        let est = FlowEstimator::new(&icm, config);
        let mut checkpoints = Vec::new();
        let full = est.estimate_flow_checkpointed(NodeId(0), NodeId(3), 77, 100, |c| {
            checkpoints.push(c.clone())
        })?;
        assert_eq!(full.series.len(), 400);
        assert_eq!(checkpoints.len(), 3, "400 samples / every 100, last elided");
        // "Kill" at each checkpoint in turn and resume.
        for ckpt in &checkpoints {
            let resumed = est.resume_from(ckpt)?;
            assert_eq!(
                resumed.series, full.series,
                "diverged after sample {}",
                ckpt.samples_done
            );
            assert_eq!(resumed.value(), full.value());
        }
        // The text round-trip preserves resumability too.
        let reloaded = FlowCheckpoint::from_text(&checkpoints[1].to_text())?;
        assert_eq!(est.resume_from(&reloaded)?.series, full.series);
        // And the estimate is statistically sane.
        let exact = flow_icm::exact::enumerate_flow_probability(&icm, NodeId(0), NodeId(3));
        assert!((full.value() - exact).abs() < 0.1);
        Ok(())
    }

    #[test]
    fn resume_rejects_mismatched_configuration() -> flow_core::FlowResult<()> {
        let icm = diamond_icm();
        let big = FlowEstimator::new(
            &icm,
            McmcConfig {
                samples: 200,
                ..Default::default()
            },
        );
        let mut checkpoints = Vec::new();
        big.estimate_flow_checkpointed(NodeId(0), NodeId(3), 5, 100, |c| {
            checkpoints.push(c.clone())
        })?;
        let small = FlowEstimator::new(
            &icm,
            McmcConfig {
                samples: 50,
                ..Default::default()
            },
        );
        assert!(matches!(
            small.resume_from(&checkpoints[0]),
            Err(flow_core::FlowError::Checkpoint { .. })
        ));
        Ok(())
    }

    #[test]
    fn pseudo_state_probability_consistency() {
        // Sanity link between this module and Eq. 3: the all-inactive
        // state's probability is the product of (1 - p_e).
        let icm = diamond_icm();
        let x = PseudoState::all_inactive(icm.edge_count());
        let want: f64 = icm.probabilities().iter().map(|p| 1.0 - p).product();
        assert!((x.probability(&icm) - want).abs() < 1e-12);
    }
}

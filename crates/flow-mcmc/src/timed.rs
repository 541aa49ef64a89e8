//! Timed information flow — the paper's Discussion-section extension.
//!
//! > "Other extensions include adding edge latency or delay before a
//! > message is forwarded. This is trivially solved by assigning a
//! > delay distribution to each edge, and sample from these
//! > distributions for each sample from the posterior, i.e., assigning
//! > a weight to each edge that represents a time, and running a
//! > shortest path algorithm."
//!
//! [`TimedFlowEstimator`] implements exactly that: for every retained
//! pseudo-state of the Metropolis–Hastings chain it draws a delay for
//! each *active* edge from its [`DelayModel`] and computes the sink's
//! arrival time as the shortest path over the active subgraph. The
//! resulting sample set estimates the arrival-time distribution and
//! deadline probabilities `Pr[u ~> v within t]`.

use crate::drive::{drive_offline, per_sample, Phases, Protocol};
use crate::estimator::McmcConfig;
use crate::sampler::PseudoStateSampler;
use flow_graph::paths::shortest_path_distances;
use flow_graph::{EdgeId, NodeId};
use flow_icm::Icm;
use flow_stats::{Exponential, Gamma};
use rand::Rng;

/// A per-edge delay distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DelayModel {
    /// A deterministic delay.
    Fixed(f64),
    /// Uniform on `[lo, hi]`.
    Uniform(f64, f64),
    /// Exponential with the given rate.
    Exponential(f64),
    /// Gamma with shape and scale.
    Gamma(f64, f64),
}

impl DelayModel {
    /// Draws one delay.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            DelayModel::Fixed(t) => t,
            DelayModel::Uniform(lo, hi) => {
                if lo == hi {
                    lo
                } else {
                    rng.random_range(lo..hi)
                }
            }
            DelayModel::Exponential(rate) => Exponential::new(rate).sample(rng),
            DelayModel::Gamma(shape, scale) => Gamma::new(shape, scale).sample(rng),
        }
    }

    /// Expected delay.
    pub fn mean(&self) -> f64 {
        match *self {
            DelayModel::Fixed(t) => t,
            DelayModel::Uniform(lo, hi) => 0.5 * (lo + hi),
            DelayModel::Exponential(rate) => 1.0 / rate,
            DelayModel::Gamma(shape, scale) => shape * scale,
        }
    }

    /// Validates the parameters (nonnegative, finite, well-ordered).
    pub fn validate(&self) -> Result<(), String> {
        let ok = match *self {
            DelayModel::Fixed(t) => t >= 0.0 && t.is_finite(),
            DelayModel::Uniform(lo, hi) => lo >= 0.0 && hi >= lo && hi.is_finite(),
            DelayModel::Exponential(rate) => rate > 0.0 && rate.is_finite(),
            DelayModel::Gamma(shape, scale) => {
                shape > 0.0 && shape.is_finite() && scale > 0.0 && scale.is_finite()
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!("invalid delay model {self:?}"))
        }
    }
}

/// The timed estimator's phase spans.
const TIMED_PHASES: Phases = ("timed.burn_in", "timed.sampling");

/// Arrival-time samples for one source/sink pair: `None` entries are
/// retained states with no flow at all.
#[derive(Clone, Debug)]
pub struct ArrivalTimes {
    /// One entry per retained chain sample.
    pub samples: Vec<Option<f64>>,
}

impl ArrivalTimes {
    /// Fraction of samples with any flow (the plain flow probability).
    pub fn flow_probability(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|s| s.is_some()).count() as f64 / self.samples.len() as f64
    }

    /// `Pr[flow arrives within t]` (unconditional: no-flow counts as
    /// never arriving).
    pub fn probability_within(&self, t: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .filter(|s| matches!(s, Some(a) if *a <= t))
            .count() as f64
            / self.samples.len() as f64
    }

    /// Mean arrival time *given that the flow happens* (`None` if it
    /// never does).
    pub fn mean_arrival_given_flow(&self) -> Option<f64> {
        let arrived: Vec<f64> = self.samples.iter().filter_map(|s| *s).collect();
        if arrived.is_empty() {
            None
        } else {
            Some(arrived.iter().sum::<f64>() / arrived.len() as f64)
        }
    }

    /// Empirical quantile of the arrival time given flow.
    pub fn quantile_given_flow(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q));
        let mut arrived: Vec<f64> = self.samples.iter().filter_map(|s| *s).collect();
        if arrived.is_empty() {
            return None;
        }
        arrived.sort_by(|a, b| a.total_cmp(b));
        Some(flow_stats::empirical_quantile(&arrived, q))
    }
}

/// Samples arrival times by layering per-edge delays over the
/// Metropolis–Hastings pseudo-state chain.
#[derive(Clone, Debug)]
pub struct TimedFlowEstimator<'a> {
    icm: &'a Icm,
    delays: Vec<DelayModel>,
    config: McmcConfig,
}

impl<'a> TimedFlowEstimator<'a> {
    /// Creates a timed estimator with one delay model per edge.
    pub fn new(icm: &'a Icm, delays: Vec<DelayModel>, config: McmcConfig) -> Self {
        assert_eq!(
            delays.len(),
            icm.edge_count(),
            "need one delay model per edge"
        );
        for (i, d) in delays.iter().enumerate() {
            // flow-analyze: allow(L1: documented panicking constructor with try-style validate as the fallible path, L7: construction happens once at setup before any sampling entry runs)
            d.validate().unwrap_or_else(|e| panic!("edge {i}: {e}"));
        }
        TimedFlowEstimator {
            icm,
            delays,
            config,
        }
    }

    /// Uniform delay model across edges.
    pub fn with_uniform_delay(icm: &'a Icm, delay: DelayModel, config: McmcConfig) -> Self {
        Self::new(icm, vec![delay; icm.edge_count()], config)
    }

    /// The configured chain protocol with the `timed.*` phase spans.
    fn protocol(&self) -> Protocol {
        Protocol {
            phases: Some(TIMED_PHASES),
            ..Protocol::new(&self.config, self.icm.edge_count())
        }
    }

    /// Samples the arrival-time distribution of `source ~> sink`.
    pub fn arrival_times<R: Rng + ?Sized>(
        &self,
        source: NodeId,
        sink: NodeId,
        rng: &mut R,
    ) -> ArrivalTimes {
        let mut sampler = PseudoStateSampler::new(self.icm, self.config.proposal, rng);
        let mut samples = Vec::with_capacity(self.config.samples);
        let graph = self.icm.graph();
        let mut delay_buf = vec![0.0f64; self.icm.edge_count()];
        drive_offline(&self.protocol(), &mut sampler, rng, |sampler, rng, _| {
            let state = sampler.state().clone();
            if !state.carries_flow(graph, source, sink) {
                samples.push(None);
                return;
            }
            // Draw delays on active edges only, then shortest path.
            for e in graph.edges() {
                if state.is_active(e) {
                    delay_buf[e.index()] = self.delays[e.index()].sample(rng);
                }
            }
            let arrival = flow_graph::paths::shortest_path_to(
                graph,
                source,
                sink,
                |e: EdgeId| state.is_active(e),
                |e: EdgeId| delay_buf[e.index()],
            );
            samples.push(arrival);
        });
        flow_obs::event(|| {
            flow_obs::Event::new("timed.arrivals")
                .step(sampler.steps())
                .u64("samples", samples.len() as u64)
                .u64(
                    "arrived",
                    samples.iter().filter(|s| s.is_some()).count() as u64,
                )
        });
        ArrivalTimes { samples }
    }

    /// Expected number of nodes reached within `deadline` (timed
    /// impact): averages, over retained states and delay draws, the
    /// count of nodes whose shortest-path arrival is within the
    /// deadline.
    pub fn expected_reach_within<R: Rng + ?Sized>(
        &self,
        source: NodeId,
        deadline: f64,
        rng: &mut R,
    ) -> f64 {
        let mut sampler = PseudoStateSampler::new(self.icm, self.config.proposal, rng);
        let graph = self.icm.graph();
        let mut delay_buf = vec![0.0f64; self.icm.edge_count()];
        let mut total = 0u64;
        drive_offline(&self.protocol(), &mut sampler, rng, |sampler, rng, _| {
            let state = sampler.state().clone();
            for e in graph.edges() {
                if state.is_active(e) {
                    delay_buf[e.index()] = self.delays[e.index()].sample(rng);
                }
            }
            let dists = shortest_path_distances(
                graph,
                source,
                |e: EdgeId| state.is_active(e),
                |e: EdgeId| delay_buf[e.index()],
            );
            total += dists
                .iter()
                .enumerate()
                .filter(|&(v, d)| v != source.index() && matches!(d, Some(t) if *t <= deadline))
                .count() as u64;
        });
        per_sample(total, self.config.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_graph::graph::graph_from_edges;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line_icm(p: f64) -> Icm {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        Icm::with_uniform_probability(g, p)
    }

    fn cfg(samples: usize) -> McmcConfig {
        McmcConfig {
            samples,
            ..Default::default()
        }
    }

    #[test]
    fn fixed_delays_give_hop_counts() {
        let icm = line_icm(0.8);
        let est = TimedFlowEstimator::with_uniform_delay(&icm, DelayModel::Fixed(1.0), cfg(4_000));
        let mut rng = StdRng::seed_from_u64(1);
        let at = est.arrival_times(NodeId(0), NodeId(2), &mut rng);
        // Flow probability matches the untimed value p^2.
        assert!((at.flow_probability() - 0.64).abs() < 0.03);
        // Every arrival is exactly 2 hops.
        for s in at.samples.iter().flatten() {
            assert!((s - 2.0).abs() < 1e-12);
        }
        assert_eq!(at.mean_arrival_given_flow().map(|m| m.round()), Some(2.0));
        // Deadline semantics.
        assert_eq!(at.probability_within(1.5), 0.0);
        assert!((at.probability_within(2.5) - at.flow_probability()).abs() < 1e-12);
    }

    #[test]
    fn exponential_delays_have_expected_mean() {
        let icm = line_icm(1.0); // deterministic structure, random time
        let est =
            TimedFlowEstimator::with_uniform_delay(&icm, DelayModel::Exponential(2.0), cfg(4_000));
        let mut rng = StdRng::seed_from_u64(2);
        let at = est.arrival_times(NodeId(0), NodeId(2), &mut rng);
        assert!((at.flow_probability() - 1.0).abs() < 1e-9);
        // Two hops at mean 0.5 each.
        let mean = at.mean_arrival_given_flow().unwrap();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        let q50 = at.quantile_given_flow(0.5).unwrap();
        // Median of Erlang(2, rate 2) ≈ 0.839.
        assert!((q50 - 0.839).abs() < 0.07, "median {q50}");
    }

    #[test]
    fn shortest_path_beats_slow_direct_edge() {
        // Direct edge has a huge delay; the 2-hop route is faster.
        let g = graph_from_edges(3, &[(0, 2), (0, 1), (1, 2)]);
        let icm = Icm::with_uniform_probability(g, 1.0);
        let delays = vec![
            DelayModel::Fixed(10.0), // 0 -> 2
            DelayModel::Fixed(1.0),  // 0 -> 1
            DelayModel::Fixed(1.0),  // 1 -> 2
        ];
        let est = TimedFlowEstimator::new(&icm, delays, cfg(500));
        let mut rng = StdRng::seed_from_u64(3);
        let at = est.arrival_times(NodeId(0), NodeId(2), &mut rng);
        for s in at.samples.iter().flatten() {
            assert!((s - 2.0).abs() < 1e-12, "took the fast route");
        }
    }

    #[test]
    fn unconditional_within_infinity_equals_flow_probability() {
        let icm = line_icm(0.5);
        let est =
            TimedFlowEstimator::with_uniform_delay(&icm, DelayModel::Uniform(0.0, 3.0), cfg(4_000));
        let mut rng = StdRng::seed_from_u64(4);
        let at = est.arrival_times(NodeId(0), NodeId(2), &mut rng);
        assert!((at.probability_within(f64::INFINITY) - at.flow_probability()).abs() < 1e-12);
        assert!((at.flow_probability() - 0.25).abs() < 0.04);
        // Monotone in the deadline.
        assert!(at.probability_within(1.0) <= at.probability_within(2.0));
    }

    #[test]
    fn timed_impact_grows_with_deadline() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let icm = Icm::with_uniform_probability(g, 0.9);
        let est = TimedFlowEstimator::with_uniform_delay(&icm, DelayModel::Fixed(1.0), cfg(1_500));
        let mut rng = StdRng::seed_from_u64(5);
        let short = est.expected_reach_within(NodeId(0), 1.5, &mut rng);
        let long = est.expected_reach_within(NodeId(0), 3.5, &mut rng);
        assert!(short < long, "short {short} vs long {long}");
        // Within 1.5 only node 1 is reachable: expectation ≈ 0.9.
        assert!((short - 0.9).abs() < 0.05, "short {short}");
        // Within 3.5: 0.9 + 0.81 + 0.729 ≈ 2.44.
        assert!((long - 2.439).abs() < 0.1, "long {long}");
    }

    #[test]
    fn no_flow_pair_yields_empty_arrivals() {
        let g = graph_from_edges(3, &[(0, 1)]);
        let icm = Icm::with_uniform_probability(g, 0.5);
        let est = TimedFlowEstimator::with_uniform_delay(&icm, DelayModel::Fixed(1.0), cfg(200));
        let mut rng = StdRng::seed_from_u64(6);
        let at = est.arrival_times(NodeId(0), NodeId(2), &mut rng);
        assert_eq!(at.flow_probability(), 0.0);
        assert_eq!(at.mean_arrival_given_flow(), None);
        assert_eq!(at.quantile_given_flow(0.5), None);
    }

    #[test]
    fn delay_model_validation() {
        assert!(DelayModel::Fixed(0.0).validate().is_ok());
        assert!(DelayModel::Fixed(-1.0).validate().is_err());
        assert!(DelayModel::Uniform(1.0, 0.5).validate().is_err());
        assert!(DelayModel::Exponential(0.0).validate().is_err());
        assert!(DelayModel::Gamma(2.0, 0.5).validate().is_ok());
        assert!((DelayModel::Gamma(2.0, 0.5).mean() - 1.0).abs() < 1e-12);
        assert!((DelayModel::Uniform(1.0, 3.0).mean() - 2.0).abs() < 1e-12);
    }
}

//! Multi-chain estimation: run several independent Metropolis–Hastings
//! chains (optionally across threads), pool their samples, and check
//! convergence with the Gelman–Rubin statistic.
//!
//! The paper runs single chains with hand-picked burn-in/thinning; for
//! a library user the multi-chain wrapper both cuts wall-clock time on
//! multicore machines and turns "did my chain mix?" into a measured
//! quantity ([`MultiChainEstimate::r_hat`]).

use crate::budget::{DegradationReason, EstimateDiagnostics, PartialEstimate, RunBudget};
use crate::diagnostics::{effective_sample_size, gelman_rubin};
use crate::drive::{drive, drive_offline, Protocol};
use crate::estimator::McmcConfig;
use crate::sampler::PseudoStateSampler;
use flow_core::{FlowError, FlowResult};
use flow_graph::NodeId;
use flow_icm::Icm;
use flow_obs::Event;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A pooled multi-chain flow estimate with convergence diagnostics.
#[derive(Clone, Debug)]
pub struct MultiChainEstimate {
    /// Per-chain indicator series (one 0/1 value per retained sample).
    pub chains: Vec<Vec<f64>>,
    /// Per-chain acceptance rates.
    pub acceptance_rates: Vec<f64>,
}

impl MultiChainEstimate {
    /// The pooled flow-probability estimate.
    pub fn estimate(&self) -> f64 {
        let total: usize = self.chains.iter().map(|c| c.len()).sum();
        if total == 0 {
            return 0.0;
        }
        let hits: f64 = self.chains.iter().flatten().sum();
        hits / total as f64
    }

    /// Gelman–Rubin potential scale reduction across the chains
    /// (`None` with fewer than two chains or constant output).
    pub fn r_hat(&self) -> Option<f64> {
        gelman_rubin(&self.chains)
    }

    /// Total effective sample size (sum of per-chain ESS of the
    /// indicator series). A chain whose indicator never changed
    /// contributes 0 — the [`effective_sample_size`] constant-series
    /// sentinel — so a frozen chain cannot inflate the pooled ESS.
    pub fn effective_samples(&self) -> f64 {
        self.chains.iter().map(|c| effective_sample_size(c)).sum()
    }

    /// Monte-Carlo standard error of the pooled estimate, using the
    /// effective sample size.
    pub fn standard_error(&self) -> f64 {
        let p = self.estimate();
        let ess = self.effective_samples().max(1.0);
        (p * (1.0 - p) / ess).sqrt()
    }
}

/// Runs `chains` independent samplers (each with its own RNG stream
/// derived from `seed`) and records the `source ~> sink` indicator per
/// retained sample. Chains run on separate threads when `threads` is
/// true.
pub fn multi_chain_flow(
    icm: &Icm,
    source: NodeId,
    sink: NodeId,
    config: McmcConfig,
    chains: usize,
    seed: u64,
    threads: bool,
) -> MultiChainEstimate {
    assert!(chains >= 1, "need at least one chain");
    let protocol = Protocol::new(&config, icm.edge_count());
    let results = fan_out(chains, threads, |chain_idx| {
        let mut rng = StdRng::seed_from_u64(chain_seed(seed, chain_idx, 0));
        let mut sampler = PseudoStateSampler::new(icm, config.proposal, &mut rng);
        let mut series = Vec::with_capacity(config.samples);
        drive_offline(&protocol, &mut sampler, &mut rng, |sampler, _, _| {
            series.push(indicator(sampler.carries_flow(source, sink)));
        });
        (series, sampler.acceptance_rate())
    });
    let (chains_out, acceptance_rates) = results.into_iter().unzip();
    MultiChainEstimate {
        chains: chains_out,
        acceptance_rates,
    }
}

/// Runs `run(i)` for every chain index `i`, on scoped threads when
/// `threads` is set and there is more than one chain. Results come back
/// in chain order either way.
fn fan_out<T: Send>(chains: usize, threads: bool, run: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if !threads || chains < 2 {
        return (0..chains).map(run).collect();
    }
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..chains).map(|i| scope.spawn(move || run(i))).collect();
        handles
            .into_iter()
            // flow-analyze: allow(L1: join only fails if a chain panicked; re-raising preserves the original panic, L7: re-raise is the designed propagation — swallowing a chain panic would corrupt the pooled estimate)
            .map(|h| h.join().expect("chain thread panicked"))
            .collect()
    })
}

/// The mean of a chain's series; 0 for an empty one.
fn mean(series: &[f64]) -> f64 {
    if series.is_empty() {
        0.0
    } else {
        series.iter().sum::<f64>() / series.len() as f64
    }
}

/// The 0/1 value a retained state contributes to a flow's series.
fn indicator(flow: bool) -> f64 {
    if flow {
        1.0
    } else {
        0.0
    }
}

/// Per-chain seed stream. Attempt 0 seeds [`multi_chain_flow`]'s chains
/// and the guarded runner's first pass alike; the restart-attempt
/// component gives every restart of every chain a distinct,
/// deterministic stream.
fn chain_seed(seed: u64, chain_idx: usize, attempt: usize) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(chain_idx as u64 + 1)
        ^ 0xD1B5_4A32_D192_ED03u64.wrapping_mul(attempt as u64)
}

/// Acceptance rate below which a chain is considered stuck. The lazy
/// self-loop alone caps acceptance at 0.95; healthy chains on real
/// models sit far above this floor.
const STALL_ACCEPTANCE: f64 = 0.02;

/// Minimum steps before the stall detector may fire (rates over a
/// handful of steps are noise).
const STALL_MIN_STEPS: u64 = 200;

/// One completed chain attempt.
struct ChainRun {
    series: Vec<f64>,
    acceptance_rate: f64,
    /// Sampler steps this attempt consumed (burn-in plus thinning); the
    /// logical `step` coordinate for telemetry about this chain.
    steps: u64,
    /// Why the attempt stopped short of its samples, if it did.
    degradation: Option<DegradationReason>,
}

impl ChainRun {
    fn is_constant(&self) -> bool {
        self.series.windows(2).all(|w| w[0] == w[1])
    }
}

/// Runs one budget-aware chain attempt through the driver: burn-in then
/// thinned sampling, stopping early (with a recorded
/// [`DegradationReason`]) when the step or wall-clock budget runs out,
/// and propagating typed errors from the fallible sampler instead of
/// panicking.
#[allow(clippy::too_many_arguments)] // internal: one parameter per chain knob
fn run_chain_guarded(
    icm: &Icm,
    source: NodeId,
    sink: NodeId,
    config: &McmcConfig,
    budget: &RunBudget,
    chain_idx: usize,
    attempt: usize,
    seed: u64,
) -> FlowResult<ChainRun> {
    // Everything this attempt emits is stamped with the chain index, so
    // its trace stream stays separate from sibling chains even when the
    // attempts run on racing threads.
    let _obs_ctx = flow_obs::ChainContext::enter(chain_idx as u64);
    flow_obs::event(|| {
        Event::new("chain.start")
            .step(0)
            .u64("attempt", attempt as u64)
    });
    let mut rng = StdRng::seed_from_u64(chain_seed(seed, chain_idx, attempt));
    let mut sampler = PseudoStateSampler::new(icm, config.proposal, &mut rng);
    let protocol = Protocol {
        max_steps: budget.max_steps,
        max_wall: budget.max_wall,
        chain: chain_idx,
        ..Protocol::new(config, icm.edge_count())
    };
    // Budgeted runs may ask for far more samples than the budget will
    // ever deliver; don't preallocate for the request.
    let mut series = Vec::with_capacity(config.samples.min(4_096));
    let driven = drive(&protocol, &mut sampler, &mut rng, |sampler, _, _| {
        series.push(indicator(sampler.carries_flow(source, sink)));
    })
    .map_err(|e| tag_chain(e, chain_idx))?;
    let steps = sampler.steps();
    flow_obs::event(|| {
        Event::new("chain.finish")
            .step(steps)
            .u64("attempt", attempt as u64)
            .u64("samples", series.len() as u64)
            .f64("acceptance_rate", sampler.acceptance_rate())
    });
    Ok(ChainRun {
        series,
        acceptance_rate: sampler.acceptance_rate(),
        steps,
        degradation: driven.degradation,
    })
}

/// Stamps the originating chain index onto a [`FlowError::ChainStalled`]
/// raised inside a chain (the sampler itself doesn't know its index).
fn tag_chain(e: FlowError, chain: usize) -> FlowError {
    match e {
        FlowError::ChainStalled {
            steps,
            acceptance_rate,
            ..
        } => FlowError::ChainStalled {
            chain,
            steps,
            acceptance_rate,
        },
        other => other,
    }
}

/// Budget-aware, self-healing multi-chain estimation.
///
/// Runs `chains` independent chains like [`multi_chain_flow`], but:
///
/// * every chain respects `budget` (per-chain step and wall-clock caps),
///   truncating its series instead of overrunning;
/// * chains that error out (fault injection, numerical corruption) or
///   look stuck — acceptance rate under 2%, or a constant indicator
///   series while a sibling chain varies — are restarted with fresh
///   deterministic seeds up to `max_restarts` times;
/// * chains that still fail contribute nothing; chains that still look
///   stuck are included but flagged;
/// * if `budget.max_rhat` is set and the pooled Gelman–Rubin statistic
///   exceeds it, the most deviant chains are excluded one at a time
///   (down to two) until R̂ passes, each exclusion recorded;
/// * the result is always a [`PartialEstimate`] — a usable number plus
///   the complete list of [`DegradationReason`]s — never a panic.
#[allow(clippy::too_many_arguments)]
pub fn multi_chain_flow_guarded(
    icm: &Icm,
    source: NodeId,
    sink: NodeId,
    config: McmcConfig,
    chains: usize,
    seed: u64,
    budget: RunBudget,
    max_restarts: usize,
    threads: bool,
) -> PartialEstimate {
    assert!(chains >= 1, "need at least one chain");
    let mut degradation: Vec<DegradationReason> = Vec::new();

    // First pass: every chain's initial attempt (threaded if requested).
    let first_pass = fan_out(chains, threads, |i| {
        run_chain_guarded(icm, source, sink, &config, &budget, i, 0, seed)
    });

    // A chain with a constant series only counts as suspicious when a
    // sibling shows the indicator actually varies under this model.
    let any_varies = first_pass.iter().any(|r| {
        r.as_ref()
            .is_ok_and(|run| !run.is_constant() && !run.series.is_empty())
    });
    // Each retained sample costs at least `thin` ≥ m steps, so series
    // length × thin bounds the steps behind an acceptance rate; demand
    // enough evidence before calling a chain stuck.
    let min_samples_for_stall =
        (STALL_MIN_STEPS / config.thin_steps(icm.edge_count()).max(1) as u64).max(10) as usize;
    let looks_stuck = move |run: &ChainRun| {
        let low_acceptance =
            run.acceptance_rate < STALL_ACCEPTANCE && run.series.len() >= min_samples_for_stall;
        let frozen_series = any_varies && run.is_constant() && !run.series.is_empty();
        low_acceptance || frozen_series
    };

    // Watchdog pass: restart errored or stuck chains with fresh seeds.
    let mut runs: Vec<Option<ChainRun>> = Vec::with_capacity(chains);
    for (i, first) in first_pass.into_iter().enumerate() {
        let mut current = first;
        let mut attempt = 0usize;
        loop {
            let needs_restart = match &current {
                Err(_) => true,
                Ok(run) => looks_stuck(run),
            };
            if !needs_restart || attempt >= max_restarts {
                break;
            }
            attempt += 1;
            let (acceptance_rate, prior_steps) = match &current {
                Ok(run) => (run.acceptance_rate, run.steps),
                Err(_) => (0.0, 0),
            };
            let reason = DegradationReason::ChainRestarted {
                chain: i,
                attempt,
                acceptance_rate,
            };
            flow_obs::event(|| reason.to_obs_event().step(prior_steps));
            degradation.push(reason);
            current = run_chain_guarded(icm, source, sink, &config, &budget, i, attempt, seed);
        }
        match current {
            Ok(run) => {
                if looks_stuck(&run) {
                    let reason = DegradationReason::ChainStalled {
                        chain: i,
                        acceptance_rate: run.acceptance_rate,
                    };
                    flow_obs::event(|| reason.to_obs_event().step(run.steps));
                    degradation.push(reason);
                }
                degradation.extend(run.degradation.clone());
                runs.push(Some(run));
            }
            Err(e) => {
                let reason = DegradationReason::ChainFailed {
                    chain: i,
                    error: e.to_string(),
                };
                flow_obs::event(|| reason.to_obs_event());
                degradation.push(reason);
                runs.push(None);
            }
        }
    }

    let acceptance_rates: Vec<f64> = runs
        .iter()
        .map(|r| r.as_ref().map_or(0.0, |run| run.acceptance_rate))
        .collect();

    // Pool the surviving chains, excluding deviant ones if R̂ demands.
    let mut included: Vec<usize> = runs
        .iter()
        .enumerate()
        .filter(|(_, r)| r.as_ref().is_some_and(|run| !run.series.is_empty()))
        .map(|(i, _)| i)
        .collect();
    let series_of = |i: usize| -> &[f64] {
        // `included` only ever holds indices whose run is Some with a
        // non-empty series (the filter above); treat a broken invariant
        // as an empty series rather than a panic.
        runs.get(i)
            .and_then(|r| r.as_ref())
            .map(|run| run.series.as_slice())
            .unwrap_or(&[])
    };
    let pool = |included: &[usize]| MultiChainEstimate {
        chains: included.iter().map(|&i| series_of(i).to_vec()).collect(),
        acceptance_rates: included
            .iter()
            .filter_map(|&i| acceptance_rates.get(i).copied())
            .collect(),
    };
    if let Some(max_rhat) = budget.max_rhat {
        while included.len() > 2 {
            let Some(r) = pool(&included).r_hat() else {
                break;
            };
            if r.is_finite() && r <= max_rhat {
                break;
            }
            // Drop the chain whose mean deviates most from the rest.
            let means: Vec<f64> = included.iter().map(|&i| mean(series_of(i))).collect();
            let grand = means.iter().sum::<f64>() / means.len() as f64;
            let Some((worst_pos, _)) = means
                .iter()
                .enumerate()
                .max_by(|a, b| (a.1 - grand).abs().total_cmp(&(b.1 - grand).abs()))
            else {
                break;
            };
            let chain = included.remove(worst_pos);
            let reason = DegradationReason::ChainExcluded {
                chain,
                chain_mean: means[worst_pos],
            };
            flow_obs::event(|| reason.to_obs_event());
            degradation.push(reason);
        }
        if let Some(r) = pool(&included).r_hat() {
            // NaN compares false either way; treat it as "target not met".
            if r.is_nan() || r > max_rhat {
                let reason = DegradationReason::RhatAboveTarget {
                    achieved: r,
                    target: max_rhat,
                };
                flow_obs::event(|| reason.to_obs_event());
                degradation.push(reason);
            }
        }
    }

    // Per-chain health snapshots (ESS is O(n·lags), so only pay for it
    // when a recorder is installed).
    if flow_obs::enabled() {
        for (i, run) in runs.iter().enumerate() {
            let Some(run) = run.as_ref() else { continue };
            let s = &run.series;
            flow_obs::event(|| {
                Event::new("chain.snapshot")
                    .chain(i as u64)
                    .step(run.steps)
                    .u64("samples", s.len() as u64)
                    .f64("ess", effective_sample_size(s))
                    .f64("mean", mean(s))
                    .bool("included", included.contains(&i))
            });
            flow_obs::histogram("chain.acceptance_rate", run.acceptance_rate);
        }
    }

    let pooled = pool(&included);
    let total: usize = pooled.chains.iter().map(Vec::len).sum();
    let value = pooled.estimate();
    // Constant (frozen) chains hit the effective_sample_size 0 sentinel
    // and so add nothing to the pooled ESS.
    let ess = pooled.effective_samples();
    if let Some(target) = budget.target_ess {
        if ess < target {
            let reason = DegradationReason::EssBelowTarget {
                achieved: ess,
                target,
            };
            flow_obs::event(|| reason.to_obs_event());
            degradation.push(reason);
        }
    }
    let diagnostics = EstimateDiagnostics {
        effective_samples: ess,
        r_hat: pooled.r_hat(),
        standard_error: pooled.standard_error(),
        acceptance_rates,
        included_chains: included,
    };
    flow_obs::event(|| {
        let mut e = Event::new("estimate.merge")
            .u64("chains_included", diagnostics.included_chains.len() as u64)
            .u64("samples", total as u64)
            .f64("value", value)
            .f64("ess", ess)
            .u64("degradations", degradation.len() as u64);
        if let Some(r) = diagnostics.r_hat {
            e = e.f64("r_hat", r);
        }
        e
    });
    PartialEstimate {
        value,
        diagnostics,
        degradation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_graph::graph::graph_from_edges;
    use flow_icm::exact::enumerate_flow_probability;

    fn diamond_icm() -> Icm {
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        Icm::new(g, vec![0.7, 0.4, 0.5, 0.6])
    }

    #[test]
    fn pooled_estimate_matches_enumeration() {
        let icm = diamond_icm();
        let exact = enumerate_flow_probability(&icm, NodeId(0), NodeId(3));
        let est = multi_chain_flow(
            &icm,
            NodeId(0),
            NodeId(3),
            McmcConfig {
                samples: 8_000,
                ..Default::default()
            },
            4,
            7,
            false,
        );
        assert!((est.estimate() - exact).abs() < 0.015, "{}", est.estimate());
        let r = est.r_hat().expect("4 chains");
        assert!(r < 1.05, "chains should agree: r_hat {r}");
        assert!(est.effective_samples() > 1_000.0);
        assert!(est.standard_error() < 0.02);
        assert_eq!(est.acceptance_rates.len(), 4);
    }

    #[test]
    fn threaded_and_sequential_agree() {
        let icm = diamond_icm();
        let cfg = McmcConfig {
            samples: 2_000,
            ..Default::default()
        };
        let seq = multi_chain_flow(&icm, NodeId(0), NodeId(3), cfg, 3, 11, false);
        let par = multi_chain_flow(&icm, NodeId(0), NodeId(3), cfg, 3, 11, true);
        // Same seeds per chain index → identical series.
        assert_eq!(seq.chains, par.chains);
        assert_eq!(seq.acceptance_rates, par.acceptance_rates);
    }

    #[test]
    fn guarded_clean_run_matches_enumeration() {
        let icm = diamond_icm();
        let exact = enumerate_flow_probability(&icm, NodeId(0), NodeId(3));
        let est = multi_chain_flow_guarded(
            &icm,
            NodeId(0),
            NodeId(3),
            McmcConfig {
                samples: 4_000,
                ..Default::default()
            },
            4,
            7,
            RunBudget::unlimited(),
            2,
            false,
        );
        assert!(est.is_clean(), "degradation: {:?}", est.degradation);
        assert!((est.value - exact).abs() < 0.02, "{}", est.value);
        assert_eq!(est.diagnostics.included_chains, vec![0, 1, 2, 3]);
        assert_eq!(est.diagnostics.acceptance_rates.len(), 4);
        assert!(est.diagnostics.r_hat.expect("4 chains") < 1.05);
    }

    #[test]
    fn guarded_run_matches_unguarded_seeds() {
        // With no budget pressure, the guarded runner must walk the
        // exact same per-chain RNG streams as `multi_chain_flow`.
        let icm = diamond_icm();
        let cfg = McmcConfig {
            samples: 1_000,
            ..Default::default()
        };
        let plain = multi_chain_flow(&icm, NodeId(0), NodeId(3), cfg, 3, 11, false);
        let guarded = multi_chain_flow_guarded(
            &icm,
            NodeId(0),
            NodeId(3),
            cfg,
            3,
            11,
            RunBudget::unlimited(),
            0,
            false,
        );
        assert!(guarded.is_clean());
        assert!((plain.estimate() - guarded.value).abs() < 1e-12);
    }

    #[test]
    fn guarded_step_budget_truncates_gracefully() {
        let icm = diamond_icm();
        let m = icm.edge_count();
        let cfg = McmcConfig {
            samples: 10_000,
            ..Default::default()
        };
        // Enough for burn-in plus only ~500 retained samples per chain.
        let per_chain = (cfg.burn_in_steps(m) + 500 * cfg.thin_steps(m)) as u64;
        let est = multi_chain_flow_guarded(
            &icm,
            NodeId(0),
            NodeId(3),
            cfg,
            2,
            19,
            RunBudget::unlimited().with_max_steps(per_chain),
            1,
            false,
        );
        assert!(est.is_degraded());
        let truncations: Vec<_> = est
            .degradation
            .iter()
            .filter(|d| matches!(d, DegradationReason::StepBudgetExhausted { .. }))
            .collect();
        assert_eq!(
            truncations.len(),
            2,
            "both chains truncate: {:?}",
            est.degradation
        );
        // The truncated estimate is still statistically usable.
        let exact = enumerate_flow_probability(&icm, NodeId(0), NodeId(3));
        assert!((est.value - exact).abs() < 0.1, "{}", est.value);
        assert!(est.diagnostics.effective_samples > 0.0);
    }

    #[test]
    fn guarded_wall_clock_budget_stops_early() {
        let icm = diamond_icm();
        let est = multi_chain_flow_guarded(
            &icm,
            NodeId(0),
            NodeId(3),
            McmcConfig {
                samples: usize::MAX / 2,
                ..Default::default()
            },
            1,
            23,
            RunBudget::unlimited().with_max_wall(std::time::Duration::from_millis(50)),
            0,
            false,
        );
        assert!(est
            .degradation
            .iter()
            .any(|d| matches!(d, DegradationReason::WallClockExhausted { .. })));
    }

    #[test]
    fn guarded_reports_unmet_quality_targets() {
        let icm = diamond_icm();
        let est = multi_chain_flow_guarded(
            &icm,
            NodeId(0),
            NodeId(3),
            McmcConfig {
                samples: 100,
                ..Default::default()
            },
            2,
            29,
            RunBudget::unlimited().with_target_ess(1e9),
            0,
            false,
        );
        assert!(est
            .degradation
            .iter()
            .any(|d| matches!(d, DegradationReason::EssBelowTarget { .. })));
        // The value is still reported despite the unmet target.
        assert!(est.value >= 0.0 && est.value <= 1.0);
    }

    #[test]
    fn degenerate_flow_probabilities() {
        // Impossible flow: estimate 0, ESS flagged 0 for the constant
        // series, r_hat degenerate-converged.
        let g = graph_from_edges(3, &[(0, 1)]);
        let icm = Icm::with_uniform_probability(g, 0.5);
        let est = multi_chain_flow(
            &icm,
            NodeId(0),
            NodeId(2),
            McmcConfig {
                samples: 200,
                ..Default::default()
            },
            2,
            3,
            false,
        );
        assert_eq!(est.estimate(), 0.0);
        assert_eq!(est.r_hat(), Some(1.0));
    }
}

//! The chain driver: the paper's burn-in/thinning protocol (§III-B:
//! discard the first δ states, then keep every δ′-th state) run under
//! a step and wall-clock budget.
//!
//! Every estimator in this crate runs its chain through [`drive`] and
//! supplies only a per-sample visitor that reads the retained
//! pseudo-state. The driver owns the rest:
//!
//! * burn-in in blocks of `max(thin, 64)` steps, with a budget check
//!   before each block, so a tight budget can interrupt a long burn-in;
//! * `thin` steps per retained sample, with a budget check before each;
//! * the step budget, counted from the chain's step count on entry (a
//!   warm chain's earlier steps are not charged again), and the
//!   wall-clock budget, read only when one is set;
//! * the [`DegradationReason`] a spent budget produces and its obs
//!   event, stamped with the chain's step count;
//! * the optional phase spans, with no burn-in span when there is no
//!   burn-in.

use crate::budget::DegradationReason;
use crate::estimator::McmcConfig;
use crate::sampler::PseudoStateSampler;
use flow_core::FlowResult;
use rand::Rng;
use std::time::{Duration, Instant};

/// Smallest burn-in block between budget checks.
const MIN_BLOCK: u64 = 64;

/// Span names for the burn-in and sampling phases.
pub(crate) type Phases = (&'static str, &'static str);

/// The phase spans of the flow estimators and the serving primitive.
pub(crate) const MCMC_PHASES: Phases = ("mcmc.burn_in", "mcmc.sampling");

/// One chain run: how many steps to discard and keep, and its budget.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Protocol {
    /// Steps discarded before the first retained sample.
    pub burn_in: u64,
    /// Steps per retained sample.
    pub thin: u64,
    /// Retained samples to collect.
    pub samples: usize,
    /// Steps this run may take, counted from the chain's step on entry.
    pub max_steps: Option<u64>,
    /// Wall-clock time this run may take.
    pub max_wall: Option<Duration>,
    /// Chain index stamped on a budget [`DegradationReason`].
    pub chain: usize,
    /// Phase spans to open, if any.
    pub phases: Option<Phases>,
}

impl Protocol {
    /// `config`'s protocol on a model with `m` edges: no budget, no
    /// spans, chain 0.
    pub fn new(config: &McmcConfig, m: usize) -> Self {
        Protocol {
            burn_in: config.burn_in_steps(m) as u64,
            thin: config.thin_steps(m) as u64,
            samples: config.samples,
            max_steps: None,
            max_wall: None,
            chain: 0,
            phases: None,
        }
    }
}

/// How a drive ended.
#[derive(Debug)]
pub(crate) struct Driven {
    /// Retained samples visited.
    pub samples: usize,
    /// Why the drive stopped short, if it did.
    pub degradation: Option<DegradationReason>,
}

/// Runs `sampler` through `protocol`, calling `visit(sampler, rng, k)`
/// on the `k`-th retained state. Stops early, with the reason, when
/// the budget cannot cover the next block or sample; a sampler error
/// ends the drive with that error.
pub(crate) fn drive<'a, R: Rng + ?Sized>(
    protocol: &Protocol,
    sampler: &mut PseudoStateSampler<'a>,
    rng: &mut R,
    mut visit: impl FnMut(&mut PseudoStateSampler<'a>, &mut R, usize),
) -> FlowResult<Driven> {
    let entry = sampler.steps();
    // Wall clock bounds the run only; it never feeds the chain.
    #[allow(clippy::disallowed_methods)]
    let started = protocol.max_wall.map(|_| Instant::now()); // flow-analyze: allow(L2: wall-clock budget accounting only)
    let exhausted = |sampler: &PseudoStateSampler<'_>, upcoming: u64, collected: usize| {
        let steps = sampler.steps();
        let (chain, samples_collected, samples_requested) =
            (protocol.chain, collected, protocol.samples);
        let reason = if protocol
            .max_steps
            .is_some_and(|max| steps - entry + upcoming > max)
        {
            DegradationReason::StepBudgetExhausted {
                chain,
                samples_collected,
                samples_requested,
            }
        } else if started
            .zip(protocol.max_wall)
            .is_some_and(|(t0, max)| t0.elapsed() >= max)
        {
            DegradationReason::WallClockExhausted {
                chain,
                samples_collected,
                samples_requested,
            }
        } else {
            return None;
        };
        flow_obs::event(|| reason.to_obs_event().step(steps));
        Some(Driven {
            samples: collected,
            degradation: Some(reason),
        })
    };

    if protocol.burn_in > 0 {
        let _burn = protocol.phases.map(|(burn, _)| flow_obs::span(burn));
        let mut remaining = protocol.burn_in;
        while remaining > 0 {
            let block = remaining.min(protocol.thin.max(MIN_BLOCK));
            if let Some(stop) = exhausted(sampler, block, 0) {
                return Ok(stop);
            }
            sampler.try_run(block as usize, rng)?;
            remaining -= block;
        }
    }
    let _sampling = protocol
        .phases
        .map(|(_, sampling)| flow_obs::span(sampling));
    for k in 0..protocol.samples {
        if let Some(stop) = exhausted(sampler, protocol.thin, k) {
            return Ok(stop);
        }
        sampler.try_run(protocol.thin as usize, rng)?;
        visit(sampler, rng, k);
    }
    Ok(Driven {
        samples: protocol.samples,
        degradation: None,
    })
}

/// [`drive`] for the offline estimators, which have no error channel:
/// a sampler error panics, as [`PseudoStateSampler::run`] does.
pub(crate) fn drive_offline<'a, R: Rng + ?Sized>(
    protocol: &Protocol,
    sampler: &mut PseudoStateSampler<'a>,
    rng: &mut R,
    visit: impl FnMut(&mut PseudoStateSampler<'a>, &mut R, usize),
) {
    if let Err(e) = drive(protocol, sampler, rng, visit) {
        // flow-analyze: allow(L1: documented panicking wrapper for the offline estimators, L7: the offline estimators are the documented panicking entry points; serving drives the chain through the fallible driver)
        panic!("{e}");
    }
}

/// The mean of a count over `samples` retained samples; 0 with none.
pub(crate) fn per_sample(total: u64, samples: usize) -> f64 {
    if samples == 0 {
        0.0
    } else {
        total as f64 / samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_graph::graph::graph_from_edges;
    use flow_icm::Icm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain(icm: &Icm, seed: u64) -> (PseudoStateSampler<'_>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sampler = PseudoStateSampler::new(icm, Default::default(), &mut rng);
        (sampler, rng)
    }

    fn protocol(burn_in: u64, thin: u64, samples: usize) -> Protocol {
        Protocol {
            burn_in,
            thin,
            samples,
            max_steps: None,
            max_wall: None,
            chain: 3,
            phases: None,
        }
    }

    fn diamond() -> Icm {
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        Icm::new(g, vec![0.7, 0.4, 0.5, 0.6])
    }

    #[test]
    fn unbudgeted_drive_takes_burn_in_plus_thin_per_sample() -> FlowResult<()> {
        let icm = diamond();
        let (mut sampler, mut rng) = chain(&icm, 1);
        let mut seen = Vec::new();
        let driven = drive(&protocol(500, 8, 5), &mut sampler, &mut rng, |s, _, k| {
            seen.push((k, s.steps()))
        })?;
        assert_eq!(driven.samples, 5);
        assert!(driven.degradation.is_none());
        assert_eq!(seen, [(0, 508), (1, 516), (2, 524), (3, 532), (4, 540)]);
        Ok(())
    }

    #[test]
    fn step_budget_stops_on_a_block_boundary_in_burn_in() -> FlowResult<()> {
        let icm = diamond();
        let (mut sampler, mut rng) = chain(&icm, 3);
        let budgeted = Protocol {
            max_steps: Some(200),
            ..protocol(500, 8, 5)
        };
        let driven = drive(&budgeted, &mut sampler, &mut rng, |_, _, _| {})?;
        // Blocks of max(8, 64) = 64 steps: three fit in 200, a fourth
        // would not.
        assert_eq!(sampler.steps(), 192);
        assert_eq!(driven.samples, 0);
        assert_eq!(
            driven.degradation,
            Some(DegradationReason::StepBudgetExhausted {
                chain: 3,
                samples_collected: 0,
                samples_requested: 5,
            })
        );
        Ok(())
    }

    #[test]
    fn step_budget_counts_from_the_entry_step() -> FlowResult<()> {
        let icm = diamond();
        let (mut sampler, mut rng) = chain(&icm, 4);
        sampler.try_run(1_000, &mut rng)?;
        let budgeted = Protocol {
            max_steps: Some(8 * 3 + 7),
            ..protocol(0, 8, 10)
        };
        let mut visited = 0;
        let driven = drive(&budgeted, &mut sampler, &mut rng, |_, _, _| visited += 1)?;
        assert_eq!((driven.samples, visited), (3, 3));
        assert_eq!(sampler.steps(), 1_000 + 24);
        Ok(())
    }

    #[test]
    fn spent_wall_budget_stops_before_any_step() -> FlowResult<()> {
        let icm = diamond();
        let (mut sampler, mut rng) = chain(&icm, 5);
        let budgeted = Protocol {
            max_wall: Some(Duration::ZERO),
            ..protocol(100, 8, 5)
        };
        let driven = drive(&budgeted, &mut sampler, &mut rng, |_, _, _| {})?;
        assert_eq!(sampler.steps(), 0);
        assert!(matches!(
            driven.degradation,
            Some(DegradationReason::WallClockExhausted { chain: 3, .. })
        ));
        Ok(())
    }

    #[test]
    fn phases_open_no_burn_in_span_without_burn_in() -> FlowResult<()> {
        use std::sync::Arc;
        let icm = diamond();
        let sink = Arc::new(flow_obs::MemorySink::new());
        {
            let _r = flow_obs::ScopedRecorder::install(sink.clone());
            for burn_in in [0, 16] {
                let (mut sampler, mut rng) = chain(&icm, 6);
                let traced = Protocol {
                    phases: Some(MCMC_PHASES),
                    ..protocol(burn_in, 8, 2)
                };
                drive(&traced, &mut sampler, &mut rng, |_, _, _| {})?;
            }
        }
        let entered: Vec<String> = sink
            .events_named("span.enter")
            .iter()
            .filter_map(|e| e.field("span").and_then(flow_obs::FieldValue::as_str))
            .map(str::to_owned)
            .collect();
        assert_eq!(entered, ["mcmc.sampling", "mcmc.burn_in", "mcmc.sampling"]);
        Ok(())
    }
}

//! Per-chain circuit breakers for the serving path.
//!
//! A chain class that keeps stalling or failing (sampler bugs, poisoned
//! model regions, injected faults) should stop burning sampler steps:
//! after `trip_after` *consecutive* failures for the same chain key
//! (the engine's `ServeConfig::breaker_trip_after`) the breaker opens,
//! and subsequent plans for that chain are short-circuited — the engine
//! serves a degraded answer from whatever warm statistics it has
//! ([`crate::engine::Served`]'s short-circuit path) instead of
//! sampling.
//!
//! Everything here is deterministic. The breaker keeps a logical clock
//! that advances once per [`CircuitBreaker::decide`] call (one per plan
//! considered), so open/half-open transitions depend only on the
//! sequence of plans, never on wall-clock time. After a cooldown of 8
//! ticks an open breaker admits exactly one half-open *probe* plan; a
//! successful probe closes the breaker, a failed one reopens it with
//! the cooldown doubled, up to 64 ticks.
//!
//! The breaker keeps state only for chains that are failing: a chain
//! with a failure streak, an open breaker or a probe in flight. A
//! healthy chain's state equals a fresh one, so a success that leaves
//! the chain closed drops its entry, and the map stays bounded by the
//! failing chains however many chain keys traffic and model swaps
//! mint.
//!
//! What counts as a failure is decided by the engine and deliberately
//! excludes client-shaped degradations (step budgets, deadlines,
//! precision misses): only stall-like signals — hard plan errors and
//! `ChainRestarted`/`ChainStalled`/`ChainFailed` degradations — trip
//! the breaker. A fault-free run therefore never trips it, which keeps
//! clean serving output byte-identical with the breaker enabled.

use std::collections::HashMap;

/// Logical ticks (plans considered) an open breaker waits before
/// admitting its first half-open probe.
const COOLDOWN_TICKS: u64 = 8;

/// Cap for the doubling cooldown of repeat offenders.
const COOLDOWN_CAP_TICKS: u64 = 64;

/// What the breaker says about one plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Closed: run the plan normally.
    Allow,
    /// Half-open: run the plan as a probe; its result closes or
    /// reopens the breaker.
    Probe,
    /// Open: do not sample; serve a degraded answer.
    ShortCircuit {
        /// Consecutive failures recorded when the breaker opened.
        failures: u64,
    },
}

/// A failing chain's state; healthy chains have none.
#[derive(Clone, Copy, Debug)]
struct ChainState {
    consecutive_failures: u64,
    /// `Some(tick)` while open: short-circuit until the clock reaches it.
    open_until: Option<u64>,
    /// Cooldown applied at the next trip (doubles per consecutive trip).
    cooldown: u64,
    /// True between a `Probe` decision and its recorded result.
    probing: bool,
}

/// Deterministic per-chain circuit breaker (see module docs).
#[derive(Debug)]
pub struct CircuitBreaker {
    /// Consecutive failures that open a chain's breaker (0 disables).
    trip_after: u32,
    clock: u64,
    chains: HashMap<u64, ChainState>,
    trips: u64,
}

impl CircuitBreaker {
    /// A breaker with every chain closed that opens a chain after
    /// `trip_after` consecutive failures; `0` never trips.
    pub fn new(trip_after: u32) -> Self {
        CircuitBreaker {
            trip_after,
            clock: 0,
            chains: HashMap::new(),
            trips: 0,
        }
    }

    /// Times any chain's breaker has opened.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// True while `chain_key`'s breaker is open (short-circuiting).
    pub fn is_open(&self, chain_key: u64) -> bool {
        self.chains
            .get(&chain_key)
            .and_then(|s| s.open_until)
            .is_some_and(|until| self.clock < until)
    }

    /// Decides the fate of one plan for `chain_key`, advancing the
    /// logical clock by one tick.
    pub fn decide(&mut self, chain_key: u64) -> BreakerDecision {
        self.clock += 1;
        let Some(state) = self.chains.get_mut(&chain_key) else {
            return BreakerDecision::Allow;
        };
        match state.open_until {
            Some(until) if self.clock < until => BreakerDecision::ShortCircuit {
                failures: state.consecutive_failures,
            },
            Some(_) => {
                // Cooldown elapsed: admit exactly one probe.
                state.open_until = None;
                state.probing = true;
                BreakerDecision::Probe
            }
            None => BreakerDecision::Allow,
        }
    }

    /// Records the result of a plan the breaker allowed (or probed).
    /// `ok = false` means a stall-like failure as defined by the engine.
    pub fn record(&mut self, chain_key: u64, ok: bool) {
        if self.trip_after == 0 {
            return;
        }
        if ok {
            // A success ends the streak. Unless another plan of the
            // same batch opened the breaker meanwhile, the chain is
            // closed and healthy again, which needs no state.
            if let Some(state) = self.chains.remove(&chain_key) {
                if state.open_until.is_some() {
                    let reset = ChainState {
                        consecutive_failures: 0,
                        cooldown: COOLDOWN_TICKS,
                        probing: false,
                        ..state
                    };
                    self.chains.insert(chain_key, reset);
                }
            }
            return;
        }
        let state = self.chains.entry(chain_key).or_insert(ChainState {
            consecutive_failures: 0,
            open_until: None,
            cooldown: COOLDOWN_TICKS,
            probing: false,
        });
        state.consecutive_failures += 1;
        let was_probe = std::mem::replace(&mut state.probing, false);
        let should_open = was_probe || state.consecutive_failures >= u64::from(self.trip_after);
        if should_open {
            if was_probe {
                // Repeat offender: back off harder, up to the cap.
                state.cooldown = (state.cooldown * 2).min(COOLDOWN_CAP_TICKS);
            }
            state.open_until = Some(self.clock + state.cooldown);
            self.trips += 1;
            let failures = state.consecutive_failures;
            let cooldown = state.cooldown;
            flow_obs::counter("serve.breaker.open", 1);
            flow_obs::event(|| {
                flow_obs::Event::new("serve.breaker_open")
                    .u64("chain_key", chain_key)
                    .u64("failures", failures)
                    .u64("cooldown", cooldown)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_k_consecutive_failures_only() {
        let mut b = CircuitBreaker::new(3);
        for _ in 0..2 {
            assert_eq!(b.decide(7), BreakerDecision::Allow);
            b.record(7, false);
        }
        // A success resets the streak.
        assert_eq!(b.decide(7), BreakerDecision::Allow);
        b.record(7, true);
        for _ in 0..2 {
            assert_eq!(b.decide(7), BreakerDecision::Allow);
            b.record(7, false);
        }
        assert!(!b.is_open(7), "two failures after a reset must not trip");
        assert_eq!(b.decide(7), BreakerDecision::Allow);
        b.record(7, false);
        assert!(b.is_open(7), "third consecutive failure trips");
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn open_breaker_short_circuits_then_probes_on_schedule() {
        let mut b = CircuitBreaker::new(1);
        assert_eq!(b.decide(9), BreakerDecision::Allow);
        b.record(9, false);
        // Cooldown is 8 ticks: seven short-circuits, then a probe.
        assert!(matches!(
            b.decide(9),
            BreakerDecision::ShortCircuit { failures: 1 }
        ));
        for _ in 0..6 {
            assert!(matches!(b.decide(9), BreakerDecision::ShortCircuit { .. }));
        }
        assert_eq!(b.decide(9), BreakerDecision::Probe);
        // Successful probe closes the breaker.
        b.record(9, true);
        assert_eq!(b.decide(9), BreakerDecision::Allow);
        assert!(!b.is_open(9));
    }

    #[test]
    fn failed_probe_reopens_with_doubled_capped_cooldown() {
        let mut b = CircuitBreaker::new(1);
        assert_eq!(b.decide(4), BreakerDecision::Allow);
        b.record(4, false); // trip, cooldown 8
        let mut probe_ticks = Vec::new();
        for tick in 2..=200u64 {
            match b.decide(4) {
                BreakerDecision::Probe => {
                    probe_ticks.push(tick);
                    b.record(4, false); // probe fails: cooldown doubles
                }
                BreakerDecision::ShortCircuit { .. } => {}
                BreakerDecision::Allow => panic!("breaker must not silently close"),
            }
        }
        // Cooldowns 8, 16, 32, 64, 64 (capped), ... over 200 ticks.
        let probes = probe_ticks.len();
        assert!(probes >= 3, "expected several probes, got {probes}");
        assert_eq!(probe_ticks, vec![9, 25, 57, 121, 185]);
        assert!(b.trips() > 1);
    }

    #[test]
    fn disabled_breaker_always_allows() {
        let mut b = CircuitBreaker::new(0);
        for _ in 0..10 {
            assert_eq!(b.decide(1), BreakerDecision::Allow);
            b.record(1, false);
        }
        assert!(!b.is_open(1));
        assert_eq!(b.trips(), 0);
        assert!(b.chains.is_empty());
    }

    #[test]
    fn chains_are_independent() {
        let mut b = CircuitBreaker::new(1);
        assert_eq!(b.decide(1), BreakerDecision::Allow);
        b.record(1, false);
        assert!(b.is_open(1));
        assert_eq!(
            b.decide(2),
            BreakerDecision::Allow,
            "other chain unaffected"
        );
    }

    #[test]
    fn only_failing_chains_keep_state() {
        const FAILING: u64 = u64::MAX;
        let mut b = CircuitBreaker::new(2);
        for key in 0..10_000u64 {
            assert_eq!(b.decide(key), BreakerDecision::Allow);
            b.record(key, true);
        }
        assert!(b.chains.is_empty(), "healthy chains must leave no state");

        // A failing chain still trips, probes and doubles its cooldown
        // while fresh healthy chains pass beside it: each round ticks
        // the clock twice, the failing chain on odd ticks.
        let mut b = CircuitBreaker::new(2);
        let mut probes = Vec::new();
        let mut healthy = 0u64;
        while probes.len() < 4 {
            match b.decide(FAILING) {
                BreakerDecision::Allow => b.record(FAILING, false),
                BreakerDecision::Probe => {
                    probes.push(b.clock);
                    // The fourth probe succeeds.
                    b.record(FAILING, probes.len() == 4);
                }
                BreakerDecision::ShortCircuit { failures } => assert!(failures >= 2),
            }
            assert_eq!(b.decide(healthy), BreakerDecision::Allow);
            b.record(healthy, true);
            healthy += 1;
            assert!(b.chains.len() <= 1, "only the failing chain keeps state");
        }
        // Tripped at tick 3, then cooldowns 8, 16, 32 and 64.
        assert_eq!(probes, vec![11, 27, 59, 123]);
        assert_eq!(b.trips(), 4);
        // The successful probe closed the chain and dropped its state.
        assert!(!b.is_open(FAILING));
        assert!(b.chains.is_empty());
    }
}

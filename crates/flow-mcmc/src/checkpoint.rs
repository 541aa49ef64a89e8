//! Chain checkpointing: serialize a Metropolis–Hastings chain's full
//! resumable state (pseudo-state, counters, RNG) and restore it later.
//!
//! Long MCMC runs on real cascade data can outlive a process (preemption,
//! crashes, fault injection in tests). A [`ChainCheckpoint`] captures
//! everything the chain needs to continue *bit-identically*:
//!
//! * the pseudo-state bitset (as the indices of active edges),
//! * the step/acceptance counters,
//! * the xoshiro256** RNG state (four words),
//! * the proposal convention.
//!
//! Bit-exact resume additionally requires that the proposal-weight tree
//! of the live chain be freshly rebuilt at the capture point (a resumed
//! chain rebuilds its tree from scratch, and incremental Fenwick updates
//! can differ from a clean rebuild in the last ulp). [`capture`] does
//! this via [`PseudoStateSampler::rebuild_tree`], which is why it takes
//! the sampler mutably.
//!
//! The on-disk format is a deliberately boring line-based text format
//! (`to_text`/`from_text`) so it needs no serialization dependency and
//! stays greppable; with the `serde` feature the types also derive
//! `Serialize`/`Deserialize`.
//!
//! [`capture`]: ChainCheckpoint::capture

use crate::sampler::{ProposalKind, PseudoStateSampler};
use flow_core::{fault, FlowError, FlowResult};
use flow_graph::BitSet;
use flow_icm::{Icm, PseudoState};
use rand::rngs::StdRng;

/// Magic first line of the text format, with a format version.
const HEADER: &str = "flowckpt v1";

/// A serializable snapshot of one Metropolis–Hastings chain.
#[derive(Clone, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ChainCheckpoint {
    /// Edge count of the model the chain was sampling (shape check on
    /// restore).
    pub edge_count: usize,
    /// Indices of active edges in the pseudo-state.
    pub active_edges: Vec<u32>,
    /// Proposal convention of the chain.
    pub proposal: ProposalKind,
    /// Total proposals made so far.
    pub steps: u64,
    /// Accepted proposals so far.
    pub accepted: u64,
    /// xoshiro256** state of the chain's RNG.
    pub rng_state: [u64; 4],
}

impl ChainCheckpoint {
    /// Captures the chain and its RNG. Rebuilds the chain's weight tree
    /// first so that resuming from this checkpoint is bit-identical to
    /// continuing the live chain (see module docs).
    pub fn capture(sampler: &mut PseudoStateSampler<'_>, rng: &StdRng) -> Self {
        flow_obs::counter("checkpoint.captures", 1);
        sampler.rebuild_tree();
        flow_core::debug_invariant!(
            sampler.accepted() <= sampler.steps(),
            "chain counters incoherent at capture: {} accepted of {} steps",
            sampler.accepted(),
            sampler.steps()
        );
        ChainCheckpoint {
            edge_count: sampler.state().edge_count(),
            active_edges: sampler
                .state()
                .bits()
                .iter_ones()
                .map(|i| i as u32)
                .collect(),
            proposal: sampler.proposal_kind(),
            steps: sampler.steps(),
            accepted: sampler.accepted(),
            rng_state: rng.state(),
        }
    }

    /// Validates the checkpoint against a model: the edge count must
    /// match and every active-edge index must be in range. The
    /// `checkpoint.corrupt` fault point (fault-injection builds) also
    /// fails validation, simulating an unreadable snapshot.
    pub fn validate(&self, icm: &Icm) -> FlowResult<()> {
        if fault::fires("checkpoint.corrupt") {
            return Err(FlowError::Checkpoint {
                detail: "checkpoint payload corrupted (injected fault)".into(),
            });
        }
        if self.edge_count != icm.edge_count() {
            return Err(FlowError::Checkpoint {
                detail: format!(
                    "checkpoint is for a model with {} edges, got {}",
                    self.edge_count,
                    icm.edge_count()
                ),
            });
        }
        if let Some(&i) = self
            .active_edges
            .iter()
            .find(|&&i| i as usize >= self.edge_count)
        {
            return Err(FlowError::Checkpoint {
                detail: format!(
                    "active edge index {i} out of range for {} edges",
                    self.edge_count
                ),
            });
        }
        Ok(())
    }

    /// Restores the chain and its RNG against `icm`, validating first.
    /// The restored sampler carries no flow conditions; conditioned
    /// chains restore via [`Self::restore_with_conditions`].
    pub fn restore<'a>(&self, icm: &'a Icm) -> FlowResult<(PseudoStateSampler<'a>, StdRng)> {
        self.restore_with_conditions(icm, Vec::new())
    }

    /// Restores the chain with an explicit set of flow conditions (the
    /// conditions themselves are model-level configuration, not chain
    /// state, so they are supplied rather than serialized).
    pub fn restore_with_conditions<'a>(
        &self,
        icm: &'a Icm,
        conditions: Vec<flow_icm::FlowCondition>,
    ) -> FlowResult<(PseudoStateSampler<'a>, StdRng)> {
        self.validate(icm)?;
        flow_obs::counter("checkpoint.restores", 1);
        let mut bits = BitSet::new(self.edge_count);
        for &i in &self.active_edges {
            bits.set(i as usize, true);
        }
        flow_core::debug_invariant!(
            self.accepted <= self.steps,
            "checkpoint counters incoherent: {} accepted of {} steps",
            self.accepted,
            self.steps
        );
        flow_core::debug_invariant!(
            bits.len() == icm.edge_count(),
            "restored state covers {} edges but the model has {}",
            bits.len(),
            icm.edge_count()
        );
        let sampler = PseudoStateSampler::from_checkpoint_parts(
            icm,
            self.proposal,
            PseudoState::from_bits(bits),
            conditions,
            self.steps,
            self.accepted,
        );
        Ok((sampler, StdRng::from_state(self.rng_state)))
    }

    /// Serializes to the line-based text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        out.push_str(&format!("edges={}\n", self.edge_count));
        out.push_str(&format!(
            "proposal={}\n",
            match self.proposal {
                ProposalKind::ResultingActivity => "resulting",
                ProposalKind::CurrentActivity => "current",
                ProposalKind::Independent => "independent",
            }
        ));
        out.push_str(&format!("steps={}\n", self.steps));
        out.push_str(&format!("accepted={}\n", self.accepted));
        out.push_str(&format!(
            "rng={},{},{},{}\n",
            self.rng_state[0], self.rng_state[1], self.rng_state[2], self.rng_state[3]
        ));
        let active: Vec<String> = self.active_edges.iter().map(|i| i.to_string()).collect();
        out.push_str(&format!("active={}\n", active.join(",")));
        out
    }

    /// Parses the line-based text format, returning
    /// [`FlowError::Checkpoint`] with the offending detail on any
    /// structural problem.
    pub fn from_text(text: &str) -> FlowResult<Self> {
        let corrupt = |detail: String| FlowError::Checkpoint { detail };
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h.trim() == HEADER => {}
            other => {
                return Err(corrupt(format!(
                    "bad checkpoint header: expected {HEADER:?}, got {other:?}"
                )))
            }
        }
        let mut edge_count = None;
        let mut proposal = None;
        let mut steps = None;
        let mut accepted = None;
        let mut rng_state = None;
        let mut active_edges = None;
        for (lineno, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| corrupt(format!("line {}: missing '='", lineno + 2)))?;
            let parse_u64 = |v: &str, what: &str| {
                v.parse::<u64>()
                    .map_err(|_| corrupt(format!("bad {what}: {v:?}")))
            };
            match key {
                "edges" => edge_count = Some(parse_u64(value, "edge count")? as usize),
                "proposal" => {
                    proposal = Some(match value {
                        "resulting" => ProposalKind::ResultingActivity,
                        "current" => ProposalKind::CurrentActivity,
                        "independent" => ProposalKind::Independent,
                        other => return Err(corrupt(format!("unknown proposal kind {other:?}"))),
                    })
                }
                "steps" => steps = Some(parse_u64(value, "step count")?),
                "accepted" => accepted = Some(parse_u64(value, "accepted count")?),
                "rng" => {
                    let words: Vec<u64> = value
                        .split(',')
                        .map(|w| parse_u64(w, "rng word"))
                        .collect::<FlowResult<_>>()?;
                    let arr: [u64; 4] = words
                        .try_into()
                        .map_err(|_| corrupt("rng state must have 4 words".into()))?;
                    rng_state = Some(arr);
                }
                "active" => {
                    let ids: Vec<u32> = if value.is_empty() {
                        Vec::new()
                    } else {
                        value
                            .split(',')
                            .map(|w| {
                                w.parse::<u32>()
                                    .map_err(|_| corrupt(format!("bad edge index {w:?}")))
                            })
                            .collect::<FlowResult<_>>()?
                    };
                    active_edges = Some(ids);
                }
                other => return Err(corrupt(format!("unknown checkpoint field {other:?}"))),
            }
        }
        let missing = |what: &str| corrupt(format!("checkpoint missing field {what:?}"));
        Ok(ChainCheckpoint {
            edge_count: edge_count.ok_or_else(|| missing("edges"))?,
            active_edges: active_edges.ok_or_else(|| missing("active"))?,
            proposal: proposal.ok_or_else(|| missing("proposal"))?,
            steps: steps.ok_or_else(|| missing("steps"))?,
            accepted: accepted.ok_or_else(|| missing("accepted"))?,
            rng_state: rng_state.ok_or_else(|| missing("rng"))?,
        })
    }
}

/// An estimator-level checkpoint: the chain snapshot plus the retained
/// indicator series collected so far, so a resumed
/// [`crate::FlowEstimator`] run reproduces the full series exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FlowCheckpoint {
    /// The chain state at the capture point.
    pub chain: ChainCheckpoint,
    /// Source node of the flow query.
    pub source: u32,
    /// Sink node of the flow query.
    pub sink: u32,
    /// Retained samples collected so far.
    pub samples_done: usize,
    /// Checkpoint cadence (retained samples between captures); resume
    /// must rebuild the weight tree on the same boundaries to stay
    /// bit-identical.
    pub every: usize,
    /// The 0/1 indicator series retained so far.
    pub series: Vec<u8>,
}

impl FlowCheckpoint {
    /// Serializes to the line-based text format (the chain block plus
    /// estimator fields).
    pub fn to_text(&self) -> String {
        let mut out = self.chain.to_text();
        out.push_str(&format!("query={}~>{}\n", self.source, self.sink));
        out.push_str(&format!("samples_done={}\n", self.samples_done));
        out.push_str(&format!("every={}\n", self.every));
        let series: String = self
            .series
            .iter()
            .map(|&b| if b != 0 { '1' } else { '0' })
            .collect();
        out.push_str(&format!("series={series}\n"));
        out
    }

    /// Parses the text format produced by [`Self::to_text`].
    pub fn from_text(text: &str) -> FlowResult<Self> {
        let corrupt = |detail: String| FlowError::Checkpoint { detail };
        // Split estimator fields from chain fields; the chain parser
        // rejects unknown keys, so route each line to its parser.
        let mut chain_text = String::new();
        let mut source = None;
        let mut sink = None;
        let mut samples_done = None;
        let mut every = None;
        let mut series = None;
        for line in text.lines() {
            let trimmed = line.trim();
            match trimmed.split_once('=') {
                Some(("query", v)) => {
                    let (s, t) = v
                        .split_once("~>")
                        .ok_or_else(|| corrupt(format!("bad query {v:?}")))?;
                    source = Some(
                        s.parse::<u32>()
                            .map_err(|_| corrupt(format!("bad source {s:?}")))?,
                    );
                    sink = Some(
                        t.parse::<u32>()
                            .map_err(|_| corrupt(format!("bad sink {t:?}")))?,
                    );
                }
                Some(("samples_done", v)) => {
                    samples_done = Some(
                        v.parse::<usize>()
                            .map_err(|_| corrupt(format!("bad samples_done {v:?}")))?,
                    )
                }
                Some(("every", v)) => {
                    every = Some(
                        v.parse::<usize>()
                            .map_err(|_| corrupt(format!("bad every {v:?}")))?,
                    )
                }
                Some(("series", v)) => {
                    let mut bits = Vec::with_capacity(v.len());
                    for c in v.chars() {
                        match c {
                            '0' => bits.push(0),
                            '1' => bits.push(1),
                            other => return Err(corrupt(format!("bad series bit {other:?}"))),
                        }
                    }
                    series = Some(bits);
                }
                _ => {
                    chain_text.push_str(line);
                    chain_text.push('\n');
                }
            }
        }
        let missing = |what: &str| corrupt(format!("checkpoint missing field {what:?}"));
        let ckpt = FlowCheckpoint {
            chain: ChainCheckpoint::from_text(&chain_text)?,
            source: source.ok_or_else(|| missing("query"))?,
            sink: sink.ok_or_else(|| missing("query"))?,
            samples_done: samples_done.ok_or_else(|| missing("samples_done"))?,
            every: every.ok_or_else(|| missing("every"))?,
            series: series.ok_or_else(|| missing("series"))?,
        };
        if ckpt.series.len() != ckpt.samples_done {
            return Err(corrupt(format!(
                "series length {} does not match samples_done {}",
                ckpt.series.len(),
                ckpt.samples_done
            )));
        }
        Ok(ckpt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_graph::graph::graph_from_edges;
    use rand::SeedableRng;

    fn diamond_icm() -> Icm {
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        Icm::new(g, vec![0.7, 0.4, 0.5, 0.6])
    }

    #[test]
    fn chain_checkpoint_text_roundtrip() {
        let icm = diamond_icm();
        let mut rng = StdRng::seed_from_u64(17);
        let mut sampler = PseudoStateSampler::new(&icm, ProposalKind::ResultingActivity, &mut rng);
        sampler.run(500, &mut rng);
        let ckpt = ChainCheckpoint::capture(&mut sampler, &rng);
        let parsed = ChainCheckpoint::from_text(&ckpt.to_text()).unwrap();
        assert_eq!(parsed, ckpt);
    }

    #[test]
    fn independent_chain_checkpoint_round_trips_and_resumes() {
        let icm = diamond_icm();
        let mut rng = StdRng::seed_from_u64(19);
        let mut sampler = PseudoStateSampler::new(&icm, ProposalKind::Independent, &mut rng);
        sampler.run(50, &mut rng);
        let ckpt = ChainCheckpoint::capture(&mut sampler, &rng);
        assert!(ckpt.to_text().contains("proposal=independent\n"));
        let parsed = ChainCheckpoint::from_text(&ckpt.to_text()).unwrap();
        assert_eq!(parsed, ckpt);
        let (mut resumed, mut rng2) = parsed.restore(&icm).unwrap();
        for _ in 0..50 {
            sampler.step(&mut rng);
            resumed.step(&mut rng2);
            assert_eq!(resumed.state(), sampler.state());
        }
    }

    #[test]
    fn resumed_chain_is_bit_identical() {
        let icm = diamond_icm();
        let mut rng = StdRng::seed_from_u64(23);
        let mut sampler = PseudoStateSampler::new(&icm, ProposalKind::ResultingActivity, &mut rng);
        sampler.run(1_000, &mut rng);
        let ckpt = ChainCheckpoint::capture(&mut sampler, &rng);

        // Continue the original for 1k more steps...
        let mut live_states = Vec::new();
        for _ in 0..1_000 {
            sampler.step(&mut rng);
            live_states.push(sampler.state().bits().as_u64());
        }
        // ...and replay the same 1k steps from the checkpoint.
        let (mut resumed, mut rng2) = ckpt.restore(&icm).unwrap();
        assert_eq!(resumed.steps(), sampler.steps() - 1_000);
        let mut resumed_states = Vec::new();
        for _ in 0..1_000 {
            resumed.step(&mut rng2);
            resumed_states.push(resumed.state().bits().as_u64());
        }
        assert_eq!(live_states, resumed_states);
        assert_eq!(sampler.accepted(), resumed.accepted());
    }

    #[test]
    fn validation_rejects_shape_mismatch_and_bad_indices() {
        let icm = diamond_icm();
        let good = ChainCheckpoint {
            edge_count: 4,
            active_edges: vec![0, 3],
            proposal: ProposalKind::ResultingActivity,
            steps: 10,
            accepted: 5,
            rng_state: [1, 2, 3, 4],
        };
        assert!(good.validate(&icm).is_ok());
        let wrong_shape = ChainCheckpoint {
            edge_count: 7,
            ..good.clone()
        };
        assert!(matches!(
            wrong_shape.validate(&icm),
            Err(FlowError::Checkpoint { .. })
        ));
        let bad_index = ChainCheckpoint {
            active_edges: vec![9],
            ..good
        };
        assert!(matches!(
            bad_index.validate(&icm),
            Err(FlowError::Checkpoint { .. })
        ));
    }

    #[test]
    fn from_text_rejects_garbage() {
        for garbage in [
            "",
            "not a checkpoint",
            "flowckpt v1\nedges=nope\n",
            "flowckpt v1\nedges=4\nproposal=sideways\n",
            "flowckpt v1\nedges=4\nproposal=resulting\nsteps=1\naccepted=1\nrng=1,2,3\nactive=\n",
            "flowckpt v1\nedges=4\nproposal=resulting\nsteps=1\nrng=1,2,3,4\nactive=\n",
        ] {
            assert!(
                matches!(
                    ChainCheckpoint::from_text(garbage),
                    Err(FlowError::Checkpoint { .. })
                ),
                "accepted garbage: {garbage:?}"
            );
        }
    }

    #[test]
    fn flow_checkpoint_text_roundtrip() {
        let ckpt = FlowCheckpoint {
            chain: ChainCheckpoint {
                edge_count: 4,
                active_edges: vec![1, 2],
                proposal: ProposalKind::CurrentActivity,
                steps: 123,
                accepted: 45,
                rng_state: [9, 8, 7, 6],
            },
            source: 0,
            sink: 3,
            samples_done: 5,
            every: 5,
            series: vec![1, 0, 0, 1, 1],
        };
        let parsed = FlowCheckpoint::from_text(&ckpt.to_text()).unwrap();
        assert_eq!(parsed, ckpt);
    }

    #[test]
    fn flow_checkpoint_rejects_series_length_mismatch() {
        let ckpt = FlowCheckpoint {
            chain: ChainCheckpoint {
                edge_count: 4,
                active_edges: vec![],
                proposal: ProposalKind::ResultingActivity,
                steps: 1,
                accepted: 0,
                rng_state: [1, 2, 3, 4],
            },
            source: 0,
            sink: 3,
            samples_done: 3,
            every: 2,
            series: vec![1, 0],
        };
        let text = ckpt.to_text().replace("samples_done=3", "samples_done=2");
        assert!(FlowCheckpoint::from_text(&text).is_ok());
        assert!(matches!(
            FlowCheckpoint::from_text(&ckpt.to_text()),
            Err(FlowError::Checkpoint { .. })
        ));
    }
}

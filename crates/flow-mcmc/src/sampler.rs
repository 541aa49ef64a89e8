//! The Metropolis–Hastings pseudo-state chain (§III-B/C/D, Algorithm 1).
//!
//! ## Proposal
//!
//! From the current pseudo-state `x`, the proposal flips exactly one
//! edge, chosen from a multinomial over edges. The paper describes the
//! selection weights in prose as proportional to "the probability of the
//! *resulting* activity on the flipped edge" (an inactive edge is picked
//! ∝ `p`, an active one ∝ `1 − p`), but the printed formulas use the
//! opposite convention (the probability of the *current* activity).
//! Both are valid Metropolis–Hastings proposals for the same target —
//! they only change `q`, and the acceptance ratio corrects for it — so
//! both are implemented ([`ProposalKind`]) and cross-validated against
//! exhaustive enumeration in the tests.
//!
//! Deriving the acceptance probability `A = min(p_ratio / q_ratio, 1)`
//! for a flip of edge `i` with activation probability `p`:
//!
//! * **ResultingActivity** (prose convention, our default): the forward
//!   selection weight equals the state-probability ratio's numerator and
//!   everything cancels except the normalizers, giving `A = min(Z/Z′, 1)`
//!   with `Z′ = Z + (−1)^{xᵢ}(1 − 2p)` — exactly the normalizer update
//!   the paper states.
//! * **CurrentActivity** (formula convention): the same derivation
//!   leaves `A = min(r² · Z/Z′, 1)` where `r = p/(1−p)` when activating
//!   and `(1−p)/p` when deactivating.
//!
//! The multinomial lives in a Fenwick tree ([`flow_stats::WeightTree`]),
//! so sampling an edge, reading `Z`, and updating the flipped edge's
//! weight are all `O(log m)` — the paper's "search tree".
//!
//! ## Exact draws
//!
//! Without conditions Eq. 3 factorizes over edges, so a state can be
//! drawn exactly. [`ProposalKind::Independent`] is the independence
//! kernel built on that. Its proposal is the marginal target itself, so
//! the MH ratio reduces to the condition indicator: the step always
//! accepts without conditions (consecutive states are independent
//! exact draws, no burn-in or thinning needed) and accepts exactly when
//! the conditions hold otherwise.
//!
//! A step draws one 64-bit *key* from the chain's RNG, and the key is
//! the world: edge `e` is active iff `(z >> 11)·2⁻⁵³ < p_e`, where `z`
//! is the `e`-th SplitMix64 output of the key (the comparison
//! `random::<f64>() < p` makes). Any edge's coin is a pure function of
//! the key and the edge, so a search reads only the coins of the edges
//! it reaches. By Eq. 4 a flow depends only on the active-state a
//! pseudo-state gives rise to (§III-A), so a step plus a reach-set
//! search costs what the search touches, not `O(m)`. The whole world
//! is materialized only when asked for: by [`PseudoStateSampler::state`]
//! and so by [`crate::ChainCheckpoint::capture`], whose text therefore
//! does not change.
//!
//! ## Conditions
//!
//! Flow conditions multiply the target by the indicator `I(x, C)`
//! (Eq. 7): a proposal whose resulting state violates any condition has
//! `p_ratio = 0` and is rejected outright (§III-D). The chain must
//! *start* inside the support; [`PseudoStateSampler::with_conditions`]
//! constructs a satisfying initial state by activating randomized paths
//! for required flows and retrying on forbidden-flow violations.
//!
//! The chain keeps the reach set `R(s)` of every distinct condition
//! source `s` in its current state, and reads each condition off it
//! (`sink ∈ R(s)`; a node always reaches itself). The sets are derived
//! state: every constructor builds them from the state, clones carry
//! them, and checkpoints never store them. A single flip of edge
//! `(u, v)` can change `R(s)` only when `u ∈ R(s)`, and activating it
//! cannot when `v ∈ R(s)` already. Every other flip leaves every
//! condition as it was (inside the support), so it passes the indicator
//! with no traversal. Otherwise only the affected sources' sets are
//! recomputed (one BFS each) and their conditions re-read; the new sets
//! replace the old ones only once the step is accepted. The independence
//! kernel recomputes every source's set in each drawn key's world,
//! reading only the coins those searches reach. The indicator's
//! value at each step is the same as a fresh BFS per condition would
//! give, so trajectories and RNG use do not depend on this caching.

use flow_core::{fault, FlowError, FlowResult};
use flow_graph::traverse::{reachable_filtered, BfsScratch};
use flow_graph::{BitSet, DiGraph, EdgeId, NodeId};
use flow_icm::query::conditions_hold;
use flow_icm::{FlowCondition, Icm, PseudoState};
use flow_stats::WeightTree;
use rand::Rng;
use std::cell::OnceCell;

/// Which per-edge selection weight the single-flip proposal uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProposalKind {
    /// Weight = probability of the activity the flip would *produce*:
    /// `p` for an inactive edge, `1 − p` for an active one. This is the
    /// paper's prose description and our default; acceptance reduces to
    /// `min(Z/Z′, 1)`.
    #[default]
    ResultingActivity,
    /// Weight = probability of the *current* activity: `1 − p` for an
    /// inactive edge, `p` for an active one (the convention of the
    /// paper's printed `q_ratio` formula).
    CurrentActivity,
    /// No single-edge flip: every step draws a new world from Eq. 3 as
    /// one key (see the module docs' "Exact draws"). Unconditioned
    /// serving queries run on this kernel with no burn-in and a
    /// thinning of 1.
    Independent,
}

impl ProposalKind {
    /// Selection weight of an edge with activation probability `p` in
    /// activity state `active`.
    #[inline]
    fn weight(self, p: f64, active: bool) -> f64 {
        match self {
            ProposalKind::ResultingActivity => {
                if active {
                    1.0 - p
                } else {
                    p
                }
            }
            ProposalKind::CurrentActivity => {
                if active {
                    p
                } else {
                    1.0 - p
                }
            }
            // The independence kernel keeps no tree.
            ProposalKind::Independent => 0.0,
        }
    }
}

/// Failure to construct an initial state satisfying the flow conditions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConditionInitError {
    /// The same flow is both required and forbidden, or a self-flow
    /// `u ~> u` (which always holds) is forbidden.
    Contradictory {
        /// Source of the contradictory flow condition.
        source: NodeId,
        /// Sink of the contradictory flow condition.
        sink: NodeId,
    },
    /// A required flow has no path at all in the graph.
    NoPath {
        /// Source of the unsatisfiable required flow.
        source: NodeId,
        /// Sink of the unsatisfiable required flow.
        sink: NodeId,
    },
    /// No satisfying state was found within the attempt budget (the
    /// required paths kept inducing forbidden flows).
    SearchExhausted,
}

impl std::fmt::Display for ConditionInitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConditionInitError::Contradictory { source, sink } if source == sink => {
                write!(
                    f,
                    "flow {source} ~> {sink} is forbidden, but a node always reaches itself"
                )
            }
            ConditionInitError::Contradictory { source, sink } => {
                write!(f, "flow {source} ~> {sink} is both required and forbidden")
            }
            ConditionInitError::NoPath { source, sink } => {
                write!(
                    f,
                    "required flow {source} ~> {sink} has no path in the graph"
                )
            }
            ConditionInitError::SearchExhausted => {
                write!(f, "could not find a pseudo-state satisfying all conditions")
            }
        }
    }
}

impl std::error::Error for ConditionInitError {}

impl From<ConditionInitError> for flow_core::FlowError {
    fn from(e: ConditionInitError) -> Self {
        flow_core::FlowError::GraphInconsistency {
            detail: e.to_string(),
        }
    }
}

/// Telemetry counters accumulated in plain fields on the hot step path
/// and dispatched in one batch per `run`/`try_run` call (plus at every
/// tree rebuild, which checkpoint capture triggers). Batching keeps the
/// enabled-path overhead within the ≤10% budget `BENCH_sampler.json`
/// pins: a dispatched counter costs a thread-local + lock round-trip,
/// a field increment costs one add.
#[derive(Clone, Copy, Debug, Default)]
struct PendingObs {
    steps: u64,
    lazy_loops: u64,
    empty_proposals: u64,
    mh_rejects: u64,
    condition_rejects: u64,
    accepts: u64,
    tree_rebuilds: u64,
}

/// The reach set of one distinct condition source in the chain's
/// current state, and the conditions read off it (see the module docs'
/// "Conditions").
#[derive(Clone, Debug)]
struct SourceReach {
    source: NodeId,
    /// `(sink, required)` of every condition on `source`.
    sinks: Vec<(NodeId, bool)>,
    /// The nodes `source` reaches in the current state.
    set: BitSet,
    /// The proposed state's set, swapped into `set` on acceptance.
    staged: BitSet,
    /// Whether `staged` holds the current proposal's set.
    restaged: bool,
}

impl SourceReach {
    /// True iff every condition on this source holds with `reach` as
    /// its reach set.
    fn holds_in(&self, reach: &BitSet) -> bool {
        self.sinks
            .iter()
            .all(|&(sink, required)| reach.get(sink.index()) == required)
    }

    /// Recomputes the source's set in `world` into `staged`. Returns
    /// false, leaving `staged` stale, when a condition fails there.
    fn stage(
        &mut self,
        scratch: &mut BfsScratch,
        graph: &DiGraph,
        world: &World,
        probs: &[f64],
    ) -> bool {
        let reach = scratch.reach_set(graph, &[self.source], |e| world.is_active(probs, e));
        if !self.holds_in(reach) {
            return false;
        }
        self.staged.clear();
        self.staged.union_with(reach);
        true
    }
}

/// Groups `conditions` by source and computes each source's reach set
/// in `world`.
fn source_reach_sets(
    graph: &DiGraph,
    world: &World,
    probs: &[f64],
    conditions: &[FlowCondition],
    scratch: &mut BfsScratch,
) -> Vec<SourceReach> {
    let mut reach: Vec<SourceReach> = Vec::new();
    for c in conditions {
        match reach.iter_mut().find(|r| r.source == c.source) {
            Some(r) => r.sinks.push((c.sink, c.required)),
            None => reach.push(SourceReach {
                source: c.source,
                sinks: vec![(c.sink, c.required)],
                set: scratch
                    .reach_set(graph, &[c.source], |e| world.is_active(probs, e))
                    .clone(),
                staged: BitSet::new(graph.node_count()),
                restaged: false,
            }),
        }
    }
    reach
}

/// Re-reads the conditions in `world`, a proposal: recomputes into its
/// staging buffer the set of every source that `affected` selects (by
/// its current set) and returns false at the first violated condition.
/// Sources not selected keep their sets, and their conditions still
/// hold.
fn stage_reach_sets(
    reach: &mut [SourceReach],
    scratch: &mut BfsScratch,
    graph: &DiGraph,
    world: &World,
    probs: &[f64],
    affected: impl Fn(&BitSet) -> bool,
) -> bool {
    for r in reach {
        r.restaged = affected(&r.set);
        if r.restaged && !r.stage(scratch, graph, world, probs) {
            return false;
        }
    }
    true
}

/// Edge `e`'s coin in the world drawn as `key`: the `e`-th SplitMix64
/// output of `key`, read as a uniform on `[0, 1)` the way
/// `Rng::random::<f64>()` reads a word. The edge is active iff its coin
/// is below its probability.
#[inline]
fn coin(key: u64, e: EdgeId) -> f64 {
    let step = u64::from(e.0).wrapping_add(1);
    let mut z = key.wrapping_add(step.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The chain's current pseudo-state.
#[derive(Clone, Debug)]
enum World {
    /// Every edge's activity, stored: the MH kernels' state, and the
    /// independence kernel's until its first accepted draw (a
    /// constructed or restored state).
    Stored(PseudoState),
    /// A world drawn as one key (see the module docs' "Exact draws"),
    /// and the whole state once [`PseudoStateSampler::state`] has
    /// materialized it.
    Keyed(u64, OnceCell<PseudoState>),
}

impl World {
    fn keyed(key: u64) -> Self {
        World::Keyed(key, OnceCell::new())
    }

    /// Activity of edge `e`, whose probability `probs` holds.
    #[inline]
    fn is_active(&self, probs: &[f64], e: EdgeId) -> bool {
        match self {
            World::Stored(state) => state.is_active(e),
            World::Keyed(key, _) => coin(*key, e) < probs[e.index()],
        }
    }

    /// The whole state, materializing a keyed world on first ask.
    fn state(&self, probs: &[f64]) -> &PseudoState {
        match self {
            World::Stored(state) => state,
            World::Keyed(_, cell) => cell.get_or_init(|| {
                let active = (0..probs.len()).filter(|&i| self.is_active(probs, EdgeId(i as u32)));
                PseudoState::from_bits(BitSet::from_indices(probs.len(), active))
            }),
        }
    }

    /// Flips edge `e`, storing a keyed world first.
    fn flip(&mut self, probs: &[f64], e: EdgeId) {
        if let World::Keyed(..) = self {
            *self = World::Stored(self.state(probs).clone());
        }
        if let World::Stored(state) = self {
            state.flip(e);
        }
    }
}

/// A Metropolis–Hastings chain over the pseudo-states of one ICM.
#[derive(Clone, Debug)]
pub struct PseudoStateSampler<'a> {
    icm: &'a Icm,
    world: World,
    tree: WeightTree,
    kind: ProposalKind,
    conditions: Vec<FlowCondition>,
    /// Reach set of each distinct condition source in `world`.
    reach: Vec<SourceReach>,
    scratch: BfsScratch,
    steps: u64,
    accepted: u64,
    updates_since_rebuild: u64,
    rebuild_every: u64,
    pending: PendingObs,
}

impl<'a> PseudoStateSampler<'a> {
    /// Starts a marginal (unconditioned) chain. The initial state is an
    /// exact draw from the target (Eq. 3 factorizes over edges), so no
    /// burn-in is strictly necessary — callers typically keep a short
    /// one anyway for safety after conditioning.
    pub fn new<R: Rng + ?Sized>(icm: &'a Icm, kind: ProposalKind, rng: &mut R) -> Self {
        let world = match kind {
            ProposalKind::Independent => World::keyed(rng.random()),
            _ => World::Stored(PseudoState::sample(icm, rng)),
        };
        Self::from_world(icm, kind, world, Vec::new())
    }

    /// Starts a chain targeting `Pr[x | M, C]` for the given conditions.
    ///
    /// The initial state activates a randomized path for every required
    /// flow (everything else drawn from the marginal), retrying until
    /// the forbidden flows hold too. A required self-flow `u ~> u`
    /// always holds and is dropped; a forbidden one never holds and is
    /// reported as [`ConditionInitError::Contradictory`].
    pub fn with_conditions<R: Rng + ?Sized>(
        icm: &'a Icm,
        kind: ProposalKind,
        mut conditions: Vec<FlowCondition>,
        rng: &mut R,
    ) -> Result<Self, ConditionInitError> {
        if let Some((source, sink)) = flow_icm::query::find_contradiction(&conditions) {
            return Err(ConditionInitError::Contradictory { source, sink });
        }
        // Only required self-flows are left, and they always hold.
        conditions.retain(|c| c.source != c.sink);
        if conditions.is_empty() {
            return Ok(Self::new(icm, kind, rng));
        }
        // A required flow with no path at all can never be satisfied.
        let mut scratch = BfsScratch::new(icm.node_count());
        for c in &conditions {
            if c.required && !scratch.is_reachable(icm.graph(), c.source, c.sink, |_| true) {
                return Err(ConditionInitError::NoPath {
                    source: c.source,
                    sink: c.sink,
                });
            }
        }
        const ATTEMPTS: usize = 200;
        for attempt in 0..ATTEMPTS {
            // Attempt 0..k: marginal draw + required-path repair.
            // Later attempts: sparser backgrounds, which make forbidden
            // conditions easier to satisfy.
            let mut state = if attempt < ATTEMPTS / 2 {
                PseudoState::sample(icm, rng)
            } else {
                PseudoState::all_inactive(icm.edge_count())
            };
            for c in &conditions {
                if c.required && !state.carries_flow(icm.graph(), c.source, c.sink) {
                    activate_random_path(icm, &mut state, c.source, c.sink, rng);
                }
            }
            if conditions_hold(icm.graph(), &state, &conditions) {
                return Ok(Self::from_world(
                    icm,
                    kind,
                    World::Stored(state),
                    conditions,
                ));
            }
        }
        Err(ConditionInitError::SearchExhausted)
    }

    fn from_world(
        icm: &'a Icm,
        kind: ProposalKind,
        world: World,
        conditions: Vec<FlowCondition>,
    ) -> Self {
        let probs = icm.probabilities();
        let weights: Vec<f64> = match kind {
            ProposalKind::Independent => Vec::new(),
            _ => icm
                .graph()
                .edges()
                .map(|e| kind.weight(probs[e.index()], world.is_active(probs, e)))
                .collect(),
        };
        let mut scratch = BfsScratch::new(icm.node_count());
        let reach = source_reach_sets(icm.graph(), &world, probs, &conditions, &mut scratch);
        PseudoStateSampler {
            scratch,
            icm,
            world,
            tree: WeightTree::new(&weights),
            kind,
            conditions,
            reach,
            steps: 0,
            accepted: 0,
            updates_since_rebuild: 0,
            rebuild_every: 1 << 20,
            pending: PendingObs::default(),
        }
    }

    /// Reconstructs a chain from checkpointed parts: the pseudo-state
    /// plus the step/acceptance counters. The proposal-weight tree is
    /// rebuilt from scratch, so callers that need bit-exact resume must
    /// pair this with [`Self::rebuild_tree`] on the live chain at the
    /// capture point (see `crate::checkpoint`).
    ///
    /// `state` must satisfy every condition in `conditions`: the chain
    /// only samples `Pr[x | M, C]` from inside its support, and it
    /// re-reads a condition only after a flip that can change it.
    /// [`crate::ChainCheckpoint::restore_with_conditions`] checks this
    /// before calling here.
    pub fn from_checkpoint_parts(
        icm: &'a Icm,
        kind: ProposalKind,
        state: PseudoState,
        conditions: Vec<FlowCondition>,
        steps: u64,
        accepted: u64,
    ) -> Self {
        let mut s = Self::from_world(icm, kind, World::Stored(state), conditions);
        s.steps = steps;
        s.accepted = accepted;
        s
    }

    /// Recomputes the proposal-weight tree's prefix sums from the exact
    /// per-edge weights, clearing accumulated floating-point drift.
    /// Called automatically every `2^20` accepted updates; checkpoint
    /// capture calls it explicitly so a resumed chain (whose tree is
    /// rebuilt from scratch) stays bit-identical to the original.
    pub fn rebuild_tree(&mut self) {
        let _rebuild = flow_obs::span("fenwick.rebuild");
        self.pending.tree_rebuilds += 1;
        self.tree.rebuild();
        self.updates_since_rebuild = 0;
        // Checkpoint capture rebuilds before serialising, so flushing
        // here also publishes the batch-accumulated step counters of
        // callers that drive `try_step` directly.
        self.flush_obs_counters();
    }

    /// Dispatches the batch-accumulated telemetry counters to the
    /// active recorder and zeroes the batch. `run`/`try_run` call this
    /// once per invocation; callers stepping the chain manually can
    /// call it at their own boundaries. Counters accumulated while no
    /// recorder is installed are discarded, matching the per-step
    /// dispatch semantics this batching replaced.
    pub fn flush_obs_counters(&mut self) {
        let p = std::mem::take(&mut self.pending);
        if !flow_obs::enabled() {
            return;
        }
        for (name, value) in [
            ("sampler.steps", p.steps),
            ("sampler.lazy_loops", p.lazy_loops),
            ("sampler.empty_proposals", p.empty_proposals),
            ("sampler.mh_rejects", p.mh_rejects),
            ("sampler.condition_rejects", p.condition_rejects),
            ("sampler.accepts", p.accepts),
            ("sampler.tree_rebuilds", p.tree_rebuilds),
        ] {
            if value > 0 {
                flow_obs::counter(name, value);
            }
        }
    }

    /// The proposal convention this chain uses.
    pub fn proposal_kind(&self) -> ProposalKind {
        self.kind
    }

    /// The model this chain samples from.
    pub fn icm(&self) -> &Icm {
        self.icm
    }

    /// The current pseudo-state. An independence chain's drawn world is
    /// materialized here, once per draw: `O(m)` on the first ask.
    pub fn state(&self) -> &PseudoState {
        self.world.state(self.icm.probabilities())
    }

    /// The active conditions.
    pub fn conditions(&self) -> &[FlowCondition] {
        &self.conditions
    }

    /// Total proposals made.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Accepted proposals.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Fraction of proposals accepted (0 before any step).
    pub fn acceptance_rate(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.accepted as f64 / self.steps as f64
        }
    }

    /// Laziness: probability of a deliberate self-loop per step.
    ///
    /// The single-flip proposal changes the state's edge-parity on
    /// every acceptance, so a chain whose acceptance probability is
    /// identically 1 (e.g. all `p = 1/2`) is *periodic*: thinned at an
    /// even interval it can never leave its parity class. Any positive
    /// laziness restores aperiodicity without changing the stationary
    /// distribution (a lazy chain's fixed point is unchanged).
    const LAZINESS: f64 = 0.05;

    /// Performs one chain update (Algorithm 1, plus a 5% lazy
    /// self-loop for aperiodicity — see [`Self::step`]'s source note;
    /// or one exact draw for [`ProposalKind::Independent`]).
    /// Returns `true` if the proposal was accepted (the state changed).
    ///
    /// Panics if the update hits a numerical fault; use
    /// [`Self::try_step`] to get a typed error instead.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        match self.try_step(rng) {
            Ok(accepted) => accepted,
            // flow-analyze: allow(L1: documented panicking wrapper over try_step, L7: serving paths use try_step — step is the documented panicking convenience for offline runs)
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible chain update: returns `Ok(true)` on acceptance,
    /// `Ok(false)` on rejection/self-loop, and a typed error when the
    /// acceptance probability goes non-finite or negative
    /// ([`FlowError::InvalidProbability`]) or when the `sampler.kill_chain`
    /// fault point fires ([`FlowError::ChainStalled`], fault-injection
    /// builds only). On error the chain state is unchanged apart from
    /// the step counter.
    pub fn try_step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> FlowResult<bool> {
        self.steps += 1;
        self.pending.steps += 1;
        if fault::fires("sampler.kill_chain") {
            return Err(FlowError::ChainStalled {
                chain: 0,
                steps: self.steps,
                acceptance_rate: self.acceptance_rate(),
            });
        }
        let current_activity = match self.kind {
            ProposalKind::ResultingActivity => false,
            ProposalKind::CurrentActivity => true,
            ProposalKind::Independent => return Ok(self.independent_step(rng)),
        };
        if rng.random::<f64>() < Self::LAZINESS {
            self.pending.lazy_loops += 1;
            return Ok(false);
        }
        let Some(i) = self.tree.sample(rng) else {
            // All proposal weights are zero (e.g. every edge has p = 0
            // and is inactive): the chain is already at the target's
            // only mass point.
            self.pending.empty_proposals += 1;
            return Ok(false);
        };
        let e = EdgeId(i as u32);
        let probs = self.icm.probabilities();
        let p = probs[i];
        let was_active = self.world.is_active(probs, e);
        let z = self.tree.total();
        let w_new = self.kind.weight(p, !was_active);
        let z_new = z - self.tree.get(i) + w_new;

        let accept_prob = if current_activity {
            // A = min(r^2 * Z / Z', 1) with r the state-probability ratio.
            let r = if was_active {
                (1.0 - p) / p
            } else {
                p / (1.0 - p)
            };
            r * r * z / z_new
        } else {
            // A = min(Z / Z', 1); see module docs for the derivation.
            z / z_new
        };
        let accept_prob = fault::poison("sampler.acceptance", accept_prob);
        // +inf is legitimate (flip away from a zero-weight
        // configuration); NaN and negatives never are — the typed error
        // below is the production path, this trips loudly in checked
        // builds so the corruption is caught where it happens.
        flow_core::debug_invariant!(
            !accept_prob.is_nan() && accept_prob >= 0.0,
            "MH acceptance ratio {accept_prob} left [0, +inf] (Z = {z}, Z' = {z_new})"
        );
        // NaN would silently reject below (`NaN < 1.0` is false but so is
        // `rng > NaN`, accepting every proposal); +inf is a legitimate
        // "certain accept" (flip away from a zero-weight configuration).
        if accept_prob.is_nan() || accept_prob < 0.0 {
            return Err(FlowError::InvalidProbability {
                what: "MH acceptance probability",
                value: accept_prob,
            });
        }

        if accept_prob < 1.0 && rng.random::<f64>() > accept_prob {
            self.pending.mh_rejects += 1;
            return Ok(false);
        }

        // Condition indicator on the proposed state (p_ratio = 0 on
        // violation → certain rejection), re-read only for the sources
        // whose reach set the flip can change.
        self.world.flip(probs, e);
        if !self.reach.is_empty() {
            let graph = self.icm.graph();
            let (tail, head) = graph.endpoints(e);
            let affected =
                |set: &BitSet| set.get(tail.index()) && (was_active || !set.get(head.index()));
            if !stage_reach_sets(
                &mut self.reach,
                &mut self.scratch,
                graph,
                &self.world,
                probs,
                affected,
            ) {
                self.world.flip(probs, e);
                self.pending.condition_rejects += 1;
                return Ok(false);
            }
        }

        self.tree.try_update(i, w_new).inspect_err(|_| {
            // Roll the flip back so the caller sees a consistent state;
            // the staged reach sets are dropped with it.
            self.world.flip(probs, e);
        })?;
        self.commit_reach_sets();
        self.accepted += 1;
        self.updates_since_rebuild += 1;
        self.pending.accepts += 1;
        if self.updates_since_rebuild >= self.rebuild_every {
            let _rebuild = flow_obs::span("fenwick.rebuild");
            self.pending.tree_rebuilds += 1;
            self.tree.rebuild();
            self.updates_since_rebuild = 0;
        }
        // try_update and rebuild each re-audit the whole tree in
        // debug-invariants builds; here we additionally tie the tree's
        // total back to the Z' the acceptance ratio was computed from.
        flow_core::debug_invariant!(
            (self.tree.total() - z_new).abs() <= 1e-9 * z_new.abs().max(1.0),
            "weight-tree total {} drifted from predicted Z' {z_new} after update",
            self.tree.total()
        );
        Ok(true)
    }

    /// One step of the independence kernel: propose a fresh Eq. 3 world,
    /// drawn as one key. The proposal is the marginal target, so the MH
    /// ratio is the condition indicator alone — accept always without
    /// conditions, otherwise exactly when the world satisfies them,
    /// which the condition sources' searches read off the key's coins.
    fn independent_step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        let proposal = World::keyed(rng.random());
        if !self.reach.is_empty() {
            let probs = self.icm.probabilities();
            if !stage_reach_sets(
                &mut self.reach,
                &mut self.scratch,
                self.icm.graph(),
                &proposal,
                probs,
                |_| true,
            ) {
                self.pending.condition_rejects += 1;
                return false;
            }
        }
        self.world = proposal;
        self.commit_reach_sets();
        self.accepted += 1;
        self.pending.accepts += 1;
        true
    }

    /// Swaps the accepted proposal's staged reach sets in, then (in
    /// debug-invariants builds) checks every cached set against a fresh
    /// BFS and the conditions against the reference evaluator.
    fn commit_reach_sets(&mut self) {
        if self.reach.is_empty() {
            return;
        }
        for r in &mut self.reach {
            if r.restaged {
                std::mem::swap(&mut r.set, &mut r.staged);
            }
        }
        let graph = self.icm.graph();
        let probs = self.icm.probabilities();
        let world = &self.world;
        flow_core::debug_invariant!(
            self.reach.iter().all(|r| {
                self.scratch
                    .reach_set(graph, &[r.source], |e| world.is_active(probs, e))
                    == &r.set
            }),
            "a cached condition-source reach set differs from a fresh BFS after step {}",
            self.steps
        );
        flow_core::debug_invariant!(
            conditions_hold(graph, world.state(probs), &self.conditions),
            "accepted step {} left the support of the conditions",
            self.steps
        );
    }

    /// Performs `n` chain updates.
    pub fn run<R: Rng + ?Sized>(&mut self, n: usize, rng: &mut R) {
        for _ in 0..n {
            self.step(rng);
        }
        self.flush_obs_counters();
    }

    /// Performs up to `n` fallible chain updates, stopping at the first
    /// error. Returns the number of accepted proposals.
    pub fn try_run<R: Rng + ?Sized>(&mut self, n: usize, rng: &mut R) -> FlowResult<usize> {
        let mut accepted = 0;
        let mut failure = None;
        for _ in 0..n {
            match self.try_step(rng) {
                Ok(true) => accepted += 1,
                Ok(false) => {}
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        // Steps taken before a mid-run error still count.
        self.flush_obs_counters();
        match failure {
            Some(e) => Err(e),
            None => Ok(accepted),
        }
    }

    /// True iff the current state carries the flow `source ~> sink`.
    /// Reads only the coins of the edges the search reaches.
    pub fn carries_flow(&mut self, source: NodeId, sink: NodeId) -> bool {
        let (graph, probs) = (self.icm.graph(), self.icm.probabilities());
        let world = &self.world;
        let flows = self
            .scratch
            .is_reachable(graph, source, sink, |e| world.is_active(probs, e));
        flow_core::debug_invariant!(
            flows == world.state(probs).carries_flow(graph, source, sink),
            "carries_flow({source}, {sink}) differs from a BFS over the materialized state after step {}",
            self.steps
        );
        flows
    }

    /// The set of nodes reachable from `sources` in the current state,
    /// as a bitset reference (valid until the next call). Reads only the
    /// coins of the edges the search reaches.
    pub fn reach_set(&mut self, sources: &[NodeId]) -> &flow_graph::BitSet {
        let (graph, probs) = (self.icm.graph(), self.icm.probabilities());
        let world = &self.world;
        let reach = self
            .scratch
            .reach_set(graph, sources, |e| world.is_active(probs, e));
        flow_core::debug_invariant!(
            {
                let state = world.state(probs);
                reachable_filtered(graph, sources, |e| state.is_active(e)).reached == *reach
            },
            "reach set of {sources:?} differs from a BFS over the materialized state after step {}",
            self.steps
        );
        reach
    }
}

/// Activates the edges of one randomized path from `source` to `sink`
/// (BFS with shuffled neighbour order), leaving other edges untouched.
fn activate_random_path<R: Rng + ?Sized>(
    icm: &Icm,
    state: &mut PseudoState,
    source: NodeId,
    sink: NodeId,
    rng: &mut R,
) {
    let graph = icm.graph();
    let n = graph.node_count();
    let mut parent_edge: Vec<Option<EdgeId>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    visited[source.index()] = true;
    queue.push_back(source);
    let mut edge_buf: Vec<EdgeId> = Vec::new();
    'bfs: while let Some(u) = queue.pop_front() {
        edge_buf.clear();
        edge_buf.extend_from_slice(graph.out_edges(u));
        // Shuffle so repeated attempts explore different paths.
        for k in (1..edge_buf.len()).rev() {
            edge_buf.swap(k, rng.random_range(0..=k));
        }
        for &e in &edge_buf {
            let v = graph.dst(e);
            if !visited[v.index()] {
                visited[v.index()] = true;
                parent_edge[v.index()] = Some(e);
                if v == sink {
                    break 'bfs;
                }
                queue.push_back(v);
            }
        }
    }
    // Walk back from the sink, activating the path edges.
    let mut v = sink;
    while v != source {
        let Some(e) = parent_edge[v.index()] else {
            return; // unreachable sink: nothing to activate
        };
        state.set(e, true);
        v = graph.src(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_graph::graph::graph_from_edges;
    use flow_icm::exact::{
        enumerate_conditional_probability, enumerate_event_probability, enumerate_flow_probability,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn diamond_icm() -> Icm {
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        Icm::new(g, vec![0.7, 0.4, 0.5, 0.6])
    }

    /// Empirical pseudo-state distribution from the chain vs Eq. 3.
    fn check_stationary_distribution(kind: ProposalKind, seed: u64) {
        let icm = diamond_icm();
        let m = icm.edge_count();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sampler = PseudoStateSampler::new(&icm, kind, &mut rng);
        let mut counts = vec![0u64; 1 << m];
        let kept = 60_000;
        let thin = 8;
        sampler.run(500, &mut rng);
        for _ in 0..kept {
            sampler.run(thin, &mut rng);
            counts[sampler.state().bits().as_u64() as usize] += 1;
        }
        for code in 0..(1u64 << m) {
            let x = PseudoState::from_bits(flow_graph::BitSet::from_u64(m, code));
            let want = x.probability(&icm);
            let got = counts[code as usize] as f64 / kept as f64;
            assert!(
                (got - want).abs() < 0.012,
                "{kind:?} state {code:04b}: got {got:.4}, want {want:.4}"
            );
        }
    }

    #[test]
    fn stationary_distribution_resulting_activity() {
        check_stationary_distribution(ProposalKind::ResultingActivity, 101);
    }

    #[test]
    fn stationary_distribution_current_activity() {
        check_stationary_distribution(ProposalKind::CurrentActivity, 102);
    }

    #[test]
    fn stationary_distribution_independent() {
        check_stationary_distribution(ProposalKind::Independent, 103);
    }

    #[test]
    fn independent_chain_matches_enumeration_and_always_accepts() {
        let icm = diamond_icm();
        let exact = enumerate_flow_probability(&icm, NodeId(0), NodeId(3));
        let mut rng = StdRng::seed_from_u64(210);
        let mut sampler = PseudoStateSampler::new(&icm, ProposalKind::Independent, &mut rng);
        let kept = 40_000;
        let mut hits = 0;
        for _ in 0..kept {
            sampler.run(1, &mut rng);
            if sampler.carries_flow(NodeId(0), NodeId(3)) {
                hits += 1;
            }
        }
        let got = hits as f64 / kept as f64;
        assert!((got - exact).abs() < 0.01, "got {got}, exact {exact}");
        assert_eq!(sampler.steps(), kept as u64);
        assert_eq!(sampler.accepted(), sampler.steps());
        assert_eq!(sampler.acceptance_rate(), 1.0);
    }

    #[test]
    fn independent_chain_matches_conditional_enumeration() {
        let icm = diamond_icm();
        let graph = icm.graph().clone();
        let conditions = vec![
            FlowCondition::requires(NodeId(0), NodeId(1)),
            FlowCondition::forbids(NodeId(0), NodeId(2)),
        ];
        let exact = enumerate_conditional_probability(
            &icm,
            |x| x.carries_flow(&graph, NodeId(0), NodeId(3)),
            |x| {
                x.carries_flow(&graph, NodeId(0), NodeId(1))
                    && !x.carries_flow(&graph, NodeId(0), NodeId(2))
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(310);
        let mut sampler = PseudoStateSampler::with_conditions(
            &icm,
            ProposalKind::Independent,
            conditions.clone(),
            &mut rng,
        )
        .unwrap();
        sampler.run(100, &mut rng);
        let kept = 40_000;
        let mut hits = 0;
        for _ in 0..kept {
            sampler.run(2, &mut rng);
            assert!(conditions_hold(&graph, sampler.state(), &conditions));
            if sampler.carries_flow(NodeId(0), NodeId(3)) {
                hits += 1;
            }
        }
        let got = hits as f64 / kept as f64;
        assert!((got - exact).abs() < 0.012, "got {got}, exact {exact}");
        // Draws that violate a condition are rejected, never kept.
        let rate = sampler.acceptance_rate();
        assert!(rate > 0.0 && rate < 1.0, "rate {rate}");
    }

    #[test]
    fn marginal_flow_estimate_matches_enumeration() {
        let icm = diamond_icm();
        let exact = enumerate_flow_probability(&icm, NodeId(0), NodeId(3));
        for kind in [
            ProposalKind::ResultingActivity,
            ProposalKind::CurrentActivity,
        ] {
            let mut rng = StdRng::seed_from_u64(200);
            let mut sampler = PseudoStateSampler::new(&icm, kind, &mut rng);
            sampler.run(500, &mut rng);
            let kept = 40_000;
            let mut hits = 0;
            for _ in 0..kept {
                sampler.run(6, &mut rng);
                if sampler.carries_flow(NodeId(0), NodeId(3)) {
                    hits += 1;
                }
            }
            let got = hits as f64 / kept as f64;
            assert!(
                (got - exact).abs() < 0.01,
                "{kind:?}: got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn conditional_sampling_matches_enumeration() {
        let icm = diamond_icm();
        let graph = icm.graph().clone();
        // Condition: flow 0 ~> 1 required, flow 0 ~> 2 forbidden.
        let conditions = vec![
            FlowCondition::requires(NodeId(0), NodeId(1)),
            FlowCondition::forbids(NodeId(0), NodeId(2)),
        ];
        let exact = enumerate_conditional_probability(
            &icm,
            |x| x.carries_flow(&graph, NodeId(0), NodeId(3)),
            |x| {
                x.carries_flow(&graph, NodeId(0), NodeId(1))
                    && !x.carries_flow(&graph, NodeId(0), NodeId(2))
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(300);
        let mut sampler = PseudoStateSampler::with_conditions(
            &icm,
            ProposalKind::ResultingActivity,
            conditions,
            &mut rng,
        )
        .unwrap();
        sampler.run(2_000, &mut rng);
        let kept = 40_000;
        let mut hits = 0;
        for _ in 0..kept {
            sampler.run(6, &mut rng);
            if sampler.carries_flow(NodeId(0), NodeId(3)) {
                hits += 1;
            }
        }
        let got = hits as f64 / kept as f64;
        assert!((got - exact).abs() < 0.012, "got {got}, exact {exact}");
    }

    #[test]
    fn conditional_chain_never_leaves_support() {
        let icm = diamond_icm();
        let conditions = vec![
            FlowCondition::requires(NodeId(0), NodeId(3)),
            FlowCondition::forbids(NodeId(0), NodeId(1)),
        ];
        let mut rng = StdRng::seed_from_u64(301);
        let mut sampler = PseudoStateSampler::with_conditions(
            &icm,
            ProposalKind::ResultingActivity,
            conditions.clone(),
            &mut rng,
        )
        .unwrap();
        for _ in 0..3_000 {
            sampler.step(&mut rng);
            assert!(conditions_hold(
                sampler.icm().graph(),
                sampler.state(),
                &conditions
            ));
        }
        // With 0~>1 forbidden, flow must go via node 2.
        assert!(sampler.carries_flow(NodeId(0), NodeId(2)));
    }

    #[test]
    fn cached_reach_sets_track_every_step() {
        // Three condition sources with overlapping reach sets on a
        // 6-node model with a cycle; after every step, accepted or not,
        // each cached set equals a fresh BFS and the conditions hold.
        let g = graph_from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (0, 2),
                (1, 3),
                (2, 4),
                (3, 1),
                (5, 2),
            ],
        );
        let icm = Icm::with_uniform_probability(g, 0.5);
        let conditions = vec![
            FlowCondition::requires(NodeId(0), NodeId(3)),
            FlowCondition::forbids(NodeId(1), NodeId(5)),
            FlowCondition::requires(NodeId(2), NodeId(4)),
            FlowCondition::forbids(NodeId(0), NodeId(5)),
        ];
        for (seed, kind) in [
            ProposalKind::ResultingActivity,
            ProposalKind::CurrentActivity,
            ProposalKind::Independent,
        ]
        .into_iter()
        .enumerate()
        {
            let mut rng = StdRng::seed_from_u64(500 + seed as u64);
            let mut sampler =
                PseudoStateSampler::with_conditions(&icm, kind, conditions.clone(), &mut rng)
                    .unwrap();
            assert_eq!(sampler.reach.len(), 3);
            for _ in 0..2_000 {
                sampler.step(&mut rng);
                let state = sampler.state().clone();
                for r in &sampler.reach {
                    let fresh =
                        flow_graph::traverse::reachable_filtered(icm.graph(), &[r.source], |e| {
                            state.is_active(e)
                        });
                    assert_eq!(r.set, fresh.reached, "{kind:?} source {}", r.source);
                }
                assert!(conditions_hold(icm.graph(), &state, &conditions));
            }
            assert!(sampler.accepted() > 0, "{kind:?} never moved");
        }
    }

    #[test]
    fn contradictory_conditions_rejected() {
        let icm = diamond_icm();
        let mut rng = StdRng::seed_from_u64(5);
        let err = PseudoStateSampler::with_conditions(
            &icm,
            ProposalKind::ResultingActivity,
            vec![
                FlowCondition::requires(NodeId(0), NodeId(3)),
                FlowCondition::forbids(NodeId(0), NodeId(3)),
            ],
            &mut rng,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ConditionInitError::Contradictory {
                source: NodeId(0),
                sink: NodeId(3)
            }
        );
    }

    #[test]
    fn self_flow_conditions_never_reach_the_init_search() {
        let icm = diamond_icm();
        let fresh_draw = StdRng::seed_from_u64(5).random::<u64>();
        // A forbidden self-flow never holds: rejected up front, before
        // the initial-state search draws anything.
        let mut rng = StdRng::seed_from_u64(5);
        let err = PseudoStateSampler::with_conditions(
            &icm,
            ProposalKind::ResultingActivity,
            vec![
                FlowCondition::requires(NodeId(0), NodeId(1)),
                FlowCondition::forbids(NodeId(3), NodeId(3)),
            ],
            &mut rng,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ConditionInitError::Contradictory {
                source: NodeId(3),
                sink: NodeId(3)
            }
        );
        assert!(err.to_string().contains("always reaches itself"), "{err}");
        assert_eq!(rng.random::<u64>(), fresh_draw);

        // A required one always holds: the chain drops it and runs the
        // unconditioned trajectory.
        for kind in [ProposalKind::ResultingActivity, ProposalKind::Independent] {
            let mut rng = StdRng::seed_from_u64(6);
            let mut vacuous = PseudoStateSampler::with_conditions(
                &icm,
                kind,
                vec![FlowCondition::requires(NodeId(3), NodeId(3))],
                &mut rng,
            )
            .unwrap();
            assert!(vacuous.conditions().is_empty());
            let mut rng2 = StdRng::seed_from_u64(6);
            let mut plain = PseudoStateSampler::new(&icm, kind, &mut rng2);
            for _ in 0..200 {
                vacuous.step(&mut rng);
                plain.step(&mut rng2);
                assert_eq!(vacuous.state(), plain.state());
            }
        }
    }

    #[test]
    fn unreachable_required_flow_rejected() {
        let g = graph_from_edges(3, &[(0, 1)]);
        let icm = Icm::with_uniform_probability(g, 0.5);
        let mut rng = StdRng::seed_from_u64(6);
        let err = PseudoStateSampler::with_conditions(
            &icm,
            ProposalKind::ResultingActivity,
            vec![FlowCondition::requires(NodeId(0), NodeId(2))],
            &mut rng,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ConditionInitError::NoPath {
                source: NodeId(0),
                sink: NodeId(2)
            }
        );
    }

    #[test]
    fn conditional_bayes_coherence() {
        // P(A and B) = P(A | B) P(B) on a 5-node random model, with the
        // conditional estimated by the conditioned chain and the other
        // two terms by enumeration.
        let mut rng = StdRng::seed_from_u64(401);
        let g = flow_graph::generate::uniform_edges(&mut rng, 5, 10);
        let icm = Icm::with_uniform_probability(g, 0.4);
        let graph = icm.graph().clone();
        let (a_src, a_dst) = (NodeId(0), NodeId(4));
        let (b_src, b_dst) = (NodeId(0), NodeId(2));
        let p_b = enumerate_event_probability(&icm, |x| x.carries_flow(&graph, b_src, b_dst));
        if p_b < 0.05 {
            // Degenerate draw; the fixed seed avoids this in practice.
            panic!("test fixture too degenerate (p_b = {p_b})");
        }
        let p_ab = enumerate_event_probability(&icm, |x| {
            x.carries_flow(&graph, a_src, a_dst) && x.carries_flow(&graph, b_src, b_dst)
        });
        let mut sampler = PseudoStateSampler::with_conditions(
            &icm,
            ProposalKind::ResultingActivity,
            vec![FlowCondition::requires(b_src, b_dst)],
            &mut rng,
        )
        .unwrap();
        sampler.run(2_000, &mut rng);
        let kept = 40_000;
        let mut hits = 0;
        for _ in 0..kept {
            sampler.run(8, &mut rng);
            if sampler.carries_flow(a_src, a_dst) {
                hits += 1;
            }
        }
        let p_a_given_b = hits as f64 / kept as f64;
        assert!(
            (p_a_given_b * p_b - p_ab).abs() < 0.015,
            "P(A|B)P(B) = {} vs P(AB) = {p_ab}",
            p_a_given_b * p_b
        );
    }

    #[test]
    fn acceptance_rate_is_tracked() {
        let icm = diamond_icm();
        let mut rng = StdRng::seed_from_u64(7);
        let mut sampler = PseudoStateSampler::new(&icm, ProposalKind::ResultingActivity, &mut rng);
        assert_eq!(sampler.acceptance_rate(), 0.0);
        sampler.run(5_000, &mut rng);
        let rate = sampler.acceptance_rate();
        assert!(rate > 0.3 && rate <= 1.0, "rate {rate}");
        assert_eq!(sampler.steps(), 5_000);
        assert!(sampler.accepted() > 0);
    }

    #[test]
    fn chain_is_seed_deterministic() {
        let icm = diamond_icm();
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = PseudoStateSampler::new(&icm, ProposalKind::ResultingActivity, &mut rng);
            s.run(1_000, &mut rng);
            s.state().bits().as_u64()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn degenerate_probabilities_are_stable() {
        // p = 0 edges must stay inactive; p = 1 edges must become and
        // stay active under the default proposal.
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let icm = Icm::new(g, vec![0.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(8);
        let mut sampler = PseudoStateSampler::new(&icm, ProposalKind::ResultingActivity, &mut rng);
        sampler.run(500, &mut rng);
        assert!(!sampler.state().is_active(EdgeId(0)));
        assert!(sampler.state().is_active(EdgeId(1)));
    }

    #[test]
    fn keyed_coins_are_the_splitmix64_stream_of_the_key() {
        // Edge e's coin is the e-th output of a SplitMix64 generator
        // whose state starts at the key, read as `random::<f64>()` reads
        // a word.
        for key in [0, 1, 0x9E37_79B9_7F4A_7C15, u64::MAX] {
            let mut state = key;
            for e in 0..300 {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let want = (z >> 11) as f64 / (1u64 << 53) as f64;
                assert_eq!(
                    coin(key, EdgeId(e)).to_bits(),
                    want.to_bits(),
                    "key {key} edge {e}"
                );
            }
        }
    }

    #[test]
    fn reach_set_matches_carries_flow() {
        let icm = diamond_icm();
        let mut rng = StdRng::seed_from_u64(9);
        let mut sampler = PseudoStateSampler::new(&icm, ProposalKind::ResultingActivity, &mut rng);
        for _ in 0..100 {
            sampler.run(3, &mut rng);
            let flows: Vec<bool> = (0..4)
                .map(|v| sampler.carries_flow(NodeId(0), NodeId(v)))
                .collect();
            let reach = sampler.reach_set(&[NodeId(0)]).clone();
            for (v, &flow) in flows.iter().enumerate() {
                assert_eq!(reach.get(v), flow, "node {v}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        /// A keyed world's searches read the world `state()`
        /// materializes: `reach_set` from each single source and from
        /// several sources at once equals a BFS over the materialized
        /// state, and `carries_flow` agrees with both. Checked in the
        /// world drawn as `key` and in the worlds of the steps after
        /// it, so a state left from an earlier world fails too.
        #[test]
        fn keyed_searches_match_the_materialized_world(
            model_seed in any::<u64>(),
            n in 1usize..10,
            density in 0.0f64..1.0,
            key in any::<u64>(),
            sources in collection::vec(0usize..10, 1..4),
        ) {
            let mut rng = StdRng::seed_from_u64(model_seed);
            let m = (density * (n * (n - 1)) as f64) as usize;
            let graph = flow_graph::generate::uniform_edges(&mut rng, n, m);
            let probs = (0..m).map(|_| rng.random::<f64>()).collect();
            let icm = Icm::new(graph, probs);
            let graph = icm.graph();
            let sources: Vec<NodeId> = sources.iter().map(|&s| NodeId((s % n) as u32)).collect();
            let mut sampler =
                PseudoStateSampler::from_world(&icm, ProposalKind::Independent, World::keyed(key), Vec::new());
            for _ in 0..3 {
                let state = sampler.state().clone();
                let bfs = |from: &[NodeId]| {
                    reachable_filtered(graph, from, |e| state.is_active(e)).reached
                };
                for u in graph.nodes() {
                    let want = bfs(&[u]);
                    prop_assert_eq!(sampler.reach_set(&[u]), &want);
                    for v in graph.nodes() {
                        let flows = sampler.carries_flow(u, v);
                        prop_assert_eq!(flows, want.get(v.index()));
                        prop_assert_eq!(flows, state.carries_flow(graph, u, v));
                    }
                }
                prop_assert_eq!(sampler.reach_set(&sources), &bfs(&sources));
                sampler.step(&mut rng);
            }
        }
    }
}

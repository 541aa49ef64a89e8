//! Episodes, characteristics, and evidence summaries (§V-B).
//!
//! An [`Episode`] is one information object's unattributed trace: the
//! time at which each node became active (absence = never active). For a
//! chosen sink `k` with candidate parents `j₀…j_ℓ` (its in-neighbours),
//! each episode is reduced to a **characteristic**: the bitset of
//! parents active before `k`'s decision point —
//!
//! * if `k` activated at time `t`, the parents active *strictly before*
//!   `t` (the paper's relaxed window), or active at exactly `t − 1`
//!   under the original Saito discrete-time assumption
//!   ([`TimingAssumption`]);
//! * if `k` never activated, the parents active at the latest time in
//!   the data — "this ensures that all potential causes are considered
//!   for both positive and negative flows".
//!
//! Identical characteristics are merged into [`SummaryRow`]s carrying an
//! observation count and a leak count, giving the sufficient statistic
//! of Eq. 9 (sufficiency is verified by a property test below).

use flow_graph::{BitSet, DiGraph, NodeId};
use flow_stats::specfn::ln_choose;
use flow_stats::Beta;

/// Which parents count as potential causes of a sink activation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TimingAssumption {
    /// Any parent active strictly before the sink (the paper's relaxed
    /// assumption, appropriate for Twitter-like feeds).
    #[default]
    AnyEarlier,
    /// Only parents active at exactly the preceding time step (the
    /// assumption of Saito et al.'s original EM formulation).
    PreviousStep,
}

/// One information object's activation trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Episode {
    /// `(node, activation time)` pairs; a node absent from the list was
    /// never active for this object. Times need not be sorted.
    activations: Vec<(NodeId, u32)>,
}

impl Episode {
    /// Builds an episode from `(node, time)` pairs.
    ///
    /// Panics if a node appears twice (an ICM node activates at most
    /// once per object).
    pub fn new(activations: Vec<(NodeId, u32)>) -> Self {
        let mut nodes: Vec<NodeId> = activations.iter().map(|&(v, _)| v).collect();
        nodes.sort_unstable();
        for pair in nodes.windows(2) {
            assert!(
                pair[0] != pair[1],
                "node {} activates twice in one episode",
                pair[0]
            );
        }
        Episode { activations }
    }

    /// The activation time of `v`, if it activated.
    pub fn activation_time(&self, v: NodeId) -> Option<u32> {
        self.activations
            .iter()
            .find(|&&(u, _)| u == v)
            .map(|&(_, t)| t)
    }

    /// True iff `v` activated.
    pub fn is_active(&self, v: NodeId) -> bool {
        self.activation_time(v).is_some()
    }

    /// All `(node, time)` activations.
    pub fn activations(&self) -> &[(NodeId, u32)] {
        &self.activations
    }

    /// Number of active nodes.
    pub fn active_count(&self) -> usize {
        self.activations.len()
    }
}

/// A merged evidence row: one characteristic with its observation and
/// leak counts (one line of the paper's Table I).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SummaryRow {
    /// Bitset over the summary's parent list: which parents were active
    /// before the sink's decision.
    pub characteristic: BitSet,
    /// `n_J`: times this characteristic was observed.
    pub count: u64,
    /// `L_J`: times the sink activated under this characteristic.
    pub leaks: u64,
}

impl SummaryRow {
    /// Number of active parents in the characteristic.
    pub fn parent_count(&self) -> usize {
        self.characteristic.count_ones()
    }

    /// True iff exactly one parent was active (unambiguous attribution).
    pub fn is_unambiguous(&self) -> bool {
        self.parent_count() == 1
    }
}

/// The evidence summary for one sink: the sufficient statistic for the
/// activation probabilities of all edges incident on the sink.
#[derive(Clone, Debug)]
pub struct SinkSummary {
    /// The sink node `k`.
    pub sink: NodeId,
    /// Candidate parents, fixing the characteristic bit order.
    pub parents: Vec<NodeId>,
    /// Merged rows, one per distinct observed characteristic.
    pub rows: Vec<SummaryRow>,
    /// Episodes skipped because the sink activated with no candidate
    /// parent active (spontaneous/exogenous adoption — no edge can
    /// explain it; the paper's omnipotent user absorbs these when
    /// present in the graph).
    pub skipped_spontaneous: u64,
    /// Episodes skipped because they carried no information (sink
    /// inactive and no parent ever active, or the sink was itself the
    /// earliest activation).
    pub skipped_uninformative: u64,
}

/// Sorts rows into their deterministic order: by the ascending list of
/// each characteristic's set bits.
fn sort_rows(rows: &mut [SummaryRow]) {
    rows.sort_by(|a, b| {
        a.characteristic
            .iter_ones()
            .cmp(b.characteristic.iter_ones())
    });
}

/// What a summary observes but has not yet folded into its rows: the
/// characteristics first seen since, with their observation and leak
/// counts, and the characteristic being assembled.
#[derive(Clone, Debug, Default)]
struct Pending {
    /// Found in one hash lookup, however many rows the table has.
    // flow-analyze: allow(L2: drained into the rows and sorted before use, so its iteration order never reaches output)
    rows: std::collections::HashMap<BitSet, (u64, u64)>,
    ch: BitSet,
}

impl SinkSummary {
    /// Counts one episode, given as each node's activation time in it.
    /// A characteristic already among the rows is counted in place,
    /// found by binary search; a new one is counted in `pending` until
    /// [`Self::settle`] folds it in.
    fn observe(
        &mut self,
        timing: TimingAssumption,
        time_of: impl Fn(NodeId) -> Option<u32>,
        pending: &mut Pending,
    ) {
        let ch = &mut pending.ch;
        if ch.len() != self.parents.len() {
            *ch = BitSet::new(self.parents.len());
        }
        ch.clear();
        let sink_time = time_of(self.sink);
        for (b, &p) in self.parents.iter().enumerate() {
            let Some(tp) = time_of(p) else {
                continue;
            };
            // With the sink active, a parent counts when its timing
            // could have caused it; with the sink inactive, every parent
            // that was ever active had the opportunity and failed
            // (negative evidence).
            let counts = match (sink_time, timing) {
                (Some(t), TimingAssumption::AnyEarlier) => tp < t,
                (Some(t), TimingAssumption::PreviousStep) => t > 0 && tp == t - 1,
                (None, _) => true,
            };
            if counts {
                ch.set(b, true);
            }
        }
        let leak = match (sink_time, ch.none()) {
            // Activated with no candidate cause.
            (Some(_), true) => {
                self.skipped_spontaneous += 1;
                return;
            }
            (None, true) => {
                self.skipped_uninformative += 1;
                return;
            }
            (Some(_), false) => 1,
            (None, false) => 0,
        };
        let found = self
            .rows
            .binary_search_by(|row| row.characteristic.iter_ones().cmp(ch.iter_ones()));
        if let Ok(i) = found {
            self.rows[i].count += 1;
            self.rows[i].leaks += leak;
        } else if let Some((count, leaks)) = pending.rows.get_mut(ch) {
            *count += 1;
            *leaks += leak;
        } else {
            pending.rows.insert(ch.clone(), (1, leak));
        }
    }

    /// Folds the `pending` characteristics, none of them among the rows
    /// yet, into the rows, and sorts the rows back into row order.
    fn settle(&mut self, pending: Pending) {
        if pending.rows.is_empty() {
            return;
        }
        let rows = pending
            .rows
            .into_iter()
            .map(|(characteristic, (count, leaks))| SummaryRow {
                characteristic,
                count,
                leaks,
            });
        self.rows.extend(rows);
        sort_rows(&mut self.rows);
    }
}

/// The characteristic tables of every sink of a graph with an in-edge,
/// extended in place as episodes arrive. A batch build
/// ([`crate::graph_train::summarize_graph`]) is one extension.
#[derive(Clone, Debug)]
pub struct SinkTables {
    /// One summary per sink, in node order.
    summaries: Vec<SinkSummary>,
    timing: TimingAssumption,
    /// Per node, the indices of the summaries its activation can
    /// inform: its own as a sink, and every one listing it as a parent.
    informs: Vec<Vec<usize>>,
}

impl SinkTables {
    /// Empty tables for every node of `graph` with an in-edge, each
    /// with the node's in-neighbours as parents in in-edge order.
    pub fn new(graph: &DiGraph, timing: TimingAssumption) -> Self {
        let summaries = graph
            .nodes()
            .filter(|&k| graph.in_degree(k) > 0)
            .map(|k| {
                let parents = graph.in_edges(k).iter().map(|&e| graph.src(e)).collect();
                SinkSummary::from_rows(k, parents, Vec::new())
            })
            .collect();
        Self::indexed(summaries, graph.node_count(), timing)
    }

    /// Tables restored from `summaries` over a graph of `nodes` nodes.
    /// Fails when a summary's rows are not distinct and in the order
    /// [`SinkSummary::build`] leaves them in, which extending relies on.
    pub fn from_summaries(
        summaries: Vec<SinkSummary>,
        nodes: usize,
        timing: TimingAssumption,
    ) -> flow_core::FlowResult<Self> {
        for s in &summaries {
            let ordered = s.rows.windows(2).all(|w| {
                w[0].characteristic
                    .iter_ones()
                    .cmp(w[1].characteristic.iter_ones())
                    == std::cmp::Ordering::Less
            });
            if !ordered {
                return Err(flow_core::FlowError::GraphInconsistency {
                    detail: format!("sink {}'s rows are not distinct and in order", s.sink),
                });
            }
        }
        Ok(Self::indexed(summaries, nodes, timing))
    }

    fn indexed(summaries: Vec<SinkSummary>, nodes: usize, timing: TimingAssumption) -> Self {
        let mut informs = vec![Vec::new(); nodes];
        for (i, summary) in summaries.iter().enumerate() {
            for v in std::iter::once(summary.sink).chain(summary.parents.iter().copied()) {
                if let Some(slot) = informs.get_mut(v.index()) {
                    slot.push(i);
                }
            }
        }
        SinkTables {
            summaries,
            timing,
            informs,
        }
    }

    /// The summaries, one per sink in node order.
    pub fn summaries(&self) -> &[SinkSummary] {
        &self.summaries
    }

    /// The summaries, one per sink in node order, taken out.
    pub fn into_summaries(self) -> Vec<SinkSummary> {
        self.summaries
    }

    /// The timing assumption episodes are summarized under.
    pub fn timing(&self) -> TimingAssumption {
        self.timing
    }

    /// Counts `episodes` into every table, leaving each summary as
    /// [`SinkSummary::build`] over every episode it has been given
    /// would: `extend(a)` then `extend(b)` equals one `extend(a ++ b)`.
    ///
    /// An episode in which neither a sink nor any of its parents is
    /// active is uninformative for that sink, so each summary observes
    /// only the episodes that touch it, through a node-indexed table of
    /// activation times, and counts the rest in bulk. The cost follows
    /// the episodes' sizes, not the number of sinks.
    pub fn extend<'a>(&mut self, episodes: impl IntoIterator<Item = &'a Episode>) {
        let tables = self.summaries.len();
        let mut time: Vec<Option<u32>> = vec![None; self.informs.len()];
        let mut pending = vec![Pending::default(); tables];
        // Per summary: the last episode (1-based) it observed, and how
        // many it observed.
        let mut observed = vec![(0u64, 0u64); tables];
        let mut count = 0u64;
        for episode in episodes {
            count += 1;
            let activations = episode.activations();
            for &(v, t) in activations {
                if let Some(slot) = time.get_mut(v.index()) {
                    *slot = Some(t);
                }
            }
            for &(v, _) in activations {
                for &i in self.informs.get(v.index()).into_iter().flatten() {
                    if observed[i].0 == count {
                        continue;
                    }
                    observed[i] = (count, observed[i].1 + 1);
                    self.summaries[i].observe(
                        self.timing,
                        |u| time.get(u.index()).copied().flatten(),
                        &mut pending[i],
                    );
                }
            }
            for &(v, _) in activations {
                if let Some(slot) = time.get_mut(v.index()) {
                    *slot = None;
                }
            }
        }
        let mut added = 0usize;
        for ((summary, pending), (_, seen)) in self.summaries.iter_mut().zip(pending).zip(observed)
        {
            added += pending.rows.len();
            summary.settle(pending);
            summary.skipped_uninformative += count - seen;
        }
        flow_obs::event(|| {
            flow_obs::Event::new("summary.extend")
                .u64("episodes", count)
                .u64("sinks", tables as u64)
                .u64("new_rows", added as u64)
        });
    }
}

impl SinkSummary {
    /// Builds a summary from raw rows (used by fixtures and tests).
    pub fn from_rows(sink: NodeId, parents: Vec<NodeId>, rows: Vec<SummaryRow>) -> Self {
        for r in &rows {
            assert_eq!(r.characteristic.len(), parents.len(), "row width mismatch");
            assert!(r.leaks <= r.count, "leaks cannot exceed count");
        }
        SinkSummary {
            sink,
            parents,
            rows,
            skipped_spontaneous: 0,
            skipped_uninformative: 0,
        }
    }

    /// Summarizes episodes for `sink` with the given candidate
    /// `parents` (typically its in-neighbours).
    pub fn build<'a>(
        sink: NodeId,
        parents: Vec<NodeId>,
        episodes: impl IntoIterator<Item = &'a Episode>,
        timing: TimingAssumption,
    ) -> Self {
        let mut summary = SinkSummary::from_rows(sink, parents, Vec::new());
        let mut pending = Pending::default();
        for ep in episodes {
            summary.observe(timing, |v| ep.activation_time(v), &mut pending);
        }
        summary.settle(pending);
        flow_obs::event(|| {
            flow_obs::Event::new("summary.build")
                .u64("sink", u64::from(summary.sink.0))
                .u64("parents", summary.parents.len() as u64)
                .u64("rows", summary.rows.len() as u64)
                .u64(
                    "unambiguous",
                    summary.rows.iter().filter(|r| r.is_unambiguous()).count() as u64,
                )
                .u64("skipped_spontaneous", summary.skipped_spontaneous)
                .u64("skipped_uninformative", summary.skipped_uninformative)
        });
        summary
    }

    /// Merges another summary over the **same sink and parent list**
    /// into this one, summing per-characteristic observation and leak
    /// counts and the skip counters.
    ///
    /// This is the incremental-learning primitive: because rows are
    /// exact integer counts and the row order is re-derived by the same
    /// deterministic sort [`SinkSummary::build`] uses, merging the
    /// summaries of two episode batches is **bit-identical** to building
    /// one summary from the concatenated episodes —
    /// `build(a) ∪ build(b) == build(a ++ b)` — which `flow-stream`'s
    /// epoch deltas rely on (property-tested there and below).
    ///
    /// Fails with [`flow_core::FlowError::GraphInconsistency`] when the
    /// summaries disagree on sink or parent order (their characteristics
    /// would index different bits).
    pub fn merge(&mut self, other: &SinkSummary) -> flow_core::FlowResult<()> {
        if self.sink != other.sink || self.parents != other.parents {
            return Err(flow_core::FlowError::GraphInconsistency {
                detail: format!(
                    "cannot merge summaries for sink {} ({} parents) and sink {} ({} parents)",
                    self.sink,
                    self.parents.len(),
                    other.sink,
                    other.parents.len()
                ),
            });
        }
        // Sorted in the order `SinkSummary::build` leaves rows in,
        // equal characteristics fold into one row.
        self.rows.extend(other.rows.iter().cloned());
        sort_rows(&mut self.rows);
        self.rows.dedup_by(|row, kept| {
            let same = row.characteristic == kept.characteristic;
            if same {
                kept.count += row.count;
                kept.leaks += row.leaks;
            }
            same
        });
        self.skipped_spontaneous += other.skipped_spontaneous;
        self.skipped_uninformative += other.skipped_uninformative;
        Ok(())
    }

    /// Number of distinct characteristics ω.
    pub fn width(&self) -> usize {
        self.rows.len()
    }

    /// Total observations across rows.
    pub fn total_observations(&self) -> u64 {
        self.rows.iter().map(|r| r.count).sum()
    }

    /// The combined activation probability `p_{J,k} = 1 − Π_{j∈J}(1−p_j)`
    /// of one characteristic under edge probabilities `probs` (indexed
    /// like `parents`).
    pub fn characteristic_probability(&self, row: &SummaryRow, probs: &[f64]) -> f64 {
        debug_assert_eq!(probs.len(), self.parents.len());
        let mut miss = 1.0;
        for b in row.characteristic.iter_ones() {
            miss *= 1.0 - probs[b];
        }
        1.0 - miss
    }

    /// Log-likelihood of the summary under edge probabilities `probs`
    /// (Eq. 9): `Σ_J ln Bin(L_J; n_J, p_{J,k})`, including the constant
    /// binomial coefficients.
    pub fn ln_likelihood(&self, probs: &[f64]) -> f64 {
        let mut acc = 0.0;
        for row in &self.rows {
            let p = self.characteristic_probability(row, probs);
            acc += ln_choose(row.count, row.leaks);
            acc += ln_term(row.leaks, p) + ln_term(row.count - row.leaks, 1.0 - p);
            // flow-analyze: allow(L3: -inf is an exact absorbing sentinel from ln_term)
            if acc == f64::NEG_INFINITY {
                return acc;
            }
        }
        acc
    }
}

fn ln_term(count: u64, p: f64) -> f64 {
    if count == 0 {
        0.0
    } else if p <= 0.0 {
        f64::NEG_INFINITY
    } else {
        count as f64 * p.ln()
    }
}

/// The **filtered** baseline (§V-C): train a Beta per edge from the
/// unambiguous rows only, exactly as the attributed method would, and
/// ignore all ambiguous evidence. Returns one Beta per parent (indexed
/// like `summary.parents`), defaulting to the uniform prior when a
/// parent has no unambiguous evidence.
pub fn filtered_betas(summary: &SinkSummary) -> Vec<Beta> {
    let mut alpha = vec![1.0f64; summary.parents.len()];
    let mut beta = vec![1.0f64; summary.parents.len()];
    for row in summary.rows.iter().filter(|r| r.is_unambiguous()) {
        // An unambiguous row has exactly one characteristic bit; a row
        // without one contributes nothing rather than panicking.
        let Some(b) = row.characteristic.iter_ones().next() else {
            continue;
        };
        alpha[b] += row.leaks as f64;
        beta[b] += (row.count - row.leaks) as f64;
    }
    alpha
        .into_iter()
        .zip(beta)
        .map(|(a, b)| Beta::new(a, b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn episode_accessors() {
        let ep = Episode::new(vec![(n(0), 0), (n(2), 3)]);
        assert_eq!(ep.activation_time(n(0)), Some(0));
        assert_eq!(ep.activation_time(n(1)), None);
        assert!(ep.is_active(n(2)));
        assert_eq!(ep.active_count(), 2);
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn episode_rejects_duplicate_nodes() {
        let _ = Episode::new(vec![(n(0), 0), (n(0), 1)]);
    }

    #[test]
    fn build_positive_any_earlier() {
        // Parents 0,1,2; sink 3. Parent 0 at t=0, parent 1 at t=2, sink
        // at t=2: only parent 0 is strictly earlier.
        let parents = vec![n(0), n(1), n(2)];
        let ep = Episode::new(vec![(n(0), 0), (n(1), 2), (n(3), 2)]);
        let s = SinkSummary::build(n(3), parents, &[ep], TimingAssumption::AnyEarlier);
        assert_eq!(s.rows.len(), 1);
        let row = &s.rows[0];
        assert_eq!(row.count, 1);
        assert_eq!(row.leaks, 1);
        assert!(row.characteristic.get(0));
        assert!(!row.characteristic.get(1));
        assert!(row.is_unambiguous());
    }

    #[test]
    fn build_positive_previous_step() {
        // Parent 0 at t=0, parent 1 at t=1, sink at t=2: under the
        // discrete-time assumption only parent 1 (t = 2-1) is a cause.
        let parents = vec![n(0), n(1)];
        let ep = Episode::new(vec![(n(0), 0), (n(1), 1), (n(9), 2)]);
        let s = SinkSummary::build(n(9), parents, &[ep], TimingAssumption::PreviousStep);
        assert_eq!(s.rows.len(), 1);
        assert!(!s.rows[0].characteristic.get(0));
        assert!(s.rows[0].characteristic.get(1));
    }

    #[test]
    fn build_negative_uses_all_active_parents() {
        let parents = vec![n(0), n(1)];
        let ep = Episode::new(vec![(n(0), 0), (n(1), 5)]); // sink never active
        let s = SinkSummary::build(n(9), parents, &[ep], TimingAssumption::AnyEarlier);
        assert_eq!(s.rows.len(), 1);
        assert_eq!(s.rows[0].count, 1);
        assert_eq!(s.rows[0].leaks, 0);
        assert_eq!(s.rows[0].parent_count(), 2);
    }

    #[test]
    fn build_skips_spontaneous_and_uninformative() {
        let parents = vec![n(0)];
        let spontaneous = Episode::new(vec![(n(9), 0)]); // sink active, no cause
        let empty = Episode::new(vec![]); // nothing happened
        let s = SinkSummary::build(
            n(9),
            parents,
            &[spontaneous, empty],
            TimingAssumption::AnyEarlier,
        );
        assert!(s.rows.is_empty());
        assert_eq!(s.skipped_spontaneous, 1);
        assert_eq!(s.skipped_uninformative, 1);
    }

    #[test]
    fn build_merges_identical_characteristics() {
        let parents = vec![n(0), n(1)];
        let mut eps = Vec::new();
        for i in 0..10 {
            let mut acts = vec![(n(0), 0)];
            if i < 4 {
                acts.push((n(9), 1)); // leak in 4 of 10
            }
            eps.push(Episode::new(acts));
        }
        let s = SinkSummary::build(n(9), parents, &eps, TimingAssumption::AnyEarlier);
        assert_eq!(s.rows.len(), 1, "identical characteristics merge");
        assert_eq!(s.rows[0].count, 10);
        assert_eq!(s.rows[0].leaks, 4);
        assert_eq!(s.total_observations(), 10);
        assert_eq!(s.width(), 1);
    }

    #[test]
    fn characteristic_probability_noisy_or() {
        let parents = vec![n(0), n(1), n(2)];
        let row = SummaryRow {
            characteristic: BitSet::from_indices(3, [0, 2]),
            count: 1,
            leaks: 0,
        };
        let s = SinkSummary::from_rows(n(9), parents, vec![row]);
        let p = s.characteristic_probability(&s.rows[0], &[0.5, 0.9, 0.2]);
        assert!((p - (1.0 - 0.5 * 0.8)).abs() < 1e-12);
    }

    #[test]
    fn summary_is_sufficient_statistic() {
        // Likelihood *differences* computed from the summary must equal
        // those computed per-episode (Bernoulli), since the two forms
        // differ only by the constant binomial coefficients.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let parents = vec![n(0), n(1), n(2)];
        let sink = n(3);
        // Random episodes.
        let mut episodes = Vec::new();
        for _ in 0..60 {
            let mut acts = Vec::new();
            for (t, p) in parents.iter().enumerate() {
                if rng.random::<f64>() < 0.6 {
                    acts.push((*p, t as u32));
                }
            }
            if !acts.is_empty() && rng.random::<f64>() < 0.5 {
                acts.push((sink, 10));
            }
            episodes.push(Episode::new(acts));
        }
        let s = SinkSummary::build(
            sink,
            parents.clone(),
            &episodes,
            TimingAssumption::AnyEarlier,
        );
        // Per-episode Bernoulli log-likelihood.
        let bernoulli = |probs: &[f64]| -> f64 {
            let mut acc = 0.0;
            for ep in &episodes {
                let active_parents: Vec<usize> = (0..parents.len())
                    .filter(|&b| {
                        ep.activation_time(parents[b])
                            .map(|tp| match ep.activation_time(sink) {
                                Some(t) => tp < t,
                                None => true,
                            })
                            .unwrap_or(false)
                    })
                    .collect();
                if active_parents.is_empty() {
                    continue;
                }
                let p = 1.0
                    - active_parents
                        .iter()
                        .map(|&b| 1.0 - probs[b])
                        .product::<f64>();
                acc += if ep.is_active(sink) {
                    p.ln()
                } else {
                    (1.0 - p).ln()
                };
            }
            acc
        };
        let p1 = [0.3, 0.6, 0.2];
        let p2 = [0.7, 0.1, 0.55];
        let d_summary = s.ln_likelihood(&p1) - s.ln_likelihood(&p2);
        let d_episode = bernoulli(&p1) - bernoulli(&p2);
        assert!(
            (d_summary - d_episode).abs() < 1e-9,
            "summary {d_summary} vs episode {d_episode}"
        );
    }

    #[test]
    fn ln_likelihood_degenerate_probabilities() {
        let parents = vec![n(0)];
        let leak_row = SummaryRow {
            characteristic: BitSet::from_indices(1, [0]),
            count: 2,
            leaks: 1,
        };
        let s = SinkSummary::from_rows(n(9), parents, vec![leak_row]);
        assert_eq!(s.ln_likelihood(&[0.0]), f64::NEG_INFINITY);
        assert_eq!(s.ln_likelihood(&[1.0]), f64::NEG_INFINITY);
        assert!(s.ln_likelihood(&[0.5]).is_finite());
    }

    #[test]
    fn filtered_betas_from_unambiguous_rows_only() {
        let parents = vec![n(0), n(1)];
        let rows = vec![
            SummaryRow {
                characteristic: BitSet::from_indices(2, [0]),
                count: 10,
                leaks: 4,
            },
            SummaryRow {
                characteristic: BitSet::from_indices(2, [0, 1]),
                count: 100,
                leaks: 90,
            },
        ];
        let s = SinkSummary::from_rows(n(9), parents, rows);
        let betas = filtered_betas(&s);
        assert_eq!(betas[0], Beta::new(5.0, 7.0)); // 1+4, 1+6
        assert_eq!(betas[1], Beta::uniform()); // no unambiguous evidence
    }

    fn random_episodes(seed: u64, count: usize, parents: &[NodeId], sink: NodeId) -> Vec<Episode> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut episodes = Vec::new();
        for _ in 0..count {
            let mut acts = Vec::new();
            for (t, p) in parents.iter().enumerate() {
                if rng.random::<f64>() < 0.5 {
                    acts.push((*p, t as u32));
                }
            }
            if rng.random::<f64>() < 0.4 {
                acts.push((sink, rng.random_range(0..(parents.len() as u32 + 2))));
            }
            episodes.push(Episode::new(acts));
        }
        episodes
    }

    #[test]
    fn merge_is_bit_identical_to_batch_build() {
        let parents = vec![n(0), n(1), n(2)];
        let sink = n(9);
        let episodes = random_episodes(99, 80, &parents, sink);
        for timing in [TimingAssumption::AnyEarlier, TimingAssumption::PreviousStep] {
            for split in [0, 1, 37, 79, 80] {
                let (a, b) = episodes.split_at(split);
                let mut inc = SinkSummary::build(sink, parents.clone(), a, timing);
                inc.merge(&SinkSummary::build(sink, parents.clone(), b, timing))
                    .unwrap();
                let batch = SinkSummary::build(sink, parents.clone(), &episodes, timing);
                assert_eq!(inc.rows, batch.rows, "split at {split}");
                assert_eq!(inc.skipped_spontaneous, batch.skipped_spontaneous);
                assert_eq!(inc.skipped_uninformative, batch.skipped_uninformative);
            }
        }
    }

    #[test]
    fn merge_rejects_mismatched_coordinates() {
        let mut a = SinkSummary::from_rows(n(9), vec![n(0)], vec![]);
        let wrong_sink = SinkSummary::from_rows(n(8), vec![n(0)], vec![]);
        let wrong_parents = SinkSummary::from_rows(n(9), vec![n(1)], vec![]);
        assert!(a.merge(&wrong_sink).is_err());
        assert!(a.merge(&wrong_parents).is_err());
    }

    #[test]
    fn tables_extend_like_a_build_over_every_episode() {
        use flow_graph::graph::graph_from_edges;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let graph = graph_from_edges(
            7,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (1, 4),
                (3, 5),
                (4, 5),
                (2, 5),
                (5, 6),
            ],
        );
        let mut rng = StdRng::seed_from_u64(5);
        let episodes: Vec<Episode> = (0..120)
            .map(|_| {
                let mut acts = Vec::new();
                for v in 0..7u32 {
                    if rng.random_bool(0.3) {
                        acts.push((n(v), rng.random_range(0..4)));
                    }
                }
                Episode::new(acts)
            })
            .collect();
        for timing in [TimingAssumption::AnyEarlier, TimingAssumption::PreviousStep] {
            let mut tables = SinkTables::new(&graph, timing);
            for batch in [
                &episodes[..0],
                &episodes[..1],
                &episodes[1..50],
                &episodes[50..],
            ] {
                tables.extend(batch);
            }
            assert_eq!(
                tables.summaries().len(),
                6,
                "every node but 0 has an in-edge"
            );
            for s in tables.summaries() {
                let batch = SinkSummary::build(s.sink, s.parents.clone(), &episodes, timing);
                assert_eq!(s.rows, batch.rows, "sink {}", s.sink);
                assert_eq!(s.skipped_spontaneous, batch.skipped_spontaneous);
                assert_eq!(s.skipped_uninformative, batch.skipped_uninformative);
            }
            let restored = SinkTables::from_summaries(tables.summaries().to_vec(), 7, timing);
            assert!(restored.is_ok());
        }
    }

    #[test]
    fn tables_refuse_rows_out_of_order() {
        let row = |bit: usize| SummaryRow {
            characteristic: BitSet::from_indices(2, [bit]),
            count: 1,
            leaks: 0,
        };
        let timing = TimingAssumption::AnyEarlier;
        for rows in [vec![row(1), row(0)], vec![row(0), row(0)]] {
            let s = SinkSummary::from_rows(n(2), vec![n(0), n(1)], rows);
            assert!(SinkTables::from_summaries(vec![s], 3, timing).is_err());
        }
        let s = SinkSummary::from_rows(n(2), vec![n(0), n(1)], vec![row(0), row(1)]);
        assert!(SinkTables::from_summaries(vec![s], 3, timing).is_ok());
    }

    #[test]
    #[should_panic(expected = "leaks cannot exceed count")]
    fn from_rows_validates_counts() {
        let _ = SinkSummary::from_rows(
            n(9),
            vec![n(0)],
            vec![SummaryRow {
                characteristic: BitSet::from_indices(1, [0]),
                count: 1,
                leaks: 2,
            }],
        );
    }
}

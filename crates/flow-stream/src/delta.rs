//! Per-epoch evidence deltas: open cascades sealed into the two
//! sufficient-statistic feeds the learners understand.
//!
//! While an epoch is open, events accumulate into per-cascade builders.
//! Sealing classifies each cascade:
//!
//! * **attributed** — every non-source activation carries a parent.
//!   The cascade becomes one [`AttributedRecord`] (`(Vi⊕, Vi, Ei)`,
//!   §II-A) feeding betaICM counting.
//! * **unattributed** — at least one later activation lacks a parent.
//!   The cascade degrades to an [`Episode`] of `(node, time)` pairs
//!   feeding the characteristic tables of §V-B. Partial attribution is
//!   deliberately *not* mixed into the attributed feed: a cascade with
//!   unexplained activations would violate [`AttributedRecord::validate`].

use flow_graph::{DiGraph, NodeId};
use flow_icm::AttributedRecord;
use flow_learn::summary::Episode;
use std::collections::BTreeMap;

/// One open cascade's accumulated activations.
///
/// Uses a [`BTreeMap`] keyed by node so membership checks are cheap and
/// iteration order is deterministic regardless of arrival order.
#[derive(Clone, Debug, Default)]
pub(crate) struct CascadeBuilder {
    /// node → (activation time, attributed parent).
    pub activations: BTreeMap<u32, (u32, Option<NodeId>)>,
}

impl CascadeBuilder {
    /// Activation time of `v` in this cascade, if recorded.
    pub fn time_of(&self, v: NodeId) -> Option<u32> {
        self.activations.get(&v.0).map(|&(t, _)| t)
    }

    /// Number of buffered activations.
    pub fn len(&self) -> usize {
        self.activations.len()
    }

    /// True iff every activation that lacks a parent occurred at the
    /// cascade's earliest time — i.e. the parentless activations are
    /// exactly the sources and everything else is explained.
    fn is_fully_attributed(&self) -> bool {
        let Some(min_t) = self.activations.values().map(|&(t, _)| t).min() else {
            return false;
        };
        self.activations
            .values()
            .all(|&(t, parent)| parent.is_some() || t == min_t)
    }

    /// Seals this cascade into evidence for `graph`.
    fn seal(&self, graph: &DiGraph) -> SealedCascade {
        if self.is_fully_attributed() {
            let mut sources = Vec::new();
            let mut nodes = Vec::new();
            let mut edges = Vec::new();
            for (&v, &(_, parent)) in &self.activations {
                let v = NodeId(v);
                match parent {
                    None => sources.push(v),
                    Some(p) => {
                        nodes.push(v);
                        // The ingestor only admits attributed events
                        // whose edge exists, so a miss here is a logic
                        // error, not a data error.
                        if let Some(e) = graph.find_edge(p, v) {
                            edges.push(e);
                        }
                    }
                }
            }
            let record = AttributedRecord::from_lists(graph, sources, &nodes, &edges);
            flow_core::debug_invariant!(
                record.validate(graph).is_ok(),
                "sealed attributed cascade fails evidence validation"
            );
            SealedCascade::Attributed(record)
        } else {
            let activations = self
                .activations
                .iter()
                .map(|(&v, &(t, _))| (NodeId(v), t))
                .collect();
            // Node keys are unique by construction, so `Episode::new`'s
            // duplicate check cannot trip.
            SealedCascade::Unattributed(Episode::new(activations))
        }
    }
}

/// A cascade after classification.
enum SealedCascade {
    Attributed(AttributedRecord),
    Unattributed(Episode),
}

/// Where the ingest stood when an epoch sealed: what a resumed stream
/// needs to skip the events already sealed and to keep rejecting late
/// ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestMark {
    /// The last event-log line the epoch consumed (0 before any).
    pub line: usize,
    /// The highest cascade id sealed so far; events at or below it are
    /// late.
    pub watermark: Option<u64>,
}

/// The evidence accumulated over one epoch, ready for incremental
/// application to a [`crate::StreamModel`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochDelta {
    /// Fully attributed cascades (betaICM counting feed).
    pub attributed: Vec<AttributedRecord>,
    /// Unattributed/partially attributed cascades (characteristic-table
    /// feed).
    pub episodes: Vec<Episode>,
    /// Events carried by the sealed cascades.
    pub events: u64,
    /// Where the ingest stood when the epoch sealed.
    pub mark: IngestMark,
}

impl EpochDelta {
    /// Number of cascades sealed into this delta.
    pub fn cascades(&self) -> usize {
        self.attributed.len() + self.episodes.len()
    }

    /// True when the delta carries no evidence.
    pub fn is_empty(&self) -> bool {
        self.attributed.is_empty() && self.episodes.is_empty()
    }

    /// Seals `open` cascades (in ascending cascade-id order, so the
    /// delta's record order is deterministic) into a delta.
    pub(crate) fn from_open(open: &BTreeMap<u64, CascadeBuilder>, graph: &DiGraph) -> Self {
        let mut delta = EpochDelta::default();
        for builder in open.values() {
            delta.events += builder.len() as u64;
            match builder.seal(graph) {
                SealedCascade::Attributed(r) => delta.attributed.push(r),
                SealedCascade::Unattributed(e) => delta.episodes.push(e),
            }
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_graph::graph::graph_from_edges;

    fn diamond() -> DiGraph {
        graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    fn builder(entries: &[(u32, u32, Option<u32>)]) -> CascadeBuilder {
        let mut b = CascadeBuilder::default();
        for &(v, t, p) in entries {
            b.activations.insert(v, (t, p.map(NodeId)));
        }
        b
    }

    #[test]
    fn fully_attributed_cascade_becomes_record() {
        let g = diamond();
        let b = builder(&[(0, 0, None), (1, 1, Some(0)), (3, 2, Some(1))]);
        let mut open = BTreeMap::new();
        open.insert(1u64, b);
        let delta = EpochDelta::from_open(&open, &g);
        assert_eq!(delta.attributed.len(), 1);
        assert!(delta.episodes.is_empty());
        assert_eq!(delta.events, 3);
        let r = &delta.attributed[0];
        assert_eq!(r.validate(&g), Ok(()));
        assert!(r.is_node_active(NodeId(3)));
        assert!(!r.is_node_active(NodeId(2)));
    }

    #[test]
    fn partial_attribution_degrades_to_episode() {
        let g = diamond();
        // Node 3 activates later with no parent: cannot be a source.
        let b = builder(&[(0, 0, None), (1, 1, Some(0)), (3, 2, None)]);
        let mut open = BTreeMap::new();
        open.insert(1u64, b);
        let delta = EpochDelta::from_open(&open, &g);
        assert!(delta.attributed.is_empty());
        assert_eq!(delta.episodes.len(), 1);
        assert_eq!(delta.episodes[0].activation_time(NodeId(3)), Some(2));
    }

    #[test]
    fn single_activation_counts_as_attributed_source() {
        let g = diamond();
        let mut open = BTreeMap::new();
        open.insert(5u64, builder(&[(2, 0, None)]));
        let delta = EpochDelta::from_open(&open, &g);
        assert_eq!(delta.attributed.len(), 1);
        assert_eq!(delta.cascades(), 1);
        assert!(!delta.is_empty());
    }

    #[test]
    fn multiple_sources_at_earliest_time_stay_attributed() {
        let g = diamond();
        let b = builder(&[(0, 0, None), (2, 0, None), (3, 1, Some(2))]);
        let mut open = BTreeMap::new();
        open.insert(1u64, b);
        let delta = EpochDelta::from_open(&open, &g);
        assert_eq!(delta.attributed.len(), 1);
        assert_eq!(delta.attributed[0].validate(&g), Ok(()));
    }
}

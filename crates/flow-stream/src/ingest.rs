//! Bounded, backpressured streaming ingest.
//!
//! An [`Ingestor`] consumes event-log lines ([`crate::event`]), validates
//! each against the stream's graph and the current cascade state, and
//! buffers accepted activations into open cascades. Sealing an epoch
//! drains every open cascade into an [`EpochDelta`].
//!
//! **Backpressure.** The buffer is bounded by
//! [`IngestConfig::max_pending_events`]. When full, event lines are
//! refused with the transient [`FlowError::Overloaded`] — the event is
//! *not* consumed and *not* counted as rejected; the caller seals an
//! epoch (draining the buffer) and retries. Seal markers, comments, and
//! the header are always admitted, so the pipeline can always drain.
//!
//! **Rejection policy.** Invalid events are dropped one at a time with
//! the typed [`FlowError::RejectedEvent`] and a `stream.reject` obs
//! event; the stream itself keeps flowing. Reasons:
//!
//! * `malformed` — unparseable JSON, missing fields, unresolvable
//!   retweet ancestor, or a corrupted line (the `stream.event_corrupt`
//!   fault point injects this);
//! * `late` — the event names a cascade at or below the sealed
//!   watermark (cascade ids are monotone at first appearance; once an
//!   epoch seals, everything sealed is immutable);
//! * `duplicate` — the cascade already holds an activation for the
//!   node (ICM nodes activate at most once per object);
//! * `inconsistent` — the node is outside the graph, the attributed
//!   parent has no edge to the node, or the parent is not already
//!   active strictly earlier in the cascade.
//!
//! **Resume.** Every sealed delta carries its [`IngestMark`]: the last
//! event-log line it consumed and the late-event watermark.
//! [`Ingestor::resume`] continues a stream from a recovered mark, so the
//! restarted stream skips the lines already sealed and rejects the same
//! late events the uninterrupted one would.

use crate::delta::{CascadeBuilder, EpochDelta, IngestMark};
use crate::event::{parse_line, EventLine, StreamEvent};
use flow_core::{fault, FlowError, FlowResult};
use flow_graph::DiGraph;
use std::collections::BTreeMap;

/// Ingest tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct IngestConfig {
    /// Maximum buffered activations across all open cascades before
    /// event lines are refused with [`FlowError::Overloaded`].
    pub max_pending_events: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            max_pending_events: 65_536,
        }
    }
}

/// Counters accumulated over the ingestor's lifetime.
#[derive(Clone, Copy, Debug, Default)]
pub struct IngestStats {
    /// Events accepted into open cascades.
    pub accepted: u64,
    /// Events dropped with a typed rejection.
    pub rejected: u64,
    /// …of which: unparseable/corrupt lines.
    pub rejected_malformed: u64,
    /// …of which: events for already-sealed cascades.
    pub rejected_late: u64,
    /// …of which: repeated activations.
    pub rejected_duplicate: u64,
    /// …of which: graph/causality violations.
    pub rejected_inconsistent: u64,
    /// Event lines refused (not consumed) by backpressure.
    pub backpressured: u64,
    /// Epochs sealed.
    pub epochs_sealed: u64,
}

/// What one consumed line did.
#[derive(Clone, Debug)]
pub enum Push {
    /// An activation was buffered into an open cascade.
    Accepted,
    /// A seal marker closed the epoch; here is its delta.
    Sealed(EpochDelta),
    /// A comment, blank line, or (first) graph header.
    Skipped,
}

/// The bounded streaming ingest pipeline.
#[derive(Debug)]
pub struct Ingestor {
    graph: Option<DiGraph>,
    config: IngestConfig,
    open: BTreeMap<u64, CascadeBuilder>,
    pending_events: usize,
    /// The last line consumed (refused lines are not consumed) and the
    /// highest cascade id sealed into a past epoch, at or below which
    /// events are late.
    mark: IngestMark,
    stats: IngestStats,
}

impl Ingestor {
    /// An ingestor that expects the graph header as the first
    /// non-comment line of the log.
    pub fn new(config: IngestConfig) -> Self {
        Ingestor {
            graph: None,
            config,
            open: BTreeMap::new(),
            pending_events: 0,
            mark: IngestMark::default(),
            stats: IngestStats::default(),
        }
    }

    /// An ingestor over `graph` that continues a stream from `mark`,
    /// where a recovered model's last epoch sealed: cascades at or below
    /// its watermark are late. The caller skips the event-log lines up
    /// to `mark.line`, the graph header among them.
    pub fn resume(graph: DiGraph, config: IngestConfig, mark: IngestMark) -> Self {
        let mut i = Ingestor::with_graph(graph, config);
        i.mark = mark;
        i
    }

    /// An ingestor over an already-known graph; a header line in the
    /// log must then match-or-absent (a second header is rejected).
    pub fn with_graph(graph: DiGraph, config: IngestConfig) -> Self {
        let mut i = Ingestor::new(config);
        i.graph = Some(graph);
        i
    }

    /// The stream's graph, once known.
    pub fn graph(&self) -> Option<&DiGraph> {
        self.graph.as_ref()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Activations currently buffered in open cascades.
    pub fn pending_events(&self) -> usize {
        self.pending_events
    }

    /// Open (unsealed) cascades.
    pub fn open_cascades(&self) -> usize {
        self.open.len()
    }

    fn reject(&mut self, line: usize, reason: &'static str, detail: String) -> FlowResult<Push> {
        self.stats.rejected += 1;
        match reason {
            "malformed" => self.stats.rejected_malformed += 1,
            "late" => self.stats.rejected_late += 1,
            "duplicate" => self.stats.rejected_duplicate += 1,
            _ => self.stats.rejected_inconsistent += 1,
        }
        flow_obs::counter("stream.rejected", 1);
        flow_obs::event(|| {
            flow_obs::Event::new("stream.reject")
                .u64("line", line as u64)
                .str("reason", reason)
        });
        Err(FlowError::RejectedEvent {
            line,
            reason,
            detail,
        })
    }

    /// Consumes one raw log line (1-based `line` for diagnostics).
    ///
    /// Returns [`FlowError::Overloaded`] without consuming the line
    /// when the event buffer is full — seal an epoch and retry — and
    /// [`FlowError::RejectedEvent`] when the line was consumed but
    /// dropped.
    pub fn push_line(&mut self, line: usize, raw: &str) -> FlowResult<Push> {
        // The corruption fault point mangles the wire bytes before any
        // parsing, as a torn read would.
        let mangled;
        let raw = if fault::fires("stream.event_corrupt") {
            mangled = format!("{}\u{fffd}", &raw[..raw.len() / 2]);
            &mangled
        } else {
            raw
        };
        let parsed = parse_line(raw);
        if matches!(parsed, Ok(EventLine::Event(_)))
            && self.graph.is_some()
            && self.pending_events >= self.config.max_pending_events
        {
            self.stats.backpressured += 1;
            return Err(FlowError::Overloaded {
                detail: format!(
                    "ingest buffer full ({} pending events); seal an epoch to drain",
                    self.pending_events
                ),
                retry_after_ms: 1,
            });
        }
        self.mark.line = line;
        let parsed = match parsed {
            Ok(p) => p,
            Err(detail) => return self.reject(line, "malformed", detail),
        };
        match parsed {
            EventLine::Skip => Ok(Push::Skipped),
            EventLine::Graph(spec) => {
                if self.graph.is_some() {
                    return self.reject(line, "malformed", "duplicate graph header".into());
                }
                self.graph = Some(spec.to_graph());
                Ok(Push::Skipped)
            }
            EventLine::Seal => Ok(Push::Sealed(self.seal_epoch())),
            EventLine::Event(event) => {
                if self.graph.is_none() {
                    return self.reject(line, "malformed", "event before the graph header".into());
                };
                self.push_event(line, event)
            }
        }
    }

    fn push_event(&mut self, line: usize, event: StreamEvent) -> FlowResult<Push> {
        // Everything validation needs from the graph is read up front,
        // so each event borrows the graph instead of cloning it. A parent
        // outside the graph has no edge to the node.
        let (node_count, edge_ok) = match &self.graph {
            Some(graph) => (
                graph.node_count(),
                event.parent.is_some_and(|p| {
                    p.index() < graph.node_count() && graph.find_edge(p, event.node).is_some()
                }),
            ),
            // push_line established that the graph is known.
            None => return self.reject(line, "malformed", "event before the graph header".into()),
        };
        if event.node.index() >= node_count {
            return self.reject(
                line,
                "inconsistent",
                format!("node {} outside the {node_count}-node graph", event.node),
            );
        }
        if self.mark.watermark.is_some_and(|w| event.cascade <= w) {
            return self.reject(
                line,
                "late",
                format!("cascade {} was sealed into a previous epoch", event.cascade),
            );
        }
        let builder = self.open.entry(event.cascade).or_default();
        if builder.time_of(event.node).is_some() {
            let detail = format!(
                "node {} already active in cascade {}",
                event.node, event.cascade
            );
            // Drop the just-created empty builder before rejecting, so
            // a rejected first event never leaves a phantom cascade.
            if self.open.get(&event.cascade).is_some_and(|b| b.len() == 0) {
                self.open.remove(&event.cascade); // flow-analyze: allow(L8: BTreeMap::remove returns an Option, not a Result; the empty builder is discarded by design)
            }
            return self.reject(line, "duplicate", detail);
        }
        if let Some(parent) = event.parent {
            let parent_earlier = builder.time_of(parent).is_some_and(|tp| tp < event.t);
            if !edge_ok || !parent_earlier {
                let detail = if !edge_ok {
                    format!("no edge {} -> {} in the graph", parent, event.node)
                } else {
                    format!(
                        "parent {} is not active strictly before t={} in cascade {}",
                        parent, event.t, event.cascade
                    )
                };
                if self.open.get(&event.cascade).is_some_and(|b| b.len() == 0) {
                    self.open.remove(&event.cascade); // flow-analyze: allow(L8: BTreeMap::remove returns an Option, not a Result; the empty builder is discarded by design)
                }
                return self.reject(line, "inconsistent", detail);
            }
        }
        let builder = self.open.entry(event.cascade).or_default();
        builder
            .activations
            .insert(event.node.0, (event.t, event.parent));
        self.pending_events += 1;
        self.stats.accepted += 1;
        flow_obs::counter("stream.events", 1);
        flow_obs::event(|| {
            flow_obs::Event::new("stream.ingest")
                .u64("cascade", event.cascade)
                .u64("node", u64::from(event.node.0))
                .bool("attributed", event.parent.is_some())
        });
        Ok(Push::Accepted)
    }

    /// Closes every open cascade into a delta, advances the late-event
    /// watermark, and empties the buffer. The delta's mark records the
    /// last line consumed and the advanced watermark. Sealing with
    /// nothing open yields an empty delta (callers usually skip those).
    pub fn seal_epoch(&mut self) -> EpochDelta {
        let mut delta = match &self.graph {
            Some(graph) => EpochDelta::from_open(&self.open, graph),
            None => EpochDelta::default(),
        };
        if let Some(&last) = self.open.keys().next_back() {
            let watermark = self.mark.watermark.map_or(last, |w| w.max(last));
            self.mark.watermark = Some(watermark);
        }
        delta.mark = self.mark;
        self.open.clear();
        self.pending_events = 0;
        self.stats.epochs_sealed += 1;
        flow_obs::event(|| {
            flow_obs::Event::new("stream.epoch_sealed")
                .u64("cascades", delta.cascades() as u64)
                .u64("attributed", delta.attributed.len() as u64)
                .u64("unattributed", delta.episodes.len() as u64)
                .u64("events", delta.events)
        });
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

    fn ingestor() -> Ingestor {
        Ingestor::with_graph(diamond(), IngestConfig::default())
    }

    #[test]
    fn accepts_and_seals_a_cascade() {
        let mut ing = ingestor();
        assert!(matches!(
            ing.push_line(1, r#"{"cascade": 1, "node": 0, "t": 0}"#),
            Ok(Push::Accepted)
        ));
        assert!(matches!(
            ing.push_line(2, r#"{"cascade": 1, "node": 1, "t": 1, "parent": 0}"#),
            Ok(Push::Accepted)
        ));
        assert_eq!(ing.pending_events(), 2);
        let delta = ing.seal_epoch();
        assert_eq!(delta.attributed.len(), 1);
        assert_eq!(ing.pending_events(), 0);
        assert_eq!(ing.stats().accepted, 2);
        assert_eq!(ing.stats().epochs_sealed, 1);
    }

    #[test]
    fn header_line_builds_the_graph() {
        let mut ing = Ingestor::new(IngestConfig::default());
        let err = ing
            .push_line(1, r#"{"cascade": 1, "node": 0, "t": 0}"#)
            .unwrap_err();
        assert!(matches!(
            err,
            FlowError::RejectedEvent {
                reason: "malformed",
                ..
            }
        ));
        assert!(matches!(
            ing.push_line(2, r#"{"graph": {"nodes": 4, "edges": [[0,1]]}}"#),
            Ok(Push::Skipped)
        ));
        assert_eq!(ing.graph().map(|g| g.node_count()), Some(4));
        // A second header is malformed.
        assert!(ing
            .push_line(3, r#"{"graph": {"nodes": 4, "edges": [[0,1]]}}"#)
            .is_err());
    }

    #[test]
    fn duplicate_activation_is_rejected() {
        let mut ing = ingestor();
        ing.push_line(1, r#"{"cascade": 1, "node": 0, "t": 0}"#)
            .unwrap();
        let err = ing
            .push_line(2, r#"{"cascade": 1, "node": 0, "t": 5}"#)
            .unwrap_err();
        assert!(matches!(
            err,
            FlowError::RejectedEvent {
                line: 2,
                reason: "duplicate",
                ..
            }
        ));
        assert_eq!(ing.stats().rejected_duplicate, 1);
        assert_eq!(ing.pending_events(), 1);
    }

    #[test]
    fn late_event_after_seal_is_rejected() {
        let mut ing = ingestor();
        ing.push_line(1, r#"{"cascade": 3, "node": 0, "t": 0}"#)
            .unwrap();
        ing.seal_epoch();
        for cascade in [1, 3] {
            let err = ing
                .push_line(
                    2,
                    &format!(r#"{{"cascade": {cascade}, "node": 1, "t": 0}}"#),
                )
                .unwrap_err();
            assert!(
                matches!(err, FlowError::RejectedEvent { reason: "late", .. }),
                "cascade {cascade}: {err}"
            );
        }
        // A fresh cascade above the watermark is fine.
        assert!(matches!(
            ing.push_line(3, r#"{"cascade": 4, "node": 1, "t": 0}"#),
            Ok(Push::Accepted)
        ));
        assert_eq!(ing.stats().rejected_late, 2);
    }

    #[test]
    fn inconsistent_events_are_rejected() {
        let mut ing = ingestor();
        // Node outside the graph.
        assert!(ing
            .push_line(1, r#"{"cascade": 1, "node": 99, "t": 0}"#)
            .is_err());
        // Parent without an edge.
        ing.push_line(2, r#"{"cascade": 1, "node": 1, "t": 0}"#)
            .unwrap();
        assert!(ing
            .push_line(3, r#"{"cascade": 1, "node": 2, "t": 1, "parent": 1}"#)
            .is_err());
        // Parent not yet active.
        assert!(ing
            .push_line(4, r#"{"cascade": 1, "node": 3, "t": 1, "parent": 2}"#)
            .is_err());
        // Parent active but not strictly earlier.
        ing.push_line(5, r#"{"cascade": 2, "node": 0, "t": 3}"#)
            .unwrap();
        assert!(ing
            .push_line(6, r#"{"cascade": 2, "node": 1, "t": 3, "parent": 0}"#)
            .is_err());
        assert_eq!(ing.stats().rejected_inconsistent, 4);
    }

    #[test]
    fn parent_outside_the_graph_is_rejected() {
        let mut ing = ingestor();
        let err = ing
            .push_line(1, r#"{"cascade": 1, "node": 1, "t": 1, "parent": 99}"#)
            .unwrap_err();
        assert!(
            matches!(
                err,
                FlowError::RejectedEvent {
                    reason: "inconsistent",
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(ing.open_cascades(), 0);
    }

    #[test]
    fn backpressure_refuses_without_consuming() {
        let mut ing = Ingestor::with_graph(
            diamond(),
            IngestConfig {
                max_pending_events: 2,
            },
        );
        ing.push_line(1, r#"{"cascade": 1, "node": 0, "t": 0}"#)
            .unwrap();
        ing.push_line(2, r#"{"cascade": 1, "node": 1, "t": 1}"#)
            .unwrap();
        let err = ing
            .push_line(3, r#"{"cascade": 1, "node": 2, "t": 1}"#)
            .unwrap_err();
        assert!(matches!(err, FlowError::Overloaded { .. }));
        assert!(err.is_transient());
        assert_eq!(ing.stats().backpressured, 1);
        assert_eq!(ing.stats().rejected, 0, "backpressure is not a rejection");
        // Seal drains; the same line is then admitted (as a new cascade
        // would be late, the caller seals then replays in-epoch lines —
        // here cascade 1 was sealed, so replay uses cascade 2).
        ing.seal_epoch();
        assert!(matches!(
            ing.push_line(3, r#"{"cascade": 2, "node": 2, "t": 1}"#),
            Ok(Push::Accepted)
        ));
        // Seal markers are always admitted even at capacity.
        let full = ing.push_line(4, r#"{"seal": true}"#);
        assert!(matches!(full, Ok(Push::Sealed(_))));
    }

    #[test]
    fn seals_mark_the_last_consumed_line_and_the_watermark() {
        let mut ing = Ingestor::with_graph(
            diamond(),
            IngestConfig {
                max_pending_events: 1,
            },
        );
        ing.push_line(1, "# a comment is consumed too").unwrap();
        ing.push_line(2, r#"{"cascade": 4, "node": 0, "t": 0}"#)
            .unwrap();
        // A refused line is not consumed, so the mark stays on line 2.
        assert!(ing
            .push_line(3, r#"{"cascade": 5, "node": 0, "t": 0}"#)
            .is_err());
        let mark = ing.seal_epoch().mark;
        assert_eq!(
            mark,
            IngestMark {
                line: 2,
                watermark: Some(4)
            }
        );
        // A seal marker is the last line of the epoch it seals.
        ing.push_line(3, r#"{"cascade": 5, "node": 0, "t": 0}"#)
            .unwrap();
        let Ok(Push::Sealed(delta)) = ing.push_line(4, r#"{"seal": true}"#) else {
            panic!("a seal marker seals");
        };
        assert_eq!(delta.mark.line, 4);
        assert_eq!(delta.mark.watermark, Some(5));
        // A resumed ingestor rejects what the original would have.
        let mut resumed = Ingestor::resume(diamond(), IngestConfig::default(), delta.mark);
        let err = resumed
            .push_line(5, r#"{"cascade": 5, "node": 1, "t": 0}"#)
            .unwrap_err();
        assert!(matches!(
            err,
            FlowError::RejectedEvent { reason: "late", .. }
        ));
        resumed
            .push_line(6, r#"{"cascade": 6, "node": 1, "t": 0}"#)
            .unwrap();
        assert_eq!(resumed.seal_epoch().mark.line, 6);
        // An empty seal keeps the watermark it resumed from.
        let mut idle = Ingestor::resume(diamond(), IngestConfig::default(), delta.mark);
        assert_eq!(idle.seal_epoch().mark, delta.mark);
    }

    #[test]
    fn rejected_first_event_leaves_no_phantom_cascade() {
        let mut ing = ingestor();
        // First-ever event of cascade 9 is inconsistent.
        assert!(ing
            .push_line(1, r#"{"cascade": 9, "node": 3, "t": 1, "parent": 2}"#)
            .is_err());
        assert_eq!(ing.open_cascades(), 0);
    }
}

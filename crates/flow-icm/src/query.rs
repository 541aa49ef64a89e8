//! Flow-condition vocabulary (§III): constrained flows `(u, v, a)`.
//!
//! A condition set `C ∈ P(V × V × B)` restricts the pseudo-state
//! distribution: `a = true` *requires* the flow `u ~> v`, `a = false`
//! *forbids* it. The combined indicator `I(x, C)` (the paper's product of
//! per-condition indicators) is 1 exactly when every condition holds.

use crate::state::PseudoState;
use flow_graph::traverse::BfsScratch;
use flow_graph::{DiGraph, NodeId};

/// One constrained flow `(source, sink, required)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FlowCondition {
    /// Flow source `u`.
    pub source: NodeId,
    /// Flow sink `v`.
    pub sink: NodeId,
    /// `true` enforces `u ~> v`; `false` enforces `u !~> v`.
    pub required: bool,
}

impl FlowCondition {
    /// Requires the flow `source ~> sink`.
    pub fn requires(source: NodeId, sink: NodeId) -> Self {
        FlowCondition {
            source,
            sink,
            required: true,
        }
    }

    /// Forbids the flow `source ~> sink`.
    pub fn forbids(source: NodeId, sink: NodeId) -> Self {
        FlowCondition {
            source,
            sink,
            required: false,
        }
    }

    /// True iff the pseudo-state satisfies this condition.
    pub fn holds(&self, graph: &DiGraph, state: &PseudoState) -> bool {
        state.carries_flow(graph, self.source, self.sink) == self.required
    }
}

/// Evaluates the combined indicator `I(x, C)`: true iff every condition
/// in `conditions` holds under `state`.
pub fn conditions_hold(graph: &DiGraph, state: &PseudoState, conditions: &[FlowCondition]) -> bool {
    conditions.iter().all(|c| c.holds(graph, state))
}

/// Checks a condition set for direct contradictions: the same `(u, v)`
/// pair both required and forbidden, or a forbidden self-flow `u ~> u`,
/// which never holds because a node always reaches itself. Deeper
/// unsatisfiability (e.g. a required flow whose every path crosses a
/// forbidden one) is discovered by the sampler's initialization instead.
pub fn find_contradiction(conditions: &[FlowCondition]) -> Option<(NodeId, NodeId)> {
    use std::collections::HashMap;
    let mut seen: HashMap<(u32, u32), bool> = HashMap::new();
    for c in conditions {
        if c.source == c.sink && !c.required {
            return Some((c.source, c.sink));
        }
        if let Some(&prev) = seen.get(&(c.source.0, c.sink.0)) {
            if prev != c.required {
                return Some((c.source, c.sink));
            }
        } else {
            seen.insert((c.source.0, c.sink.0), c.required);
        }
    }
    None
}

/// Why a condition set can never hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Contradiction {
    /// The flow `u ~> v` is both required and forbidden.
    Opposed(NodeId, NodeId),
    /// The self-flow `u ~> u` is forbidden, but a node always reaches
    /// itself.
    ForbiddenSelfFlow(NodeId),
    /// The flow `u ~> v` is required, but no directed path connects its
    /// endpoints.
    NoPath(NodeId, NodeId),
}

impl std::fmt::Display for Contradiction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Contradiction::Opposed(u, v) => write!(
                f,
                "contradictory flow conditions: {u}~>{v} both required and forbidden"
            ),
            Contradiction::ForbiddenSelfFlow(u) => write!(
                f,
                "contradictory flow condition: {u}~>{u} forbidden, but a node always reaches itself"
            ),
            Contradiction::NoPath(u, v) => write!(
                f,
                "required flow condition {u}~>{v} lies outside the reachable subgraph: \
                 no directed path connects its endpoints"
            ),
        }
    }
}

impl From<Contradiction> for flow_core::FlowError {
    fn from(c: Contradiction) -> Self {
        flow_core::FlowError::GraphInconsistency {
            detail: c.to_string(),
        }
    }
}

/// Canonicalizes a condition set against `graph`: sorts by `(source,
/// sink, required)` and removes duplicates and the conditions that
/// always hold — required self-flows `u ~> u`, and forbidden flows whose
/// endpoints no directed path connects. Rejects a set that can never
/// hold with its [`Contradiction`]: directly contradictory pairs (see
/// [`find_contradiction`]) and required flows with no path.
///
/// Two condition sets that differ only in ordering, duplication or
/// conditions that always hold normalize to the same vector, so the
/// result is usable as a cache or grouping key; the serving layer
/// (flow-serve) relies on this for its canonical `QueryKey` and routes
/// on the same result, so a query meets one policy whatever the shard
/// count. The sampled distribution is unchanged: the combined indicator
/// `I(x, C)` is a product, hence order-insensitive and idempotent under
/// duplication, and a factor that is always 1 drops out of it.
pub fn normalize_conditions(
    graph: &DiGraph,
    conditions: &[FlowCondition],
) -> Result<Vec<FlowCondition>, Contradiction> {
    if let Some((u, v)) = find_contradiction(conditions) {
        return Err(if u == v {
            Contradiction::ForbiddenSelfFlow(u)
        } else {
            Contradiction::Opposed(u, v)
        });
    }
    let mut out: Vec<FlowCondition> = conditions
        .iter()
        .copied()
        .filter(|c| c.source != c.sink)
        .collect();
    out.sort_by_key(|c| (c.source.0, c.sink.0, c.required));
    out.dedup();
    if !out.is_empty() {
        let mut bfs = BfsScratch::new(graph.node_count());
        let mut connected = |c: &FlowCondition| bfs.is_reachable(graph, c.source, c.sink, |_| true);
        let mut kept = Vec::with_capacity(out.len());
        for c in out {
            match (connected(&c), c.required) {
                (true, _) => kept.push(c),
                (false, true) => return Err(Contradiction::NoPath(c.source, c.sink)),
                (false, false) => {}
            }
        }
        out = kept;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_graph::graph::graph_from_edges;
    use flow_graph::EdgeId;

    #[test]
    fn condition_holds_semantics() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let mut x = PseudoState::all_inactive(2);
        let req = FlowCondition::requires(NodeId(0), NodeId(2));
        let forb = FlowCondition::forbids(NodeId(0), NodeId(2));
        assert!(!req.holds(&g, &x));
        assert!(forb.holds(&g, &x));
        x.set(EdgeId(0), true);
        x.set(EdgeId(1), true);
        assert!(req.holds(&g, &x));
        assert!(!forb.holds(&g, &x));
        // A node always reaches itself.
        let none = PseudoState::all_inactive(2);
        assert!(FlowCondition::requires(NodeId(2), NodeId(2)).holds(&g, &none));
        assert!(!FlowCondition::forbids(NodeId(2), NodeId(2)).holds(&g, &none));
    }

    #[test]
    fn combined_indicator() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let mut x = PseudoState::all_inactive(2);
        x.set(EdgeId(0), true);
        let cs = [
            FlowCondition::requires(NodeId(0), NodeId(1)),
            FlowCondition::forbids(NodeId(0), NodeId(2)),
        ];
        assert!(conditions_hold(&g, &x, &cs));
        x.set(EdgeId(1), true);
        assert!(!conditions_hold(&g, &x, &cs));
        assert!(conditions_hold(&g, &x, &[]), "empty set always holds");
    }

    #[test]
    fn contradiction_detection() {
        let cs = [
            FlowCondition::requires(NodeId(0), NodeId(1)),
            FlowCondition::forbids(NodeId(0), NodeId(1)),
        ];
        assert_eq!(find_contradiction(&cs), Some((NodeId(0), NodeId(1))));
        let ok = [
            FlowCondition::requires(NodeId(0), NodeId(1)),
            FlowCondition::requires(NodeId(0), NodeId(1)), // duplicate, fine
            FlowCondition::forbids(NodeId(1), NodeId(0)),
        ];
        assert_eq!(find_contradiction(&ok), None);
        // A forbidden self-flow never holds, even alone.
        let forbid_self = [
            FlowCondition::requires(NodeId(0), NodeId(1)),
            FlowCondition::forbids(NodeId(1), NodeId(1)),
        ];
        assert_eq!(
            find_contradiction(&forbid_self),
            Some((NodeId(1), NodeId(1)))
        );
        assert_eq!(
            find_contradiction(&forbid_self[1..]),
            Some((NodeId(1), NodeId(1)))
        );
        assert_eq!(
            find_contradiction(&[FlowCondition::requires(NodeId(1), NodeId(1))]),
            None
        );
    }

    #[test]
    fn normalization_is_order_insensitive() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let a = [
            FlowCondition::requires(NodeId(2), NodeId(3)),
            FlowCondition::forbids(NodeId(0), NodeId(1)),
            FlowCondition::requires(NodeId(1), NodeId(2)),
        ];
        let mut b = a;
        b.reverse();
        let c = [a[1], a[0], a[2]];
        let na = normalize_conditions(&g, &a).unwrap();
        assert_eq!(na, normalize_conditions(&g, &b).unwrap());
        assert_eq!(na, normalize_conditions(&g, &c).unwrap());
        // Sorted by (source, sink, required).
        assert_eq!(
            na,
            vec![
                FlowCondition::forbids(NodeId(0), NodeId(1)),
                FlowCondition::requires(NodeId(1), NodeId(2)),
                FlowCondition::requires(NodeId(2), NodeId(3)),
            ]
        );
    }

    #[test]
    fn normalization_dedups_and_rejects_contradictions() {
        let g = graph_from_edges(3, &[(0, 1), (1, 0), (1, 2)]);
        let dup = [
            FlowCondition::requires(NodeId(0), NodeId(1)),
            FlowCondition::requires(NodeId(0), NodeId(1)),
            FlowCondition::requires(NodeId(0), NodeId(1)),
        ];
        assert_eq!(
            normalize_conditions(&g, &dup).unwrap(),
            vec![FlowCondition::requires(NodeId(0), NodeId(1))]
        );
        let bad = [
            FlowCondition::requires(NodeId(0), NodeId(1)),
            FlowCondition::forbids(NodeId(0), NodeId(1)),
        ];
        assert_eq!(
            normalize_conditions(&g, &bad),
            Err(Contradiction::Opposed(NodeId(0), NodeId(1)))
        );
        assert_eq!(normalize_conditions(&g, &[]), Ok(vec![]));
        // A required self-flow always holds and drops out; a forbidden
        // one is a contradiction.
        let require_self = [
            FlowCondition::requires(NodeId(1), NodeId(1)),
            FlowCondition::forbids(NodeId(1), NodeId(0)),
        ];
        assert_eq!(
            normalize_conditions(&g, &require_self),
            Ok(vec![FlowCondition::forbids(NodeId(1), NodeId(0))])
        );
        assert_eq!(normalize_conditions(&g, &require_self[..1]), Ok(vec![]));
        assert_eq!(
            normalize_conditions(&g, &[FlowCondition::forbids(NodeId(1), NodeId(1))]),
            Err(Contradiction::ForbiddenSelfFlow(NodeId(1)))
        );
    }

    #[test]
    fn normalization_applies_the_graph() {
        // Two components: 0 -> 1 -> 2 and 3 -> 4.
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        // A forbidden flow with no path always holds and drops out, so
        // the set may end up empty: an unconditioned query.
        let vacuous = [
            FlowCondition::forbids(NodeId(4), NodeId(3)),
            FlowCondition::forbids(NodeId(0), NodeId(4)),
        ];
        assert_eq!(normalize_conditions(&g, &vacuous), Ok(vec![]));
        let mixed = [vacuous[0], FlowCondition::requires(NodeId(0), NodeId(2))];
        assert_eq!(
            normalize_conditions(&g, &mixed),
            Ok(vec![FlowCondition::requires(NodeId(0), NodeId(2))])
        );
        // A required flow with no path can never hold.
        let impossible = [FlowCondition::requires(NodeId(2), NodeId(0))];
        let err = normalize_conditions(&g, &impossible).unwrap_err();
        assert_eq!(err, Contradiction::NoPath(NodeId(2), NodeId(0)));
        let err = flow_core::FlowError::from(err);
        assert!(
            err.to_string().contains("outside the reachable subgraph"),
            "{err}"
        );
    }
}

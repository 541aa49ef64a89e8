//! Flow-condition vocabulary (§III): constrained flows `(u, v, a)`.
//!
//! A condition set `C ∈ P(V × V × B)` restricts the pseudo-state
//! distribution: `a = true` *requires* the flow `u ~> v`, `a = false`
//! *forbids* it. The combined indicator `I(x, C)` (the paper's product of
//! per-condition indicators) is 1 exactly when every condition holds.

use crate::state::PseudoState;
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

/// Canonicalizes a condition set: sorts by `(source, sink, required)`,
/// removes duplicates and required self-flows `u ~> u` (which always
/// hold), and rejects directly contradictory sets (see
/// [`find_contradiction`]) with the offending pair.
///
/// Two condition sets that differ only in ordering, duplication or
/// required self-flows normalize to the same vector, so the result is
/// usable as a cache or grouping key; the serving layer (flow-serve)
/// relies on this for its canonical `QueryKey`. The sampled
/// distribution is unchanged: the combined indicator `I(x, C)` is a
/// product, hence order-insensitive and idempotent under duplication,
/// and a factor that is always 1 drops out of it.
pub fn normalize_conditions(
    conditions: &[FlowCondition],
) -> Result<Vec<FlowCondition>, (NodeId, NodeId)> {
    if let Some(pair) = find_contradiction(conditions) {
        return Err(pair);
    }
    let mut out: Vec<FlowCondition> = conditions
        .iter()
        .copied()
        .filter(|c| c.source != c.sink)
        .collect();
    out.sort_by_key(|c| (c.source.0, c.sink.0, c.required));
    out.dedup();
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
        let a = [
            FlowCondition::requires(NodeId(2), NodeId(3)),
            FlowCondition::forbids(NodeId(0), NodeId(1)),
            FlowCondition::requires(NodeId(1), NodeId(2)),
        ];
        let mut b = a;
        b.reverse();
        let c = [a[1], a[0], a[2]];
        let na = normalize_conditions(&a).unwrap();
        assert_eq!(na, normalize_conditions(&b).unwrap());
        assert_eq!(na, normalize_conditions(&c).unwrap());
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
        let dup = [
            FlowCondition::requires(NodeId(0), NodeId(1)),
            FlowCondition::requires(NodeId(0), NodeId(1)),
            FlowCondition::requires(NodeId(0), NodeId(1)),
        ];
        assert_eq!(
            normalize_conditions(&dup).unwrap(),
            vec![FlowCondition::requires(NodeId(0), NodeId(1))]
        );
        let bad = [
            FlowCondition::requires(NodeId(0), NodeId(1)),
            FlowCondition::forbids(NodeId(0), NodeId(1)),
        ];
        assert_eq!(normalize_conditions(&bad), Err((NodeId(0), NodeId(1))));
        assert_eq!(normalize_conditions(&[]), Ok(vec![]));
        // A required self-flow always holds and drops out; a forbidden
        // one is a contradiction.
        let require_self = [
            FlowCondition::requires(NodeId(1), NodeId(1)),
            FlowCondition::forbids(NodeId(1), NodeId(0)),
        ];
        assert_eq!(
            normalize_conditions(&require_self),
            Ok(vec![FlowCondition::forbids(NodeId(1), NodeId(0))])
        );
        assert_eq!(normalize_conditions(&require_self[..1]), Ok(vec![]));
        assert_eq!(
            normalize_conditions(&[FlowCondition::forbids(NodeId(1), NodeId(1))]),
            Err((NodeId(1), NodeId(1)))
        );
    }
}

//! Query-relevant subgraph routing for sharded serving.
//!
//! [`route_query`] maps a planned query to the minimal set of shards
//! whose union covers every edge the answer can depend on: the
//! [`relevant_edges`] between the query's source and targets, plus the
//! relevant edges of each flow condition's endpoint pair (DESIGN.md
//! §16). Under the ICM's edge independence, every edge outside that
//! union is independent of both the flow indicator and the condition
//! indicators, so a sub-model containing the routed shards answers
//! with the full model's distribution — the estimates agree within
//! estimator tolerance, while the chain runs over a sub-multinomial of
//! `m_shard << m` edges.
//!
//! Conditions are first normalized against the graph with the same
//! [`normalize_conditions`] planning applies, so a query meets one
//! condition policy whatever the shard count: a forbidden flow with no
//! path always holds and adds no shard, and a condition set that can
//! never hold is rejected here with the error planning would give.
//!
//! Fallback policy: a query routes to the sharded path only when its
//! shard set is a **proper** subset of the partition (`|S| < K`);
//! spanning every shard, or touching none (source cannot reach the
//! target at all), falls back to the global engine, which behaves
//! byte-identically to an unsharded engine. With `K = 1` every query
//! falls back, which is what makes `--shards 1` byte-identical to
//! unsharded serving.

use crate::plan::FlowQuery;
use flow_core::FlowError;
use flow_graph::{relevant_edges, EdgePartition, NodeId};
use flow_icm::query::normalize_conditions;
use flow_icm::Icm;
use flow_mcmc::SharedTarget;
use std::collections::BTreeSet;

/// Where one query runs under a sharded engine.
#[derive(Clone, Debug)]
pub enum Route {
    /// Serve on the global engine, exactly as an unsharded engine
    /// would: the query spans every shard, or touches no edge at all.
    Global,
    /// The query's relevant subgraph is covered by this proper subset
    /// of shards (sorted, deduplicated).
    Shards(Vec<u32>),
    /// The query's conditions can never hold: a typed rejection, the
    /// same error planning gives an unsharded engine.
    Reject(FlowError),
}

/// Routes one query against a partition, on its conditions as
/// normalized against the graph (see the module docs).
pub fn route_query(icm: &Icm, partition: &EdgePartition, query: &FlowQuery) -> Route {
    let graph = icm.graph();
    let conditions = match normalize_conditions(graph, &query.conditions) {
        Ok(conditions) => conditions,
        Err(contradiction) => return Route::Reject(contradiction.into()),
    };
    let targets: Vec<NodeId> = match &query.target {
        SharedTarget::Sink(s) => vec![*s],
        SharedTarget::Community(members) => members.clone(),
    };
    let mut shards: BTreeSet<u32> = BTreeSet::new();
    let mut any = false;
    for e in relevant_edges(graph, &[query.source], &targets) {
        any = true;
        shards.insert(partition.shard_of(e));
    }
    for c in &conditions {
        for e in relevant_edges(graph, &[c.source], &[c.sink]) {
            shards.insert(partition.shard_of(e));
        }
    }
    if !any || shards.len() as u32 >= partition.shard_count() {
        return Route::Global;
    }
    Route::Shards(shards.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_graph::graph::graph_from_edges;
    use flow_graph::partition_edges;
    use flow_icm::FlowCondition;

    /// Two disjoint diamonds: nodes 0–3 and 4–7.
    fn two_communities() -> Icm {
        let g = graph_from_edges(
            8,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (4, 5),
                (4, 6),
                (5, 7),
                (6, 7),
            ],
        );
        Icm::new(g, vec![0.5; 8])
    }

    #[test]
    fn single_community_query_routes_to_one_shard() {
        let icm = two_communities();
        let p = partition_edges(icm.graph(), 2);
        let q = FlowQuery::flow(NodeId(0), NodeId(3));
        match route_query(&icm, &p, &q) {
            Route::Shards(s) => assert_eq!(s.len(), 1),
            other => panic!("expected a single-shard route, got {other:?}"),
        }
        let q2 = FlowQuery::flow(NodeId(4), NodeId(7));
        match route_query(&icm, &p, &q2) {
            Route::Shards(s) => assert_eq!(s.len(), 1),
            other => panic!("expected a single-shard route, got {other:?}"),
        }
    }

    #[test]
    fn unreachable_target_falls_back_to_global() {
        let icm = two_communities();
        let p = partition_edges(icm.graph(), 2);
        // 0 cannot reach 7: no relevant edges, global fallback.
        let q = FlowQuery::flow(NodeId(0), NodeId(7));
        assert!(matches!(route_query(&icm, &p, &q), Route::Global));
    }

    #[test]
    fn one_shard_partitions_always_fall_back() {
        let icm = two_communities();
        let p = partition_edges(icm.graph(), 1);
        let q = FlowQuery::flow(NodeId(0), NodeId(3));
        // |S| = 1 is not a proper subset of a 1-shard partition.
        assert!(matches!(route_query(&icm, &p, &q), Route::Global));
    }

    #[test]
    fn disconnected_conditions_follow_the_planning_policy() {
        let icm = two_communities();
        let p = partition_edges(icm.graph(), 2);
        let mut q = FlowQuery::flow(NodeId(0), NodeId(3));
        // 4 ~> 0 crosses from the second community into the first:
        // no directed path exists anywhere in the graph. Required, it
        // can never hold.
        q.conditions = vec![FlowCondition::requires(NodeId(4), NodeId(0))];
        match route_query(&icm, &p, &q) {
            Route::Reject(FlowError::GraphInconsistency { detail }) => {
                assert!(
                    detail.contains("outside the reachable subgraph"),
                    "{detail}"
                );
            }
            other => panic!("expected a typed rejection, got {other:?}"),
        }
        // Forbidden, it always holds: the query routes as if
        // unconditioned.
        q.conditions = vec![FlowCondition::forbids(NodeId(4), NodeId(0))];
        match route_query(&icm, &p, &q) {
            Route::Shards(s) => assert_eq!(s.len(), 1),
            other => panic!("expected a single-shard route, got {other:?}"),
        }
    }

    #[test]
    fn cross_community_condition_widens_the_route() {
        let icm = two_communities();
        let p = partition_edges(icm.graph(), 2);
        let mut q = FlowQuery::flow(NodeId(0), NodeId(3));
        // A condition inside the *other* community pulls its shard in;
        // spanning both shards of a 2-shard partition → global.
        q.conditions = vec![FlowCondition::forbids(NodeId(4), NodeId(7))];
        assert!(matches!(route_query(&icm, &p, &q), Route::Global));
        // With 3 shards the same pair is a proper subset again.
        let icm3 = {
            let g = graph_from_edges(
                11,
                &[
                    (0, 1),
                    (0, 2),
                    (1, 3),
                    (2, 3),
                    (4, 5),
                    (4, 6),
                    (5, 7),
                    (6, 7),
                    (8, 9),
                    (9, 10),
                ],
            );
            Icm::new(g, vec![0.5; 10])
        };
        let p3 = partition_edges(icm3.graph(), 3);
        let mut q3 = FlowQuery::flow(NodeId(0), NodeId(3));
        q3.conditions = vec![FlowCondition::forbids(NodeId(4), NodeId(7))];
        match route_query(&icm3, &p3, &q3) {
            Route::Shards(s) => assert_eq!(s.len(), 2),
            other => panic!("expected a two-shard route, got {other:?}"),
        }
    }
}

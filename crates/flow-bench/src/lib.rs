//! Shared fixtures for the bench binaries.
//!
//! * [`twitter_scale_icm`] — the scale of the paper's §IV-C timing
//!   claim: "on a small sample from Twitter with around 6K users and
//!   14K edges, our sampler takes 27 milliseconds per output sample
//!   (0.13 milliseconds per Markov-Chain update)". `bench_sampler`
//!   measures the same two quantities at this scale.
//! * [`scaling_icm`] — `m` edges on `m/2` nodes: `bench_sampler`'s
//!   throughput models and its `O(log m)` update-scaling sweep, and the
//!   models `bench_serve` and `bench_stream` serve and learn.
//! * [`multi_community_icm`] — `bench_serve`'s sharded workload.
//!
//! `repro fig6` (flow-exp) measures Fig. 6's learning cost and §V-C's
//! summary width.

use flow_graph::{GraphBuilder, NodeId};
use flow_icm::Icm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Twitter-scale model matching the paper's timing claim: ~6K nodes,
/// ~14K edges, moderate activation probabilities.
pub fn twitter_scale_icm(seed: u64) -> Icm {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = flow_graph::generate::uniform_edges(&mut rng, 6_000, 14_000);
    let probs = (0..graph.edge_count())
        .map(|_| rng.random_range(0.05..0.6))
        .collect();
    Icm::new(graph, probs)
}

/// A model with `m` edges on `m/2` nodes for scaling sweeps.
pub fn scaling_icm(m: usize, seed: u64) -> Icm {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = (m / 2).max(4);
    let graph = flow_graph::generate::uniform_edges(&mut rng, n, m);
    let probs = (0..graph.edge_count())
        .map(|_| rng.random_range(0.05..0.6))
        .collect();
    Icm::new(graph, probs)
}

/// `communities` disjoint uniform-edge communities of roughly `m_each`
/// edges each — the multi-community workload sharded serving targets:
/// every community is its own weak component, so
/// `flow_graph::partition_edges` keeps it whole on one shard and a
/// single-community query's chain walks a sub-multinomial of
/// `~m_each << m` edges.
pub fn multi_community_icm(communities: u32, m_each: usize, seed: u64) -> Icm {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_each = (m_each / 2).max(4);
    let mut builder = GraphBuilder::new(n_each * communities as usize);
    let mut probs = Vec::new();
    for c in 0..communities {
        let sub = flow_graph::generate::uniform_edges(&mut rng, n_each, m_each);
        let base = (c as usize * n_each) as u32;
        for e in sub.edges() {
            let (u, v) = sub.endpoints(e);
            if builder
                .add_edge(NodeId(base + u.0), NodeId(base + v.0))
                .is_ok()
            {
                probs.push(rng.random_range(0.05..0.6));
            }
        }
    }
    Icm::new(builder.build(), probs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_have_expected_shapes() {
        let icm = scaling_icm(500, 1);
        assert_eq!(icm.edge_count(), 500);
        assert_eq!(icm.node_count(), 250);
        // The §IV-C scale EXPERIMENTS.md compares with the paper.
        let twitter = twitter_scale_icm(1);
        assert_eq!(twitter.node_count(), 6_000);
        assert_eq!(twitter.edge_count(), 14_000);
    }

    #[test]
    fn communities_are_disjoint_components() {
        let icm = multi_community_icm(3, 60, 9);
        let p = flow_graph::partition_edges(icm.graph(), 3);
        // Whole components per shard: each shard holds ~one community.
        let counts = p.edge_counts();
        assert_eq!(counts.iter().sum::<usize>(), icm.edge_count());
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        // No edge crosses a community boundary of 30 nodes.
        let g = icm.graph();
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            assert_eq!(u.0 / 30, v.0 / 30, "edge {e:?} crosses communities");
        }
    }
}

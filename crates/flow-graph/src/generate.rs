//! Random and deterministic graph generators.
//!
//! The paper's synthetic experiments draw graphs with a fixed node count
//! and a fixed number of uniformly-random edges ([`uniform_edges`], used
//! for the Fig. 1/Fig. 5 bucket experiments: “50 users and 200 edges”).
//! The Twitter substrate uses a directed preferential-attachment model
//! ([`preferential_attachment`]) to get the heavy-tailed follower
//! distribution real social graphs exhibit.

use crate::graph::{DiGraph, GraphBuilder, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Generates a graph with `n` nodes and exactly `m` distinct random
/// directed edges, sampled uniformly from the `n·(n−1)` possibilities.
///
/// Panics if `m > n·(n−1)`.
///
/// For sparse requests (`m` much smaller than `n²`) this uses rejection
/// sampling; for dense requests it shuffles the full edge universe.
pub fn uniform_edges<R: Rng + ?Sized>(rng: &mut R, n: usize, m: usize) -> DiGraph {
    let universe = n.saturating_mul(n.saturating_sub(1));
    assert!(
        m <= universe,
        "requested {m} edges but only {universe} possible"
    );
    let mut b = GraphBuilder::new(n);
    if universe == 0 {
        return b.build();
    }
    if m * 3 >= universe {
        // Dense: enumerate and shuffle.
        let mut all: Vec<(u32, u32)> = Vec::with_capacity(universe);
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                if u != v {
                    all.push((u, v));
                }
            }
        }
        all.shuffle(rng);
        for &(u, v) in all.iter().take(m) {
            b.add_edge(NodeId(u), NodeId(v))
                // flow-analyze: allow(L1: the shuffled universe holds each ordered pair once, so the builder invariant cannot fail)
                .expect("unique by construction");
        }
    } else {
        // Sparse: rejection sampling.
        while b.edge_count() < m {
            let u = NodeId(rng.random_range(0..n as u32));
            let v = NodeId(rng.random_range(0..n as u32));
            if u == v || b.has_edge(u, v) {
                continue;
            }
            // flow-analyze: allow(L1: self-loops and duplicates are rejected just above, so the builder invariant cannot fail)
            b.add_edge(u, v).expect("checked for duplicates");
        }
    }
    b.build()
}

/// Directed preferential attachment: nodes arrive one at a time; each new
/// node links to `k` existing nodes chosen with probability proportional
/// to `in_degree + 1`, and each chosen target links back with probability
/// `reciprocity` (followed-back relationships).
///
/// Produces the heavy-tailed in-degree ("celebrity") distribution of
/// social-network follow graphs; edges point in the *flow* direction
/// (from followee to follower would be flow of tweets, but we orient
/// edges from the attachment target to the new node, i.e. information
/// flows from popular accounts outward).
pub fn preferential_attachment<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    k: usize,
    reciprocity: f64,
) -> DiGraph {
    assert!(n >= 1);
    assert!((0.0..=1.0).contains(&reciprocity));
    let mut b = GraphBuilder::new(n);
    // `targets` holds one entry per (in-degree + 1) unit of mass.
    let mut mass: Vec<u32> = vec![0];
    for newcomer in 1..n as u32 {
        let links = k.min(newcomer as usize);
        let mut chosen: Vec<u32> = Vec::with_capacity(links);
        let mut guard = 0usize;
        while chosen.len() < links && guard < 50 * (links + 1) {
            guard += 1;
            let t = mass[rng.random_range(0..mass.len())];
            if t != newcomer && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            // Popular node -> newcomer: tweets flow outward from hubs.
            if !b.has_edge(NodeId(t), NodeId(newcomer)) {
                // flow-analyze: allow(L1: uniqueness is checked just above and `t` is never the newcomer, so the builder invariant cannot fail)
                b.add_edge(NodeId(t), NodeId(newcomer)).expect("checked");
                mass.push(newcomer); // newcomer gained an in-edge
            }
            if rng.random::<f64>() < reciprocity && !b.has_edge(NodeId(newcomer), NodeId(t)) {
                // flow-analyze: allow(L1: uniqueness is checked just above and `t` is never the newcomer, so the builder invariant cannot fail)
                b.add_edge(NodeId(newcomer), NodeId(t)).expect("checked");
                mass.push(t);
            }
        }
        mass.push(newcomer); // the "+1" smoothing mass for the new node
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_edges_exact_count_sparse_and_dense() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = uniform_edges(&mut rng, 50, 200);
        assert_eq!(g.node_count(), 50);
        assert_eq!(g.edge_count(), 200);
        let dense = uniform_edges(&mut rng, 10, 85);
        assert_eq!(dense.edge_count(), 85);
        // No self loops or duplicates by construction; spot-check.
        let mut seen = std::collections::HashSet::new();
        for e in dense.edges() {
            let (u, v) = dense.endpoints(e);
            assert_ne!(u, v);
            assert!(seen.insert((u, v)));
        }
    }

    #[test]
    fn uniform_edges_full_universe() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = uniform_edges(&mut rng, 4, 12);
        assert_eq!(g.edge_count(), 12);
    }

    #[test]
    #[should_panic(expected = "possible")]
    fn uniform_edges_rejects_overfull() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = uniform_edges(&mut rng, 3, 7);
    }

    #[test]
    fn preferential_attachment_is_heavy_tailed() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = preferential_attachment(&mut rng, 400, 3, 0.2);
        assert_eq!(g.node_count(), 400);
        assert!(g.edge_count() >= 3 * 300, "should add ~k edges per node");
        let max_out = g.nodes().map(|v| g.out_degree(v)).max().unwrap();
        let mean_out = g.edge_count() as f64 / 400.0;
        assert!(
            max_out as f64 > 4.0 * mean_out,
            "expect hubs: max {max_out}, mean {mean_out}"
        );
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let g1 = uniform_edges(&mut StdRng::seed_from_u64(99), 30, 100);
        let g2 = uniform_edges(&mut StdRng::seed_from_u64(99), 30, 100);
        for (e1, e2) in g1.edges().zip(g2.edges()) {
            assert_eq!(g1.endpoints(e1), g2.endpoints(e2));
        }
    }
}

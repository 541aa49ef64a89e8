//! Deterministic model-version fingerprints.
//!
//! Hoisted out of `flow-serve` so the serving cache and the streaming
//! model registry hash models with the *same* function: a snapshot
//! sealed by `flow-stream` and the cache entries `flow-serve` keys on
//! that snapshot agree on the version by construction.

use crate::Icm;
use flow_core::Fnv64;

/// Fingerprints an ICM: node/edge counts, every edge's endpoints, and
/// the exact bit pattern of every activation probability. Cache entries
/// carry this as their model version; any retraining that changes a
/// single probability ulp invalidates them.
///
/// The hash is computed at most once per model value and kept in it
/// (cleared by [`Icm::set_probability`]), so serving can key every
/// query on it without rehashing the model.
pub fn model_fingerprint(icm: &Icm) -> u64 {
    *icm.fingerprint.get_or_init(|| {
        let g = icm.graph();
        let mut h = Fnv64::new()
            .u64(g.node_count() as u64)
            .u64(g.edge_count() as u64);
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            h = h
                .u64(u64::from(u.0))
                .u64(u64::from(v.0))
                .u64(icm.probability(e).to_bits());
        }
        h.finish()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_graph::graph::graph_from_edges;

    #[test]
    fn fingerprint_tracks_probability_bits() {
        let g1 = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let g2 = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let a = Icm::new(g1, vec![0.5, 0.5]);
        let b = Icm::new(g2, vec![0.5, 0.5000000001]);
        assert_ne!(model_fingerprint(&a), model_fingerprint(&b));
    }

    #[test]
    fn fingerprint_tracks_shape() {
        let a = Icm::new(graph_from_edges(3, &[(0, 1), (1, 2)]), vec![0.5, 0.5]);
        let b = Icm::new(graph_from_edges(3, &[(0, 1), (0, 2)]), vec![0.5, 0.5]);
        assert_ne!(model_fingerprint(&a), model_fingerprint(&b));
    }

    #[test]
    fn set_probability_refreshes_the_kept_fingerprint() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let mut icm = Icm::new(g.clone(), vec![0.5, 0.5]);
        let before = model_fingerprint(&icm);
        icm.set_probability(flow_graph::EdgeId(1), 0.25);
        let fresh = Icm::new(g, vec![0.5, 0.25]);
        assert_ne!(model_fingerprint(&icm), before);
        assert_eq!(model_fingerprint(&icm), model_fingerprint(&fresh));
    }

    #[test]
    fn fingerprint_is_stable_across_clones() {
        let icm = Icm::new(graph_from_edges(3, &[(0, 1), (1, 2)]), vec![0.25, 0.75]);
        assert_eq!(model_fingerprint(&icm), model_fingerprint(&icm.clone()));
    }
}

//! Whole-graph unattributed training: lift the per-sink learners to
//! every edge of a graph.
//!
//! The paper's model factorizes over sinks ("we partition the model by
//! edges, where each part is a model Mk with only those edges incident
//! on node k"), so training a full graph is one independent per-sink
//! problem per node with incoming edges. The result stores a mean and
//! standard deviation per edge — the approximation the paper stores for
//! its Twitter experiments ("we store an approximation using the mean
//! and standard deviation").

use crate::joint_bayes::{JointBayes, JointBayesConfig};
use crate::saito::{saito_em, SaitoConfig};
use crate::summary::{filtered_betas, Episode, SinkSummary, SinkTables, TimingAssumption};
use flow_graph::{DiGraph, EdgeId};
use flow_icm::{BetaIcm, Icm};
use flow_stats::{Beta, Normal};
use rand::Rng;

/// Which unattributed learner to apply per sink.
#[derive(Clone, Copy, Debug)]
pub enum Learner {
    /// The paper's joint-Bayes MCMC (posterior mean/sd per edge).
    JointBayes(JointBayesConfig),
    /// Goyal et al.'s credit heuristic (sd = 0: a point method).
    Goyal,
    /// Saito-style EM on summaries (sd = 0: a point method).
    SaitoEm(SaitoConfig),
    /// Attributed counting on unambiguous rows only.
    Filtered,
}

/// Per-edge estimates produced by [`train_graph`].
#[derive(Clone, Debug)]
pub struct LearnedEdges {
    /// Posterior mean (or point estimate) per edge, indexed by `EdgeId`.
    pub mean: Vec<f64>,
    /// Posterior standard deviation per edge (0 for point methods).
    pub sd: Vec<f64>,
    /// Total episodes skipped as spontaneous across all sinks.
    pub skipped_spontaneous: u64,
}

impl LearnedEdges {
    /// Converts to a point-probability ICM using the means.
    pub fn to_icm(&self, graph: &DiGraph) -> Icm {
        Icm::new(graph.clone(), self.mean.clone())
    }

    /// Converts to a betaICM by per-edge moment matching (clamping
    /// degenerate variances to a tight-but-proper Beta).
    pub fn to_beta_icm(&self, graph: &DiGraph) -> BetaIcm {
        let params = self
            .mean
            .iter()
            .zip(&self.sd)
            .map(|(&m, &sd)| {
                let m = m.clamp(1e-6, 1.0 - 1e-6);
                let var = (sd * sd).clamp(1e-9, m * (1.0 - m) * 0.999);
                let k = m * (1.0 - m) / var - 1.0;
                Beta::new((m * k).max(1e-6), ((1.0 - m) * k).max(1e-6))
            })
            .collect();
        BetaIcm::new(graph.clone(), params)
    }

    /// Per-edge Gaussian approximations (the Fig. 10 experiment samples
    /// edges "independently using its mean and standard deviation from
    /// a normal distribution").
    pub fn gaussians(&self) -> Vec<Normal> {
        self.mean
            .iter()
            .zip(&self.sd)
            .map(|(&m, &sd)| Normal::new(m, sd))
            .collect()
    }

    /// Samples a point ICM from the Gaussian edge approximations,
    /// clamping draws into `[0, 1]`.
    pub fn sample_gaussian_icm<R: Rng + ?Sized>(&self, graph: &DiGraph, rng: &mut R) -> Icm {
        let probs = self
            .gaussians()
            .iter()
            .map(|g| g.sample(rng).clamp(0.0, 1.0))
            .collect();
        Icm::new(graph.clone(), probs)
    }
}

/// Builds the per-sink summaries for every node of `graph` with
/// incoming edges.
pub fn summarize_graph(
    graph: &DiGraph,
    episodes: &[Episode],
    timing: TimingAssumption,
) -> Vec<SinkSummary> {
    let mut tables = SinkTables::new(graph, timing);
    tables.extend(episodes);
    tables.into_summaries()
}

/// Trains every edge of `graph` from unattributed `episodes` with the
/// chosen learner.
pub fn train_graph<R: Rng + ?Sized>(
    graph: &DiGraph,
    episodes: &[Episode],
    timing: TimingAssumption,
    learner: Learner,
    rng: &mut R,
) -> LearnedEdges {
    let m = graph.edge_count();
    // Uninformed default: uniform prior mean/sd.
    let uniform = Beta::uniform();
    let mut mean = vec![uniform.mean(); m];
    let mut sd = vec![uniform.std_dev(); m];
    let mut skipped_spontaneous = 0u64;
    for summary in summarize_graph(graph, episodes, timing) {
        skipped_spontaneous += summary.skipped_spontaneous;
        let k = summary.sink;
        // Map each parent index back to its edge id.
        let edge_ids: Vec<EdgeId> = summary
            .parents
            .iter()
            // flow-analyze: allow(L1: summaries are built from this graph, so every parent has its edge)
            .map(|&p| graph.find_edge(p, k).expect("parent implies edge"))
            .collect();
        let (mu, sigma): (Vec<f64>, Vec<f64>) = match learner {
            Learner::JointBayes(cfg) => {
                let post = JointBayes::new(cfg).sample_posterior(&summary, rng);
                (post.means(), post.std_devs())
            }
            Learner::Goyal => {
                let p = crate::goyal::goyal_credit(&summary);
                let z = vec![0.0; p.len()];
                (p, z)
            }
            Learner::SaitoEm(cfg) => {
                let sol = saito_em(&summary, &cfg);
                let z = vec![0.0; sol.probs.len()];
                (sol.probs, z)
            }
            Learner::Filtered => {
                let betas = filtered_betas(&summary);
                (
                    betas.iter().map(|b| b.mean()).collect(),
                    betas.iter().map(|b| b.std_dev()).collect(),
                )
            }
        };
        for ((e, m_j), s_j) in edge_ids.iter().zip(mu).zip(sigma) {
            mean[e.index()] = m_j;
            sd[e.index()] = s_j;
        }
    }
    LearnedEdges {
        mean,
        sd,
        skipped_spontaneous,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::episodes_from_icm;
    use flow_graph::graph::graph_from_edges;
    use flow_graph::NodeId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line_icm() -> Icm {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        Icm::new(g, vec![0.7, 0.3])
    }

    #[test]
    fn all_learners_recover_a_line_graph() {
        let icm = line_icm();
        let mut rng = StdRng::seed_from_u64(55);
        let episodes = episodes_from_icm(&icm, &[NodeId(0)], 3000, &mut rng);
        for learner in [
            Learner::Goyal,
            Learner::SaitoEm(SaitoConfig::default()),
            Learner::Filtered,
            Learner::JointBayes(JointBayesConfig {
                samples: 400,
                burn_in_sweeps: 300,
                thin_sweeps: 2,
                ..Default::default()
            }),
        ] {
            let learned = train_graph(
                icm.graph(),
                &episodes,
                TimingAssumption::AnyEarlier,
                learner,
                &mut rng,
            );
            for e in icm.graph().edges() {
                let want = icm.probability(e);
                let got = learned.mean[e.index()];
                assert!(
                    (got - want).abs() < 0.08,
                    "{learner:?} edge {e}: got {got}, want {want}"
                );
            }
        }
    }

    #[test]
    fn point_methods_have_zero_sd() {
        let icm = line_icm();
        let mut rng = StdRng::seed_from_u64(56);
        let episodes = episodes_from_icm(&icm, &[NodeId(0)], 200, &mut rng);
        let learned = train_graph(
            icm.graph(),
            &episodes,
            TimingAssumption::AnyEarlier,
            Learner::Goyal,
            &mut rng,
        );
        assert!(learned.sd.iter().all(|&s| s == 0.0));
        let jb = train_graph(
            icm.graph(),
            &episodes,
            TimingAssumption::AnyEarlier,
            Learner::JointBayes(JointBayesConfig {
                samples: 200,
                burn_in_sweeps: 100,
                thin_sweeps: 1,
                ..Default::default()
            }),
            &mut rng,
        );
        assert!(jb.sd.iter().all(|&s| s > 0.0), "Bayes carries uncertainty");
    }

    #[test]
    fn learned_edges_conversions() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let learned = LearnedEdges {
            mean: vec![0.6],
            sd: vec![0.1],
            skipped_spontaneous: 0,
        };
        let icm = learned.to_icm(&g);
        assert!((icm.probability(EdgeId(0)) - 0.6).abs() < 1e-12);
        let beta_icm = learned.to_beta_icm(&g);
        let b = beta_icm.edge_beta(EdgeId(0));
        assert!((b.mean() - 0.6).abs() < 1e-6);
        assert!((b.std_dev() - 0.1).abs() < 0.01);
        let mut rng = StdRng::seed_from_u64(57);
        let sampled = learned.sample_gaussian_icm(&g, &mut rng);
        let p = sampled.probability(EdgeId(0));
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn unobserved_edges_keep_the_uniform_prior() {
        // Node 2's only parent never activates -> no rows -> prior kept.
        let g = graph_from_edges(3, &[(0, 1), (2, 1)]);
        let mut rng = StdRng::seed_from_u64(58);
        let icm = Icm::new(g, vec![0.5, 0.5]);
        let episodes = episodes_from_icm(&icm, &[NodeId(0)], 100, &mut rng);
        let learned = train_graph(
            icm.graph(),
            &episodes,
            TimingAssumption::AnyEarlier,
            Learner::Filtered,
            &mut rng,
        );
        let e21 = icm.graph().find_edge(NodeId(2), NodeId(1)).unwrap();
        assert!((learned.mean[e21.index()] - 0.5).abs() < 1e-12);
    }
}

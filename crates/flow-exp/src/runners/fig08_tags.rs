//! Figs. 8–10: predicting URL and hashtag propagation from
//! unattributed evidence.
//!
//! Pipeline per focus user: take the radius-4/5 ego net of the follow
//! graph, add the **omnipotent user** (the outside world, followed by
//! everyone), learn edge probabilities from the adoption episodes with
//! either our joint-Bayes method or Goyal's credit rule, estimate
//! focus→user flow probabilities by Metropolis–Hastings, and pair them
//! against fresh ground-truth adoption cascades.
//!
//! The paper's contrast to reproduce: URL flows (endogenous,
//! high-entropy tokens) calibrate well — Fig. 8 — while hashtag flows
//! (exogenous co-adoption) calibrate poorly for *both* learners —
//! Fig. 9. Fig. 10 repeats the URL experiment 30 times with edge
//! probabilities drawn from their Gaussian posterior approximations,
//! which smooths the flow estimates.

use crate::bucket::{BucketConfig, BucketReport};
use crate::output::Output;
use crate::runners::ExpConfig;
use flow_graph::traverse::{ego_subgraph, EgoDirection, EgoSubgraph};
use flow_graph::{DiGraph, GraphBuilder, NodeId};
use flow_icm::state::simulate_cascade;
use flow_learn::graph_train::{train_graph, LearnedEdges, Learner};
use flow_learn::joint_bayes::JointBayesConfig;
use flow_learn::summary::{Episode, TimingAssumption};
use flow_mcmc::{FlowEstimator, McmcConfig};
use flow_stats::metrics::PredictionOutcome;
use flow_twitter::corpus::{generate, Corpus, CorpusConfig};
use flow_twitter::tags::{episodes_for_objects, ObjectKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One panel of Fig. 8/9/10.
#[derive(Clone, Debug)]
pub struct TagFlowResult {
    /// Panel label, e.g. `fig8_radius4_ours`.
    pub label: String,
    /// Bucket report.
    pub report: BucketReport,
    /// Raw pairs (kept for Table III).
    pub pairs: Vec<PredictionOutcome>,
}

/// Shared context for the tag-flow experiments.
pub struct TagContext {
    /// The corpus.
    pub corpus: Corpus,
    /// Object kind under study.
    pub kind: ObjectKind,
    /// Adoption episodes with the omnipotent user at time 0 (node id =
    /// `corpus.graph.node_count()`).
    pub episodes: Vec<(String, Episode)>,
    /// Omnipotent node id in the full numbering.
    pub omni: NodeId,
    /// Focus users (top object originators).
    pub focuses: Vec<NodeId>,
}

/// Builds the corpus and adoption episodes for one object kind.
pub fn build_tag_context(cfg: &ExpConfig, kind: ObjectKind) -> TagContext {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF168_0000);
    let corpus_cfg = CorpusConfig {
        users: cfg.scaled(220, 90),
        hashtags: cfg.scaled(70, 30),
        urls: cfg.scaled(70, 30),
        tweets_per_user: 0.5, // retweet traffic is irrelevant here
        drop_rate: 0.05,
        // Strong exogenous hashtag adoption (offline coordination) --
        // the mechanism behind Fig. 9's poor calibration.
        exogenous_rate: 0.06,
        ..Default::default()
    };
    let corpus = generate(&mut rng, &corpus_cfg);
    let omni = NodeId(corpus.graph.node_count() as u32);
    let eps = episodes_for_objects(&corpus, kind, Some(omni));
    // Focus users: most frequent earliest adopters (time 1 after the
    // omnipotent shift).
    let mut origin_counts = vec![0usize; corpus.graph.node_count()];
    for (_, ep) in &eps.episodes {
        for &(v, t) in ep.activations() {
            if v != omni && t == 1 {
                origin_counts[v.index()] += 1;
            }
        }
    }
    let mut ranked: Vec<NodeId> = corpus.graph.nodes().collect();
    ranked.sort_by_key(|v| std::cmp::Reverse(origin_counts[v.index()]));
    let focuses: Vec<NodeId> = ranked
        .into_iter()
        .take(cfg.scaled(4, 2))
        .filter(|v| origin_counts[v.index()] > 0)
        .collect();
    TagContext {
        corpus,
        kind,
        episodes: eps.episodes,
        omni,
        focuses,
    }
}

/// An ego net augmented with a local omnipotent node.
pub struct OmniEgo {
    /// Local graph: ego nodes `0..n`, omnipotent node `n`.
    pub graph: DiGraph,
    /// The underlying ego net.
    pub ego: EgoSubgraph,
    /// Local omnipotent id.
    pub omni_local: NodeId,
}

/// Builds the ego-plus-omnipotent local graph around `focus`.
pub fn omni_ego(graph: &DiGraph, focus: NodeId, radius: usize) -> OmniEgo {
    let ego = ego_subgraph(graph, focus, radius, EgoDirection::Out);
    let n = ego.graph.node_count();
    let omni_local = NodeId(n as u32);
    let mut b = GraphBuilder::new(n + 1);
    for e in ego.graph.edges() {
        let (u, v) = ego.graph.endpoints(e);
        b.add_edge(u, v).expect("copying a valid graph");
    }
    for v in ego.graph.nodes() {
        b.add_edge(omni_local, v).expect("fresh omnipotent edges");
    }
    OmniEgo {
        graph: b.build(),
        ego,
        omni_local,
    }
}

impl OmniEgo {
    /// Remaps a full-graph episode (with the omnipotent user) into the
    /// local numbering, dropping users outside the ego net.
    pub fn localize_episode(&self, ep: &Episode, full_omni: NodeId) -> Episode {
        let mut acts = Vec::new();
        for &(v, t) in ep.activations() {
            if v == full_omni {
                acts.push((self.omni_local, t));
            } else if let Some(local) = self.ego.local_node(v) {
                acts.push((local, t));
            }
        }
        Episode::new(acts)
    }
}

fn small_jb() -> JointBayesConfig {
    JointBayesConfig {
        samples: 150,
        burn_in_sweeps: 150,
        thin_sweeps: 2,
        ..Default::default()
    }
}

/// Trains the local model around one focus and returns the learned
/// edges plus the local real-user node list.
pub fn train_focus_model<R: Rng + ?Sized>(
    ctx: &TagContext,
    oe: &OmniEgo,
    learner: Learner,
    rng: &mut R,
) -> LearnedEdges {
    let local_eps: Vec<Episode> = ctx
        .episodes
        .iter()
        .map(|(_, ep)| oe.localize_episode(ep, ctx.omni))
        .collect();
    train_graph(
        &oe.graph,
        &local_eps,
        TimingAssumption::AnyEarlier,
        learner,
        rng,
    )
}

/// Generates bucket pairs for one (kind, radius, learner) panel.
///
/// When `gaussian_reps > 0`, the Fig. 10 protocol is used: the flow
/// estimates are recomputed `gaussian_reps` times from ICMs whose edges
/// are drawn from the learned Gaussian approximations.
pub fn tag_pairs(
    cfg: &ExpConfig,
    ctx: &TagContext,
    radius: usize,
    learner: Learner,
    gaussian_reps: usize,
    seed_salt: u64,
) -> Vec<PredictionOutcome> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ seed_salt);
    let truth = match ctx.kind {
        ObjectKind::Hashtag => &ctx.corpus.hashtag_truth,
        ObjectKind::Url => &ctx.corpus.url_truth,
    };
    let exo_rate = match ctx.kind {
        ObjectKind::Hashtag => 0.06,
        ObjectKind::Url => 0.0,
    };
    let tests = cfg.scaled(40, 10);
    let mcmc = McmcConfig {
        samples: 500,
        ..Default::default()
    };
    let mut pairs = Vec::new();
    for &focus in &ctx.focuses {
        let oe = omni_ego(&ctx.corpus.graph, focus, radius);
        let n_local = oe.ego.graph.node_count();
        if n_local < 3 || oe.graph.edge_count() > 6_000 {
            continue;
        }
        let learned = train_focus_model(ctx, &oe, learner, &mut rng);
        let locals: Vec<NodeId> = (1..n_local as u32).map(NodeId).collect();
        let reps = gaussian_reps.max(1);
        for _ in 0..reps {
            let icm = if gaussian_reps > 0 {
                learned.sample_gaussian_icm(&oe.graph, &mut rng)
            } else {
                learned.to_icm(&oe.graph)
            };
            let flows =
                FlowEstimator::new(&icm, mcmc).estimate_flows_from(oe.ego.focus, &locals, &mut rng);
            let tests_this_rep = match tests.checked_div(gaussian_reps) {
                Some(per_rep) => per_rep.max(2),
                None => tests,
            };
            for _ in 0..tests_this_rep {
                // Fresh ground-truth adoption cascade, seeded at the
                // focus plus (hashtags) exogenous co-adopters.
                let mut sources = vec![focus];
                for v in ctx.corpus.graph.nodes() {
                    if v != focus && rng.random::<f64>() < exo_rate {
                        sources.push(v);
                    }
                }
                let cascade = simulate_cascade(truth, &sources, &mut rng);
                for (i, &v) in locals.iter().enumerate() {
                    let orig = oe.ego.original_nodes[v.index()];
                    let z = cascade.is_node_active(orig);
                    pairs.push(PredictionOutcome::new(flows[i], z));
                }
            }
        }
    }
    pairs
}

fn run_panels(
    cfg: &ExpConfig,
    out: &Output,
    kind: ObjectKind,
    fig: &str,
) -> std::io::Result<Vec<TagFlowResult>> {
    let ctx = build_tag_context(cfg, kind);
    out.line(format!(
        "{} objects: {}; focus users: {:?}",
        match kind {
            ObjectKind::Url => "URL",
            ObjectKind::Hashtag => "hashtag",
        },
        ctx.episodes.len(),
        ctx.focuses
    ));
    let mut results = Vec::new();
    for radius in [4usize, 5] {
        for (lname, learner) in [
            ("ours", Learner::JointBayes(small_jb())),
            ("goyal", Learner::Goyal),
        ] {
            let label = format!("{fig}_radius{radius}_{lname}");
            let pairs = tag_pairs(
                cfg,
                &ctx,
                radius,
                learner,
                0,
                0xF168_1000 + radius as u64 * 31 + lname.len() as u64,
            );
            let report = BucketReport::build(&pairs, BucketConfig::default());
            out.bucket_report(&label, &report)?;
            results.push(TagFlowResult {
                label,
                report,
                pairs,
            });
        }
    }
    Ok(results)
}

/// Runs Fig. 8 (URLs).
pub fn run_fig8(cfg: &ExpConfig, out: &Output) -> std::io::Result<Vec<TagFlowResult>> {
    out.heading("Fig. 8 — URL flow bucket experiments (radius 4/5, ours vs Goyal)");
    run_panels(cfg, out, ObjectKind::Url, "fig8")
}

/// Runs Fig. 9 (hashtags — expect visibly worse calibration).
pub fn run_fig9(cfg: &ExpConfig, out: &Output) -> std::io::Result<Vec<TagFlowResult>> {
    out.heading("Fig. 9 — hashtag flow bucket experiments (exogenous adoption)");
    let results = run_panels(cfg, out, ObjectKind::Hashtag, "fig9")?;
    out.line(
        "Hashtags enter Twitter from the outside world (coordinated events, common \
         acronyms), so edge-local cascade models misprice their flows — compare the \
         fraction-within-CI against Fig. 8.",
    );
    Ok(results)
}

/// Runs Fig. 10 (URL, radius 4, ours, 30 Gaussian-sampled repetitions).
pub fn run_fig10(cfg: &ExpConfig, out: &Output) -> std::io::Result<TagFlowResult> {
    out.heading("Fig. 10 — bucket experiment with Gaussian edge-uncertainty sampling (30 reps)");
    let ctx = build_tag_context(cfg, ObjectKind::Url);
    let reps = cfg.scaled(30, 10);
    let pairs = tag_pairs(
        cfg,
        &ctx,
        4,
        Learner::JointBayes(small_jb()),
        reps,
        0xF168_2000,
    );
    let report = BucketReport::build(&pairs, BucketConfig::default());
    out.bucket_report("fig10_gaussian", &report)?;
    out.line(
        "Sampling edges from their posterior Gaussians smooths the flow estimates \
         (fewer extreme predictions; fewer points per bucket).",
    );
    Ok(TagFlowResult {
        label: "fig10_gaussian".to_string(),
        report,
        pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            scale: 0.0,
            seed: 8,
        }
    }

    #[test]
    fn context_has_episodes_and_focuses() {
        let ctx = build_tag_context(&tiny(), ObjectKind::Url);
        assert!(!ctx.episodes.is_empty());
        assert!(!ctx.focuses.is_empty());
        // Every episode has the omnipotent user at time 0.
        for (_, ep) in &ctx.episodes {
            assert_eq!(ep.activation_time(ctx.omni), Some(0));
        }
    }

    #[test]
    fn omni_ego_structure() {
        let ctx = build_tag_context(&tiny(), ObjectKind::Url);
        let oe = omni_ego(&ctx.corpus.graph, ctx.focuses[0], 2);
        let n = oe.ego.graph.node_count();
        assert_eq!(oe.graph.node_count(), n + 1);
        assert_eq!(oe.graph.out_degree(oe.omni_local), n);
        assert_eq!(oe.graph.in_degree(oe.omni_local), 0);
    }

    #[test]
    fn localize_episode_maps_and_filters() {
        let ctx = build_tag_context(&tiny(), ObjectKind::Url);
        let oe = omni_ego(&ctx.corpus.graph, ctx.focuses[0], 1);
        let (_, ep) = &ctx.episodes[0];
        let local = oe.localize_episode(ep, ctx.omni);
        assert_eq!(local.activation_time(oe.omni_local), Some(0));
        assert!(local.active_count() <= ep.active_count());
        for &(v, _) in local.activations() {
            assert!(v.index() <= oe.ego.graph.node_count());
        }
    }

    #[test]
    fn url_pairs_generate_with_valid_probabilities() {
        let cfg = tiny();
        let ctx = build_tag_context(&cfg, ObjectKind::Url);
        let pairs = tag_pairs(&cfg, &ctx, 4, Learner::Goyal, 0, 99);
        assert!(pairs.len() > 50, "got {}", pairs.len());
        assert!(pairs.iter().all(|p| (0.0..=1.0).contains(&p.prediction)));
        assert!(pairs.iter().any(|p| p.outcome));
        assert!(pairs.iter().any(|p| !p.outcome));
    }
}

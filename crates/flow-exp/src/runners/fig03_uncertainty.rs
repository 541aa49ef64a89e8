//! Fig. 3: does the trained betaICM capture the uncertainty in the
//! evidence?
//!
//! For selected (frequent source, nearby sink) pairs, the paper compares
//! two distributions over the flow probability:
//!
//! * the **empirical Beta** trained directly on the evidence — among
//!   the source's objects, how often did the sink activate; and
//! * the **nested Metropolis–Hastings** distribution — ~100 point ICMs
//!   sampled from the betaICM, each yielding one MH flow estimate.
//!
//! "These comparisons show that the uncertainty in the original
//! evidence is captured very effectively in the model."

use crate::ascii;
use crate::output::Output;
use crate::runners::fig02_attributed::{build_context, ego_beta_icm, AttributedContext};
use crate::runners::ExpConfig;
use flow_graph::traverse::{ego_subgraph, EgoDirection};
use flow_graph::NodeId;
use flow_mcmc::{McmcConfig, NestedConfig, NestedSampler};
use flow_stats::Beta;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One source/sink uncertainty comparison.
#[derive(Clone, Debug)]
pub struct UncertaintyCase {
    /// Source user (corpus id).
    pub source: NodeId,
    /// Sink user (corpus id).
    pub sink: NodeId,
    /// Empirical Beta from the raw evidence (α = 1+k, β = 1+n−k).
    pub empirical: Beta,
    /// Flow-probability samples from nested MH.
    pub samples: Vec<f64>,
    /// Moment-matched Beta over those samples (the paper's dashed line).
    pub fitted: Option<Beta>,
}

/// Finds (source, sink) pairs with plenty of evidence: sources among
/// the focus users, sinks their direct successors, ranked by how many
/// objects the source originated.
fn select_cases(ctx: &AttributedContext, want: usize) -> Vec<(NodeId, NodeId, u64, u64)> {
    let graph = &ctx.corpus.graph;
    let mut cases = Vec::new();
    for &source in &ctx.focuses {
        for &e in graph.out_edges(source) {
            let sink = graph.dst(e);
            // Empirical counts over the training evidence: objects the
            // source originated, split by sink activity.
            let mut n = 0u64;
            let mut k = 0u64;
            for t in &ctx.corpus.tweets {
                if t.is_original() && t.author == source {
                    n += 1;
                    let root = t.id;
                    if ctx
                        .corpus
                        .tweets
                        .iter()
                        .any(|rt| rt.true_root == root && rt.author == sink && rt.visible)
                    {
                        k += 1;
                    }
                }
            }
            if n >= 8 {
                cases.push((source, sink, n, k));
            }
        }
    }
    cases.sort_by_key(|&(_, _, n, _)| std::cmp::Reverse(n));
    cases.truncate(want);
    cases
}

/// Runs Fig. 3.
pub fn run_fig3(cfg: &ExpConfig, out: &Output) -> std::io::Result<Vec<UncertaintyCase>> {
    out.heading("Fig. 3 — uncertainty capture: nested MH vs empirical Beta");
    let ctx = build_context(cfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF163_0000);
    let cases = select_cases(&ctx, 2);
    let mut results = Vec::new();
    for (source, sink, n, k) in cases {
        let empirical = Beta::from_counts(k, n - k);
        // Nested sampling on the radius-2 ego model around the source.
        let ego = ego_subgraph(&ctx.corpus.graph, source, 2, EgoDirection::Out);
        let Some(local_sink) = ego.local_node(sink) else {
            continue;
        };
        let sub = ego_beta_icm(&ctx.trained, &ego);
        let nested = NestedSampler::new(
            &sub,
            NestedConfig {
                outer_samples: cfg.scaled(100, 60),
                inner: McmcConfig {
                    samples: 300,
                    ..Default::default()
                },
            },
        );
        let dist = nested.flow_probability_distribution(ego.focus, local_sink, &mut rng);
        out.line(format!(
            "source {source} -> sink {sink}: empirical Beta({:.0}, {:.0}) mean {:.3}; \
             nested MH mean {:.3} sd {:.3} over {} sampled ICMs",
            empirical.alpha(),
            empirical.beta(),
            empirical.mean(),
            dist.mean(),
            dist.std_dev(),
            dist.samples.len()
        ));
        // Histogram of the sampled flow probabilities.
        let mut hist = flow_stats::Histogram::new(0.0, 1.0, 20);
        for &s in &dist.samples {
            hist.push(s);
        }
        let bins: Vec<(String, u64)> = hist.iter().map(|(c, n)| (format!("{c:.3}"), n)).collect();
        out.line(ascii::histogram(&bins, 40, "  sampled flow probabilities:"));
        let fitted = dist.moment_matched_beta();
        if let Some(f) = &fitted {
            out.line(format!(
                "  moment-matched Beta({:.1}, {:.1})",
                f.alpha(),
                f.beta()
            ));
        }
        out.csv(
            &format!("fig3_{source}_{sink}"),
            &["sample"],
            &dist
                .samples
                .iter()
                .map(|s| vec![format!("{s}")])
                .collect::<Vec<_>>(),
        )?;
        results.push(UncertaintyCase {
            source,
            sink,
            empirical,
            samples: dist.samples,
            fitted,
        });
    }
    if results.is_empty() {
        out.line("(no source/sink pair had enough evidence at this scale)");
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncertainty_is_captured_end_to_end() {
        let cfg = ExpConfig {
            scale: 0.0,
            seed: 5,
        };
        let out = Output::stdout_only();
        let cases = run_fig3(&cfg, &out).unwrap();
        assert!(!cases.is_empty(), "fixture scale should yield cases");
        for c in &cases {
            assert!(!c.samples.is_empty());
            // The nested mean should land within a loose band around the
            // empirical mean (both estimate the same flow probability;
            // multi-path flow makes the model mean slightly higher).
            let model_mean = c.samples.iter().sum::<f64>() / c.samples.len() as f64;
            assert!(
                (model_mean - c.empirical.mean()).abs() < 0.3,
                "model {model_mean} vs empirical {}",
                c.empirical.mean()
            );
        }
    }
}

//! # infoflow — Learning Stochastic Models of Information Flow
//!
//! A Rust reproduction of *“Learning Stochastic Models of Information
//! Flow”* (Dickens, Molloy, Lobo, Cheng, Russo — ICDE 2012).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`graph`] — directed-graph substrate (ids, bitsets, generators,
//!   traversal, ego subgraphs).
//! * [`stats`] — distributions (Beta/Gamma/Binomial/Normal), special
//!   functions, weighted sampling trees, and the accuracy metrics of the
//!   paper's Table III.
//! * [`icm`] — the Independent Cascade Model: point-probability ICMs,
//!   pseudo-/active-state semantics, exact flow evaluation, cascade
//!   simulation, the betaICM, and attributed-evidence training.
//! * [`mcmc`] — Metropolis–Hastings flow sampling: marginal and
//!   conditional pseudo-state chains, flow estimators (end-to-end,
//!   joint, source-to-community, dispersion), and nested MH for
//!   uncertainty over flow probabilities.
//! * [`learn`] — learning from unattributed evidence: evidence
//!   summaries, the joint-Bayes MCMC learner, and the Goyal, Saito-EM
//!   and filtered baselines.
//! * [`rwr`] — the random-walk-with-restart baseline.
//! * [`twitter`] — a synthetic Twitter substrate (corpus generation,
//!   retweet-chain reconstruction, hashtag/URL episodes) standing in for
//!   the paper's Choudhury et al. crawl.
//! * [`exp`] — the bucket-experiment calibration harness and the
//!   runners that regenerate every figure and table of the paper.
//!
//! ## Quickstart
//!
//! ```
//! use infoflow::graph::{GraphBuilder, NodeId};
//! use infoflow::icm::Icm;
//! use infoflow::mcmc::{FlowEstimator, McmcConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // The paper's 3-node example: v1 -> v2, v1 -> v3, v2 -> v3.
//! let mut b = GraphBuilder::new(3);
//! let e12 = b.add_edge(NodeId(0), NodeId(1)).unwrap();
//! let e13 = b.add_edge(NodeId(0), NodeId(2)).unwrap();
//! let e23 = b.add_edge(NodeId(1), NodeId(2)).unwrap();
//! let mut icm = Icm::with_uniform_probability(b.build(), 0.5);
//! icm.set_probability(e12, 0.6);
//! icm.set_probability(e13, 0.3);
//! icm.set_probability(e23, 0.8);
//!
//! // Exact: Pr[v1 ~> v3] = 1 - (1 - 0.6*0.8)(1 - 0.3)
//! let exact = icm.exact_flow_probability(NodeId(0), NodeId(2));
//! assert!((exact - (1.0 - (1.0 - 0.48) * 0.7)).abs() < 1e-12);
//!
//! // Approximate by Metropolis-Hastings pseudo-state sampling.
//! let mut rng = StdRng::seed_from_u64(42);
//! let est = FlowEstimator::new(&icm, McmcConfig::default())
//!     .estimate_flow(NodeId(0), NodeId(2), &mut rng);
//! assert!((est - exact).abs() < 0.05);
//! ```

pub use flow_exp as exp;
pub use flow_graph as graph;
pub use flow_icm as icm;
pub use flow_learn as learn;
pub use flow_mcmc as mcmc;
pub use flow_obs as obs;
pub use flow_rwr as rwr;
pub use flow_serve as serve;
pub use flow_stats as stats;
pub use flow_stream as stream;
pub use flow_twitter as twitter;

/// One-import surface for the model → serve → stream workflow.
///
/// ```
/// use infoflow::prelude::*;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(1)).expect("simple edge");
/// b.add_edge(NodeId(1), NodeId(2)).expect("simple edge");
/// let icm = Icm::with_uniform_probability(b.build(), 0.5);
/// let mut engine = ServeEngine::builder()
///     .config(ServeConfig::default())
///     .build()
///     .expect("default config is valid");
/// let outcomes = engine.execute_batch(&icm, &[FlowQuery::flow(NodeId(0), NodeId(2))]);
/// assert!(matches!(outcomes[0], QueryOutcome::Answered(_)));
/// ```
pub mod prelude {
    pub use flow_core::{FlowError, FlowResult};
    pub use flow_graph::{DiGraph, EdgeId, GraphBuilder, NodeId};
    pub use flow_icm::{FlowCondition, Icm};
    pub use flow_mcmc::McmcConfig;
    pub use flow_obs::Recorder;
    pub use flow_serve::{
        Answer, EngineBuilder, FlowQuery, QueryOutcome, ServeConfig, ServeEngine,
    };
    pub use flow_stream::{IngestConfig, Ingestor, ModelRegistry};
}

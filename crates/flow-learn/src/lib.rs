//! Learning ICM edge probabilities from **unattributed** evidence (§V).
//!
//! Unattributed evidence records *when* nodes became active for each
//! information object but not *which parent caused it*. The paper's key
//! observation is that, per sink `k`, the evidence reduces to a
//! *summary* — for each distinct **characteristic** `J` (the set of
//! candidate parents active before `k`'s decision), the number of times
//! `n_J` it was observed and the number of leaks `L_J` (times `k`
//! activated). The summary is a sufficient statistic: the likelihood is
//! a product of Binomials `L_J ~ Bin(n_J, p_{J,k})` with
//! `p_{J,k} = 1 − Π_{j∈J}(1 − p_{j,k})` (Eq. 9).
//!
//! Four learners share that machinery:
//!
//! * [`JointBayes`] — the paper's contribution: posterior sampling over
//!   the joint edge-probability vector by Metropolis–Hastings, with Beta
//!   priors absorbed from the unambiguous (single-parent) rows. Yields
//!   uncertainty (and correlations) over edge probabilities.
//! * [`goyal`] — Goyal et al.'s credit heuristic: each active parent
//!   shares credit for an activation equally.
//! * [`saito`] — Saito et al.'s expectation-maximization, both the
//!   original discrete-time attribution window and the paper's modified
//!   any-earlier window, run on summaries (the Appendix's E/M steps),
//!   with random restarts for multimodal posteriors (Fig. 11).
//! * [`filtered_betas`] — the attributed counting rule applied to unambiguous
//!   rows only, discarding ambiguous evidence.
//!
//! [`graph_train`] lifts the per-sink learners to whole graphs, and
//! [`fixtures`] reproduces the paper's Table I and Table II example
//! summaries.

pub mod fixtures;
pub mod goyal;
pub mod graph_train;
pub mod joint_bayes;
pub mod predictive;
pub mod saito;
pub mod summary;
pub mod synthetic;

pub use goyal::goyal_credit;
pub use graph_train::{train_graph, LearnedEdges, Learner};
pub use joint_bayes::{EdgePosterior, JointBayes, JointBayesConfig};
pub use predictive::{posterior_predictive_check, PredictiveCheck};
pub use saito::{saito_em, SaitoConfig, TimingAssumption};
pub use summary::{filtered_betas, Episode, SinkSummary, SinkTables, SummaryRow};

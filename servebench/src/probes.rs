//! Untimed correctness probes on small models (at most 24 edges), with
//! the workload's engine configuration: each probe answer's reported
//! 95% interval is checked against the exact probability from
//! `flow_icm::exact` enumeration. On live-sharded the probes also
//! straddle a model swap, and every answer after it must agree with
//! the new model.

use crate::inputs::{self, EvidenceWriter};
use crate::stack::{self, answer_bits, AnswerBits, FRESH};
use crate::trace::Tracer;
use crate::workload::{Spec, Workload};
use flow_graph::generate::uniform_edges;
use flow_graph::graph::graph_from_edges;
use flow_graph::{DiGraph, NodeId};
use flow_icm::exact::{enumerate_conditional_probability, enumerate_event_probability};
use flow_icm::{FlowCondition, Icm, PseudoState};
use flow_serve::{FlowQuery, ServeEngine, SharedTarget};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// Small models per run.
const MODELS: usize = 32;
/// Nodes and edges of a cold probe model.
const SMALL_NODES: usize = 8;
const SMALL_EDGES: usize = 11;
/// Nodes and edges per community of a live probe model (4 × 6 = 24).
const LIVE_NODES: usize = 5;
const LIVE_EDGES: usize = 6;
/// Bootstrap and update cascades of a live probe model.
const LIVE_BOOTSTRAP: usize = 300;
const LIVE_UPDATE: usize = 200;

/// What the probes found.
#[derive(Clone, Debug, Default)]
pub struct Probes {
    /// Probe answers checked.
    pub answers: u64,
    /// Answers whose interval contains the exact value.
    pub covered: u64,
    /// Answers outside [0, 1] or with a non-finite half-width, and
    /// queries not answered.
    pub invalid: u64,
    /// Live only: answers after a swap for a changed community that
    /// did not come from fresh sampling on the new model.
    pub stale: u64,
    /// Live only: answers checked after a swap.
    pub after_swap: u64,
    /// Live only: of those, answers whose interval contains the new
    /// model's exact value.
    pub after_swap_covered: u64,
    /// First few failures, for the run record.
    pub notes: Vec<String>,
}

impl Probes {
    /// The coverage share.
    pub fn coverage(&self) -> f64 {
        self.covered as f64 / self.answers.max(1) as f64
    }

    /// The share of post-swap answers covering the new exact value.
    pub fn after_swap_coverage(&self) -> f64 {
        self.after_swap_covered as f64 / self.after_swap.max(1) as f64
    }

    /// Checks one answer against its exact value; true when covered.
    fn check(&mut self, what: &str, a: &AnswerBits, exact: f64) -> bool {
        self.answers += 1;
        if !a.answered() || !a.in_range() {
            self.invalid += 1;
            self.note(format!("{what}: unanswered or out of range: {a:?}"));
            return false;
        }
        let estimate = f64::from_bits(a.estimate);
        let covered = (estimate - exact).abs() <= f64::from_bits(a.half_width);
        self.covered += u64::from(covered);
        covered
    }

    fn note(&mut self, what: String) {
        if self.notes.len() < 6 {
            self.notes.push(what);
        }
    }
}

fn small_icm(graph: DiGraph, rng: &mut StdRng) -> Icm {
    let probs = (0..graph.edge_count())
        .map(|_| rng.random_range(0.1..0.9))
        .collect();
    Icm::new(graph, probs)
}

fn reaches_all(graph: &DiGraph, x: &PseudoState, source: NodeId, targets: &[NodeId]) -> bool {
    targets.iter().all(|&t| x.carries_flow(graph, source, t))
}

fn holds(graph: &DiGraph, x: &PseudoState, conditions: &[FlowCondition]) -> bool {
    conditions
        .iter()
        .all(|c| x.carries_flow(graph, c.source, c.sink) == c.required)
}

/// Exact answer to a probe query (conditional when it has conditions);
/// `None` when its conditions have probability zero.
fn exact(icm: &Icm, q: &FlowQuery) -> Option<f64> {
    let graph = icm.graph();
    let targets: Vec<NodeId> = match &q.target {
        SharedTarget::Sink(s) => vec![*s],
        SharedTarget::Community(m) => m.clone(),
    };
    let event = |x: &PseudoState| reaches_all(graph, x, q.source, &targets);
    if q.conditions.is_empty() {
        Some(enumerate_event_probability(icm, event))
    } else {
        enumerate_conditional_probability(icm, event, |x| holds(graph, x, &q.conditions))
    }
}

/// Probe queries on one small model, in the workload's shape: per
/// source every reachable sink plus one community of two reachable
/// nodes; on cold-conditioned each source's group carries conditions.
fn probe_queries(truth: &Icm, conditioned: bool, rng: &mut StdRng) -> Vec<FlowQuery> {
    let graph = truth.graph();
    let mut queries = Vec::new();
    for s in graph.nodes() {
        let reach = inputs::reach_of(graph, s);
        if reach.len() < 2 {
            continue;
        }
        let conditions = if conditioned {
            inputs::conditions_for(graph, s, &reach, rng)
        } else {
            Vec::new()
        };
        for &t in &reach {
            queries.push(FlowQuery {
                conditions: conditions.clone(),
                ..FlowQuery::flow(s, t)
            });
        }
        queries.push(FlowQuery {
            target: SharedTarget::Community(reach[..2].to_vec()),
            conditions,
            ..FlowQuery::flow(s, s)
        });
    }
    queries
}

/// Runs the probes for `spec`; `store` is a scratch snapshot directory.
pub fn run(spec: &Spec, store: &Path) -> Result<Probes, String> {
    let mut rng = StdRng::seed_from_u64(inputs::stream_seed(spec.seed, 7));
    let mut probes = Probes::default();
    for k in 0..MODELS {
        match spec.workload {
            Workload::LiveSharded => live_model(
                spec,
                k,
                &mut rng,
                &store.join(format!("probe-{k}")),
                &mut probes,
            )?,
            w => {
                let truth = small_icm(uniform_edges(&mut rng, SMALL_NODES, SMALL_EDGES), &mut rng);
                let queries = probe_queries(&truth, w == Workload::ColdConditioned, &mut rng);
                let mut engine = ServeEngine::builder()
                    .config(spec.config())
                    .build()
                    .map_err(|e| e.to_string())?;
                let out = engine.execute_batch(&truth, &queries);
                for (q, o) in queries.iter().zip(&out) {
                    if let Some(p) = exact(&truth, q) {
                        probes.check(w.name(), &answer_bits(o), p);
                    }
                }
            }
        }
    }
    Ok(probes)
}

/// The exact answer to a within-community query, enumerated on that
/// community's own edges (the other communities are independent of
/// it), built directly from the served model's probabilities.
fn community_exact(served: &Icm, q: &FlowQuery) -> Option<f64> {
    let graph = served.graph();
    let c = q.source.index() / LIVE_NODES;
    let base = (c * LIVE_NODES) as u32;
    let mut edges = Vec::new();
    let mut probs = Vec::new();
    for e in graph.edges() {
        let (u, v) = graph.endpoints(e);
        if u.index() / LIVE_NODES == c {
            edges.push((u.0 - base, v.0 - base));
            probs.push(served.probability(e));
        }
    }
    let local = Icm::new(graph_from_edges(LIVE_NODES, &edges), probs);
    let shift = |v: NodeId| NodeId(v.0 - base);
    let local_q = FlowQuery {
        source: shift(q.source),
        target: match &q.target {
            SharedTarget::Sink(s) => SharedTarget::Sink(shift(*s)),
            SharedTarget::Community(m) => {
                SharedTarget::Community(m.iter().map(|&v| shift(v)).collect())
            }
        },
        ..q.clone()
    };
    exact(&local, &local_q)
}

/// One live probe model: learn it through flow-stream, serve it
/// sharded, swap in an epoch that changes one community, and check the
/// answers on both sides of the swap.
fn live_model(
    spec: &Spec,
    k: usize,
    rng: &mut StdRng,
    store: &Path,
    probes: &mut Probes,
) -> Result<(), String> {
    let mut builder = flow_graph::GraphBuilder::new(inputs::COMMUNITIES * LIVE_NODES);
    for c in 0..inputs::COMMUNITIES {
        let sub = uniform_edges(rng, LIVE_NODES, LIVE_EDGES);
        for e in sub.edges() {
            let (u, v) = sub.endpoints(e);
            let base = (c * LIVE_NODES) as u32;
            builder
                .add_edge(NodeId(base + u.0), NodeId(base + v.0))
                .map_err(|e| format!("{e:?}"))?;
        }
    }
    let truth = small_icm(builder.build(), rng);
    let graph = truth.graph().clone();
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let mut writer = EvidenceWriter::new(spec.seed ^ k as u64, 8);
    let mut log = vec![EvidenceWriter::header(&graph)];
    log.extend(writer.cascades(&truth, &nodes, LIVE_BOOTSTRAP));
    let local = |v: NodeId| v.index() / LIVE_NODES;
    let queries: Vec<FlowQuery> = graph
        .nodes()
        .flat_map(|s| {
            inputs::reach_of(&graph, s)
                .into_iter()
                .map(move |t| FlowQuery::flow(s, t))
        })
        .collect();
    let mut stack = stack::bootstrap(&log, spec.config(), store, &mut Tracer::off())?;
    let before = stack.engine.execute_batch(&stack.icm, &queries);
    for (q, o) in queries.iter().zip(&before) {
        if let Some(p) = community_exact(&stack.icm, q) {
            probes.check("live before swap", &answer_bits(o), p);
        }
    }

    // The update: the changed community's edges now fire with 1 - p.
    let changed = k % inputs::COMMUNITIES;
    let mut shifted = truth.clone();
    for e in graph.edges() {
        if local(graph.src(e)) == changed {
            shifted.set_probability(e, 1.0 - truth.probability(e));
        }
    }
    let seeds: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|&v| local(v) == changed)
        .collect();
    let lines = writer.cascades(&shifted, &seeds, LIVE_UPDATE);
    stack.apply_epoch(&lines, &mut Tracer::off())?;
    let after = stack.engine.execute_batch(&stack.icm, &queries);
    for (q, o) in queries.iter().zip(&after) {
        let a = answer_bits(o);
        if local(q.source) == changed && a.path != FRESH {
            probes.stale += 1;
            probes.note(format!(
                "live after swap: changed-community answer served from path {}",
                a.path
            ));
        }
        if let Some(p) = community_exact(&stack.icm, q) {
            probes.after_swap += 1;
            let covered = probes.check("live after swap", &a, p);
            probes.after_swap_covered += u64::from(covered);
        }
    }
    std::fs::remove_dir_all(store).ok();
    Ok(())
}

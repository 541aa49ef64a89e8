//! Seeded inputs: ground-truth models, evidence logs and request
//! sequences, all generated before any timing starts. The ground truth
//! (topology and edge probabilities) is part of each workload's
//! definition and comes from a fixed seed; the evidence simulated from
//! it, the requests and the engine seed come from the run seed.

use flow_graph::generate::uniform_edges;
use flow_graph::{reachable, DiGraph, GraphBuilder, NodeId};
use flow_icm::{FlowCondition, Icm};
use flow_serve::{FlowQuery, SharedTarget};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Seed of the fixed ground truths (the same model on every run seed).
const TRUTH_SEED: u64 = 0x5eed_70b0;

/// Cold workloads: nodes and edges of the single-community model.
pub const COLD_NODES: usize = 300;
/// Cold workloads: edges of the single-community model.
pub const COLD_EDGES: usize = 600;
/// Cold workloads: distinct sources per batch (one chain each).
pub const COLD_SOURCES_PER_BATCH: usize = 2;
/// Cold workloads: single-sink targets per source.
pub const COLD_SINKS_PER_SOURCE: usize = 5;
/// Cold workloads: members of the one community target per source.
pub const COMMUNITY_SIZE: usize = 3;
/// Cold workloads: batches per run (p90 keeps ten batches beyond it).
pub const COLD_BATCHES: usize = 100;

/// Live-sharded: communities (= shards).
pub const COMMUNITIES: usize = 4;
/// Live-sharded: nodes per community.
pub const COMMUNITY_NODES: usize = 75;
/// Live-sharded: edges per community.
pub const COMMUNITY_EDGES: usize = 150;
/// Live-sharded: hot sources per community.
pub const HOT_SOURCES: usize = 4;
/// Live-sharded: hot sinks per hot source.
pub const HOT_SINKS: usize = 6;
/// Live-sharded: Zipf draws per community in every batch.
pub const DRAWS_PER_COMMUNITY: usize = 50;
/// Live-sharded: no-path keys (pairs in different communities).
pub const NO_PATH_KEYS: usize = 8;
/// Live-sharded: no-path queries in every batch.
pub const NO_PATH_PER_BATCH: usize = 1;
/// Live-sharded: Zipf exponent over each community's hot keys.
pub const ZIPF_S: f64 = 1.0;
/// Live-sharded: share of reads asking the tight tolerance.
pub const TIGHT_SHARE: f64 = 0.05;
/// Live-sharded: the tight tolerance (the engine default is looser).
pub const TIGHT_TOLERANCE: f64 = 0.03;

/// Cascades in the bootstrap evidence log.
pub const BOOTSTRAP_CASCADES: usize = 10_000;
/// Cascades per update epoch.
pub const EPOCH_CASCADES: usize = 12;

/// Deterministic sub-seed for one input stream of a run.
pub fn stream_seed(seed: u64, domain: u64) -> u64 {
    flow_serve::mix64(seed, domain)
}

fn rng_for(seed: u64, domain: u64) -> StdRng {
    StdRng::seed_from_u64(stream_seed(seed, domain))
}

/// The cold workloads' ground truth.
pub fn cold_truth() -> Icm {
    let mut rng = StdRng::seed_from_u64(TRUTH_SEED);
    let graph = uniform_edges(&mut rng, COLD_NODES, COLD_EDGES);
    with_random_probabilities(graph, &mut rng)
}

/// The live workload's ground truth: `COMMUNITIES` disjoint uniform
/// communities (each its own weak component, so the partitioner keeps
/// it whole on one shard).
pub fn live_truth() -> Icm {
    let mut topo = StdRng::seed_from_u64(TRUTH_SEED ^ 0x11);
    let mut builder = GraphBuilder::new(COMMUNITIES * COMMUNITY_NODES);
    for c in 0..COMMUNITIES {
        let sub = uniform_edges(&mut topo, COMMUNITY_NODES, COMMUNITY_EDGES);
        let base = (c * COMMUNITY_NODES) as u32;
        for e in sub.edges() {
            let (u, v) = sub.endpoints(e);
            builder
                .add_edge(NodeId(base + u.0), NodeId(base + v.0))
                .expect("community edges are distinct by construction");
        }
    }
    with_random_probabilities(builder.build(), &mut topo)
}

fn with_random_probabilities(graph: DiGraph, rng: &mut StdRng) -> Icm {
    let probs = (0..graph.edge_count())
        .map(|_| rng.random_range(0.05..0.6))
        .collect();
    Icm::new(graph, probs)
}

/// Evidence-log writer: simulates independent cascades on a ground
/// truth and renders them as flow-stream JSONL lines. Cascade ids keep
/// increasing across calls, so later epochs are never late.
pub struct EvidenceWriter {
    rng: StdRng,
    next_cascade: u64,
}

impl EvidenceWriter {
    /// A writer for one run seed.
    pub fn new(seed: u64, domain: u64) -> Self {
        EvidenceWriter {
            rng: rng_for(seed, domain),
            next_cascade: 1,
        }
    }

    /// The graph header line that starts a log.
    pub fn header(graph: &DiGraph) -> String {
        let edges: Vec<String> = graph
            .edges()
            .map(|e| {
                let (u, v) = graph.endpoints(e);
                format!("[{},{}]", u.0, v.0)
            })
            .collect();
        format!(
            r#"{{"graph": {{"nodes": {}, "edges": [{}]}}}}"#,
            graph.node_count(),
            edges.join(",")
        )
    }

    /// `cascades` cascades seeded uniformly among `seeds`. Half keep
    /// their attributions; the rest are unattributed observations.
    pub fn cascades(&mut self, truth: &Icm, seeds: &[NodeId], cascades: usize) -> Vec<String> {
        let mut lines = Vec::new();
        for _ in 0..cascades {
            let source = *seeds.choose(&mut self.rng).expect("seed set is non-empty");
            let attributed = self.rng.random_bool(0.5);
            self.cascade(truth, source, attributed, &mut lines);
        }
        lines
    }

    fn cascade(&mut self, truth: &Icm, source: NodeId, attributed: bool, out: &mut Vec<String>) {
        let graph = truth.graph();
        let id = self.next_cascade;
        self.next_cascade += 1;
        let mut time = vec![u32::MAX; graph.node_count()];
        time[source.index()] = 0;
        out.push(format!(
            r#"{{"cascade": {id}, "node": {}, "t": 0}}"#,
            source.0
        ));
        let mut frontier = std::collections::VecDeque::from([source]);
        while let Some(u) = frontier.pop_front() {
            let t = time[u.index()] + 1;
            for &e in graph.out_edges(u) {
                let v = graph.dst(e);
                if time[v.index()] != u32::MAX || !self.rng.random_bool(truth.probability(e)) {
                    continue;
                }
                time[v.index()] = t;
                frontier.push_back(v);
                out.push(if attributed {
                    format!(
                        r#"{{"cascade": {id}, "node": {}, "t": {t}, "parent": {}}}"#,
                        v.0, u.0
                    )
                } else {
                    format!(r#"{{"cascade": {id}, "node": {}, "t": {t}}}"#, v.0)
                });
            }
        }
    }
}

/// Nodes reachable from `v` in the graph, `v` excluded, ascending.
pub fn reach_of(graph: &DiGraph, v: NodeId) -> Vec<NodeId> {
    let r = reachable(graph, &[v]);
    graph.nodes().filter(|&u| u != v && r.contains(u)).collect()
}

fn distinct<R: Rng>(pool: &[NodeId], k: usize, rng: &mut R) -> Vec<NodeId> {
    let mut p = pool.to_vec();
    p.shuffle(rng);
    p.truncate(k);
    p
}

/// One source's group of queries (they share a chain).
fn group(
    source: NodeId,
    sinks: &[NodeId],
    community: Vec<NodeId>,
    conditions: &[FlowCondition],
) -> Vec<FlowQuery> {
    let mut queries: Vec<FlowQuery> = sinks
        .iter()
        .map(|&sink| FlowQuery {
            conditions: conditions.to_vec(),
            ..FlowQuery::flow(source, sink)
        })
        .collect();
    queries.push(FlowQuery {
        target: SharedTarget::Community(community),
        conditions: conditions.to_vec(),
        ..FlowQuery::flow(source, source)
    });
    queries
}

/// cold-plain: every batch asks `COLD_SOURCES_PER_BATCH` sources never
/// asked before in the run, each about `COLD_SINKS_PER_SOURCE` uniform
/// sinks and one uniform community.
pub fn cold_plain_batches(graph: &DiGraph, seed: u64, batches: usize) -> Vec<Vec<FlowQuery>> {
    let mut rng = rng_for(seed, 3);
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let mut sources = nodes.clone();
    sources.shuffle(&mut rng);
    assert!(
        sources.len() >= batches * COLD_SOURCES_PER_BATCH,
        "not enough distinct sources for {batches} batches"
    );
    sources
        .chunks(COLD_SOURCES_PER_BATCH)
        .take(batches)
        .map(|chunk| {
            chunk
                .iter()
                .flat_map(|&s| {
                    let others: Vec<NodeId> = nodes.iter().copied().filter(|&v| v != s).collect();
                    let sinks = distinct(&others, COLD_SINKS_PER_SOURCE, &mut rng);
                    let community = distinct(&others, COMMUNITY_SIZE, &mut rng);
                    group(s, &sinks, community, &[])
                })
                .collect()
        })
        .collect()
}

/// Hop distances from `from` (`u32::MAX` where unreachable).
fn hops(graph: &DiGraph, from: NodeId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; graph.node_count()];
    dist[from.index()] = 0;
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(u) = queue.pop_front() {
        for v in graph.successors(u) {
            if dist[v.index()] == u32::MAX {
                dist[v.index()] = dist[u.index()] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Conditions for one conditioned group: a required flow to a
/// reachable node `r`, plus a forbidden flow to a node `z` on no
/// shortest path to `r` whenever the source reaches one. That keeps the
/// pair satisfiable on every model over the graph: a state holding one
/// shortest path to `r` and nothing else satisfies both, and it is the
/// state the sampler's initial path repair builds. Adding the forbidden
/// flow whenever one exists (rather than by a coin flip) keeps the
/// amount of condition work nearly the same from seed to seed.
pub fn conditions_for<R: Rng>(
    graph: &DiGraph,
    source: NodeId,
    reach: &[NodeId],
    rng: &mut R,
) -> Vec<FlowCondition> {
    let r = *reach.choose(rng).expect("eligible sources reach something");
    let mut conditions = vec![FlowCondition::requires(source, r)];
    let from_source = hops(graph, source);
    let off_path: Vec<NodeId> = reach
        .iter()
        .copied()
        .filter(|&z| {
            let via = u64::from(from_source[z.index()]) + u64::from(hops(graph, z)[r.index()]);
            z != r && via > u64::from(from_source[r.index()])
        })
        .collect();
    if let Some(&z) = off_path.choose(rng) {
        conditions.push(FlowCondition::forbids(source, z));
    }
    conditions
}

/// cold-conditioned: the cold-plain shape over never-asked sources,
/// with every sink reachable and every group conditioned.
pub fn cold_conditioned_batches(truth: &Icm, seed: u64, batches: usize) -> Vec<Vec<FlowQuery>> {
    let graph = truth.graph();
    let mut rng = rng_for(seed, 4);
    let mut sources: Vec<NodeId> = graph
        .nodes()
        .filter(|&v| reach_of(graph, v).len() >= COLD_SINKS_PER_SOURCE)
        .collect();
    sources.shuffle(&mut rng);
    assert!(
        sources.len() >= batches * COLD_SOURCES_PER_BATCH,
        "only {} eligible sources for {batches} conditioned batches",
        sources.len()
    );
    sources
        .chunks(COLD_SOURCES_PER_BATCH)
        .take(batches)
        .map(|chunk| {
            chunk
                .iter()
                .flat_map(|&s| {
                    let reach = reach_of(graph, s);
                    let conditions = conditions_for(graph, s, &reach, &mut rng);
                    let sinks = distinct(&reach, COLD_SINKS_PER_SOURCE, &mut rng);
                    let community = distinct(&reach, COMMUNITY_SIZE, &mut rng);
                    group(s, &sinks, community, &conditions)
                })
                .collect()
        })
        .collect()
}

/// The live workload's request stream.
pub struct LiveTraffic {
    /// Warm-up batches: every hot key once, before timing.
    pub warmup: Vec<Vec<FlowQuery>>,
    /// Timed batches; batch `b` follows an update of community
    /// `b % COMMUNITIES`.
    pub batches: Vec<Vec<FlowQuery>>,
}

/// live-sharded: per community a fixed hot key set drawn Zipf-skewed,
/// `DRAWS_PER_COMMUNITY` reads per community and `NO_PATH_PER_BATCH`
/// cross-community (no-path) reads in every batch, a `TIGHT_SHARE` (5%)
/// share of reads at the tight tolerance.
pub fn live_traffic(graph: &DiGraph, seed: u64, batches: usize) -> LiveTraffic {
    let mut rng = rng_for(seed, 5);
    let mut hot: Vec<Vec<(NodeId, NodeId)>> = Vec::new();
    for c in 0..COMMUNITIES {
        let mut members: Vec<NodeId> = (0..COMMUNITY_NODES)
            .map(|i| NodeId((c * COMMUNITY_NODES + i) as u32))
            .collect();
        members.shuffle(&mut rng);
        let mut keys = Vec::new();
        for s in members {
            let reach = reach_of(graph, s);
            if reach.len() < HOT_SINKS {
                continue;
            }
            keys.extend(
                distinct(&reach, HOT_SINKS, &mut rng)
                    .into_iter()
                    .map(|t| (s, t)),
            );
            if keys.len() == HOT_SOURCES * HOT_SINKS {
                break;
            }
        }
        assert_eq!(
            keys.len(),
            HOT_SOURCES * HOT_SINKS,
            "community {c} lacks hot sources"
        );
        keys.shuffle(&mut rng);
        hot.push(keys);
    }
    let no_path: Vec<(NodeId, NodeId)> = (0..NO_PATH_KEYS)
        .map(|_| {
            let a = rng.random_range(0..COMMUNITIES);
            let b = (a + rng.random_range(1..COMMUNITIES)) % COMMUNITIES;
            let u = rng.random_range(0..COMMUNITY_NODES);
            let v = rng.random_range(0..COMMUNITY_NODES);
            (
                NodeId((a * COMMUNITY_NODES + u) as u32),
                NodeId((b * COMMUNITY_NODES + v) as u32),
            )
        })
        .collect();

    let keys_per_community = HOT_SOURCES * HOT_SINKS;
    let weights: Vec<f64> = (0..keys_per_community)
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let zipf = |rng: &mut StdRng| -> usize {
        let mut x = rng.random::<f64>() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        keys_per_community - 1
    };

    let all_keys: Vec<(NodeId, NodeId)> = hot.iter().flatten().chain(&no_path).copied().collect();
    let per_batch = COMMUNITIES * DRAWS_PER_COMMUNITY + NO_PATH_PER_BATCH;
    let warmup = all_keys
        .chunks(per_batch)
        .map(|chunk| chunk.iter().map(|&(s, t)| FlowQuery::flow(s, t)).collect())
        .collect();
    let batches = (0..batches)
        .map(|b| {
            let mut batch = Vec::with_capacity(per_batch);
            for keys in &hot {
                for _ in 0..DRAWS_PER_COMMUNITY {
                    let (s, t) = keys[zipf(&mut rng)];
                    let tight = rng.random_bool(TIGHT_SHARE);
                    batch.push(FlowQuery {
                        tolerance: tight.then_some(TIGHT_TOLERANCE),
                        ..FlowQuery::flow(s, t)
                    });
                }
            }
            for k in 0..NO_PATH_PER_BATCH {
                let (s, t) = no_path[(b * NO_PATH_PER_BATCH + k) % NO_PATH_KEYS];
                batch.push(FlowQuery::flow(s, t));
            }
            batch
        })
        .collect();
    LiveTraffic { warmup, batches }
}

/// Nodes of one live community.
pub fn community_nodes(c: usize) -> Vec<NodeId> {
    (0..COMMUNITY_NODES)
        .map(|i| NodeId((c * COMMUNITY_NODES + i) as u32))
        .collect()
}

/// True when no target of `q` is reachable from its source.
pub fn is_no_path(graph: &DiGraph, q: &FlowQuery) -> bool {
    let r = reachable(graph, &[q.source]);
    let targets: Vec<NodeId> = match &q.target {
        SharedTarget::Sink(s) => vec![*s],
        SharedTarget::Community(m) => m.clone(),
    };
    !targets.iter().any(|&t| t != q.source && r.contains(t))
}

/// FNV-1a digest of a request sequence: sources, targets, conditions
/// and tolerances in order.
pub fn request_digest(batches: &[Vec<FlowQuery>]) -> u64 {
    let mut h = flow_core::Fnv64::new();
    for batch in batches {
        h = h.u64(batch.len() as u64);
        for q in batch {
            h = h.u64(u64::from(q.source.0));
            h = match &q.target {
                SharedTarget::Sink(s) => h.u64(1).u64(u64::from(s.0)),
                SharedTarget::Community(m) => m
                    .iter()
                    .fold(h.u64(2).u64(m.len() as u64), |h, v| h.u64(u64::from(v.0))),
            };
            for c in &q.conditions {
                h = h
                    .u64(u64::from(c.source.0))
                    .u64(u64::from(c.sink.0))
                    .u64(u64::from(c.required));
            }
            h = h.u64(q.tolerance.map_or(0, f64::to_bits));
        }
    }
    h.finish()
}

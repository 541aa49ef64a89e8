//! The core directed-graph type.
//!
//! [`DiGraph`] is immutable after construction via [`GraphBuilder`]. Nodes
//! and edges are identified by dense `u32` ids so that per-edge payloads
//! (activation probabilities, Beta parameters, pseudo-state bits) can live
//! in plain vectors owned by higher layers.
//!
//! Adjacency is stored in CSR (compressed sparse row) form for both
//! out-edges and in-edges: one flat edge-id array plus per-node offsets.
//! This keeps neighbourhood iteration allocation-free and cache-friendly,
//! which matters because the Metropolis–Hastings flow indicator performs a
//! BFS per retained sample.

/// Identifier of a node; wraps a dense index in `0..graph.node_count()`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NodeId(pub u32);

/// Identifier of an edge; wraps a dense index in `0..graph.edge_count()`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The dense index of this node, usable to key parallel vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The dense index of this edge, usable to key parallel vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl std::fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl std::fmt::Display for EdgeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An immutable directed graph with dense node and edge ids.
///
/// Parallel edges are rejected at build time (the ICM semantics give an
/// edge a single activation probability, so duplicates are meaningless);
/// self-loops are rejected too (information is already at the node).
#[derive(Clone, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DiGraph {
    node_count: usize,
    /// Edge endpoints, indexed by `EdgeId`.
    src: Vec<NodeId>,
    dst: Vec<NodeId>,
    /// CSR out-adjacency: edge ids of edges leaving node `v` are
    /// `out_edges[out_offsets[v] .. out_offsets[v + 1]]`.
    out_offsets: Vec<u32>,
    out_edges: Vec<EdgeId>,
    /// CSR in-adjacency, symmetric to the above.
    in_offsets: Vec<u32>,
    in_edges: Vec<EdgeId>,
}

impl DiGraph {
    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.src.len()
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.node_count as u32).map(NodeId)
    }

    /// Iterates over all edge ids.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.src.len() as u32).map(EdgeId)
    }

    /// Source node of edge `e`.
    #[inline]
    pub fn src(&self, e: EdgeId) -> NodeId {
        self.src[e.index()]
    }

    /// Destination node of edge `e`.
    #[inline]
    pub fn dst(&self, e: EdgeId) -> NodeId {
        self.dst[e.index()]
    }

    /// `(src, dst)` endpoints of edge `e`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        (self.src(e), self.dst(e))
    }

    /// Edge ids of edges leaving `v`.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[EdgeId] {
        let lo = self.out_offsets[v.index()] as usize;
        // CSR invariant: offsets has node_count()+1 entries, so index()+1
        // is in bounds for every valid NodeId of this graph.
        // flow-analyze: allow(L1: CSR offsets have n+1 entries by construction, L7: index is proven in bounds for every valid NodeId so serving paths cannot trip it)
        let hi = self.out_offsets[v.index() + 1] as usize;
        &self.out_edges[lo..hi]
    }

    /// Edge ids of edges entering `v`.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[EdgeId] {
        let lo = self.in_offsets[v.index()] as usize;
        // flow-analyze: allow(L1: CSR offsets have n+1 entries by construction, L7: index is proven in bounds for every valid NodeId so serving paths cannot trip it)
        let hi = self.in_offsets[v.index() + 1] as usize;
        &self.in_edges[lo..hi]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_edges(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_edges(v).len()
    }

    /// Successor nodes of `v` (one per out-edge, so no duplicates).
    pub fn successors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(v).iter().map(|&e| self.dst(e))
    }

    /// Looks up the edge from `u` to `v`, if present.
    ///
    /// Linear in `out_degree(u)`; fine for the degrees this workspace
    /// produces. Callers needing many lookups should build their own map.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.out_edges(u)
            .iter()
            .copied()
            .find(|&e| self.dst(e) == v)
    }

    /// True if the graph contains an edge from `u` to `v`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.find_edge(u, v).is_some()
    }

    /// Like [`Self::find_edge`] but an absent edge is a typed
    /// [`FlowError::GraphInconsistency`] instead of `None` — for
    /// callers (fixtures, learners mapping summaries back onto a
    /// graph) where the edge's absence means corrupt input, not a
    /// normal miss.
    ///
    /// [`FlowError::GraphInconsistency`]: flow_core::FlowError::GraphInconsistency
    pub fn require_edge(&self, u: NodeId, v: NodeId) -> flow_core::FlowResult<EdgeId> {
        self.find_edge(u, v)
            .ok_or_else(|| flow_core::FlowError::GraphInconsistency {
                detail: format!("required edge {} -> {} is missing", u.0, v.0),
            })
    }
}

/// Errors reported by [`GraphBuilder::build`] and edge insertion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint referenced a node id `>= node_count`.
    NodeOutOfRange {
        /// The out-of-range node id.
        node: NodeId,
        /// Number of nodes the graph actually has.
        node_count: usize,
    },
    /// The same `(src, dst)` pair was added twice.
    DuplicateEdge {
        /// Source endpoint of the duplicate edge.
        src: NodeId,
        /// Destination endpoint of the duplicate edge.
        dst: NodeId,
    },
    /// An edge with `src == dst` was added.
    SelfLoop {
        /// The node carrying the self-loop.
        node: NodeId,
    },
    /// More than `u32::MAX` nodes or edges.
    TooLarge,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(f, "node {node} out of range (graph has {node_count} nodes)")
            }
            GraphError::DuplicateEdge { src, dst } => {
                write!(f, "duplicate edge {src} -> {dst}")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at {node}"),
            GraphError::TooLarge => write!(f, "graph exceeds u32 id space"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<GraphError> for flow_core::FlowError {
    fn from(e: GraphError) -> Self {
        flow_core::FlowError::GraphInconsistency {
            detail: e.to_string(),
        }
    }
}

/// Incremental builder for [`DiGraph`].
///
/// ```
/// use flow_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(3);
/// let e01 = b.add_edge(NodeId(0), NodeId(1)).unwrap();
/// b.add_edge(NodeId(1), NodeId(2)).unwrap();
/// let g = b.build();
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.dst(e01), NodeId(1));
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    node_count: usize,
    edges: Vec<(NodeId, NodeId)>,
    seen: std::collections::HashSet<(u32, u32)>,
}

impl GraphBuilder {
    /// Starts a builder with `node_count` nodes and no edges.
    pub fn new(node_count: usize) -> Self {
        GraphBuilder {
            node_count,
            edges: Vec::new(),
            seen: std::collections::HashSet::new(),
        }
    }

    /// Resumes building from an existing graph: the result of `build`
    /// will contain `graph`'s nodes and edges with *identical ids*
    /// (insertion order is preserved), so per-edge payload vectors can
    /// be extended rather than rebuilt. This is the substrate for
    /// absorbing network changes into trained models.
    pub fn from_graph(graph: &DiGraph) -> Self {
        let mut b = GraphBuilder::new(graph.node_count());
        for e in graph.edges() {
            let (u, v) = graph.endpoints(e);
            // flow-analyze: allow(L1: source DiGraph cannot hold duplicate or out-of-range edges)
            b.add_edge(u, v).expect("source graph is valid");
        }
        b
    }

    /// Number of nodes the graph will have.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.node_count as u32);
        self.node_count += 1;
        id
    }

    /// Adds the edge `src -> dst`, returning its id.
    ///
    /// Rejects self-loops, duplicates, and out-of-range endpoints.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> Result<EdgeId, GraphError> {
        if src.index() >= self.node_count {
            return Err(GraphError::NodeOutOfRange {
                node: src,
                node_count: self.node_count,
            });
        }
        if dst.index() >= self.node_count {
            return Err(GraphError::NodeOutOfRange {
                node: dst,
                node_count: self.node_count,
            });
        }
        if src == dst {
            return Err(GraphError::SelfLoop { node: src });
        }
        if !self.seen.insert((src.0, dst.0)) {
            return Err(GraphError::DuplicateEdge { src, dst });
        }
        if self.edges.len() >= u32::MAX as usize {
            return Err(GraphError::TooLarge);
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push((src, dst));
        Ok(id)
    }

    /// True if `src -> dst` has already been added.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.seen.contains(&(src.0, dst.0))
    }

    /// Finalizes the graph, computing CSR adjacency.
    pub fn build(self) -> DiGraph {
        let n = self.node_count;
        let m = self.edges.len();
        let mut src = Vec::with_capacity(m);
        let mut dst = Vec::with_capacity(m);
        for &(u, v) in &self.edges {
            src.push(u);
            dst.push(v);
        }

        let csr = |keys: &dyn Fn(usize) -> usize| -> (Vec<u32>, Vec<EdgeId>) {
            let mut counts = vec![0u32; n + 1];
            for e in 0..m {
                // flow-analyze: allow(L1: keys(e) < n is the builder's add_edge invariant)
                counts[keys(e) + 1] += 1; // flow-analyze: allow(L7: same add_edge invariant — keys(e) < n, so the index is always in bounds)
            }
            for i in 0..n {
                // flow-analyze: allow(L1: i + 1 <= n and counts has n + 1 slots)
                counts[i + 1] += counts[i];
            }
            let offsets = counts.clone();
            let mut slots = counts;
            let mut order = vec![EdgeId(0); m];
            for e in 0..m {
                let k = keys(e);
                order[slots[k] as usize] = EdgeId(e as u32);
                slots[k] += 1;
            }
            (offsets, order)
        };

        let src_key = |e: usize| src[e].index();
        let dst_key = |e: usize| dst[e].index();
        let (out_offsets, out_edges) = csr(&src_key);
        let (in_offsets, in_edges) = csr(&dst_key);

        DiGraph {
            node_count: n,
            src,
            dst,
            out_offsets,
            out_edges,
            in_offsets,
            in_edges,
        }
    }
}

/// Convenience constructor: a graph on `node_count` nodes with the given
/// `(src, dst)` pairs. Panics on invalid edges; intended for tests and
/// fixtures where the edge list is static.
pub fn graph_from_edges(node_count: usize, edges: &[(u32, u32)]) -> DiGraph {
    let mut b = GraphBuilder::new(node_count);
    for &(u, v) in edges {
        b.add_edge(NodeId(u), NodeId(v))
            // flow-analyze: allow(L1: documented panicking fixture constructor)
            .unwrap_or_else(|e| panic!("invalid fixture edge ({u},{v}): {e}"));
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_empty() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn adjacency_is_consistent() {
        // Paper's running example: v1 -> v2, v1 -> v3, v2 -> v3 (0-indexed).
        let g = graph_from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.out_degree(NodeId(1)), 1);
        assert_eq!(g.out_degree(NodeId(2)), 0);
        assert_eq!(g.in_degree(NodeId(2)), 2);
        let succ0: Vec<NodeId> = g.successors(NodeId(0)).collect();
        assert!(succ0.contains(&NodeId(1)) && succ0.contains(&NodeId(2)));
    }

    #[test]
    fn find_edge_and_has_edge() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let e = g.find_edge(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(g.endpoints(e), (NodeId(1), NodeId(2)));
        assert!(g.has_edge(NodeId(3), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(3)));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.add_edge(NodeId(1), NodeId(1)),
            Err(GraphError::SelfLoop { node: NodeId(1) })
        );
    }

    #[test]
    fn rejects_duplicate() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(
            b.add_edge(NodeId(0), NodeId(1)),
            Err(GraphError::DuplicateEdge {
                src: NodeId(0),
                dst: NodeId(1)
            })
        );
        // The reverse edge is fine.
        b.add_edge(NodeId(1), NodeId(0)).unwrap();
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(NodeId(0), NodeId(5)),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn add_node_extends_range() {
        let mut b = GraphBuilder::new(1);
        let v = b.add_node();
        assert_eq!(v, NodeId(1));
        b.add_edge(NodeId(0), v).unwrap();
        let g = b.build();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn edge_ids_are_insertion_order() {
        let mut b = GraphBuilder::new(3);
        let e0 = b.add_edge(NodeId(2), NodeId(0)).unwrap();
        let e1 = b.add_edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(e0, EdgeId(0));
        assert_eq!(e1, EdgeId(1));
        let g = b.build();
        assert_eq!(g.endpoints(EdgeId(0)), (NodeId(2), NodeId(0)));
        assert_eq!(g.endpoints(EdgeId(1)), (NodeId(0), NodeId(1)));
    }

    #[test]
    fn from_graph_preserves_ids_and_extends() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let mut b = GraphBuilder::from_graph(&g);
        let v3 = b.add_node();
        let e_new = b.add_edge(NodeId(2), v3).unwrap();
        assert_eq!(e_new, EdgeId(2), "new edges continue the id sequence");
        // Duplicating an existing edge is still rejected.
        assert!(b.add_edge(NodeId(0), NodeId(1)).is_err());
        let g2 = b.build();
        assert_eq!(g2.node_count(), 4);
        assert_eq!(g2.edge_count(), 3);
        for e in g.edges() {
            assert_eq!(g.endpoints(e), g2.endpoints(e), "prefix ids stable");
        }
    }

    #[test]
    fn out_edges_cover_all_edges_exactly_once() {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (1, 2), (3, 4), (4, 0), (2, 3)]);
        let mut seen = vec![false; g.edge_count()];
        for v in g.nodes() {
            for &e in g.out_edges(v) {
                assert_eq!(g.src(e), v);
                assert!(!seen[e.index()], "edge listed twice");
                seen[e.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        let mut seen_in = vec![false; g.edge_count()];
        for v in g.nodes() {
            for &e in g.in_edges(v) {
                assert_eq!(g.dst(e), v);
                assert!(!seen_in[e.index()]);
                seen_in[e.index()] = true;
            }
        }
        assert!(seen_in.iter().all(|&s| s));
    }
}

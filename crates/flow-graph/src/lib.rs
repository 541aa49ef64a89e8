//! Directed-graph substrate for the `infoflow` workspace.
//!
//! This crate provides the graph machinery that every other crate in the
//! workspace builds on:
//!
//! * [`DiGraph`] — an immutable-after-build directed graph with dense
//!   `u32` [`NodeId`]/[`EdgeId`] identifiers. Edge ids index directly into
//!   per-edge payload vectors (activation probabilities, Beta parameters,
//!   pseudo-state bitsets, Fenwick trees), which is what makes the
//!   Metropolis–Hastings sampler in `flow-mcmc` cheap.
//! * [`BitSet`] — a compact fixed-capacity bitset used for pseudo-states
//!   (one bit per edge) and characteristics (one bit per parent).
//! * [`generate`] — random-graph generators used by the paper's synthetic
//!   experiments (uniform-m, preferential attachment, and deterministic
//!   fixtures).
//! * [`traverse`] — BFS reachability (optionally restricted to an active
//!   edge mask), multi-source reachability, backward co-reachability,
//!   and radius-bounded ego subgraph extraction, all of which back
//!   flow-indicator evaluation and shard routing.
//! * [`partition`] — the deterministic community-first edge partition
//!   behind sharded serving: a stable shard id per edge, whole weak
//!   components kept together whenever the shard count allows.
//!
//! The graph is deliberately minimal: no payloads on nodes or edges.
//! Everything domain-specific lives in parallel vectors owned by the
//! higher layers, keyed by [`EdgeId::index`]/[`NodeId::index`].

pub mod bitset;
pub mod generate;
pub mod graph;
pub mod partition;
pub mod paths;
pub mod traverse;

pub use bitset::BitSet;
pub use graph::{DiGraph, EdgeId, GraphBuilder, NodeId};
pub use partition::{partition_edges, EdgePartition};
pub use paths::{shortest_path_distances, shortest_path_to};
pub use traverse::{
    co_reachable, ego_subgraph, reachable, reachable_filtered, relevant_edges, EgoSubgraph,
    Reachability,
};

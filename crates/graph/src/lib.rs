//! Sparse frontier graph engine: CSR threshold graphs plus the Ligra-style
//! `vertexSubset` / `edgeMap` primitives that every round-based solver in the
//! workspace runs on.
//!
//! The paper's algorithms (maximal dominating sets, Luby MIS, the k-center
//! threshold probes) all operate on threshold graphs `H_α` of a metric
//! instance. This crate provides:
//!
//! * the one graph representation — [`CsrGraph`] / [`CsrBipartite`]
//!   (compressed sparse row, `O(n + m)` bytes, built deterministically in
//!   parallel from `DistanceOracle::cols_within` range queries), with
//!   [`CsrGraph::try_from_threshold_oracle`] refusing, partway through its
//!   one pass, a threshold build whose arrays would pass
//!   `parfaclo_metric::SCRATCH_BYTES_CAP`;
//! * the frontier engine — [`VertexSubset`] (sparse id list / dense bitmap
//!   with deterministic direction switching on a pure function of frontier
//!   density, never thread count) and the [`edge_map`] / [`edge_map_min`]
//!   primitives with their bipartite siblings, whose combines are
//!   order-independent or left-to-right so canonical output stays
//!   byte-identical across thread counts.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod csr;
pub mod engine;
pub mod frontier;

pub use csr::{CsrBipartite, CsrGraph, GraphTooLarge};
pub use engine::{
    bi_edge_map_u, bi_edge_map_v, bi_min_into_u, bi_min_into_v, edge_map, edge_map_min,
};
pub use frontier::VertexSubset;

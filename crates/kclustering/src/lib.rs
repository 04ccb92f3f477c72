//! # parfaclo-kclustering
//!
//! Parallel k-clustering algorithms from *Blelloch & Tangwongsan (SPAA 2010)*:
//!
//! * [`kcenter`] — the parallel Hochbaum–Shmoys 2-approximation for **k-center**
//!   (Section 6.1, Theorem 6.1): binary search over the sorted distance set, with the
//!   dominator-set algorithm `MaxDom` as the feasibility probe.
//! * [`local_search`] — the parallel swap-based local search (Section 7, Theorem 7.1)
//!   for **k-median** (`5 + ε`) and **k-means** (`81 + ε`): every candidate swap is
//!   evaluated in parallel per round, the best improving swap (by at least a
//!   `(1 − β/k)` factor, `β = ε/(1+ε)`) is applied, and the initial solution comes from
//!   the k-center algorithm so that only `O(k log n / ε)` rounds are needed.
//!
//! Both record round counts and work in [`parfaclo_matrixops::CostMeter`] so the
//! experiment harness can compare against the paper's `O((n log n)²)` and
//! `O(k²(n−k)n log n)` bounds.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod kcenter;
pub mod local_search;
pub mod solvers;

pub use kcenter::{
    parallel_kcenter, parallel_kcenter_derived, parallel_kcenter_sketched, KCenterSolution,
};
pub use local_search::{parallel_kmeans, parallel_kmedian, ClusterObjective, KClusterSolution};

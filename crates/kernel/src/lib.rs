//! SoA point storage and cache-blocked distance kernels.
//!
//! This crate is the single source of arithmetic truth for every distance the
//! workspace computes. It sits below both `parfaclo-metric` (which re-exports
//! [`DistanceKind`]) and `parfaclo-spatial` (which takes it as the index
//! metric), so the dense matrix, the implicit oracle, the spatial indexes and
//! every solver all run the **same operations in the same order** for a
//! given point pair.
//!
//! Two layers:
//!
//! * [`DistanceKind`] — the scalar slice kernel plus the computed pruning
//!   bound the spatial grid uses ([`DistanceKind::box_lower_bound`]).
//! * [`SoaPoints`] + the [`block`] kernels — a structure-of-arrays layout
//!   (one contiguous `Vec<f64>` per dimension) and blocked batch kernels
//!   that compute one query point against a cache tile ([`block::TILE`]
//!   points) at a time. The inner loops are fixed-trip-count slices with no
//!   data-dependent control flow, so LLVM autovectorizes them; the
//!   per-point accumulation order over dimensions is exactly the scalar
//!   kernel's left-to-right fold, so every produced distance is
//!   **bit-identical** to the scalar path at any tile boundary and any
//!   thread count. No fast-math, no FMA contraction, no reassociation.

pub mod block;
mod kind;
mod soa;

pub use kind::DistanceKind;
pub use soa::SoaPoints;

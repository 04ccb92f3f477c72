//! # parfaclo-metric
//!
//! Metric-space substrate for the `parfaclo` workspace, the Rust reproduction of
//! *Blelloch & Tangwongsan, "Parallel Approximation Algorithms for Facility-Location
//! Problems", SPAA 2010*.
//!
//! The paper (Section 2) works over a metric space `(X, d)` containing a facility set `F`
//! and a client set `C`; every algorithm in the paper consumes either
//!
//! * a **facility-location instance**: facility opening costs `f_i` plus the
//!   `|C| x |F|` client-to-facility distances ([`FlInstance`]), or
//! * a **clustering instance**: a symmetric `n x n` distance structure over a node set
//!   in which every node is simultaneously a client and a potential center
//!   ([`ClusterInstance`]).
//!
//! Distances are served through the [`oracle::DistanceOracle`] seam with three
//! interchangeable backends: the paper's dense matrix ([`DistanceMatrix`], `O(|C|·|F|)`
//! memory), an implicit geometric backend ([`oracle::ImplicitMetric`], distances
//! computed on demand from stored points in `O(|C| + |F|)` memory — the
//! production-scale path for 100k–1M clients), and an index-accelerated spatial
//! backend ([`oracle::SpatialOracle`], the implicit storage plus deterministic
//! exact kd-tree/grid indexes serving nearest/range queries sublinearly — the
//! path to 10M clients). All produce bit-identical distances for the same point
//! set, so solver output is byte-identical under any backend.
//!
//! This crate provides those instance types, the geometric [`Point`] representation used
//! to build them, a suite of synthetic [`gen`]erators standing in for the datasets the
//! paper does not provide (each behind one backend-parameterized builder,
//! [`gen::build_facility_location`] / [`gen::build_clustering`]), deterministic
//! ε-grid [`coreset`]s for solving clustering at 10M-point scale, metric-axiom
//! [`validate`]-ion, and the elementary [`lower_bounds`] from
//! Equation (2) of the paper that the experiment harness uses to certify approximation
//! ratios.
//!
//! ## Quick example
//!
//! ```
//! use parfaclo_metric::gen::{InstanceGenerator, GenParams, FacilityCostModel};
//!
//! let params = GenParams::uniform_square(64, 64).with_seed(7);
//! let inst = InstanceGenerator::new(params).facility_location();
//! assert_eq!(inst.num_clients(), 64);
//! assert_eq!(inst.num_facilities(), 64);
//! // distances obey the triangle inequality (through the shared underlying point set)
//! assert!(parfaclo_metric::validate::check_fl_metric(&inst, 1e-9).is_ok());
//! # let _ = FacilityCostModel::Uniform(1.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod coreset;
pub mod distmat;
pub mod gen;
pub mod instance;
pub mod lower_bounds;
pub mod oracle;
pub mod point;
pub mod validate;

pub use coreset::{build_coreset, coreset_instance, BuildError, Coreset, GridCoreset};
pub use distmat::{DistanceMatrix, SizeOverflowError};
pub use instance::{ClusterInstance, FlInstance};
pub use oracle::{Backend, DistanceOracle, ImplicitMetric, Oracle, SpatialOracle};
pub use point::Point;

/// The ceiling on any single dense or transient allocation a run makes (4 GiB):
/// dense distance matrices and threshold graphs, the all-pairs distance sorts
/// behind threshold and radius derivation, and the LP simplex tableau. Past it
/// the run is refused with a typed error instead of exhausting memory.
pub const SCRATCH_BYTES_CAP: u64 = 4 << 30;

/// Index of a facility within an [`FlInstance`] (column of the distance matrix).
pub type FacilityId = usize;

/// Index of a client within an [`FlInstance`] (row of the distance matrix).
pub type ClientId = usize;

/// Index of a node within a [`ClusterInstance`].
pub type NodeId = usize;

/// Numeric tolerance used throughout the workspace when comparing distances and costs.
///
/// All costs are non-negative `f64` values derived from Euclidean distances or explicit
/// matrices; `EPSILON_COST` absorbs accumulated floating-point error in feasibility and
/// invariant checks.
pub const EPSILON_COST: f64 = 1e-7;

/// Convenience: relative-error comparison `|a - b| <= tol * max(1, |a|, |b|)`.
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * 1.0_f64.max(a.abs()).max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
        assert!(approx_eq(0.0, 0.0, 1e-9));
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
    }
}

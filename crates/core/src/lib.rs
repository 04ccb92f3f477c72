//! # parfaclo-core
//!
//! Parallel approximation algorithms for **metric facility location** from
//! *Blelloch & Tangwongsan, "Parallel Approximation Algorithms for Facility-Location
//! Problems", SPAA 2010* — the paper's primary contribution.
//!
//! Three algorithms are implemented, each with the preprocessing steps the paper uses to
//! bound its round count and each instrumented with the work/round accounting of
//! [`parfaclo_matrixops::CostMeter`]; a fourth (the Section 7 local-search extension)
//! rides along. Every algorithm is exposed twice, and both forms read the same
//! [`parfaclo_api::RunConfig`]:
//!
//! * as a free function (`greedy::parallel_greedy(&inst, &cfg)`, …) returning the rich
//!   [`FlSolution`] record;
//! * as a [`parfaclo_api::Solver`] implementation ([`solvers::GreedySolver`], …)
//!   returning the unified [`parfaclo_api::Run`] envelope, which is what the solver
//!   registry, the `parfaclo` CLI and the cross-solver tests consume.
//!
//! | Module | Solver name | Paper | Guarantee | Work bound |
//! |--------|-------------|-------|-----------|-----------|
//! | [`greedy`] | `greedy` | Algorithm 4.1, Theorem 4.9 | `3.722 + ε` (factor-revealing LP analysis; `6 + ε` by the self-contained analysis) | `O(m log²_{1+ε} m)` |
//! | [`primal_dual`] | `primal-dual` | Algorithm 5.1, Theorem 5.4 | `3 + ε` | `O(m log_{1+ε} m)` |
//! | [`lp_rounding`] | `lp-rounding` | Section 6.2, Theorem 6.5 | `4 + ε` given an optimal LP solution | `O(m log m log_{1+ε} m)` |
//! | [`local_search_fl`] | `local-search-fl` | Section 7 (closing remark) | `3 + ε` (rounds unbounded by theory) | — |
//!
//! The common pattern — and the paper's central idea — is to replace the sequential
//! "pick the single cheapest element" step with "pick **everything within a `(1 + ε)`
//! slack** of the cheapest", then run a clean-up/subselection step (randomized
//! subselection for greedy, `MaxUDom` for primal-dual and rounding) so the accounting
//! arguments still go through.
//!
//! ## Quick example — unified API
//!
//! ```
//! use parfaclo_api::{RunConfig, Solver};
//! use parfaclo_core::solvers::{GreedySolver, PrimalDualSolver};
//! use parfaclo_metric::gen::{self, GenParams};
//!
//! let inst = gen::facility_location(GenParams::uniform_square(40, 20).with_seed(1));
//! let cfg = RunConfig::new(0.1).with_seed(7);
//!
//! let g = GreedySolver.solve(&inst, &cfg).unwrap();
//! let pd = PrimalDualSolver.solve(&inst, &cfg).unwrap();
//!
//! // Both produce valid Run envelopes with certified lower bounds.
//! g.validate().unwrap();
//! assert!(g.cost >= pd.lower_bound - 1e-9);
//! assert!(pd.cost <= (3.0 + 0.1 + 0.2) * pd.lower_bound + 1e-9);
//! ```
//!
//! ## Quick example — free functions
//!
//! ```
//! use parfaclo_api::RunConfig;
//! use parfaclo_metric::gen::{self, GenParams};
//! use parfaclo_core::{greedy, primal_dual};
//!
//! let inst = gen::facility_location(GenParams::uniform_square(40, 20).with_seed(1));
//! let cfg = RunConfig::new(0.1).with_seed(7);
//!
//! let g = greedy::parallel_greedy(&inst, &cfg);
//! let pd = primal_dual::parallel_primal_dual(&inst, &cfg).unwrap();
//!
//! assert!(g.cost >= pd.lower_bound - 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

#[cfg(test)]
mod certify_reference;
pub mod greedy;
pub mod local_search_fl;
pub mod lp_rounding;
pub mod primal_dual;
pub mod solution;
pub mod solvers;
pub mod stars;
pub mod verify;

pub use solution::FlSolution;
pub use solvers::{FlLocalSearchSolver, GreedySolver, LpRoundingSolver, PrimalDualSolver};

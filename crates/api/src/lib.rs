//! # parfaclo-api
//!
//! The unified solver API of the `parfaclo` workspace.
//!
//! Every algorithm in the reproduction — the three parallel facility-location
//! algorithms of *Blelloch & Tangwongsan (SPAA 2010)*, the k-clustering
//! algorithms, the dominator-set routines and the sequential baselines — is
//! exposed behind one seam:
//!
//! * [`Solver`] — the typed trait: an instance type and
//!   `solve(&inst, &RunConfig) -> Result<Run, String>`;
//! * [`Run`] — the common result envelope (cost, certified lower bound,
//!   rounds, work report, wall time, solver-specific extras) with a stable
//!   JSON schema shared by every experiment;
//! * [`RunConfig`] — the one builder-style configuration every solver reads
//!   (ε, seed, thread count, ablation knobs, `k` for the clustering
//!   solvers);
//! * [`Registry`] — a string-keyed collection of type-erased solvers so
//!   benches, tests and the `parfaclo` CLI can enumerate and select solvers
//!   by name.
//!
//! The concrete algorithm crates implement [`Solver`] and the
//! `parfaclo-bench` crate assembles the full registry
//! (`parfaclo_bench::registry::standard_registry`).
//!
//! ## Example
//!
//! ```
//! use parfaclo_api::{ProblemKind, Registry, Run, RunConfig, Solver};
//! use parfaclo_metric::FlInstance;
//!
//! /// A toy "solver" that opens every facility.
//! struct OpenAll;
//!
//! impl Solver for OpenAll {
//!     type Instance = FlInstance;
//!
//!     fn name(&self) -> &str { "open-all" }
//!     fn problem(&self) -> ProblemKind { ProblemKind::FacilityLocation }
//!
//!     fn solve(&self, inst: &FlInstance, cfg: &RunConfig) -> Result<Run, String> {
//!         let open: Vec<usize> = (0..inst.num_facilities()).collect();
//!         let cost = inst.opening_cost(&open) + inst.connection_cost(&open);
//!         Ok(Run::new(self.name(), self.problem())
//!             .with_instance_size(inst.num_clients(), inst.m())
//!             .with_cost(cost)
//!             .with_selected(open)
//!             .with_config_echo(cfg))
//!     }
//! }
//!
//! let mut registry = Registry::new();
//! registry.register(Box::new(OpenAll));
//! assert_eq!(registry.names(), vec!["open-all"]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod json;
pub mod registry;
pub mod run;
pub mod solver;
pub mod trial;

pub use config::{RunConfig, MAX_ROUNDS};
pub use registry::Registry;
pub use run::{ProblemKind, Run, RUN_SCHEMA};
pub use solver::{AnyInstance, DynSolver, FromAnyInstance, SolveError, Solver};
pub use trial::TrialStats;

/// Re-export of the instance distance-backend selector so API consumers can
/// configure [`RunConfig::backend`] without depending on `parfaclo-metric`
/// directly.
pub use parfaclo_metric::Backend;

/// Re-exports of the coreset selector and the unified instance-construction
/// error so API consumers can configure [`RunConfig::coreset`] and handle
/// [`SolveError::Build`] without depending on `parfaclo-metric` directly.
pub use parfaclo_metric::{BuildError, Coreset};

/// Re-export of the threshold-graph representation selector so API consumers
/// can configure [`RunConfig::graph`] without depending on `parfaclo-graph`
/// directly.
pub use parfaclo_graph::GraphBackend;

/// Re-export of the radius-deriver selector so API consumers can configure
/// [`RunConfig::radius_deriver`] without depending on `parfaclo-bucket`
/// directly.
pub use parfaclo_bucket::RadiusDeriver;

/// Re-exports of the tracing subsystem so harnesses can install a
/// [`Tracer`] (picked up by the registry wrapper and every instrumented
/// solver phase) without depending on `parfaclo-trace` directly.
pub use parfaclo_trace::{InstallGuard, PhaseSummary, TraceDetail, Tracer, TRACE_SCHEMA};

//! # parfaclo-api
//!
//! The unified solver API of the `parfaclo` workspace.
//!
//! Every algorithm in the reproduction — the three parallel facility-location
//! algorithms of *Blelloch & Tangwongsan (SPAA 2010)*, the k-clustering
//! algorithms, the dominator-set routines and the sequential baselines — is
//! a free function of its instance and one [`RunConfig`], exposed behind one
//! seam:
//!
//! * [`SolverEntry`] — a solver as data: name, problem family, guarantee,
//!   paper reference and a solve function
//!   `fn(&inst, &RunConfig) -> Result<Run, String>`; its
//!   [`run`](SolverEntry::run) is the one runner every solve goes through;
//! * [`Run`] — the common result envelope (cost, certified lower bound,
//!   rounds, work report, wall time, solver-specific extras) with a stable
//!   JSON schema shared by every experiment;
//! * [`RunConfig`] — the one builder-style configuration every solver reads
//!   (ε, seed, thread count, ablation knobs, `k` for the clustering
//!   solvers);
//! * [`Registry`] — a string-keyed collection of entries so the tests and
//!   the `parfaclo` CLI can enumerate and select solvers by name.
//!
//! Each algorithm crate exports its entries as a table
//! (`parfaclo_core::solvers::SOLVERS`, …) and the `parfaclo-bench` crate
//! assembles the full registry
//! (`parfaclo_bench::registry::standard_registry`).
//!
//! ## Example
//!
//! ```
//! use parfaclo_api::{AnyInstance, ProblemKind, Registry, Run, RunConfig, Solve, SolverEntry};
//! use parfaclo_metric::{DistanceMatrix, FlInstance};
//!
//! /// A toy solve that opens every facility.
//! fn open_all(inst: &FlInstance, _cfg: &RunConfig) -> Result<Run, String> {
//!     let open: Vec<usize> = (0..inst.num_facilities()).collect();
//!     let cost = inst.opening_cost(&open) + inst.connection_cost(&open);
//!     Ok(Run::default().with_cost(cost).with_selected(open))
//! }
//!
//! let mut registry = Registry::new();
//! registry.register(SolverEntry {
//!     name: "open-all",
//!     problem: ProblemKind::FacilityLocation,
//!     guarantee: 0.0,
//!     exact: false,
//!     paper_ref: "",
//!     solve: Solve::Fl(open_all),
//! });
//! assert_eq!(registry.names(), vec!["open-all"]);
//!
//! let inst = AnyInstance::Fl(FlInstance::new(
//!     vec![1.0],
//!     DistanceMatrix::from_rows(2, 1, vec![0.5, 1.5]),
//! ));
//! let run = registry.run("open-all", &inst, &RunConfig::new(0.1).with_seed(7)).unwrap();
//! assert_eq!((run.solver.as_str(), run.n, run.seed), ("open-all", 2, 7));
//! assert_eq!(run.cost, 3.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod json;
pub mod registry;
pub mod run;
pub mod solver;
pub mod trial;

pub use config::{GraphBackend, RunConfig, MAX_ROUNDS};
pub use registry::Registry;
pub use run::{ProblemKind, Run, RUN_SCHEMA};
pub use solver::{AnyInstance, Solve, SolveError, SolverEntry};
pub use trial::TrialStats;

/// Re-export of the instance distance-backend selector so API consumers can
/// configure [`RunConfig::backend`] without depending on `parfaclo-metric`
/// directly.
pub use parfaclo_metric::Backend;

/// Re-exports of the coreset selector and the unified instance-construction
/// error so API consumers can configure [`RunConfig::coreset`] and handle
/// [`SolveError::Build`] without depending on `parfaclo-metric` directly.
pub use parfaclo_metric::{BuildError, Coreset};

/// Re-export of the radius-deriver selector so API consumers can configure
/// [`RunConfig::radius_deriver`] without depending on `parfaclo-bucket`
/// directly.
pub use parfaclo_bucket::RadiusDeriver;

/// Re-exports of the tracing subsystem so harnesses can install a
/// [`Tracer`] (picked up by the registry runner and every instrumented
/// solver phase) without depending on `parfaclo-trace` directly.
pub use parfaclo_trace::{InstallGuard, PhaseSummary, TraceDetail, Tracer, TRACE_SCHEMA};

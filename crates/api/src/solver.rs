//! The typed [`Solver`] trait and its type-erased registry form.

use crate::config::RunConfig;
use crate::run::{ProblemKind, Run};
use parfaclo_metric::{Backend, BuildError, ClusterInstance, FlInstance};
use parfaclo_trace as trace;
use std::sync::Arc;
use std::time::Instant;

/// A solver for one problem family, with its native instance type.
///
/// This is the seam every algorithm in the workspace plugs into: the
/// historical free functions (`greedy::parallel_greedy`,
/// `kcenter::parallel_kcenter`, …) remain as the implementations, and the
/// `Solver` impls are thin adapters that call them and repackage the result
/// into the common [`Run`] envelope. Every solver reads the same
/// [`RunConfig`], and so do the facility-location and local-search free
/// functions.
pub trait Solver {
    /// The instance type consumed (`FlInstance`, `ClusterInstance`, …).
    type Instance;

    /// Stable registry name (kebab-case, e.g. `"primal-dual"`).
    fn name(&self) -> &str;

    /// The problem family this solver addresses.
    fn problem(&self) -> ProblemKind;

    /// The approximation factor the algorithm promises before the `+ ε`
    /// (0 when no guarantee applies, e.g. heuristics).
    fn guarantee(&self) -> f64 {
        0.0
    }

    /// Whether [`Solver::guarantee`] is exact rather than paying the
    /// paper's `+ ε` slack (true for the sequential baselines).
    fn guarantee_is_exact(&self) -> bool {
        false
    }

    /// Where in the paper (or the literature) the algorithm comes from.
    fn paper_ref(&self) -> &str {
        ""
    }

    /// Runs the solver.
    ///
    /// Returns `Err` with a human-readable reason when the run is infeasible
    /// as configured — for example a threshold graph refusing an
    /// allocation beyond its size cap — rather than panicking. The registry
    /// surfaces this as [`SolveError::Infeasible`].
    fn solve(&self, inst: &Self::Instance, cfg: &RunConfig) -> Result<Run, String>;
}

/// An instance of any problem family the registry can route.
#[derive(Debug, Clone)]
pub enum AnyInstance {
    /// A facility-location instance.
    Fl(FlInstance),
    /// A symmetric clustering instance (also used by the dominator solvers,
    /// which threshold it into a graph).
    Cluster(ClusterInstance),
}

impl AnyInstance {
    /// Number of clients / nodes.
    pub fn n(&self) -> usize {
        match self {
            AnyInstance::Fl(inst) => inst.num_clients(),
            AnyInstance::Cluster(inst) => inst.n(),
        }
    }

    /// Distance-matrix size `m`.
    pub fn m(&self) -> usize {
        match self {
            AnyInstance::Fl(inst) => inst.m(),
            AnyInstance::Cluster(inst) => inst.n() * inst.n(),
        }
    }

    /// Which problem families this instance can feed.
    pub fn describes(&self) -> &'static str {
        match self {
            AnyInstance::Fl(_) => "facility-location",
            AnyInstance::Cluster(_) => "clustering",
        }
    }

    /// Which distance backend serves the instance.
    pub fn backend(&self) -> Backend {
        match self {
            AnyInstance::Fl(inst) => inst.backend(),
            AnyInstance::Cluster(inst) => inst.backend(),
        }
    }

    /// Estimated resident bytes of the instance's distance storage (the
    /// oracle estimate: `8·|C|·|F|` dense, `O(|C| + |F|)` implicit).
    pub fn memory_bytes(&self) -> u64 {
        match self {
            AnyInstance::Fl(inst) => inst.memory_bytes(),
            AnyInstance::Cluster(inst) => inst.memory_bytes(),
        }
    }
}

/// Projection from [`AnyInstance`] to a concrete instance type; the erased
/// registry wrapper uses it to route instances to typed solvers.
pub trait FromAnyInstance {
    /// Borrows the concrete instance if the variant matches.
    fn from_any(inst: &AnyInstance) -> Option<&Self>;
}

impl FromAnyInstance for FlInstance {
    fn from_any(inst: &AnyInstance) -> Option<&Self> {
        match inst {
            AnyInstance::Fl(fl) => Some(fl),
            _ => None,
        }
    }
}

impl FromAnyInstance for ClusterInstance {
    fn from_any(inst: &AnyInstance) -> Option<&Self> {
        match inst {
            AnyInstance::Cluster(c) => Some(c),
            _ => None,
        }
    }
}

/// Why a registry-level run could not be performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The instance variant does not match the solver's expected type.
    WrongInstanceKind {
        /// The solver that rejected the instance.
        solver: String,
        /// What the caller supplied.
        got: &'static str,
    },
    /// No solver with the requested name is registered.
    UnknownSolver(String),
    /// The solver rejected the run as infeasible under the given
    /// configuration (e.g. a size cap was hit); the reason says what to
    /// change.
    Infeasible {
        /// The solver that refused to run.
        solver: String,
        /// Human-readable explanation, including the suggested fix.
        reason: String,
    },
    /// The instance could not be constructed in the first place (dense
    /// overflow or a byte-cap refusal) — the unified [`BuildError`] mapped
    /// in at the registry boundary.
    Build(BuildError),
}

impl From<BuildError> for SolveError {
    fn from(e: BuildError) -> Self {
        SolveError::Build(e)
    }
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::WrongInstanceKind { solver, got } => {
                write!(f, "solver '{solver}' cannot consume a {got} instance")
            }
            SolveError::UnknownSolver(name) => write!(f, "no solver named '{name}' registered"),
            SolveError::Infeasible { solver, reason } => {
                write!(f, "solver '{solver}': {reason}")
            }
            SolveError::Build(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SolveError {}

/// Object-safe view of a solver, as stored in the registry.
///
/// Blanket-implemented for every [`Solver`] whose instance type can be
/// projected out of [`AnyInstance`]; `run` stamps wall time into the
/// envelope.
pub trait DynSolver {
    /// Stable registry name.
    fn name(&self) -> &str;
    /// Problem family.
    fn problem(&self) -> ProblemKind;
    /// Promised approximation factor (0 if none).
    fn guarantee(&self) -> f64;
    /// Human-readable guarantee, e.g. `3.722 + eps`, `2` (exact) or `-`.
    fn guarantee_label(&self) -> String;
    /// Paper / literature reference.
    fn paper_ref(&self) -> &str;
    /// Routes the instance, runs the solver, stamps timing.
    fn run(&self, inst: &AnyInstance, cfg: &RunConfig) -> Result<Run, SolveError>;
}

impl<S> DynSolver for S
where
    S: Solver,
    S::Instance: FromAnyInstance,
{
    fn name(&self) -> &str {
        Solver::name(self)
    }

    fn problem(&self) -> ProblemKind {
        Solver::problem(self)
    }

    fn guarantee(&self) -> f64 {
        Solver::guarantee(self)
    }

    fn guarantee_label(&self) -> String {
        let g = Solver::guarantee(self);
        if g <= 0.0 {
            "-".to_string()
        } else if Solver::guarantee_is_exact(self) {
            format!("{g}")
        } else {
            format!("{g} + eps")
        }
    }

    fn paper_ref(&self) -> &str {
        Solver::paper_ref(self)
    }

    fn run(&self, inst: &AnyInstance, cfg: &RunConfig) -> Result<Run, SolveError> {
        let typed = S::Instance::from_any(inst).ok_or_else(|| SolveError::WrongInstanceKind {
            solver: Solver::name(self).to_string(),
            got: inst.describes(),
        })?;
        // Every run executes under a tracer: the harness's, when one is
        // installed (`--trace` / `--progress` / the conformance tests),
        // else an ephemeral phase-level tracer, so `Run.phase_wall_ms` is
        // attributed unconditionally. Span bookkeeping is a handful of
        // mutex ops per phase — noise next to any solve — and spans never
        // charge the meter, so canonical results are untouched.
        let (tracer, _tracer_guard) = match trace::current() {
            Some(tracer) => (tracer, None),
            None => {
                let tracer = Arc::new(trace::Tracer::new(trace::TraceDetail::Phases));
                let guard = trace::install(Arc::clone(&tracer));
                (tracer, Some(guard))
            }
        };
        tracer.note_memory(inst.memory_bytes());
        // `Some(n)` pins the solve to an n-thread pool; `None` inherits the
        // ambient pool (process default / RAYON_NUM_THREADS / an enclosing
        // `install`). Either way the actual count is stamped into the
        // envelope's timing metadata.
        let start = Instant::now();
        let root = trace::span(&format!("solve:{}", Solver::name(self)), None);
        let root_index = root.index();
        let (solved, threads) = match cfg.threads {
            Some(n) => {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(n)
                    .build()
                    .expect("thread pool construction is infallible");
                (
                    pool.install(|| self.solve(typed, cfg)),
                    pool.current_num_threads(),
                )
            }
            None => (self.solve(typed, cfg), rayon::current_num_threads()),
        };
        drop(root);
        let mut run = solved.map_err(|reason| SolveError::Infeasible {
            solver: Solver::name(self).to_string(),
            reason,
        })?;
        run.wall_ms = start.elapsed().as_secs_f64() * 1e3;
        run.threads = threads;
        run.backend = inst.backend();
        run.memory_bytes = inst.memory_bytes();
        if let Some(root) = root_index {
            run.phase_wall_ms = tracer.phase_walls(root);
        }
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfaclo_metric::DistanceMatrix;

    struct OpenAll;

    impl Solver for OpenAll {
        type Instance = FlInstance;

        fn name(&self) -> &str {
            "open-all"
        }

        fn problem(&self) -> ProblemKind {
            ProblemKind::FacilityLocation
        }

        fn guarantee(&self) -> f64 {
            1.5
        }

        fn solve(&self, inst: &FlInstance, cfg: &RunConfig) -> Result<Run, String> {
            let open: Vec<usize> = (0..inst.num_facilities()).collect();
            let cost = inst.opening_cost(&open) + inst.connection_cost(&open);
            Ok(Run::new(Solver::name(self), Solver::problem(self))
                .with_guarantee(Solver::guarantee(self))
                .with_instance_size(inst.num_clients(), inst.m())
                .with_cost(cost)
                .with_selected(open)
                .with_config_echo(cfg))
        }
    }

    fn tiny_fl() -> FlInstance {
        FlInstance::new(
            vec![10.0, 20.0],
            DistanceMatrix::from_rows(3, 2, vec![1.0, 4.0, 2.0, 3.0, 5.0, 1.0]),
        )
    }

    #[test]
    fn dyn_solver_routes_and_stamps_timing() {
        let solver: Box<dyn DynSolver> = Box::new(OpenAll);
        let inst = AnyInstance::Fl(tiny_fl());
        let cfg = RunConfig::new(0.1).with_seed(3);
        let run = solver.run(&inst, &cfg).expect("fl instance accepted");
        assert_eq!(run.solver, "open-all");
        assert_eq!(run.cost, 34.0);
        assert_eq!(run.guarantee, 1.5);
        assert_eq!(run.seed, 3);
        assert!(run.wall_ms >= 0.0);
    }

    #[test]
    fn wrong_instance_kind_is_rejected() {
        let solver: Box<dyn DynSolver> = Box::new(OpenAll);
        let inst = AnyInstance::Cluster(ClusterInstance::new(DistanceMatrix::from_rows(
            2,
            2,
            vec![0.0, 1.0, 1.0, 0.0],
        )));
        let err = solver.run(&inst, &RunConfig::default()).unwrap_err();
        assert!(matches!(err, SolveError::WrongInstanceKind { .. }));
        assert!(err.to_string().contains("open-all"));
    }
}

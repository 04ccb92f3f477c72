//! Registry entries: each solver as data, and the one runner that drives
//! them.

use crate::config::RunConfig;
use crate::run::{ProblemKind, Run};
use parfaclo_metric::{Backend, BuildError, ClusterInstance, FlInstance};
use parfaclo_trace as trace;
use std::sync::Arc;
use std::time::Instant;

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

/// A solve function, typed by the instance it consumes.
///
/// A solve function fills only the results of its [`Run`] (cost,
/// certificate, selection, assignment, rounds, work, extras); the entry's
/// [`SolverEntry::run`] stamps the rest. It returns `Err` with a
/// human-readable reason when the run is infeasible as configured — for
/// example a threshold graph refusing an allocation beyond its size cap —
/// rather than panicking; the registry surfaces this as
/// [`SolveError::Infeasible`].
#[derive(Clone, Copy)]
pub enum Solve {
    /// Consumes a facility-location instance.
    Fl(fn(&FlInstance, &RunConfig) -> Result<Run, String>),
    /// Consumes a clustering instance.
    Cluster(fn(&ClusterInstance, &RunConfig) -> Result<Run, String>),
}

/// One solver of the registry: who it is, what it promises, where it comes
/// from, and its solve function.
///
/// Each algorithm crate exports its entries as a table (`solvers::SOLVERS`);
/// every algorithm stays a free function of its instance and [`RunConfig`],
/// and the solve functions only repackage its result into a [`Run`].
#[derive(Clone, Copy)]
pub struct SolverEntry {
    /// Stable registry name (kebab-case, e.g. `"primal-dual"`).
    pub name: &'static str,
    /// The problem family this solver addresses.
    pub problem: ProblemKind,
    /// The approximation factor the algorithm promises before the `+ ε`
    /// (0 when no guarantee applies, e.g. heuristics).
    pub guarantee: f64,
    /// Whether `guarantee` is exact rather than paying the paper's `+ ε`
    /// slack (true for the sequential baselines).
    pub exact: bool,
    /// Where in the paper (or the literature) the algorithm comes from.
    pub paper_ref: &'static str,
    /// Runs the algorithm on its instance type.
    pub solve: Solve,
}

impl SolverEntry {
    /// Human-readable guarantee, e.g. `3.722 + eps`, `2` (exact) or `-`.
    pub fn guarantee_label(&self) -> String {
        if self.guarantee <= 0.0 {
            "-".to_string()
        } else if self.exact {
            format!("{}", self.guarantee)
        } else {
            format!("{} + eps", self.guarantee)
        }
    }

    /// Routes the instance to the solve function, runs it under the tracer
    /// and thread pool, and stamps the envelope: the entry's identity
    /// (solver, problem, guarantee), the instance size (`n`, `m`), the
    /// configuration echo (ε, seed) and the timing metadata (wall time,
    /// threads, backend, memory, phase walls).
    pub fn run(&self, inst: &AnyInstance, cfg: &RunConfig) -> Result<Run, SolveError> {
        match (self.solve, inst) {
            (Solve::Fl(solve), AnyInstance::Fl(fl)) => {
                self.run_routed(inst, cfg, || solve(fl, cfg))
            }
            (Solve::Cluster(solve), AnyInstance::Cluster(c)) => {
                self.run_routed(inst, cfg, || solve(c, cfg))
            }
            _ => Err(SolveError::WrongInstanceKind {
                solver: self.name.to_string(),
                got: inst.describes(),
            }),
        }
    }

    /// [`SolverEntry::run`] past the routing: the one place the stamped
    /// fields are set.
    fn run_routed(
        &self,
        inst: &AnyInstance,
        cfg: &RunConfig,
        solve: impl FnOnce() -> Result<Run, String>,
    ) -> Result<Run, SolveError> {
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
        let root = trace::span(&format!("solve:{}", self.name), None);
        let root_index = root.index();
        let (solved, threads) = match cfg.threads {
            Some(n) => {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(n)
                    .build()
                    .expect("thread pool construction is infallible");
                (pool.install(solve), pool.current_num_threads())
            }
            None => (solve(), rayon::current_num_threads()),
        };
        drop(root);
        let mut run = solved.map_err(|reason| SolveError::Infeasible {
            solver: self.name.to_string(),
            reason,
        })?;
        run.solver = self.name.to_string();
        run.problem = self.problem;
        run.guarantee = self.guarantee;
        run.n = inst.n();
        run.m = inst.m();
        run.epsilon = cfg.epsilon;
        run.seed = cfg.seed;
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

    /// A toy solve that opens every facility.
    fn open_all(inst: &FlInstance, _cfg: &RunConfig) -> Result<Run, String> {
        let open: Vec<usize> = (0..inst.num_facilities()).collect();
        let cost = inst.opening_cost(&open) + inst.connection_cost(&open);
        Ok(Run::default().with_cost(cost).with_selected(open))
    }

    const OPEN_ALL: SolverEntry = SolverEntry {
        name: "open-all",
        problem: ProblemKind::FacilityLocation,
        guarantee: 1.5,
        exact: false,
        paper_ref: "",
        solve: Solve::Fl(open_all),
    };

    fn tiny_fl() -> FlInstance {
        FlInstance::new(
            vec![10.0, 20.0],
            DistanceMatrix::from_rows(3, 2, vec![1.0, 4.0, 2.0, 3.0, 5.0, 1.0]),
        )
    }

    #[test]
    fn entry_routes_and_stamps_timing() {
        let inst = AnyInstance::Fl(tiny_fl());
        let cfg = RunConfig::new(0.1).with_seed(3);
        let run = OPEN_ALL.run(&inst, &cfg).expect("fl instance accepted");
        assert_eq!(run.solver, "open-all");
        assert_eq!(run.problem, ProblemKind::FacilityLocation);
        assert_eq!(run.cost, 34.0);
        assert_eq!(run.guarantee, 1.5);
        assert_eq!((run.n, run.m), (3, 6));
        assert_eq!((run.epsilon, run.seed), (0.1, 3));
        assert!(run.wall_ms >= 0.0);
        assert_eq!(OPEN_ALL.guarantee_label(), "1.5 + eps");
    }

    #[test]
    fn wrong_instance_kind_is_rejected() {
        let inst = AnyInstance::Cluster(ClusterInstance::new(DistanceMatrix::from_rows(
            2,
            2,
            vec![0.0, 1.0, 1.0, 0.0],
        )));
        let err = OPEN_ALL.run(&inst, &RunConfig::default()).unwrap_err();
        assert!(matches!(err, SolveError::WrongInstanceKind { .. }));
        assert!(err.to_string().contains("open-all"));
    }
}

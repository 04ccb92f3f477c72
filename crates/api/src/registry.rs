//! The string-keyed solver registry.

use crate::config::RunConfig;
use crate::run::Run;
use crate::solver::{AnyInstance, DynSolver, SolveError};
use std::collections::BTreeMap;

/// An ordered, string-keyed collection of type-erased solvers.
///
/// Callers (the `parfaclo` CLI, benches, conformance tests) enumerate and
/// select solvers by name; iteration order is lexicographic so listings and
/// sweeps are deterministic.
#[derive(Default)]
pub struct Registry {
    solvers: BTreeMap<String, Box<dyn DynSolver>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds a solver under its own name.
    ///
    /// # Panics
    /// Panics if a solver with the same name is already registered —
    /// duplicate names are always a wiring bug.
    pub fn register(&mut self, solver: Box<dyn DynSolver>) {
        let name = solver.name().to_string();
        let duplicate = self.solvers.insert(name.clone(), solver).is_some();
        assert!(!duplicate, "duplicate solver name '{name}' in registry");
    }

    /// Looks up a solver by name.
    pub fn get(&self, name: &str) -> Option<&dyn DynSolver> {
        self.solvers.get(name).map(|b| b.as_ref())
    }

    /// All registered names, lexicographically sorted.
    pub fn names(&self) -> Vec<&str> {
        self.solvers.keys().map(|k| k.as_str()).collect()
    }

    /// Number of registered solvers.
    pub fn len(&self) -> usize {
        self.solvers.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.solvers.is_empty()
    }

    /// Iterates over the solvers in name order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn DynSolver> {
        self.solvers.values().map(|b| b.as_ref())
    }

    /// Convenience: looks up `name` and runs it on `inst`.
    pub fn run(&self, name: &str, inst: &AnyInstance, cfg: &RunConfig) -> Result<Run, SolveError> {
        self.get(name)
            .ok_or_else(|| SolveError::UnknownSolver(name.to_string()))?
            .run(inst, cfg)
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::ProblemKind;
    use crate::solver::Solver;
    use parfaclo_metric::{DistanceMatrix, FlInstance};

    struct Dummy(&'static str);

    impl Solver for Dummy {
        type Instance = FlInstance;

        fn name(&self) -> &str {
            self.0
        }

        fn problem(&self) -> ProblemKind {
            ProblemKind::FacilityLocation
        }

        fn solve(&self, _inst: &FlInstance, cfg: &RunConfig) -> Result<Run, String> {
            Ok(Run::new(self.0, ProblemKind::FacilityLocation)
                .with_cost(1.0)
                .with_selected(vec![0])
                .with_config_echo(cfg))
        }
    }

    fn tiny() -> AnyInstance {
        AnyInstance::Fl(FlInstance::new(
            vec![1.0],
            DistanceMatrix::from_rows(1, 1, vec![0.5]),
        ))
    }

    #[test]
    fn names_are_sorted_and_lookup_works() {
        let mut r = Registry::new();
        r.register(Box::new(Dummy("zeta")));
        r.register(Box::new(Dummy("alpha")));
        assert_eq!(r.names(), vec!["alpha", "zeta"]);
        assert_eq!(r.len(), 2);
        assert!(r.get("alpha").is_some());
        assert!(r.get("missing").is_none());
        let run = r.run("zeta", &tiny(), &RunConfig::default()).unwrap();
        assert_eq!(run.solver, "zeta");
    }

    #[test]
    fn unknown_solver_error() {
        let r = Registry::new();
        assert!(r.is_empty());
        let err = r.run("ghost", &tiny(), &RunConfig::default()).unwrap_err();
        assert_eq!(err, SolveError::UnknownSolver("ghost".to_string()));
    }

    #[test]
    #[should_panic(expected = "duplicate solver name")]
    fn duplicate_names_panic() {
        let mut r = Registry::new();
        r.register(Box::new(Dummy("same")));
        r.register(Box::new(Dummy("same")));
    }
}

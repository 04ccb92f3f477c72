//! [`Solver`] adapters for the parallel facility-location algorithms.
//!
//! The free functions (`greedy::parallel_greedy`, …) remain the
//! implementations; the types here are thin adapters that project a
//! [`RunConfig`] into an [`FlConfig`], call the algorithm, and repackage the
//! [`FlSolution`] into the unified [`Run`] envelope so the registry, the
//! `parfaclo` CLI and the conformance tests can drive every algorithm
//! uniformly.

use crate::config::FlConfig;
use crate::solution::FlSolution;
use crate::{greedy, local_search_fl, lp_rounding, primal_dual};
use parfaclo_api::{ProblemKind, Run, RunConfig, Solver};
use parfaclo_lp::solve_facility_lp;
use parfaclo_metric::FlInstance;
use parfaclo_trace as trace;

impl From<&RunConfig> for FlConfig {
    fn from(cfg: &RunConfig) -> Self {
        FlConfig {
            epsilon: cfg.epsilon,
            seed: cfg.seed,
            preprocess: cfg.preprocess,
            subselection: cfg.subselection,
            max_rounds: cfg.max_rounds,
        }
    }
}

/// Repackages an [`FlSolution`] into the unified envelope.
fn fl_envelope(
    solver: &(impl Solver + ?Sized),
    inst: &FlInstance,
    sol: FlSolution,
    cfg: &FlConfig,
) -> Run {
    Run::new(Solver::name(solver), Solver::problem(solver))
        .with_guarantee(Solver::guarantee(solver))
        .with_instance_size(inst.num_clients(), inst.m())
        .with_cost(sol.cost)
        .with_lower_bound(sol.lower_bound)
        .with_selected(sol.open)
        .with_assignment(sol.assignment)
        .with_rounds(sol.rounds, sol.inner_rounds)
        .with_work(sol.work)
        .with_extra("opening_cost", sol.opening_cost)
        .with_extra("connection_cost", sol.connection_cost)
        .with_extra("preprocess", cfg.preprocess as u8 as f64)
        .with_extra("subselection", cfg.subselection as u8 as f64)
}

/// Stamps the ε/seed echo (the typed entry point receives `FlConfig`, which
/// carries both).
fn echo(mut run: Run, cfg: &FlConfig) -> Run {
    run.epsilon = cfg.epsilon;
    run.seed = cfg.seed;
    run
}

/// The parallel greedy algorithm (Algorithm 4.1) behind the unified API.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedySolver;

impl Solver for GreedySolver {
    type Instance = FlInstance;
    type Config = FlConfig;

    fn name(&self) -> &str {
        "greedy"
    }

    fn problem(&self) -> ProblemKind {
        ProblemKind::FacilityLocation
    }

    fn guarantee(&self) -> f64 {
        3.722
    }

    fn paper_ref(&self) -> &str {
        "Algorithm 4.1, Theorem 4.9"
    }

    fn solve(&self, inst: &FlInstance, cfg: &FlConfig) -> Result<Run, String> {
        let sol = greedy::parallel_greedy(inst, cfg);
        Ok(echo(fl_envelope(self, inst, sol, cfg), cfg))
    }
}

/// The parallel primal-dual algorithm (Algorithm 5.1) behind the unified API.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrimalDualSolver;

impl Solver for PrimalDualSolver {
    type Instance = FlInstance;
    type Config = FlConfig;

    fn name(&self) -> &str {
        "primal-dual"
    }

    fn problem(&self) -> ProblemKind {
        ProblemKind::FacilityLocation
    }

    fn guarantee(&self) -> f64 {
        3.0
    }

    fn paper_ref(&self) -> &str {
        "Algorithm 5.1, Theorem 5.4"
    }

    fn solve(&self, inst: &FlInstance, cfg: &FlConfig) -> Result<Run, String> {
        let sol = primal_dual::parallel_primal_dual(inst, cfg).map_err(|e| e.to_string())?;
        Ok(echo(fl_envelope(self, inst, sol, cfg), cfg))
    }
}

/// Parallel LP rounding (Section 6.2) behind the unified API.
///
/// The paper's algorithm consumes an optimal fractional LP solution; this
/// adapter solves the relaxation first (with the workspace's own simplex
/// solver), so it is practical only for small/medium instances — the
/// `O((nc·nf)³)`-ish simplex cost dominates well before the rounding does.
///
/// If the simplex solver fails, the run is reported infeasible. The
/// facility-location relaxation of a well-formed instance is always feasible
/// (open everything) and bounded (costs are non-negative), so this only
/// occurs on numerically degenerate inputs — or, up front, when the dense
/// tableau would exceed the scratch cap.
#[derive(Debug, Clone, Copy, Default)]
pub struct LpRoundingSolver;

impl Solver for LpRoundingSolver {
    type Instance = FlInstance;
    type Config = FlConfig;

    fn name(&self) -> &str {
        "lp-rounding"
    }

    fn problem(&self) -> ProblemKind {
        ProblemKind::FacilityLocation
    }

    fn guarantee(&self) -> f64 {
        4.0
    }

    fn paper_ref(&self) -> &str {
        "Section 6.2, Theorem 6.5"
    }

    fn solve(&self, inst: &FlInstance, cfg: &FlConfig) -> Result<Run, String> {
        let lp = {
            let _span = trace::span("lp-solve", None);
            solve_facility_lp(inst).map_err(|e| e.to_string())?
        };
        let sol = lp_rounding::parallel_lp_rounding(inst, &lp, cfg);
        Ok(echo(
            fl_envelope(self, inst, sol, cfg).with_extra("lp_value", lp.value()),
            cfg,
        ))
    }
}

/// The parallel add/drop/swap local search for facility location (the
/// Section 7 extension) behind the unified API.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlLocalSearchSolver;

impl Solver for FlLocalSearchSolver {
    type Instance = FlInstance;
    type Config = FlConfig;

    fn name(&self) -> &str {
        "local-search-fl"
    }

    fn problem(&self) -> ProblemKind {
        ProblemKind::FacilityLocation
    }

    fn guarantee(&self) -> f64 {
        3.0
    }

    fn paper_ref(&self) -> &str {
        "Section 7 (closing remark)"
    }

    fn solve(&self, inst: &FlInstance, cfg: &FlConfig) -> Result<Run, String> {
        let sol = local_search_fl::parallel_local_search_fl(inst, cfg);
        Ok(echo(fl_envelope(self, inst, sol, cfg), cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfaclo_metric::gen::{self, GenParams};

    fn tiny() -> FlInstance {
        gen::facility_location(GenParams::uniform_square(12, 6).with_seed(3))
    }

    #[test]
    fn greedy_adapter_matches_free_function() {
        let inst = tiny();
        let rc = RunConfig::new(0.1).with_seed(5);
        let cfg = FlConfig::from(&rc);
        let direct = greedy::parallel_greedy(&inst, &cfg);
        let run = GreedySolver.solve(&inst, &cfg).expect("feasible");
        assert_eq!(run.cost, direct.cost);
        assert_eq!(run.selected, direct.open);
        assert_eq!(run.lower_bound, direct.lower_bound);
        assert_eq!(run.rounds, direct.rounds);
        assert_eq!(run.seed, 5);
        run.validate().expect("valid envelope");
    }

    #[test]
    fn runconfig_projection_preserves_ablation_knobs() {
        let rc = RunConfig::new(0.3)
            .with_seed(9)
            .with_preprocess(false)
            .with_subselection(false);
        let cfg = FlConfig::from(&rc);
        assert_eq!(cfg.epsilon, 0.3);
        assert_eq!(cfg.seed, 9);
        assert!(!cfg.preprocess);
        assert!(!cfg.subselection);
        assert_eq!(cfg.max_rounds, rc.max_rounds);
    }

    #[test]
    fn all_fl_adapters_produce_valid_runs() {
        let inst = tiny();
        let cfg = FlConfig::from(&RunConfig::new(0.2).with_seed(1));
        for run in [
            GreedySolver.solve(&inst, &cfg).expect("feasible"),
            PrimalDualSolver.solve(&inst, &cfg).expect("feasible"),
            LpRoundingSolver.solve(&inst, &cfg).expect("feasible"),
            FlLocalSearchSolver.solve(&inst, &cfg).expect("feasible"),
        ] {
            run.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", run.solver));
            assert_eq!(run.problem, ProblemKind::FacilityLocation);
            assert_eq!(run.n, 12);
            assert!(run.cost > 0.0);
        }
    }

    #[test]
    fn primal_dual_run_carries_certificate() {
        let inst = tiny();
        let cfg = FlConfig::from(&RunConfig::new(0.1));
        let run = PrimalDualSolver.solve(&inst, &cfg).expect("feasible");
        let ratio = run.certified_ratio().expect("primal-dual certifies");
        assert!(ratio >= 1.0 - 1e-9);
        assert!(ratio <= 3.0 + 0.4, "ratio {ratio} exceeds guarantee");
    }
}

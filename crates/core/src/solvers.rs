//! Registry entries for the parallel facility-location algorithms.
//!
//! The free functions (`greedy::parallel_greedy`, …) remain the
//! implementations and read the same [`RunConfig`]; the solve functions here
//! are thin adapters that call the algorithm and repackage the
//! [`FlSolution`] into the unified [`Run`] envelope so the registry, the
//! `parfaclo` CLI and the conformance tests can drive every algorithm
//! uniformly.

use crate::solution::FlSolution;
use crate::{greedy, local_search_fl, lp_rounding, primal_dual};
use parfaclo_api::{ProblemKind, Run, RunConfig, Solve, SolverEntry};
use parfaclo_lp::solve_facility_lp;
use parfaclo_metric::FlInstance;
use parfaclo_trace as trace;

/// The parallel greedy (Algorithm 4.1), primal-dual (Algorithm 5.1) and LP
/// rounding (Section 6.2) algorithms and the local-search extension.
pub const SOLVERS: &[SolverEntry] = &[
    SolverEntry {
        name: "greedy",
        problem: ProblemKind::FacilityLocation,
        guarantee: 3.722,
        exact: false,
        paper_ref: "Algorithm 4.1, Theorem 4.9",
        solve: Solve::Fl(solve_greedy),
    },
    SolverEntry {
        name: "primal-dual",
        problem: ProblemKind::FacilityLocation,
        guarantee: 3.0,
        exact: false,
        paper_ref: "Algorithm 5.1, Theorem 5.4",
        solve: Solve::Fl(solve_primal_dual),
    },
    SolverEntry {
        name: "lp-rounding",
        problem: ProblemKind::FacilityLocation,
        guarantee: 4.0,
        exact: false,
        paper_ref: "Section 6.2, Theorem 6.5",
        solve: Solve::Fl(solve_lp_rounding),
    },
    SolverEntry {
        name: "local-search-fl",
        problem: ProblemKind::FacilityLocation,
        guarantee: 3.0,
        exact: false,
        paper_ref: "Section 7 (closing remark)",
        solve: Solve::Fl(solve_local_search_fl),
    },
];

/// Repackages an [`FlSolution`] into the unified envelope.
fn fl_envelope(sol: FlSolution, cfg: &RunConfig) -> Run {
    Run::default()
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

fn solve_greedy(inst: &FlInstance, cfg: &RunConfig) -> Result<Run, String> {
    Ok(fl_envelope(greedy::parallel_greedy(inst, cfg), cfg))
}

fn solve_primal_dual(inst: &FlInstance, cfg: &RunConfig) -> Result<Run, String> {
    let sol = primal_dual::parallel_primal_dual(inst, cfg).map_err(|e| e.to_string())?;
    Ok(fl_envelope(sol, cfg))
}

/// LP rounding consumes an optimal fractional LP solution; this solves the
/// relaxation first (with the workspace's own simplex solver), so it is
/// practical only for small/medium instances — the `O((nc·nf)³)`-ish
/// simplex cost dominates well before the rounding does.
///
/// If the simplex solver fails, the run is reported infeasible. The
/// facility-location relaxation of a well-formed instance is always feasible
/// (open everything) and bounded (costs are non-negative), so this only
/// occurs on numerically degenerate inputs — or, up front, when the dense
/// tableau would exceed the scratch cap.
fn solve_lp_rounding(inst: &FlInstance, cfg: &RunConfig) -> Result<Run, String> {
    let lp = {
        let _span = trace::span("lp-solve", None);
        solve_facility_lp(inst).map_err(|e| e.to_string())?
    };
    let sol = lp_rounding::parallel_lp_rounding(inst, &lp, cfg);
    Ok(fl_envelope(sol, cfg).with_extra("lp_value", lp.value()))
}

fn solve_local_search_fl(inst: &FlInstance, cfg: &RunConfig) -> Result<Run, String> {
    Ok(fl_envelope(
        local_search_fl::parallel_local_search_fl(inst, cfg),
        cfg,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfaclo_api::AnyInstance;
    use parfaclo_metric::gen::{self, GenParams};

    fn tiny() -> FlInstance {
        gen::facility_location(GenParams::uniform_square(12, 6).with_seed(3))
    }

    /// Runs the named entry of [`SOLVERS`] on `inst`.
    fn run_entry(name: &str, inst: &FlInstance, cfg: &RunConfig) -> Run {
        let entry = SOLVERS.iter().find(|e| e.name == name).expect(name);
        entry
            .run(&AnyInstance::Fl(inst.clone()), cfg)
            .expect("feasible")
    }

    #[test]
    fn greedy_adapter_matches_free_function() {
        let inst = tiny();
        let cfg = RunConfig::new(0.1).with_seed(5);
        let direct = greedy::parallel_greedy(&inst, &cfg);
        let run = run_entry("greedy", &inst, &cfg);
        assert_eq!(run.cost, direct.cost);
        assert_eq!(run.selected, direct.open);
        assert_eq!(run.lower_bound, direct.lower_bound);
        assert_eq!(run.rounds, direct.rounds);
        assert_eq!(run.seed, 5);
        run.validate().expect("valid envelope");
    }

    #[test]
    fn all_fl_adapters_produce_valid_runs() {
        let inst = AnyInstance::Fl(tiny());
        let cfg = RunConfig::new(0.2).with_seed(1);
        for entry in SOLVERS {
            let run = entry.run(&inst, &cfg).expect("feasible");
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
        let cfg = RunConfig::new(0.1);
        let run = run_entry("primal-dual", &inst, &cfg);
        let ratio = run.certified_ratio().expect("primal-dual certifies");
        assert!(ratio >= 1.0 - 1e-9);
        assert!(ratio <= 3.0 + 0.4, "ratio {ratio} exceeds guarantee");
    }
}

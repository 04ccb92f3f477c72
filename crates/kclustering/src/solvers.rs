//! [`Solver`] adapters for the parallel k-clustering algorithms.
//!
//! As in `parfaclo-core`, the free functions remain the implementations;
//! these types pass them the unified [`RunConfig`] (which carries `k`) and
//! repackage the solutions into [`Run`] envelopes.

use crate::kcenter::parallel_kcenter_derived;
use crate::local_search::{parallel_local_search, ClusterObjective};
use parfaclo_api::{ProblemKind, Run, RunConfig, Solver};
use parfaclo_matrixops::CostMeter;
use parfaclo_metric::coreset::{build_coreset, coreset_instance, Coreset, GridCoreset};
use parfaclo_metric::{ClusterInstance, DistanceOracle, SCRATCH_BYTES_CAP};
use parfaclo_trace as trace;

/// Builds the ε-grid coreset and its weighted sub-instance for a hierarchical
/// solve, or explains why it cannot. Charges `meter` with the grid pass over
/// the `n` points and the sub-instance's `cells²` distances.
fn coreset_for(
    solver_name: &str,
    inst: &ClusterInstance,
    eps: f64,
    k: usize,
    meter: &CostMeter,
) -> Result<(GridCoreset, ClusterInstance), String> {
    let points = inst.points().ok_or_else(|| {
        format!(
            "solver '{solver_name}' with --coreset needs point geometry, but the instance \
             carries none (a hand-written distance matrix); build the instance from points \
             or use --backend implicit / --backend spatial"
        )
    })?;
    let cs = build_coreset(points, eps);
    meter.add_primitive(inst.n() as u64);
    // The sub-instance is a dense `cells × cells` matrix.
    let bytes = (cs.len() as u64).pow(2).saturating_mul(8);
    if bytes > SCRATCH_BYTES_CAP {
        return Err(format!(
            "coreset eps:{eps} keeps {} cells, whose dense sub-instance needs {:.1} GiB, \
             past the 4 GiB cap; use a larger epsilon (fewer grid cells)",
            cs.len(),
            bytes as f64 / (1u64 << 30) as f64
        ));
    }
    if cs.len() < k {
        return Err(format!(
            "coreset eps:{eps} collapses the instance to {} cells, fewer than k = {k}; \
             use a smaller epsilon (more grid cells) or a smaller k",
            cs.len()
        ));
    }
    let sub = coreset_instance(inst, &cs);
    meter.add_primitive((cs.len() * cs.len()) as u64);
    Ok((cs, sub))
}

/// The parallel Hochbaum–Shmoys k-center algorithm (Section 6.1) behind the
/// unified API.
#[derive(Debug, Clone, Copy, Default)]
pub struct KCenterSolver;

impl Solver for KCenterSolver {
    type Instance = ClusterInstance;

    fn name(&self) -> &str {
        "kcenter"
    }

    fn problem(&self) -> ProblemKind {
        ProblemKind::KClustering
    }

    fn guarantee(&self) -> f64 {
        2.0
    }

    fn guarantee_is_exact(&self) -> bool {
        // Theorem 6.1 is a plain 2-approximation: the binary search runs
        // over the exact distance set, no ε slack is paid.
        true
    }

    fn paper_ref(&self) -> &str {
        "Section 6.1, Theorem 6.1"
    }

    fn solve(&self, inst: &ClusterInstance, cfg: &RunConfig) -> Result<Run, String> {
        if let Coreset::Eps(eps) = cfg.coreset {
            // `outer` meters the coreset build and the full-set sweep; the
            // sub-solve's work comes back in `sol.work`.
            let outer = CostMeter::new();
            let (cs, sub) = {
                let _span = trace::span("coreset-build", Some(&outer));
                coreset_for(Solver::name(self), inst, eps, cfg.k, &outer)?
            };
            let meter = CostMeter::new();
            let sol = {
                let _span = trace::span("sub-solve", Some(&meter));
                parallel_kcenter_derived(&sub, cfg, &meter)?
            };
            let sweep_span = trace::span("full-sweep", Some(&outer));
            outer.add_primitive((inst.n() * sol.centers.len()) as u64);
            // Coreset cell indices are assigned in ascending representative
            // order, so this mapping preserves the sorted-centers invariant.
            let centers: Vec<usize> = sol
                .centers
                .iter()
                .map(|&c| cs.representatives()[c])
                .collect();
            // One full-set sweep: assignment plus the true (full-set) radius.
            let mut radius = 0.0_f64;
            let mut assignment = Vec::with_capacity(inst.n());
            for c in inst.closest_center_all(&centers) {
                let (ctr, d) = c.expect("k >= 1 keeps the center set non-empty");
                radius = radius.max(d);
                assignment.push(ctr);
            }
            drop(sweep_span);
            // No `with_lower_bound`: the sub-instance's certified threshold
            // bounds the coreset optimum, not the full-set optimum.
            return Ok(Run::new(Solver::name(self), ProblemKind::KClustering)
                .with_guarantee(Solver::guarantee(self))
                .with_instance_size(inst.n(), inst.n() * inst.n())
                .with_cost(radius)
                .with_selected(centers)
                .with_assignment(assignment)
                .with_rounds(sol.probes, sol.luby_rounds)
                .with_work(sol.work + outer.report())
                .with_extra("threshold", sol.threshold)
                .with_extra("probes", sol.probes as f64)
                .with_extra("k", cfg.k as f64)
                .with_extra("coreset_cost", sol.radius)
                .with_extra("coreset_size", cs.len() as f64)
                .with_extra("coreset_eps", eps)
                .with_config_echo(cfg));
        }
        let sol = parallel_kcenter_derived(inst, cfg, &CostMeter::new())?;
        let assignment = {
            let _span = trace::span("full-sweep", None);
            inst.center_assignment(&sol.centers)
        };
        Ok(Run::new(Solver::name(self), ProblemKind::KClustering)
            .with_guarantee(Solver::guarantee(self))
            .with_instance_size(inst.n(), inst.n() * inst.n())
            .with_cost(sol.radius)
            // With the exact deriver this equals the settled threshold (the
            // smallest feasible member of the complete distance set); the
            // sketch deriver certifies via its largest infeasible probe
            // instead (see `KCenterSolution::lower_bound`).
            .with_lower_bound(sol.lower_bound)
            .with_selected(sol.centers)
            .with_assignment(assignment)
            .with_rounds(sol.probes, sol.luby_rounds)
            .with_work(sol.work)
            .with_extra("threshold", sol.threshold)
            .with_extra("probes", sol.probes as f64)
            .with_extra("k", cfg.k as f64)
            .with_config_echo(cfg))
    }
}

/// Shared adapter for the swap-based local search under either objective.
///
/// With [`Coreset::Eps`] configured this is the hierarchical solve: build
/// the ε-grid coreset, run the swap search on the weighted sub-instance,
/// then make one batched full-set sweep to derive the final assignment and
/// the true (full-set) cost. Both the coreset-internal and full-set costs
/// land in the envelope (`extra.coreset_cost` / `cost`).
fn local_search_run(
    solver: &(impl Solver + ?Sized),
    objective: ClusterObjective,
    inst: &ClusterInstance,
    cfg: &RunConfig,
) -> Result<Run, String> {
    if let Coreset::Eps(eps) = cfg.coreset {
        // `outer` meters the coreset build and the full-set sweep; the
        // sub-solve's work (its k-center seed included) comes back in
        // `sol.work`.
        let outer = CostMeter::new();
        let (cs, sub) = {
            let _span = trace::span("coreset-build", Some(&outer));
            coreset_for(Solver::name(solver), inst, eps, cfg.k, &outer)?
        };
        let meter = CostMeter::new();
        let sol = {
            let _span = trace::span("sub-solve", Some(&meter));
            parallel_local_search(&sub, objective, cfg, &meter)
        };
        let sweep_span = trace::span("full-sweep", Some(&outer));
        outer.add_primitive((inst.n() * sol.centers.len()) as u64);
        // Coreset cell indices are assigned in ascending representative
        // order, so this mapping preserves the sorted-centers invariant.
        let centers: Vec<usize> = sol
            .centers
            .iter()
            .map(|&c| cs.representatives()[c])
            .collect();
        // One full-set sweep via the batched oracle query: assignment plus
        // the true (full-set) objective value.
        let mut cost = 0.0_f64;
        let mut assignment = Vec::with_capacity(inst.n());
        for (j, c) in inst.closest_center_all(&centers).into_iter().enumerate() {
            let (ctr, d) = c.expect("k >= 1 keeps the center set non-empty");
            cost += inst.weight(j)
                * match objective {
                    ClusterObjective::KMedian => d,
                    ClusterObjective::KMeans => d * d,
                };
            assignment.push(ctr);
        }
        drop(sweep_span);
        return Ok(Run::new(Solver::name(solver), ProblemKind::KClustering)
            .with_guarantee(Solver::guarantee(solver))
            .with_instance_size(inst.n(), inst.n() * inst.n())
            .with_cost(cost)
            .with_selected(centers)
            .with_assignment(assignment)
            .with_rounds(sol.rounds, 0)
            .with_work(sol.work + outer.report())
            .with_extra("initial_cost", sol.initial_cost)
            .with_extra("k", cfg.k as f64)
            .with_extra("coreset_cost", sol.cost)
            .with_extra("coreset_size", cs.len() as f64)
            .with_extra("coreset_eps", eps)
            .with_config_echo(cfg));
    }
    // The direct search seeds with exact k-center, which sorts all pairwise
    // distances; refuse before any n² work rather than panic inside it.
    inst.distances().check_distance_sort_cap().map_err(|e| {
        format!(
            "n = {}: the direct local search seeds with exact k-center, and {e}; \
             rerun with --coreset eps:<f64> (e.g. --coreset eps:0.1) for the \
             hierarchical coreset solve",
            inst.n()
        )
    })?;
    let meter = CostMeter::new();
    let sol = {
        let _span = trace::span("swap-search", Some(&meter));
        parallel_local_search(inst, objective, cfg, &meter)
    };
    let assignment = {
        let _span = trace::span("full-sweep", None);
        inst.center_assignment(&sol.centers)
    };
    Ok(Run::new(Solver::name(solver), ProblemKind::KClustering)
        .with_guarantee(Solver::guarantee(solver))
        .with_instance_size(inst.n(), inst.n() * inst.n())
        .with_cost(sol.cost)
        .with_selected(sol.centers)
        .with_assignment(assignment)
        .with_rounds(sol.rounds, 0)
        .with_work(sol.work)
        .with_extra("initial_cost", sol.initial_cost)
        .with_extra("k", cfg.k as f64)
        .with_config_echo(cfg))
}

/// The parallel swap-based local search for k-median (Section 7) behind the
/// unified API.
#[derive(Debug, Clone, Copy, Default)]
pub struct KMedianLocalSearchSolver;

impl Solver for KMedianLocalSearchSolver {
    type Instance = ClusterInstance;

    fn name(&self) -> &str {
        "kmedian-ls"
    }

    fn problem(&self) -> ProblemKind {
        ProblemKind::KClustering
    }

    fn guarantee(&self) -> f64 {
        5.0
    }

    fn paper_ref(&self) -> &str {
        "Section 7, Theorem 7.1"
    }

    fn solve(&self, inst: &ClusterInstance, cfg: &RunConfig) -> Result<Run, String> {
        local_search_run(self, ClusterObjective::KMedian, inst, cfg)
    }
}

/// The parallel swap-based local search for k-means (Section 7) behind the
/// unified API.
#[derive(Debug, Clone, Copy, Default)]
pub struct KMeansLocalSearchSolver;

impl Solver for KMeansLocalSearchSolver {
    type Instance = ClusterInstance;

    fn name(&self) -> &str {
        "kmeans-ls"
    }

    fn problem(&self) -> ProblemKind {
        ProblemKind::KClustering
    }

    fn guarantee(&self) -> f64 {
        81.0
    }

    fn paper_ref(&self) -> &str {
        "Section 7, Theorem 7.1"
    }

    fn solve(&self, inst: &ClusterInstance, cfg: &RunConfig) -> Result<Run, String> {
        local_search_run(self, ClusterObjective::KMeans, inst, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfaclo_metric::gen::{self, GenParams};

    fn tiny() -> ClusterInstance {
        gen::clustering(GenParams::planted(24, 24, 4).with_seed(2))
    }

    #[test]
    fn kcenter_adapter_matches_free_function() {
        let inst = tiny();
        let cfg = RunConfig::new(0.1).with_seed(6).with_k(4);
        let direct = crate::kcenter::parallel_kcenter(&inst, 4, 6, &CostMeter::new())
            .expect("within the sort cap");
        let run = KCenterSolver.solve(&inst, &cfg).expect("feasible");
        assert_eq!(run.cost, direct.radius);
        assert_eq!(run.selected, direct.centers);
        assert_eq!(run.lower_bound, direct.threshold);
        run.validate().expect("valid envelope");
    }

    #[test]
    fn clustering_adapters_produce_valid_runs() {
        let inst = tiny();
        let cfg = RunConfig::new(0.2).with_seed(1).with_k(3);
        for run in [
            KCenterSolver.solve(&inst, &cfg).expect("feasible"),
            KMedianLocalSearchSolver
                .solve(&inst, &cfg)
                .expect("feasible"),
            KMeansLocalSearchSolver
                .solve(&inst, &cfg)
                .expect("feasible"),
        ] {
            run.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", run.solver));
            assert_eq!(run.problem, ProblemKind::KClustering);
            assert!(run.selected.len() <= 3);
            assert_eq!(run.assignment.len(), inst.n());
        }
    }

    #[test]
    fn coreset_runs_are_valid_and_report_both_costs() {
        let inst = tiny();
        let cfg = RunConfig::new(0.2)
            .with_seed(1)
            .with_k(3)
            .with_coreset(Coreset::Eps(0.05));
        for run in [
            KCenterSolver.solve(&inst, &cfg).expect("feasible"),
            KMedianLocalSearchSolver
                .solve(&inst, &cfg)
                .expect("feasible"),
            KMeansLocalSearchSolver
                .solve(&inst, &cfg)
                .expect("feasible"),
        ] {
            run.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", run.solver));
            assert_eq!(run.assignment.len(), inst.n(), "{}", run.solver);
            let extra = |key: &str| -> f64 {
                run.extra
                    .iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("{}: missing extra '{key}'", run.solver))
                    .1
            };
            let size = extra("coreset_size");
            assert!(size >= 3.0 && size <= inst.n() as f64, "{}", run.solver);
            assert_eq!(extra("coreset_eps"), 0.05, "{}", run.solver);
            // The coreset-internal cost is reported alongside the full-set
            // cost, and the full-set cost matches the returned centers.
            let _ = extra("coreset_cost");
            let recomputed = match run.solver.as_str() {
                "kcenter" => inst.kcenter_cost(&run.selected),
                "kmedian-ls" => inst.kmedian_cost(&run.selected),
                _ => inst.kmeans_cost(&run.selected),
            };
            assert_eq!(run.cost, recomputed, "{}", run.solver);
        }
    }

    #[test]
    fn kcenter_coreset_run_claims_no_lower_bound() {
        let inst = tiny();
        let cfg = RunConfig::new(0.2)
            .with_seed(1)
            .with_k(3)
            .with_coreset(Coreset::Eps(0.05));
        let run = KCenterSolver.solve(&inst, &cfg).expect("feasible");
        // The sub-instance threshold certifies the coreset optimum only, so
        // the envelope must not advertise it as a full-set lower bound.
        assert_eq!(run.lower_bound, 0.0);
    }

    #[test]
    fn coreset_without_geometry_is_refused() {
        use parfaclo_metric::DistanceMatrix;
        let inst = ClusterInstance::new(DistanceMatrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]));
        let cfg = RunConfig::new(0.2)
            .with_k(1)
            .with_coreset(Coreset::Eps(0.1));
        let err = KMedianLocalSearchSolver.solve(&inst, &cfg).unwrap_err();
        assert!(err.contains("point geometry"), "{err}");
    }

    #[test]
    fn coreset_past_the_dense_cap_is_refused() {
        use parfaclo_metric::{gen::build_clustering, Backend};
        // 24,000 spread points at eps:1e-6 keep one cell each.
        let params = GenParams::uniform_square(24_000, 1).with_seed(3);
        let inst = build_clustering(params, Backend::Implicit).expect("O(n) memory");
        let cfg = RunConfig::new(0.2)
            .with_k(4)
            .with_coreset(Coreset::Eps(1e-6));
        let err = KMedianLocalSearchSolver.solve(&inst, &cfg).unwrap_err();
        assert!(err.contains("larger epsilon"), "{err}");
        let err = KCenterSolver.solve(&inst, &cfg).unwrap_err();
        assert!(err.contains("larger epsilon"), "{err}");
    }

    #[test]
    fn coreset_smaller_than_k_is_refused() {
        let inst = tiny();
        // eps:10 puts every point in one grid cell: 1 cell < k = 3.
        let cfg = RunConfig::new(0.2)
            .with_k(3)
            .with_coreset(Coreset::Eps(10.0));
        let err = KMedianLocalSearchSolver.solve(&inst, &cfg).unwrap_err();
        assert!(err.contains("fewer than k"), "{err}");
    }

    #[test]
    fn oversized_direct_local_search_is_refused_with_a_coreset_pointer() {
        use parfaclo_metric::{gen::build_clustering, Backend};
        // Past n ≈ 23,170 the k-center seed's distance sort exceeds the
        // 4 GiB cap; both searches refuse before any n² work.
        let params = GenParams::uniform_square(24_000, 1).with_seed(3);
        let inst = build_clustering(params, Backend::Implicit).expect("O(n) memory");
        let cfg = RunConfig::new(0.2).with_k(4);
        let err = KMeansLocalSearchSolver.solve(&inst, &cfg).unwrap_err();
        assert!(err.contains("--coreset eps:<f64>"), "{err}");
        let err = KMedianLocalSearchSolver.solve(&inst, &cfg).unwrap_err();
        assert!(err.contains("--coreset eps:<f64>"), "{err}");
        assert!(!err.contains("--radius-deriver"), "{err}");
        // The same instance is accepted once a coreset is configured.
        let run = KMedianLocalSearchSolver
            .solve(&inst, &cfg.with_coreset(Coreset::Eps(0.1)))
            .expect("hierarchical solve succeeds");
        assert_eq!(run.assignment.len(), inst.n());
    }

    #[test]
    fn swap_search_and_sub_solve_spans_are_metered() {
        use std::sync::Arc;
        let inst = gen::clustering(GenParams::uniform_square(60, 60).with_seed(3));
        let direct = RunConfig::new(0.1).with_seed(3).with_k(4);
        let coreset = direct.clone().with_coreset(Coreset::Eps(0.25));
        type Solve = fn(&ClusterInstance, &RunConfig) -> Result<Run, String>;
        let local: Solve = |inst, cfg| KMedianLocalSearchSolver.solve(inst, cfg);
        let kcenter: Solve = |inst, cfg| KCenterSolver.solve(inst, cfg);
        for (solver, cfg, phases) in [
            (local, &direct, &["swap-search"][..]),
            (
                local,
                &coreset,
                &["coreset-build", "sub-solve", "full-sweep"][..],
            ),
            (
                kcenter,
                &coreset,
                &["coreset-build", "sub-solve", "full-sweep"][..],
            ),
        ] {
            let tracer = Arc::new(trace::Tracer::new(trace::TraceDetail::Phases));
            let guard = trace::install(Arc::clone(&tracer));
            let run = solver(&inst, cfg).expect("feasible");
            drop(guard);
            let summary = tracer.phase_summary();
            for &phase in phases {
                let row = summary
                    .iter()
                    .find(|row| row.name == phase)
                    .expect("phase traced");
                assert!(
                    row.element_ops > 0,
                    "{} {phase} reads as zero work",
                    run.solver
                );
                assert!(
                    row.element_ops <= run.work.element_ops,
                    "{} {phase}",
                    run.solver
                );
            }
        }
    }
}

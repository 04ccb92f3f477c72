//! [`Solver`] adapters for the parallel k-clustering algorithms.
//!
//! As in `parfaclo-core`, the free functions remain the implementations;
//! these types project the unified [`RunConfig`] (which carries `k`) into
//! the native argument lists and repackage the solutions into [`Run`]
//! envelopes.

use crate::kcenter::parallel_kcenter_derived;
use crate::local_search::{parallel_local_search, ClusterObjective, LocalSearchConfig};
use parfaclo_api::{ProblemKind, Run, RunConfig, Solver};
use parfaclo_metric::coreset::{build_coreset, coreset_instance, Coreset, GridCoreset};
use parfaclo_metric::ClusterInstance;
use parfaclo_trace as trace;

/// Largest instance the direct (non-coreset) local search accepts: the swap
/// sweep is `O(n² k)` per round, so past this point the run would take hours
/// — the hierarchical `--coreset eps:<f64>` path is the supported route.
const DIRECT_LOCAL_SEARCH_LIMIT: usize = 32_768;

/// Builds the ε-grid coreset and its weighted sub-instance for a hierarchical
/// solve, or explains why it cannot.
fn coreset_for(
    solver_name: &str,
    inst: &ClusterInstance,
    eps: f64,
    k: usize,
) -> Result<(GridCoreset, ClusterInstance), String> {
    let points = inst.points().ok_or_else(|| {
        format!(
            "solver '{solver_name}' with --coreset needs point geometry, but the instance \
             carries none (a hand-written distance matrix); build the instance from points \
             or use --backend implicit / --backend spatial"
        )
    })?;
    let cs = build_coreset(points, eps);
    if cs.len() < k {
        return Err(format!(
            "coreset eps:{eps} collapses the instance to {} cells, fewer than k = {k}; \
             use a smaller epsilon (more grid cells) or a smaller k",
            cs.len()
        ));
    }
    let sub = coreset_instance(inst, &cs);
    Ok((cs, sub))
}

impl From<&RunConfig> for LocalSearchConfig {
    fn from(cfg: &RunConfig) -> Self {
        LocalSearchConfig {
            epsilon: cfg.epsilon,
            seed: cfg.seed,
            max_rounds: cfg.max_rounds,
        }
    }
}

/// The parallel Hochbaum–Shmoys k-center algorithm (Section 6.1) behind the
/// unified API.
#[derive(Debug, Clone, Copy, Default)]
pub struct KCenterSolver;

impl Solver for KCenterSolver {
    type Instance = ClusterInstance;
    type Config = RunConfig;

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
            let (cs, sub) = {
                let _span = trace::span("coreset-build", None);
                coreset_for(Solver::name(self), inst, eps, cfg.k)?
            };
            let sol = {
                let _span = trace::span("sub-solve", None);
                parallel_kcenter_derived(&sub, cfg.k, cfg.seed, cfg.graph, cfg.radius_deriver)?
            };
            let sweep_span = trace::span("full-sweep", None);
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
                .with_work(sol.work)
                .with_extra("threshold", sol.threshold)
                .with_extra("probes", sol.probes as f64)
                .with_extra("k", cfg.k as f64)
                .with_extra("coreset_cost", sol.radius)
                .with_extra("coreset_size", cs.len() as f64)
                .with_extra("coreset_eps", eps)
                .with_config_echo(cfg));
        }
        let sol = parallel_kcenter_derived(inst, cfg.k, cfg.seed, cfg.graph, cfg.radius_deriver)?;
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
        let (cs, sub) = {
            let _span = trace::span("coreset-build", None);
            coreset_for(Solver::name(solver), inst, eps, cfg.k)?
        };
        let ls_cfg = LocalSearchConfig::from(cfg);
        let sol = {
            let _span = trace::span("sub-solve", None);
            parallel_local_search(&sub, cfg.k, objective, &ls_cfg)
        };
        let sweep_span = trace::span("full-sweep", None);
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
            .with_work(sol.work)
            .with_extra("initial_cost", sol.initial_cost)
            .with_extra("k", cfg.k as f64)
            .with_extra("coreset_cost", sol.cost)
            .with_extra("coreset_size", cs.len() as f64)
            .with_extra("coreset_eps", eps)
            .with_config_echo(cfg));
    }
    if inst.n() > DIRECT_LOCAL_SEARCH_LIMIT {
        return Err(format!(
            "n = {} exceeds the direct local-search limit of {DIRECT_LOCAL_SEARCH_LIMIT} \
             nodes (the swap sweep is O(n^2 k) per round); rerun with --coreset eps:<f64> \
             (e.g. --coreset eps:0.1) for the hierarchical coreset solve",
            inst.n()
        ));
    }
    let ls_cfg = LocalSearchConfig::from(cfg);
    let sol = {
        let _span = trace::span("swap-search", None);
        parallel_local_search(inst, cfg.k, objective, &ls_cfg)
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
    type Config = RunConfig;

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
    type Config = RunConfig;

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
        let direct = crate::kcenter::parallel_kcenter(&inst, 4, 6);
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
        let params = GenParams::uniform_square(DIRECT_LOCAL_SEARCH_LIMIT + 1, 1).with_seed(3);
        let inst = build_clustering(params, Backend::Implicit).expect("O(n) memory");
        let cfg = RunConfig::new(0.2).with_k(4);
        let err = KMedianLocalSearchSolver.solve(&inst, &cfg).unwrap_err();
        assert!(err.contains("--coreset eps:<f64>"), "{err}");
        // The same instance is accepted once a coreset is configured.
        let run = KMedianLocalSearchSolver
            .solve(&inst, &cfg.with_coreset(Coreset::Eps(0.1)))
            .expect("hierarchical solve succeeds");
        assert_eq!(run.assignment.len(), inst.n());
    }

    #[test]
    fn local_search_config_projection() {
        let rc = RunConfig::new(0.4).with_seed(11).with_max_rounds(77);
        let ls = LocalSearchConfig::from(&rc);
        assert_eq!(ls.epsilon, 0.4);
        assert_eq!(ls.seed, 11);
        assert_eq!(ls.max_rounds, 77);
    }
}

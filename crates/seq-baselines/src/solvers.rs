//! Registry entries for the sequential baselines.
//!
//! Registering the baselines alongside the parallel algorithms is what makes
//! the unified runner's comparisons meaningful: the same CLI invocation can
//! sweep `greedy` (parallel, Algorithm 4.1) and `jms-greedy` (the sequential
//! algorithm it mimics) on the same generated instance and emit directly
//! comparable JSON records.

use crate::jain_vazirani::jain_vazirani;
use crate::jms_greedy::jms_greedy;
use crate::kcenter::{gonzalez_kcenter, hochbaum_shmoys_kcenter, KCenterResult};
use crate::local_search::local_search_kmedian;
use parfaclo_api::{ProblemKind, Run, RunConfig, Solve, SolverEntry};
use parfaclo_metric::{ClusterInstance, FlInstance};

/// JMS dual-fitting scale factor: `α/1.861` is dual feasible (Jain et al.,
/// J. ACM 2003), so `Σ α_j / 1.861` certifies a lower bound on `opt`.
const JMS_DUAL_SCALE: f64 = 1.861;

/// The sequential algorithms the parallel ones mimic or parallelise:
/// JMS greedy, Jain–Vazirani, Gonzalez, Hochbaum–Shmoys and the swap-based
/// k-median local search.
pub const SOLVERS: &[SolverEntry] = &[
    SolverEntry {
        name: "jms-greedy",
        problem: ProblemKind::FacilityLocation,
        guarantee: 1.861,
        exact: true,
        paper_ref: "Jain et al., J. ACM 2003 (sequential baseline)",
        solve: Solve::Fl(solve_jms_greedy),
    },
    SolverEntry {
        name: "jain-vazirani",
        problem: ProblemKind::FacilityLocation,
        guarantee: 3.0,
        exact: true,
        paper_ref: "Jain & Vazirani, J. ACM 2001 (sequential baseline)",
        solve: Solve::Fl(solve_jain_vazirani),
    },
    SolverEntry {
        name: "gonzalez",
        problem: ProblemKind::KClustering,
        guarantee: 2.0,
        exact: true,
        paper_ref: "Gonzalez 1985 (sequential baseline)",
        solve: Solve::Cluster(solve_gonzalez),
    },
    SolverEntry {
        name: "hs-kcenter",
        problem: ProblemKind::KClustering,
        guarantee: 2.0,
        exact: true,
        paper_ref: "Hochbaum & Shmoys 1985 (sequential baseline)",
        solve: Solve::Cluster(solve_hs_kcenter),
    },
    SolverEntry {
        name: "kmedian-seq",
        problem: ProblemKind::KClustering,
        guarantee: 5.0,
        exact: false,
        paper_ref: "Arya et al. 2004 (sequential baseline)",
        solve: Solve::Cluster(solve_kmedian_seq),
    },
];

fn solve_jms_greedy(inst: &FlInstance, _cfg: &RunConfig) -> Result<Run, String> {
    let result = jms_greedy(inst);
    let lower_bound = result.alpha.iter().sum::<f64>() / JMS_DUAL_SCALE;
    let assignment = inst.closest_assignment(&result.open);
    Ok(Run::default()
        .with_cost(result.cost)
        .with_lower_bound(lower_bound)
        .with_selected(result.open)
        .with_assignment(assignment)
        .with_rounds(result.rounds, 0))
}

fn solve_jain_vazirani(inst: &FlInstance, _cfg: &RunConfig) -> Result<Run, String> {
    let result = jain_vazirani(inst);
    // JV's α vector is dual feasible as-is, so its sum lower-bounds opt.
    let lower_bound = result.alpha.iter().sum::<f64>();
    let assignment = inst.closest_assignment(&result.open);
    Ok(Run::default()
        .with_cost(result.cost)
        .with_lower_bound(lower_bound)
        .with_selected(result.open)
        .with_assignment(assignment)
        .with_rounds(result.events, 0)
        .with_extra("temporarily_open", result.temporarily_open.len() as f64))
}

fn kcenter_envelope(inst: &ClusterInstance, result: KCenterResult, cfg: &RunConfig) -> Run {
    let assignment = inst.center_assignment(&result.centers);
    Run::default()
        .with_cost(result.radius)
        .with_selected(result.centers)
        .with_assignment(assignment)
        .with_extra("k", cfg.k as f64)
}

fn solve_gonzalez(inst: &ClusterInstance, cfg: &RunConfig) -> Result<Run, String> {
    Ok(kcenter_envelope(inst, gonzalez_kcenter(inst, cfg.k), cfg))
}

fn solve_hs_kcenter(inst: &ClusterInstance, cfg: &RunConfig) -> Result<Run, String> {
    // The baseline derives its candidate radii by sorting all n² pairwise
    // distances; refuse up front past the oracle's scratch cap instead of
    // exhausting memory inside the library call.
    use parfaclo_metric::DistanceOracle;
    inst.distances().check_distance_sort_cap().map_err(|e| {
        format!(
            "deriving the candidate radii: {e}; use a smaller instance, \
             or the parallel kcenter solver"
        )
    })?;
    Ok(kcenter_envelope(
        inst,
        hochbaum_shmoys_kcenter(inst, cfg.k),
        cfg,
    ))
}

fn solve_kmedian_seq(inst: &ClusterInstance, cfg: &RunConfig) -> Result<Run, String> {
    let result = local_search_kmedian(inst, cfg.k, cfg.epsilon);
    let assignment = inst.center_assignment(&result.centers);
    Ok(Run::default()
        .with_cost(result.cost)
        .with_selected(result.centers)
        .with_assignment(assignment)
        .with_rounds(result.swaps, 0)
        .with_extra("k", cfg.k as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfaclo_api::AnyInstance;
    use parfaclo_metric::gen::{self, GenParams};

    /// Runs the named entry of [`SOLVERS`] on `inst`.
    fn run_entry(name: &str, inst: &AnyInstance, cfg: &RunConfig) -> Run {
        let entry = SOLVERS.iter().find(|e| e.name == name).expect(name);
        entry.run(inst, cfg).expect("feasible")
    }

    #[test]
    fn fl_baselines_produce_valid_runs() {
        let inst = AnyInstance::Fl(gen::facility_location(
            GenParams::uniform_square(10, 5).with_seed(1),
        ));
        let cfg = RunConfig::new(0.1).with_seed(1);
        for run in [
            run_entry("jms-greedy", &inst, &cfg),
            run_entry("jain-vazirani", &inst, &cfg),
        ] {
            run.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", run.solver));
            // Both carry a certified dual lower bound.
            assert!(
                run.certified_ratio().is_some(),
                "{} lacks certificate",
                run.solver
            );
        }
    }

    #[test]
    fn clustering_baselines_produce_valid_runs() {
        let inst =
            AnyInstance::Cluster(gen::clustering(GenParams::planted(18, 18, 3).with_seed(4)));
        let cfg = RunConfig::new(0.1).with_k(3);
        for run in [
            run_entry("gonzalez", &inst, &cfg),
            run_entry("hs-kcenter", &inst, &cfg),
            run_entry("kmedian-seq", &inst, &cfg),
        ] {
            run.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", run.solver));
            assert!(run.selected.len() <= 3);
        }
    }
}

//! [`Solver`] adapters for the sequential baselines.
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
use parfaclo_api::{ProblemKind, Run, RunConfig, Solver};
use parfaclo_metric::{ClusterInstance, FlInstance};

/// JMS dual-fitting scale factor: `α/1.861` is dual feasible (Jain et al.,
/// J. ACM 2003), so `Σ α_j / 1.861` certifies a lower bound on `opt`.
const JMS_DUAL_SCALE: f64 = 1.861;

/// The sequential JMS greedy (the algorithm the parallel greedy mimics).
#[derive(Debug, Clone, Copy, Default)]
pub struct JmsGreedySolver;

impl Solver for JmsGreedySolver {
    type Instance = FlInstance;
    type Config = RunConfig;

    fn name(&self) -> &str {
        "jms-greedy"
    }

    fn problem(&self) -> ProblemKind {
        ProblemKind::FacilityLocation
    }

    fn guarantee(&self) -> f64 {
        1.861
    }

    fn guarantee_is_exact(&self) -> bool {
        true
    }

    fn paper_ref(&self) -> &str {
        "Jain et al., J. ACM 2003 (sequential baseline)"
    }

    fn solve(&self, inst: &FlInstance, cfg: &RunConfig) -> Result<Run, String> {
        let result = jms_greedy(inst);
        let lower_bound = result.alpha.iter().sum::<f64>() / JMS_DUAL_SCALE;
        let assignment = inst.closest_assignment(&result.open);
        Ok(Run::new(Solver::name(self), ProblemKind::FacilityLocation)
            .with_guarantee(Solver::guarantee(self))
            .with_instance_size(inst.num_clients(), inst.m())
            .with_cost(result.cost)
            .with_lower_bound(lower_bound)
            .with_selected(result.open)
            .with_assignment(assignment)
            .with_rounds(result.rounds, 0)
            .with_config_echo(cfg))
    }
}

/// The sequential Jain–Vazirani primal-dual 3-approximation.
#[derive(Debug, Clone, Copy, Default)]
pub struct JainVaziraniSolver;

impl Solver for JainVaziraniSolver {
    type Instance = FlInstance;
    type Config = RunConfig;

    fn name(&self) -> &str {
        "jain-vazirani"
    }

    fn problem(&self) -> ProblemKind {
        ProblemKind::FacilityLocation
    }

    fn guarantee(&self) -> f64 {
        3.0
    }

    fn guarantee_is_exact(&self) -> bool {
        true
    }

    fn paper_ref(&self) -> &str {
        "Jain & Vazirani, J. ACM 2001 (sequential baseline)"
    }

    fn solve(&self, inst: &FlInstance, cfg: &RunConfig) -> Result<Run, String> {
        let result = jain_vazirani(inst);
        // JV's α vector is dual feasible as-is, so its sum lower-bounds opt.
        let lower_bound = result.alpha.iter().sum::<f64>();
        let assignment = inst.closest_assignment(&result.open);
        Ok(Run::new(Solver::name(self), ProblemKind::FacilityLocation)
            .with_guarantee(Solver::guarantee(self))
            .with_instance_size(inst.num_clients(), inst.m())
            .with_cost(result.cost)
            .with_lower_bound(lower_bound)
            .with_selected(result.open)
            .with_assignment(assignment)
            .with_rounds(result.events, 0)
            .with_extra("temporarily_open", result.temporarily_open.len() as f64)
            .with_config_echo(cfg))
    }
}

fn kcenter_envelope(
    solver: &(impl Solver + ?Sized),
    inst: &ClusterInstance,
    result: KCenterResult,
    cfg: &RunConfig,
) -> Run {
    let assignment = inst.center_assignment(&result.centers);
    Run::new(Solver::name(solver), ProblemKind::KClustering)
        .with_guarantee(Solver::guarantee(solver))
        .with_instance_size(inst.n(), inst.n() * inst.n())
        .with_cost(result.radius)
        .with_selected(result.centers)
        .with_assignment(assignment)
        .with_extra("k", cfg.k as f64)
        .with_config_echo(cfg)
}

/// Gonzalez's farthest-point k-center 2-approximation.
#[derive(Debug, Clone, Copy, Default)]
pub struct GonzalezSolver;

impl Solver for GonzalezSolver {
    type Instance = ClusterInstance;
    type Config = RunConfig;

    fn name(&self) -> &str {
        "gonzalez"
    }

    fn problem(&self) -> ProblemKind {
        ProblemKind::KClustering
    }

    fn guarantee(&self) -> f64 {
        2.0
    }

    fn guarantee_is_exact(&self) -> bool {
        true
    }

    fn paper_ref(&self) -> &str {
        "Gonzalez 1985 (sequential baseline)"
    }

    fn solve(&self, inst: &ClusterInstance, cfg: &RunConfig) -> Result<Run, String> {
        Ok(kcenter_envelope(
            self,
            inst,
            gonzalez_kcenter(inst, cfg.k),
            cfg,
        ))
    }
}

/// The sequential Hochbaum–Shmoys bottleneck k-center 2-approximation.
#[derive(Debug, Clone, Copy, Default)]
pub struct HochbaumShmoysSolver;

impl Solver for HochbaumShmoysSolver {
    type Instance = ClusterInstance;
    type Config = RunConfig;

    fn name(&self) -> &str {
        "hs-kcenter"
    }

    fn problem(&self) -> ProblemKind {
        ProblemKind::KClustering
    }

    fn guarantee(&self) -> f64 {
        2.0
    }

    fn guarantee_is_exact(&self) -> bool {
        true
    }

    fn paper_ref(&self) -> &str {
        "Hochbaum & Shmoys 1985 (sequential baseline)"
    }

    fn solve(&self, inst: &ClusterInstance, cfg: &RunConfig) -> Result<Run, String> {
        // The baseline derives its candidate radii by sorting all n²
        // pairwise distances; refuse up front past the oracle's scratch cap
        // (same ceiling as `DistanceOracle::try_sorted_distinct_values`)
        // instead of exhausting memory inside the library call.
        use parfaclo_metric::{DistanceOracle, SCRATCH_BYTES_CAP};
        let bytes = (inst.distances().len() as u64).saturating_mul(8);
        if bytes > SCRATCH_BYTES_CAP {
            return Err(format!(
                "hs-kcenter derives its candidate radii by sorting all {n}×{n} pairwise \
                 distances ({:.1} GiB of scratch); this run is refused past the 4 GiB cap — \
                 use a smaller instance, or the parallel kcenter solver",
                bytes as f64 / (1u64 << 30) as f64,
                n = inst.n(),
            ));
        }
        Ok(kcenter_envelope(
            self,
            inst,
            hochbaum_shmoys_kcenter(inst, cfg.k),
            cfg,
        ))
    }
}

/// The sequential swap-based local search for k-median.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeqKMedianSolver;

impl Solver for SeqKMedianSolver {
    type Instance = ClusterInstance;
    type Config = RunConfig;

    fn name(&self) -> &str {
        "kmedian-seq"
    }

    fn problem(&self) -> ProblemKind {
        ProblemKind::KClustering
    }

    fn guarantee(&self) -> f64 {
        5.0
    }

    fn paper_ref(&self) -> &str {
        "Arya et al. 2004 (sequential baseline)"
    }

    fn solve(&self, inst: &ClusterInstance, cfg: &RunConfig) -> Result<Run, String> {
        let result = local_search_kmedian(inst, cfg.k, cfg.epsilon);
        let assignment = inst.center_assignment(&result.centers);
        Ok(Run::new(Solver::name(self), ProblemKind::KClustering)
            .with_guarantee(Solver::guarantee(self))
            .with_instance_size(inst.n(), inst.n() * inst.n())
            .with_cost(result.cost)
            .with_selected(result.centers)
            .with_assignment(assignment)
            .with_rounds(result.swaps, 0)
            .with_extra("k", cfg.k as f64)
            .with_config_echo(cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfaclo_metric::gen::{self, GenParams};

    #[test]
    fn fl_baselines_produce_valid_runs() {
        let inst = gen::facility_location(GenParams::uniform_square(10, 5).with_seed(1));
        let cfg = RunConfig::new(0.1).with_seed(1);
        for run in [
            JmsGreedySolver.solve(&inst, &cfg).expect("feasible"),
            JainVaziraniSolver.solve(&inst, &cfg).expect("feasible"),
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
        let inst = gen::clustering(GenParams::planted(18, 18, 3).with_seed(4));
        let cfg = RunConfig::new(0.1).with_k(3);
        for run in [
            GonzalezSolver.solve(&inst, &cfg).expect("feasible"),
            HochbaumShmoysSolver.solve(&inst, &cfg).expect("feasible"),
            SeqKMedianSolver.solve(&inst, &cfg).expect("feasible"),
        ] {
            run.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", run.solver));
            assert!(run.selected.len() <= 3);
        }
    }
}

//! [`Solver`] adapters for the dominator-set routines.
//!
//! The dominator-set algorithms operate on graphs, while the unified runner
//! deals in metric instances; following the way the paper's own callers use
//! them (k-center's feasibility probe, primal-dual's conflict resolution),
//! these adapters *threshold* a [`ClusterInstance`] into a [`ThresholdGraph`]
//! (nodes adjacent when within distance `t`) and run the set computation on
//! that. The threshold comes from [`RunConfig::threshold`], defaulting to
//! the median distinct pairwise distance, and the reported "cost" is the
//! selected-set size (the natural objective for maximal-set outputs).
//!
//! The graph representation comes from [`RunConfig::graph`]: `Dense` keeps
//! the paper's bit matrix (and errors past its 4 GiB cap, pointing at
//! `--graph csr`); `Csr` stores only the edges present, which is what lets
//! the dominator family run on million-node sparse metrics. Canonical run
//! output is byte-identical between the two wherever both can run.

use crate::luby::maximal_independent_set;
use crate::maxdom::max_dom;
use crate::DominatorResult;
use parfaclo_api::{ProblemKind, Run, RunConfig, Solver};
use parfaclo_graph::ThresholdGraph;
use parfaclo_matrixops::CostMeter;
use parfaclo_metric::{ClusterInstance, DistanceOracle};
use parfaclo_trace as trace;

/// The distance threshold used to build the graph: explicit if configured,
/// otherwise the median of the distinct pairwise distances (deterministic,
/// and dense enough to make the set computation non-trivial).
///
/// Deriving the median materialises and sorts all pairwise distances, so on
/// instances where that scratch would exceed 4 GiB an explicit
/// `--threshold` is required (the whole point of the CSR backend at that
/// scale is *not* to touch all `n²` pairs).
pub(crate) fn resolve_threshold(inst: &ClusterInstance, cfg: &RunConfig) -> Result<f64, String> {
    if let Some(t) = cfg.threshold {
        return Ok(t);
    }
    inst.distances().check_distance_sort_cap().map_err(|e| {
        format!(
            "deriving the default threshold: {e}; pass an explicit --threshold \
             for instances this large"
        )
    })?;
    let distances = inst.distances().sorted_distinct_values();
    Ok(distances[distances.len() / 2])
}

pub(crate) fn threshold_graph(
    inst: &ClusterInstance,
    threshold: f64,
    cfg: &RunConfig,
) -> Result<ThresholdGraph, String> {
    ThresholdGraph::build(inst.distances(), threshold, cfg.graph)
}

/// Shared envelope for the set computations: threshold the instance into a
/// graph, run `algorithm`, report the selected-set size as the cost.
fn dominator_run(
    solver: &(impl Solver + ?Sized),
    inst: &ClusterInstance,
    cfg: &RunConfig,
    algorithm: impl Fn(&ThresholdGraph, u64, &CostMeter) -> DominatorResult,
) -> Result<Run, String> {
    let meter = CostMeter::new();
    let n = inst.n() as u64;
    // Both phases are charged as k-center charges the same steps: one sort
    // of all n² distances when the threshold is derived, and n² for the
    // graph build.
    let threshold = {
        let _span = trace::span("derive-threshold", Some(&meter));
        let threshold = resolve_threshold(inst, cfg)?;
        if cfg.threshold.is_none() {
            meter.add_sort(n * n);
        }
        threshold
    };
    let g = {
        let _span = trace::span("threshold-graph", Some(&meter));
        let g = threshold_graph(inst, threshold, cfg)?;
        meter.add_primitive(n * n);
        g
    };
    let result = {
        let _span = trace::span("luby-rounds", Some(&meter));
        algorithm(&g, cfg.seed, &meter)
    };
    Ok(Run::new(Solver::name(solver), ProblemKind::DominatorSet)
        .with_guarantee(Solver::guarantee(solver))
        .with_instance_size(inst.n(), inst.n() * inst.n())
        .with_cost(result.selected.len() as f64)
        .with_selected(result.selected)
        .with_rounds(result.rounds, 0)
        .with_work(meter.report())
        .with_extra("threshold", threshold)
        .with_extra("graph_edges", g.num_edges() as f64)
        .with_config_echo(cfg))
}

/// `MaxDom` (Section 3) on the threshold graph of a metric instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxDomSolver;

impl Solver for MaxDomSolver {
    type Instance = ClusterInstance;

    fn name(&self) -> &str {
        "maxdom"
    }

    fn problem(&self) -> ProblemKind {
        ProblemKind::DominatorSet
    }

    fn paper_ref(&self) -> &str {
        "Section 3, Lemma 3.1"
    }

    fn solve(&self, inst: &ClusterInstance, cfg: &RunConfig) -> Result<Run, String> {
        dominator_run(self, inst, cfg, max_dom)
    }
}

/// Luby's maximal independent set on the threshold graph of a metric
/// instance (the reference algorithm the dominator variants simulate).
#[derive(Debug, Clone, Copy, Default)]
pub struct MisSolver;

impl Solver for MisSolver {
    type Instance = ClusterInstance;

    fn name(&self) -> &str {
        "mis"
    }

    fn problem(&self) -> ProblemKind {
        ProblemKind::DominatorSet
    }

    fn paper_ref(&self) -> &str {
        "Algorithm 3.1 (Luby)"
    }

    fn solve(&self, inst: &ClusterInstance, cfg: &RunConfig) -> Result<Run, String> {
        dominator_run(self, inst, cfg, maximal_independent_set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::luby::is_maximal_independent_set;
    use crate::maxdom::is_maximal_dominator_set;
    use parfaclo_graph::GraphBackend;
    use parfaclo_metric::gen::{self, GenParams};

    fn tiny() -> ClusterInstance {
        gen::clustering(GenParams::uniform_square(20, 20).with_seed(8))
    }

    /// The threshold graph the solver runs on under `cfg`.
    fn solver_graph(inst: &ClusterInstance, cfg: &RunConfig) -> ThresholdGraph {
        threshold_graph(inst, resolve_threshold(inst, cfg).unwrap(), cfg).unwrap()
    }

    #[test]
    fn maxdom_run_is_a_valid_dominator_set() {
        let inst = tiny();
        let cfg = RunConfig::new(0.1)
            .with_seed(4)
            .with_graph(GraphBackend::Csr);
        let run = MaxDomSolver.solve(&inst, &cfg).expect("feasible");
        run.validate().expect("valid envelope");
        assert!(is_maximal_dominator_set(
            &solver_graph(&inst, &cfg),
            &run.selected
        ));
        assert_eq!(run.cost, run.selected.len() as f64);
    }

    #[test]
    fn explicit_threshold_is_respected() {
        let inst = tiny();
        let cfg = RunConfig::new(0.1).with_threshold(5.0);
        let run = MaxDomSolver.solve(&inst, &cfg).expect("feasible");
        assert_eq!(
            run.extra.iter().find(|(k, _)| k == "threshold").unwrap().1,
            5.0
        );
    }

    #[test]
    fn mis_is_independent_in_threshold_graph() {
        let inst = tiny();
        let cfg = RunConfig::new(0.1)
            .with_seed(2)
            .with_graph(GraphBackend::Csr);
        let run = MisSolver.solve(&inst, &cfg).expect("feasible");
        run.validate().expect("valid envelope");
        assert!(is_maximal_independent_set(
            &solver_graph(&inst, &cfg),
            &run.selected
        ));
    }

    #[test]
    fn threshold_derivation_and_graph_build_are_metered() {
        let inst = tiny();
        let n2 = (inst.n() * inst.n()) as u64;
        for cfg in [
            RunConfig::new(0.1).with_seed(4),
            RunConfig::new(0.1).with_seed(4).with_threshold(5.0),
        ] {
            let run = MaxDomSolver.solve(&inst, &cfg).expect("feasible");
            // What the Luby rounds alone charge on the same graph.
            let rounds = CostMeter::new();
            max_dom(&solver_graph(&inst, &cfg), cfg.seed, &rounds);
            let mut want = rounds.report();
            // The graph build charges n²; deriving the threshold charges one
            // sort of the n² distances.
            want.primitive_calls += 1;
            want.element_ops += n2;
            if cfg.threshold.is_none() {
                let sorts = CostMeter::new();
                sorts.add_sort(n2);
                want.sort_calls += 1;
                want.element_ops += sorts.report().element_ops;
            }
            assert_eq!(run.work, want, "threshold {:?}", cfg.threshold);
        }
    }

    #[test]
    fn csr_and_dense_graph_backends_agree_on_canonical_json() {
        let inst = tiny();
        for seed in [2, 9] {
            let base = RunConfig::new(0.1).with_seed(seed);
            let dense = MaxDomSolver
                .solve(&inst, &base.clone().with_graph(GraphBackend::Dense))
                .expect("dense feasible");
            let csr = MaxDomSolver
                .solve(&inst, &base.clone().with_graph(GraphBackend::Csr))
                .expect("csr feasible");
            assert_eq!(
                dense.canonical_json(),
                csr.canonical_json(),
                "seed {seed}: graph backend leaked into canonical output"
            );
        }
    }
}

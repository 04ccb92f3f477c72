//! Registry entries for the dominator-set routines.
//!
//! The dominator-set algorithms operate on graphs, while the unified runner
//! deals in metric instances; following the way the paper's own callers use
//! them (k-center's feasibility probe, primal-dual's conflict resolution),
//! these solve functions *threshold* a [`ClusterInstance`] into a CSR graph
//! (nodes adjacent when within distance `t`) and run the set computation on
//! that. The threshold comes from [`RunConfig::threshold`], defaulting to
//! the median of the strict upper triangle plus one `+0.0` for the diagonal
//! (found by selection, not a sort), and the reported "cost" is the
//! selected-set size (the natural objective for maximal-set outputs).
//!
//! The CSR graph stores only the edges present, which is what lets the
//! dominator family run on million-node sparse metrics; a threshold whose
//! graph would pass the 4 GiB scratch cap is refused before the build.

use crate::luby::maximal_independent_set;
use crate::maxdom::max_dom;
use crate::DominatorResult;
use parfaclo_api::{ProblemKind, Run, RunConfig, Solve, SolverEntry};
use parfaclo_graph::CsrGraph;
use parfaclo_matrixops::CostMeter;
use parfaclo_metric::{ClusterInstance, DistanceOracle};
use parfaclo_trace as trace;

/// `MaxDom` (Section 3) and Luby's maximal independent set (the reference
/// algorithm the dominator variants simulate) on the threshold graph of a
/// metric instance.
pub const SOLVERS: &[SolverEntry] = &[
    SolverEntry {
        name: "maxdom",
        problem: ProblemKind::DominatorSet,
        guarantee: 0.0,
        exact: false,
        paper_ref: "Section 3, Lemma 3.1",
        solve: Solve::Cluster(solve_maxdom),
    },
    SolverEntry {
        name: "mis",
        problem: ProblemKind::DominatorSet,
        guarantee: 0.0,
        exact: false,
        paper_ref: "Algorithm 3.1 (Luby)",
        solve: Solve::Cluster(solve_mis),
    },
];

/// The distance threshold used to build the graph: explicit if configured,
/// otherwise the median of the strict upper triangle plus one `+0.0` for
/// the diagonal, `keys[len / 2]` of its sorted
/// [`DistanceOracle::half_matrix_keys`] (deterministic, and dense enough to
/// make the set computation non-trivial). It equals the median distinct
/// distance whenever no distance repeats. Deriving it charges `meter` one
/// selection over the keys.
///
/// Deriving the median materialises all pairwise distances, so on
/// instances where a sort of them would exceed the 4 GiB scratch cap an
/// explicit `--threshold` is required (the whole point of the CSR graph at
/// that scale is *not* to touch all `n²` pairs).
pub(crate) fn resolve_threshold(
    inst: &ClusterInstance,
    cfg: &RunConfig,
    meter: &CostMeter,
) -> Result<f64, String> {
    if let Some(t) = cfg.threshold {
        return Ok(t);
    }
    inst.distances().check_distance_sort_cap().map_err(|e| {
        format!(
            "deriving the default threshold: {e}; pass an explicit --threshold \
             for instances this large"
        )
    })?;
    let mut keys = inst.distances().half_matrix_keys();
    meter.add_primitive(keys.len() as u64);
    let mid = keys.len() / 2;
    Ok(f64::from_bits(*keys.select_nth_unstable(mid).1))
}

/// Shared envelope for the set computations: threshold the instance into a
/// graph, run `algorithm`, report the selected-set size as the cost.
fn dominator_run(
    inst: &ClusterInstance,
    cfg: &RunConfig,
    algorithm: impl Fn(&CsrGraph, u64, &CostMeter) -> DominatorResult,
) -> Result<Run, String> {
    let meter = CostMeter::new();
    let n = inst.n() as u64;
    // Deriving the threshold charges one selection over the half-matrix
    // keys, and the graph build n², as k-center charges each probe.
    let threshold = {
        let _span = trace::span("derive-threshold", Some(&meter));
        resolve_threshold(inst, cfg, &meter)?
    };
    let g = {
        let _span = trace::span("threshold-graph", Some(&meter));
        let g = CsrGraph::try_from_threshold_oracle(inst.distances(), threshold)
            .map_err(|e| format!("{e}; pass a smaller --threshold"))?;
        meter.add_primitive(n * n);
        g
    };
    let result = {
        let _span = trace::span("luby-rounds", Some(&meter));
        algorithm(&g, cfg.seed, &meter)
    };
    Ok(Run::default()
        .with_cost(result.selected.len() as f64)
        .with_selected(result.selected)
        .with_rounds(result.rounds, 0)
        .with_work(meter.report())
        .with_extra("threshold", threshold)
        .with_extra("graph_edges", g.num_edges() as f64))
}

fn solve_maxdom(inst: &ClusterInstance, cfg: &RunConfig) -> Result<Run, String> {
    dominator_run(inst, cfg, max_dom)
}

fn solve_mis(inst: &ClusterInstance, cfg: &RunConfig) -> Result<Run, String> {
    dominator_run(inst, cfg, maximal_independent_set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::luby::is_maximal_independent_set;
    use crate::maxdom::is_maximal_dominator_set;
    use parfaclo_api::AnyInstance;
    use parfaclo_metric::gen::{self, GenParams};

    fn tiny() -> ClusterInstance {
        gen::clustering(GenParams::uniform_square(20, 20).with_seed(8))
    }

    /// Runs the named entry of [`SOLVERS`] on `inst`.
    fn run_entry(name: &str, inst: &ClusterInstance, cfg: &RunConfig) -> Run {
        let entry = SOLVERS.iter().find(|e| e.name == name).expect(name);
        entry
            .run(&AnyInstance::Cluster(inst.clone()), cfg)
            .expect("feasible")
    }

    /// The threshold graph the solver runs on under `cfg`.
    fn solver_graph(inst: &ClusterInstance, cfg: &RunConfig) -> CsrGraph {
        let threshold = resolve_threshold(inst, cfg, &CostMeter::new()).unwrap();
        CsrGraph::from_threshold_oracle(inst.distances(), threshold)
    }

    #[test]
    fn maxdom_run_is_a_valid_dominator_set() {
        let inst = tiny();
        let cfg = RunConfig::new(0.1).with_seed(4);
        let run = run_entry("maxdom", &inst, &cfg);
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
        let run = run_entry("maxdom", &inst, &cfg);
        assert_eq!(
            run.extra.iter().find(|(k, _)| k == "threshold").unwrap().1,
            5.0
        );
    }

    #[test]
    fn mis_is_independent_in_threshold_graph() {
        let inst = tiny();
        let cfg = RunConfig::new(0.1).with_seed(2);
        let run = run_entry("mis", &inst, &cfg);
        run.validate().expect("valid envelope");
        assert!(is_maximal_independent_set(
            &solver_graph(&inst, &cfg),
            &run.selected
        ));
    }

    #[test]
    fn the_default_threshold_is_the_selected_half_matrix_median() {
        use parfaclo_metric::{gen::build_clustering, Backend};
        let at_threads = |threads, f: &(dyn Fn() -> f64 + Sync)| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(f)
        };
        let cfg = RunConfig::new(0.1);
        let uniform = GenParams::uniform_square(150, 150).with_seed(3);
        for params in [
            uniform,
            GenParams::grid(144, 144),
            GenParams::line(120, 120),
        ] {
            // The sorted reference: the strict upper triangle plus one +0.0.
            let dense = build_clustering(params, Backend::Dense).expect("instance");
            let n = dense.n();
            let mut keys: Vec<u64> = (0..n)
                .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
                .map(|(a, b)| dense.dist(a, b).to_bits())
                .chain([0])
                .collect();
            keys.sort_unstable();
            let want = keys[keys.len() / 2];
            for backend in [Backend::Dense, Backend::Implicit, Backend::Spatial] {
                let inst = build_clustering(params, backend).expect("instance");
                for threads in [1, 4] {
                    let got = at_threads(threads, &|| {
                        resolve_threshold(&inst, &cfg, &CostMeter::new()).unwrap()
                    });
                    let what = format!("{:?} {backend} {threads} threads", params.spatial);
                    assert_eq!(got.to_bits(), want, "{what}");
                }
            }
        }
        // No distance repeats on a uniform instance, so the selected median
        // is the median distinct distance the threshold used to be.
        let inst = gen::clustering(uniform);
        let distinct = inst.distances().sorted_distinct_values();
        let selected = resolve_threshold(&inst, &cfg, &CostMeter::new()).unwrap();
        assert_eq!(selected, distinct[distinct.len() / 2]);
    }

    #[test]
    fn threshold_derivation_and_graph_build_are_metered() {
        let inst = tiny();
        let n2 = (inst.n() * inst.n()) as u64;
        for cfg in [
            RunConfig::new(0.1).with_seed(4),
            RunConfig::new(0.1).with_seed(4).with_threshold(5.0),
        ] {
            let run = run_entry("maxdom", &inst, &cfg);
            // What the Luby rounds alone charge on the same graph.
            let rounds = CostMeter::new();
            max_dom(&solver_graph(&inst, &cfg), cfg.seed, &rounds);
            let mut want = rounds.report();
            // The graph build charges n²; deriving the threshold charges one
            // selection over the n(n − 1)/2 + 1 half-matrix keys.
            want.primitive_calls += 1;
            want.element_ops += n2;
            if cfg.threshold.is_none() {
                want.primitive_calls += 1;
                want.element_ops += (n2 - inst.n() as u64) / 2 + 1;
            }
            assert_eq!(run.work, want, "threshold {:?}", cfg.threshold);
        }
    }
}

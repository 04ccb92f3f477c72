//! End-to-end k-clustering pipelines across the whole workspace.

use parfaclo_api::RunConfig;
use parfaclo_kclustering::{parallel_kcenter, parallel_kmeans, parallel_kmedian};
use parfaclo_matrixops::CostMeter;
use parfaclo_metric::gen::{self, standard_suite, GenParams};
use parfaclo_metric::lower_bounds::{kcenter_lower_bound, kmedian_lower_bound};
use parfaclo_seq_baselines::{gonzalez_kcenter, local_search_kmedian};

/// The parallel k-center algorithm respects the factor-2 guarantee (against the
/// combinatorial lower bound) on every workload of the standard suite.
#[test]
fn kcenter_two_approximation_across_suite() {
    for wl in standard_suite(40, 40, 21) {
        let inst = gen::clustering(wl.params);
        for k in [2usize, 5] {
            let sol =
                parallel_kcenter(&inst, k, 1, &CostMeter::new()).expect("within the sort cap");
            let lb = kcenter_lower_bound(&inst, k);
            assert!(
                sol.radius <= 2.0 * (2.0 * lb) + 1e-9 || lb == 0.0,
                "{} k={k}: radius {} vs lower bound {lb}",
                wl.name,
                sol.radius
            );
            assert!(sol.centers.len() <= k);
            // Every center index is a valid node.
            assert!(sol.centers.iter().all(|&c| c < inst.n()));
        }
    }
}

/// k-median local search always produces k distinct centers, costs above the lower
/// bound, and never does worse than its own initialisation.
#[test]
fn kmedian_pipeline_across_suite() {
    for wl in standard_suite(36, 36, 33) {
        let inst = gen::clustering(wl.params);
        let sol = parallel_kmedian(&inst, &RunConfig::new(0.1).with_k(4).with_seed(2));
        assert_eq!(sol.centers.len(), 4, "{}", wl.name);
        let mut dedup = sol.centers.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 4, "{}: duplicate centers", wl.name);
        let lb = kmedian_lower_bound(&inst, 4);
        assert!(sol.cost >= lb - 1e-9, "{}", wl.name);
        assert!(sol.cost <= sol.initial_cost + 1e-9, "{}", wl.name);
        // The reported cost matches re-evaluating the objective.
        assert!((inst.kmedian_cost(&sol.centers) - sol.cost).abs() < 1e-6);
    }
}

/// k-means cost relates to k-median cost as squared vs plain distances suggest, and the
/// reported costs are consistent with the instance evaluation.
#[test]
fn kmeans_and_kmedian_consistency() {
    let inst = gen::clustering(GenParams::gaussian_clusters(50, 50, 5).with_seed(4));
    let cfg = RunConfig::new(0.1).with_k(5).with_seed(4);
    let med = parallel_kmedian(&inst, &cfg);
    let means = parallel_kmeans(&inst, &cfg);
    assert!((inst.kmeans_cost(&means.centers) - means.cost).abs() < 1e-6);
    assert!((inst.kmedian_cost(&med.centers) - med.cost).abs() < 1e-6);
    // On this clustered instance both should find solutions that beat one-cluster
    // baselines by a wide margin.
    let single_med = inst.kmedian_cost(&[0]);
    assert!(med.cost < single_med);
}

/// Parallel and sequential implementations land in the same quality regime.
#[test]
fn parallel_vs_sequential_clustering_quality() {
    let inst = gen::clustering(GenParams::uniform_square(30, 30).with_seed(6));
    let k = 4;
    let par_c = parallel_kcenter(&inst, k, 9, &CostMeter::new()).expect("within the sort cap");
    let seq_c = gonzalez_kcenter(&inst, k);
    assert!(par_c.radius <= 2.0 * seq_c.radius + 1e-9);
    assert!(seq_c.radius <= 2.0 * par_c.radius + 1e-9);

    let par_m = parallel_kmedian(&inst, &RunConfig::new(0.1).with_k(k).with_seed(9));
    let seq_m = local_search_kmedian(&inst, k, 0.1);
    assert!(par_m.cost <= 5.1 * seq_m.cost + 1e-6);
    assert!(seq_m.cost <= 5.1 * par_m.cost + 1e-6);
}

/// The clustering instances produced by the generator suite are genuine metrics, so the
/// algorithms' guarantees actually apply (spot-check with the O(n³) validator).
#[test]
fn suite_instances_are_metrics() {
    for wl in standard_suite(18, 18, 44) {
        let inst = gen::clustering(wl.params);
        assert!(
            parfaclo_metric::validate::check_cluster_metric(&inst, 1e-6).is_ok(),
            "{} violates the metric axioms",
            wl.name
        );
    }
}

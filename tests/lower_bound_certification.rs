//! Randomized certification of the approximation guarantees.
//!
//! Seeded random small instances (random positive facility costs, random
//! points in a square) are checked, against brute-force optima and exact dual
//! / LP lower bounds, to confirm that every algorithm stays within its proven
//! factor and that the substrate invariants (metric axioms, prefix-sum
//! correctness, dominator-set validity) hold on arbitrary inputs — not just
//! the hand-picked seeds of the unit tests.
//!
//! Formerly written with `proptest`; the offline build environment has no
//! registry access, so the strategies are replaced by explicit ChaCha-seeded
//! generators sweeping the same case counts. Failures print the generating
//! seed, which reproduces the instance exactly.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use parfaclo_core::{greedy, primal_dual, FlConfig};
use parfaclo_dominator::maxdom::{is_maximal_dominator_set, max_dom};
use parfaclo_dominator::maxudom::{is_maximal_u_dominator_set, max_u_dom};
use parfaclo_dominator::{BipartiteGraph, DenseGraph};
use parfaclo_kclustering::{parallel_kcenter, parallel_kmedian, LocalSearchConfig};
use parfaclo_lp::dual;
use parfaclo_matrixops::{ops, scan, CostMeter, ExecPolicy};
use parfaclo_metric::lower_bounds::{self, ClusterObjective};
use parfaclo_metric::{ClusterInstance, DistanceMatrix, FlInstance, Point};

const CASES: u64 = 24;

fn rng_for(case: u64, salt: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

fn random_points(rng: &mut ChaCha8Rng, count: usize) -> Vec<Point> {
    (0..count)
        .map(|_| Point::xy(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
        .collect()
}

/// A small facility-location instance from random 2-D points and costs.
fn small_fl_instance(rng: &mut ChaCha8Rng) -> FlInstance {
    let nc = rng.gen_range(2..7usize);
    let nf = rng.gen_range(2..6usize);
    let clients = random_points(rng, nc);
    let facilities = random_points(rng, nf);
    let costs: Vec<f64> = (0..nf).map(|_| rng.gen_range(0.0..50.0)).collect();
    FlInstance::from_points(costs, clients, facilities)
}

/// A small clustering instance from random 2-D points.
fn small_cluster_instance(rng: &mut ChaCha8Rng) -> ClusterInstance {
    let n = rng.gen_range(3..10usize);
    ClusterInstance::from_points(random_points(rng, n))
}

/// Parallel greedy stays within (3.722 + ε)·opt and its certificate is valid.
#[test]
fn prop_greedy_within_factor() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 0x6D);
        let inst = small_fl_instance(&mut rng);
        let seed = rng.gen_range(0..1000u64);
        let cfg = FlConfig::new(0.1).with_seed(seed);
        let sol = greedy::parallel_greedy(&inst, &cfg);
        let (_, opt) = lower_bounds::brute_force_facility_location(&inst);
        assert!(
            sol.cost <= (3.722 + 0.1) * opt + 1e-6,
            "case {case}: cost {} vs opt {opt}",
            sol.cost
        );
        assert!(sol.cost >= opt - 1e-9, "case {case}");
        assert!(sol.lower_bound <= opt + 1e-6, "case {case}");
    }
}

/// Parallel primal-dual stays within (3 + O(ε))·opt and its α is dual feasible.
#[test]
fn prop_primal_dual_within_factor() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 0x1D);
        let inst = small_fl_instance(&mut rng);
        let seed = rng.gen_range(0..1000u64);
        let cfg = FlConfig::new(0.1).with_seed(seed);
        let sol = primal_dual::parallel_primal_dual(&inst, &cfg).unwrap();
        let (_, opt) = lower_bounds::brute_force_facility_location(&inst);
        assert!(
            sol.cost <= (3.0 + 0.4) * opt + 1e-6,
            "case {case}: cost {} vs opt {opt}",
            sol.cost
        );
        assert!(
            dual::check_alpha_feasible(&inst, &sol.alpha, 1e-6).is_ok(),
            "case {case}"
        );
        assert!(dual::dual_value(&sol.alpha) <= opt + 1e-6, "case {case}");
    }
}

/// Parallel k-center is a 2-approximation on arbitrary point sets.
#[test]
fn prop_kcenter_two_approx() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 0x2C);
        let inst = small_cluster_instance(&mut rng);
        let k = rng.gen_range(1..4usize).min(inst.n());
        let seed = rng.gen_range(0..100u64);
        let sol = parallel_kcenter(&inst, k, seed);
        let (_, opt) = lower_bounds::brute_force_kclustering(&inst, k, ClusterObjective::KCenter);
        assert!(
            sol.radius <= 2.0 * opt + 1e-9,
            "case {case}: radius {} vs opt {opt}",
            sol.radius
        );
    }
}

/// Parallel k-median local search is a (5 + ε)-approximation on arbitrary point sets.
#[test]
fn prop_kmedian_within_factor() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 0x3E);
        let inst = small_cluster_instance(&mut rng);
        let seed = rng.gen_range(0..100u64);
        let k = 2usize.min(inst.n());
        let sol = parallel_kmedian(&inst, k, &LocalSearchConfig::new(0.1).with_seed(seed));
        let (_, opt) = lower_bounds::brute_force_kclustering(&inst, k, ClusterObjective::KMedian);
        assert!(
            sol.cost <= 5.1 * opt + 1e-6,
            "case {case}: cost {} vs opt {opt}",
            sol.cost
        );
        assert!(sol.cost >= opt - 1e-9, "case {case}");
    }
}

/// Euclidean instances always satisfy the (bipartite) triangle inequality.
#[test]
fn prop_generated_instances_are_metric() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 0x4A);
        let inst = small_fl_instance(&mut rng);
        assert!(
            parfaclo_metric::validate::check_fl_metric(&inst, 1e-6).is_ok(),
            "case {case}"
        );
    }
}

/// Parallel prefix sums agree with the sequential reference on arbitrary data.
#[test]
fn prop_scan_parallel_matches_sequential() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 0x5B);
        let len = rng.gen_range(0..300usize);
        let data: Vec<f64> = (0..len).map(|_| rng.gen_range(-1e6..1e6)).collect();
        let meter = CostMeter::new();
        for op in [ops::AssocOp::Add, ops::AssocOp::Min, ops::AssocOp::Max] {
            let s = scan::inclusive_scan(&data, op, ExecPolicy::Sequential, &meter);
            let p = scan::inclusive_scan(&data, op, ExecPolicy::Parallel, &meter);
            for (a, b) in s.iter().zip(p.iter()) {
                assert!(
                    a == b || (a - b).abs() <= 1e-6 * (1.0 + a.abs()),
                    "case {case}: {a} vs {b}"
                );
            }
        }
    }
}

/// MaxDom always returns a maximal dominator set on random graphs.
#[test]
fn prop_maxdom_valid() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 0x6C);
        let num_edges = rng.gen_range(0..40usize);
        let edges: Vec<(usize, usize)> = (0..num_edges)
            .map(|_| (rng.gen_range(0..12usize), rng.gen_range(0..12usize)))
            .filter(|(a, b)| a != b)
            .collect();
        let seed = rng.gen_range(0..100u64);
        let g = DenseGraph::from_edges(12, &edges);
        let meter = CostMeter::new();
        let r = max_dom(&g, seed, &meter);
        assert!(is_maximal_dominator_set(&g, &r.selected), "case {case}");
    }
}

/// MaxUDom always returns a maximal U-dominator set on random bipartite graphs.
#[test]
fn prop_maxudom_valid() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 0x7D);
        let num_edges = rng.gen_range(0..40usize);
        let edges: Vec<(usize, usize)> = (0..num_edges)
            .map(|_| (rng.gen_range(0..10usize), rng.gen_range(0..8usize)))
            .collect();
        let seed = rng.gen_range(0..100u64);
        let h = BipartiteGraph::from_edges(10, 8, &edges);
        let meter = CostMeter::new();
        let r = max_u_dom(&h, seed, &meter);
        assert!(is_maximal_u_dominator_set(&h, &r.selected), "case {case}");
    }
}

/// Explicit-matrix instances with arbitrary non-negative entries still produce valid
/// (structurally correct) primal-dual solutions even when the triangle inequality is
/// violated — only the approximation factor is forfeit, never safety.
#[test]
fn prop_non_metric_inputs_do_not_break_structure() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 0x8E);
        let entries: Vec<f64> = (0..12).map(|_| rng.gen_range(0.1..100.0)).collect();
        let costs: Vec<f64> = (0..4).map(|_| rng.gen_range(0.1..50.0)).collect();
        let dist = DistanceMatrix::from_rows(3, 4, entries);
        let inst = FlInstance::new(costs, dist);
        let sol = primal_dual::parallel_primal_dual(&inst, &FlConfig::new(0.2)).unwrap();
        assert!(!sol.open.is_empty(), "case {case}");
        assert_eq!(sol.assignment.len(), 3, "case {case}");
        assert!(sol.cost.is_finite(), "case {case}");
    }
}

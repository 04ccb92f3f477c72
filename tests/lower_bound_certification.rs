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

use parfaclo_api::{AnyInstance, ProblemKind, RunConfig};
use parfaclo_bench::standard_registry;
use parfaclo_core::primal_dual;
use parfaclo_dominator::maxdom::{is_maximal_dominator_set, max_dom};
use parfaclo_dominator::maxudom::{is_maximal_u_dominator_set, max_u_dom};
use parfaclo_dominator::{CsrBipartite, CsrGraph};
use parfaclo_lp::dual;
use parfaclo_matrixops::{ops, scan, CostMeter, ExecPolicy};
use parfaclo_metric::lower_bounds::{self, ClusterObjective};
use parfaclo_metric::{ClusterInstance, DistanceMatrix, FlInstance, Point};

const CASES: u64 = 24;

const EPS: f64 = 0.1;

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

/// The objective a k-clustering solver's `Run.cost` reports.
fn cluster_objective(solver: &str) -> ClusterObjective {
    if solver.starts_with("kmeans") {
        ClusterObjective::KMeans
    } else if solver.starts_with("kmedian") {
        ClusterObjective::KMedian
    } else {
        ClusterObjective::KCenter
    }
}

/// A further check on one case: the instance, the config the registry ran
/// it with, the brute-force optimum and the case number.
type ExtraCheck = fn(&AnyInstance, &RunConfig, f64, u64);

/// Runs registered solver `name` through the registry on [`CASES`] seeded
/// small instances of its problem and checks the run against the
/// brute-force optimum: cost within the recorded guarantee (plus ε unless
/// the guarantee is exact, which also gets the tighter rounding tolerance),
/// and a certified lower bound that is really below the optimum. Each
/// `extra` check then runs on the same case.
fn certify(name: &str, extra: &[ExtraCheck]) {
    let registry = standard_registry();
    let solver = registry.get(name).expect("registered solver");
    let (slack, tol) = if solver.guarantee_label().ends_with("+ eps") {
        (EPS, 1e-6)
    } else {
        (0.0, 1e-9)
    };
    // Salts keep each solver on the instances its old hand-written test used.
    let salt = match name {
        "greedy" => 0x6D,
        "primal-dual" => 0x1D,
        "kcenter" => 0x2C,
        "kmedian-ls" => 0x3E,
        _ => name
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(31) ^ u64::from(b)),
    };
    for case in 0..CASES {
        let mut rng = rng_for(case, salt);
        let (inst, opt, k) = match solver.problem {
            ProblemKind::FacilityLocation => {
                let inst = small_fl_instance(&mut rng);
                let (_, opt) = lower_bounds::brute_force_facility_location(&inst);
                (AnyInstance::Fl(inst), opt, 1)
            }
            ProblemKind::KClustering => {
                let inst = small_cluster_instance(&mut rng);
                let k = rng.gen_range(1..4usize).min(inst.n());
                let (_, opt) =
                    lower_bounds::brute_force_kclustering(&inst, k, cluster_objective(name));
                (AnyInstance::Cluster(inst), opt, k)
            }
            ProblemKind::DominatorSet => unreachable!("dominator sets carry no guarantee"),
        };
        let seed = rng.gen_range(0..1000u64);
        let cfg = RunConfig::new(EPS).with_seed(seed).with_k(k);
        let run = registry.run(name, &inst, &cfg).expect(name);
        let factor = run.guarantee + slack;
        assert!(
            run.cost <= factor * opt + tol,
            "{name} case {case}: cost {} above {factor} x opt {opt}",
            run.cost
        );
        assert!(run.cost >= opt - 1e-9, "{name} case {case}");
        assert!(run.lower_bound <= opt + 1e-6, "{name} case {case}");
        for check in extra {
            check(&inst, &cfg, opt, case);
        }
    }
}

/// Primal-dual's raw α, before the certification scales it, is dual feasible
/// and its dual value is at most the optimum. `Run.lower_bound` cannot show
/// this: the certification scales an infeasible α down first.
fn raw_alpha_is_dual_feasible(inst: &AnyInstance, cfg: &RunConfig, opt: f64, case: u64) {
    let AnyInstance::Fl(inst) = inst else {
        unreachable!("primal-dual runs on facility-location instances")
    };
    let sol = primal_dual::parallel_primal_dual(inst, cfg).unwrap();
    assert!(
        dual::check_alpha_feasible(inst, &sol.alpha, 1e-6).is_ok(),
        "case {case}"
    );
    assert!(dual::dual_value(&sol.alpha) <= opt + 1e-6, "case {case}");
}

/// One test per registered solver that records a guarantee, so a failure
/// names its solver; [`every_guaranteed_solver_is_certified`] keeps the
/// list complete. `+ check` adds an [`ExtraCheck`] to a solver's cases.
macro_rules! certified {
    ($($test:ident => $solver:literal $(+ $extra:ident)?,)*) => {
        $(
            #[test]
            fn $test() {
                certify($solver, &[$($extra as ExtraCheck)?]);
            }
        )*
        const CERTIFIED: &[&str] = &[$($solver),*];
    };
}

certified! {
    prop_greedy_within_factor => "greedy",
    prop_primal_dual_within_factor => "primal-dual" + raw_alpha_is_dual_feasible,
    prop_lp_rounding_within_factor => "lp-rounding",
    prop_local_search_fl_within_factor => "local-search-fl",
    prop_jms_greedy_within_factor => "jms-greedy",
    prop_jain_vazirani_within_factor => "jain-vazirani",
    prop_kcenter_two_approx => "kcenter",
    prop_gonzalez_two_approx => "gonzalez",
    prop_hs_kcenter_two_approx => "hs-kcenter",
    prop_kmedian_within_factor => "kmedian-ls",
    prop_kmedian_seq_within_factor => "kmedian-seq",
    prop_kmeans_within_factor => "kmeans-ls",
}

#[test]
fn every_guaranteed_solver_is_certified() {
    let registry = standard_registry();
    let guaranteed: Vec<&str> = registry
        .iter()
        .filter(|s| s.guarantee > 0.0)
        .map(|s| s.name)
        .collect();
    let mut certified = CERTIFIED.to_vec();
    certified.sort_unstable();
    assert_eq!(guaranteed, certified);
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
        let g = CsrGraph::from_edges(12, &edges);
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
        let h = CsrBipartite::from_edges(10, 8, &edges);
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
        let sol = primal_dual::parallel_primal_dual(&inst, &RunConfig::new(0.2)).unwrap();
        assert!(!sol.open.is_empty(), "case {case}");
        assert_eq!(sol.assignment.len(), 3, "case {case}");
        assert!(sol.cost.is_finite(), "case {case}");
    }
}

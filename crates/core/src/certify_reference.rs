//! Bit-for-bit references for the certification in `parfaclo_lp::dual`.
//!
//! `check_alpha_feasible` and `max_feasible_scaling` run as parallel maps
//! over facilities that fold each facility's contributing clients only. The
//! sequential scalar scan and the global bisection they replaced are kept
//! here, and the rewrites must return the same bits on every backend, at
//! every pool size, on both sides of the dispatch grain. They live in this
//! crate because greedy's raw α is one of the inputs.

use crate::greedy;
use parfaclo_api::RunConfig;
use parfaclo_lp::dual;
use parfaclo_metric::gen::{self, GenParams};
use parfaclo_metric::{Backend, DistanceOracle, FlInstance};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The sequential scalar check: every client of every facility, in
/// ascending order, stopping at the first violation.
fn scalar_check(inst: &FlInstance, alpha: &[f64], tol: f64) -> Result<(), (usize, f64)> {
    for (j, &a) in alpha.iter().enumerate() {
        if a < -tol {
            return Err((j, a));
        }
    }
    for i in 0..inst.num_facilities() {
        let paid: f64 = (0..inst.num_clients())
            .map(|j| (alpha[j] - inst.dist(j, i)).max(0.0))
            .sum();
        let excess = paid - inst.facility_cost(i);
        if excess > tol * (1.0 + inst.facility_cost(i).abs()) {
            return Err((i, excess));
        }
    }
    Ok(())
}

/// The global bisection: one whole-instance check per step.
fn global_bisection(inst: &FlInstance, alpha: &[f64], granularity: usize) -> f64 {
    if scalar_check(inst, alpha, 1e-9).is_ok() {
        return 1.0;
    }
    let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
    for _ in 0..granularity {
        let mid = 0.5 * (lo + hi);
        let scaled: Vec<f64> = alpha.iter().map(|a| a * mid).collect();
        if scalar_check(inst, &scaled, 1e-9).is_ok() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A check result with the excess as bits, so `assert_eq!` compares exactly.
fn bits(r: Result<(), (usize, f64)>) -> Result<(), (usize, u64)> {
    r.map_err(|(i, e)| (i, e.to_bits()))
}

fn at_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

/// The four kinds of α the certification sees: greedy's raw α, `γ_j`
/// scaled by random factors, an α with zero entries, and an α with one
/// negative entry.
fn alpha_kinds(inst: &FlInstance, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    let nc = inst.num_clients();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let greedy_alpha = greedy::parallel_greedy(inst, &RunConfig::new(0.1).with_seed(seed)).alpha;
    let gamma_scaled: Vec<f64> = inst
        .gamma_per_client()
        .iter()
        .map(|g| g * rng.gen_range(0.5..2.0))
        .collect();
    let with_zeros: Vec<f64> = (0..nc)
        .map(|j| match j % 3 {
            0 => 0.0,
            _ => 4.0 * inst.distances().row_min(j).expect("facilities").1,
        })
        .collect();
    let mut negative = gamma_scaled.clone();
    negative[nc / 2] = -1e-3;
    vec![
        ("greedy", greedy_alpha),
        ("gamma-scaled", gamma_scaled),
        ("zeros", with_zeros),
        ("negative", negative),
    ]
}

#[test]
fn lp_grain_is_par_threshold() {
    assert_eq!(dual::PAR_GRAIN, parfaclo_matrixops::PAR_THRESHOLD);
}

#[test]
fn certification_matches_the_scalar_references_bit_for_bit() {
    // 400 clients put the grain at 6 facilities, so 24 facilities fork.
    let nc = 400;
    assert!(24 >= 2 * dual::PAR_GRAIN.div_ceil(nc));
    for seed in 0..3 {
        // Every backend serves the same distance bits, so the references run
        // once, on the dense matrix, and every backend must match them.
        let insts = [Backend::Dense, Backend::Implicit, Backend::Spatial].map(|backend| {
            gen::build_facility_location(GenParams::uniform_square(nc, 24).with_seed(seed), backend)
                .expect("instance")
        });
        let dense = &insts[0];
        for (kind, alpha) in alpha_kinds(dense, seed) {
            // At 60 steps the grid is finer than an ulp of `s`, so the answer
            // lands on the exact edge where the rounding of every sum decides it.
            for granularity in [2, 40, 60] {
                // The scaled α passes, so the scaling search must stop at s = 1.
                let s = global_bisection(dense, &alpha, granularity);
                let scaled: Vec<f64> = alpha.iter().map(|a| a * s).collect();
                for a in [&alpha, &scaled] {
                    let want = global_bisection(dense, a, granularity);
                    let want_check = bits(scalar_check(dense, a, 1e-9));
                    // The metered count is backend- and thread-invariant too.
                    let want_evaluations = dual::max_feasible_scaling(dense, a, granularity).1;
                    for (inst, threads) in insts.iter().flat_map(|i| [(i, 1), (i, 4)]) {
                        let label = format!(
                            "{} seed {seed} {kind} granularity {granularity}, {threads} threads",
                            inst.backend()
                        );
                        let (got, evaluations) = at_threads(threads, || {
                            dual::max_feasible_scaling(inst, a, granularity)
                        });
                        assert_eq!(got.to_bits(), want.to_bits(), "{label}");
                        assert_eq!(evaluations, want_evaluations, "{label}");
                        let got = at_threads(threads, || dual::check_alpha_feasible(inst, a, 1e-9));
                        assert_eq!(bits(got), want_check, "{label}");
                    }
                }
            }
        }
    }
}

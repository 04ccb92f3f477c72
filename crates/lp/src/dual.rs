//! The dual of the facility-location LP (the right-hand program of Figure 1) and the
//! dual-fitting machinery the paper's analyses rely on.
//!
//! ```text
//! maximise   Σ_j α_j
//! subject to Σ_j β_ij          <= f_i     for every facility i
//!            α_j − β_ij        <= d(j,i)  for every facility i, client j
//!            α_j >= 0, β_ij >= 0
//! ```
//!
//! By weak LP duality the value `Σ_j α_j` of **any** feasible dual solution is a lower
//! bound on the optimal fractional (hence also integral) cost. Both parallel
//! facility-location algorithms produce α vectors:
//!
//! * the primal-dual algorithm of Section 5 produces a dual-feasible α directly
//!   (Claim 5.1), and
//! * the greedy algorithm of Section 4 produces α values that become feasible after
//!   scaling down by γ = 1.861 (Lemma 4.6) or by 3 (Lemma 4.7).
//!
//! The experiment harness uses these α vectors (and the LP value) to certify measured
//! approximation ratios.

use parfaclo_metric::FlInstance;
use rayon::prelude::*;

/// Elements (facility × client pairs) each task of a per-facility map must
/// cover before the map forks. It is `parfaclo_matrixops::PAR_THRESHOLD`,
/// named again here because this crate does not depend on matrixops; a
/// `parfaclo-core` test pins the two equal.
pub const PAR_GRAIN: usize = 2048;

/// Maps `f` over `0..len`, where each item sweeps the `nc` clients of one
/// facility, and returns the results in input order. The map forks only
/// when it has at least two tasks of at least [`PAR_GRAIN`] elements each.
/// The calls of `f` are independent, so the output is the same at every
/// thread count.
pub fn map_facilities<T: Send>(len: usize, nc: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let grain = PAR_GRAIN.div_ceil(nc.max(1));
    if len >= 2 * grain {
        (0..len)
            .into_par_iter()
            .with_min_len(grain)
            .map(f)
            .collect()
    } else {
        (0..len).map(f).collect()
    }
}

/// Calls `f(α_j, d(j,i))` for every client in facility `i`'s contributors
/// `P_i = {j : d(j,i) < α_j}`, in ascending `j`, from a sweep over its
/// kernel column. Every other client adds an exact `+0.0` to facility
/// `i`'s sum, which leaves a sum of non-negative terms unchanged.
fn for_each_contributor(inst: &FlInstance, alpha: &[f64], i: usize, mut f: impl FnMut(f64, f64)) {
    inst.distances().for_each_column_tile(i, |start, tile| {
        for (&a, &d) in alpha[start..].iter().zip(tile) {
            if d < a {
                f(a, d);
            }
        }
    });
}

/// Whether facility `i`'s payments exceed its cost `fi` by more than the
/// relative tolerance.
fn violates(excess: f64, fi: f64, tol: f64) -> bool {
    excess > tol * (1.0 + fi.abs())
}

/// The dual objective `Σ_j α_j`.
pub fn dual_value(alpha: &[f64]) -> f64 {
    alpha.iter().sum()
}

/// Checks that α (with the canonical `β_ij = max(0, α_j − d(j,i))`) is dual
/// feasible up to tolerance `tol`: non-negative and, for every facility
/// `i`, `Σ_j max(0, α_j − d(j,i)) <= f_i`.
///
/// Every facility's excess comes from one parallel map over facilities,
/// each sum a left-to-right fold over `P_i` in ascending `j`. Returns the
/// first violation by index (a negative client before any facility) and
/// its amount on failure.
pub fn check_alpha_feasible(
    inst: &FlInstance,
    alpha: &[f64],
    tol: f64,
) -> Result<(), (usize, f64)> {
    assert_eq!(alpha.len(), inst.num_clients(), "alpha length mismatch");
    if let Some((j, &a)) = alpha.iter().enumerate().find(|&(_, &a)| a < -tol) {
        return Err((j, a));
    }
    let excess = map_facilities(inst.num_facilities(), inst.num_clients(), |i| {
        let mut paid = 0.0;
        for_each_contributor(inst, alpha, i, |a, d| paid += (a - d).max(0.0));
        paid - inst.facility_cost(i)
    });
    match (0..excess.len()).find(|&i| violates(excess[i], inst.facility_cost(i), tol)) {
        Some(i) => Err((i, excess[i])),
        None => Ok(()),
    }
}

/// Bisection on one constraint that holds for small scales: `1.0` if it
/// holds at `s = 1`, else the largest point `lo` reached by `granularity`
/// halving steps `mid = 0.5·(lo + hi)` from `[0, 1]` at which it holds
/// (`0.0` if none).
fn bisect(granularity: usize, mut holds: impl FnMut(f64) -> bool) -> f64 {
    if holds(1.0) {
        return 1.0;
    }
    let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
    for _ in 0..granularity {
        let mid = 0.5 * (lo + hi);
        if holds(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Largest uniform scaling factor `s <= 1` such that `s·α` passes
/// [`check_alpha_feasible`] at tolerance `1e-9`, found by `granularity`
/// bisection steps, together with the element evaluations it made.
///
/// Each constraint's floating-point violation test is monotone in `s`:
/// rounded products, `max(0, ·)`, fixed-order sums of non-negative terms
/// and the comparison all are. So a bisection over all constraints at once
/// returns the largest grid point where every constraint passes, which is
/// the minimum of the per-constraint bisections computed here: one for
/// non-negativity and one per facility, in a parallel map over facilities.
/// Facility `i` gathers its contributors `P_i` once and bisects on them
/// alone. The evaluations are `nf·nc` for the gather plus `|P_i|` per test
/// facility `i` makes, so the count is the same on every backend and at
/// every thread count.
///
/// Useful to turn an *infeasible* α (e.g. the raw greedy α before the
/// Lemma 4.6 scaling) into a valid lower bound `s · Σ_j α_j`.
pub fn max_feasible_scaling(inst: &FlInstance, alpha: &[f64], granularity: usize) -> (f64, u64) {
    assert!(granularity >= 2);
    assert_eq!(alpha.len(), inst.num_clients(), "alpha length mismatch");
    const TOL: f64 = 1e-9;
    let (nc, nf) = (inst.num_clients(), inst.num_facilities());
    // fl(α_min·s) <= fl(α_j·s) for every j, so the most negative entry
    // decides non-negativity.
    let alpha_min = alpha.iter().fold(f64::INFINITY, |m, &a| m.min(a));
    let nonneg = bisect(granularity, |s| alpha_min * s >= -TOL);
    let per_facility = map_facilities(nf, nc, |i| {
        let mut contributors = Vec::new();
        for_each_contributor(inst, alpha, i, |a, d| contributors.push((a, d)));
        let fi = inst.facility_cost(i);
        let mut tests = 0u64;
        let s = bisect(granularity, |s| {
            tests += 1;
            let paid = contributors
                .iter()
                .fold(0.0, |paid, &(a, d)| paid + (a * s - d).max(0.0));
            !violates(paid - fi, fi, TOL)
        });
        (s, tests * contributors.len() as u64)
    });
    let scale = per_facility.iter().fold(nonneg, |m, &(s, _)| m.min(s));
    let evaluations = per_facility.iter().map(|&(_, e)| e).sum::<u64>() + (nf * nc) as u64;
    (scale, evaluations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfaclo_metric::gen::{self, GenParams};
    use parfaclo_metric::lower_bounds;
    use parfaclo_metric::DistanceMatrix;

    #[test]
    fn zero_alpha_is_always_feasible() {
        let inst = gen::facility_location(GenParams::uniform_square(6, 4).with_seed(1));
        let alpha = vec![0.0; 6];
        assert!(check_alpha_feasible(&inst, &alpha, 1e-9).is_ok());
        assert_eq!(dual_value(&alpha), 0.0);
    }

    #[test]
    fn feasible_alpha_lower_bounds_opt() {
        // α_j = γ_j / 2 need not be feasible in general, so use max_feasible_scaling to
        // produce a certified bound and compare against the brute-force optimum.
        for seed in 0..5 {
            let inst = gen::facility_location(GenParams::uniform_square(7, 4).with_seed(seed));
            let alpha: Vec<f64> = inst.gamma_per_client();
            let (s, _) = max_feasible_scaling(&inst, &alpha, 40);
            let scaled: Vec<f64> = alpha.iter().map(|a| a * s).collect();
            assert!(check_alpha_feasible(&inst, &scaled, 1e-7).is_ok());
            let (_, opt) = lower_bounds::brute_force_facility_location(&inst);
            assert!(
                dual_value(&scaled) <= opt + 1e-6,
                "seed {seed}: dual value {} exceeds optimum {opt}",
                dual_value(&scaled)
            );
        }
    }

    #[test]
    fn infeasible_alpha_is_rejected() {
        // One facility with cost 1, one client at distance 0. α = 2 over-pays.
        let inst = FlInstance::new(vec![1.0], DistanceMatrix::from_rows(1, 1, vec![0.0]));
        assert!(check_alpha_feasible(&inst, &[2.0], 1e-9).is_err());
        assert!(check_alpha_feasible(&inst, &[1.0], 1e-9).is_ok());
        assert!(check_alpha_feasible(&inst, &[-0.5], 1e-9).is_err());
    }

    #[test]
    fn scaling_of_feasible_alpha_is_one() {
        let inst = gen::facility_location(GenParams::uniform_square(5, 3).with_seed(2));
        let alpha = vec![0.0; 5];
        assert_eq!(max_feasible_scaling(&inst, &alpha, 20), (1.0, 15));
    }

    #[test]
    fn weak_duality_against_lp() {
        use crate::faclp::solve_facility_lp;
        for seed in 0..3 {
            let inst =
                gen::facility_location(GenParams::gaussian_clusters(6, 4, 2).with_seed(seed));
            let lp = solve_facility_lp(&inst).expect("lp");
            // Any feasible dual value is at most the LP optimum.
            let alpha: Vec<f64> = inst.gamma_per_client();
            let (s, _) = max_feasible_scaling(&inst, &alpha, 40);
            let scaled: Vec<f64> = alpha.iter().map(|a| a * s).collect();
            assert!(
                dual_value(&scaled) <= lp.value() + 1e-6,
                "seed {seed}: dual {} > primal {}",
                dual_value(&scaled),
                lp.value()
            );
        }
    }
}

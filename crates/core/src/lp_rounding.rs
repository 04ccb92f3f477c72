//! Parallel LP rounding (Section 6.2, Theorem 6.5).
//!
//! Given an **optimal fractional solution** `(x, y)` of the facility-location LP
//! relaxation (Figure 1), the algorithm of Shmoys, Tardos and Aardal filters it and
//! rounds it to an integral solution. The paper parallelises both phases:
//!
//! * **Filtering** (Lemma 6.2): for each client compute its fractional connection cost
//!   `δ_j = Σ_i d(j,i)·x_ij` and its ball `B_j = {i : d(j,i) <= (1+α)·δ_j}`; renormalise
//!   `x` inside the ball and inflate `y` by `(1 + 1/α)`. Entirely data-parallel.
//! * **Rounding**: the sequential algorithm scans clients by increasing `δ_j`; the
//!   parallel version processes, per round, **every** remaining client within a
//!   `(1 + ε)` factor of the smallest remaining `δ` (the eager set `S`), uses
//!   `MaxUDom` on the client/ball bipartite graph to pick a subset `J ⊆ S` with disjoint
//!   balls, opens the cheapest facility of each selected ball, and removes `S` and the
//!   processed balls from the graph. The `θ/m²` preprocessing keeps the number of rounds
//!   at `O(log_{1+ε} m)`.
//!
//! With `α = 1/3` the result is a `(4 + ε)`-approximation relative to the LP value
//! (which itself lower-bounds `opt`).

use crate::solution::FlSolution;
use parfaclo_api::{RunConfig, MAX_ROUNDS};
use parfaclo_dominator::{max_u_dom, CsrBipartite};
use parfaclo_lp::FlLpSolution;
use parfaclo_matrixops::{CostMeter, PAR_THRESHOLD};
use parfaclo_metric::{ClientId, FacilityId, FlInstance};
use parfaclo_trace as trace;
use rayon::prelude::*;

/// Extended result of the parallel rounding algorithm.
#[derive(Debug, Clone)]
pub struct RoundingOutput {
    /// The rounded integral solution; `lower_bound` is the LP value.
    pub solution: FlSolution,
    /// The filter parameter α used (default 1/3).
    pub filter_alpha: f64,
    /// For each client, the facility the analysis charges it to (`π` in the paper).
    pub pi: Vec<FacilityId>,
    /// Per-round number of clients processed.
    pub clients_per_round: Vec<usize>,
}

/// Runs the parallel rounding with the default filter parameter `α = 1/3` (the value
/// that balances facility and connection blow-ups into the `4 + ε` guarantee).
pub fn parallel_lp_rounding(inst: &FlInstance, lp: &FlLpSolution, cfg: &RunConfig) -> FlSolution {
    parallel_lp_rounding_detailed(inst, lp, cfg, 1.0 / 3.0).solution
}

/// Runs the parallel rounding with an explicit filter parameter `filter_alpha ∈ (0, 1)`.
///
/// # Panics
/// Panics if dimensions mismatch, `filter_alpha` is outside `(0, 1)`, or the LP solution
/// is not primal feasible.
pub fn parallel_lp_rounding_detailed(
    inst: &FlInstance,
    lp: &FlLpSolution,
    cfg: &RunConfig,
    filter_alpha: f64,
) -> RoundingOutput {
    let nc = inst.num_clients();
    let nf = inst.num_facilities();
    assert!(
        nc > 0 && nf > 0,
        "instance must have clients and facilities"
    );
    assert_eq!(lp.num_clients(), nc, "LP solution has wrong client count");
    assert_eq!(
        lp.num_facilities(),
        nf,
        "LP solution has wrong facility count"
    );
    assert!(
        filter_alpha > 0.0 && filter_alpha < 1.0,
        "filter parameter must lie in (0, 1)"
    );
    lp.check_feasible(inst, 1e-6)
        .expect("LP solution must be primal feasible");

    let eps = cfg.epsilon;
    let meter = CostMeter::new();

    // ---- Filtering (Lemma 6.2) ---------------------------------------------------------
    let filter_span = trace::span("filtering", Some(&meter));
    meter.add_primitive(inst.m() as u64);
    let delta: Vec<f64> = if inst.m() >= PAR_THRESHOLD {
        (0..nc).into_par_iter().map(|j| lp.delta(inst, j)).collect()
    } else {
        (0..nc).map(|j| lp.delta(inst, j)).collect()
    };
    // Balls B_j and the cheapest facility in each ball.
    meter.add_primitive(inst.m() as u64);
    let ball_radius: Vec<f64> = delta.iter().map(|d| (1.0 + filter_alpha) * d).collect();
    let ball = |j: usize| -> Vec<FacilityId> {
        (0..nf)
            .filter(|&i| inst.dist(j, i) <= ball_radius[j] + 1e-12)
            .collect()
    };
    let balls: Vec<Vec<FacilityId>> = if inst.m() >= PAR_THRESHOLD {
        (0..nc).into_par_iter().map(ball).collect()
    } else {
        (0..nc).map(ball).collect()
    };
    let cheapest_in_ball: Vec<FacilityId> = balls
        .iter()
        .enumerate()
        .map(|(j, b)| {
            *b.iter()
                .min_by(|&&a, &&c| {
                    inst.facility_cost(a)
                        .partial_cmp(&inst.facility_cost(c))
                        .unwrap()
                        .then(a.cmp(&c))
                })
                .unwrap_or_else(|| panic!("client {j} has an empty ball — LP solution malformed"))
        })
        .collect();
    // y' = min(1, (1 + 1/α) y) — only used in the analysis (Claim 6.3); we do not need
    // it to run the algorithm, but it is cheap to expose for verification in tests.
    let _y_prime: Vec<f64> = lp
        .y_slice()
        .iter()
        .map(|&y| (1.0_f64).min((1.0 + 1.0 / filter_alpha) * y))
        .collect();
    drop(filter_span);

    // ---- Rounding rounds ----------------------------------------------------------------
    let rounds_span = trace::span("rounding-rounds", Some(&meter));
    let theta = lp.value();
    let mut client_alive: Vec<bool> = vec![true; nc];
    let mut facility_alive: Vec<bool> = vec![true; nf];
    let mut open: Vec<bool> = vec![false; nf];
    let mut pi: Vec<Option<FacilityId>> = vec![None; nc];
    let mut clients_per_round: Vec<usize> = Vec::new();
    let mut rounds = 0usize;
    let mut inner_rounds = 0usize;

    // Preprocessing: clients with δ_j <= θ/m² are processed in the very first batch (the
    // paper folds them into round one; we simply make them eligible immediately because
    // τ = min δ already admits them — nothing extra to do beyond noting the bound).
    let _cheap_threshold = theta / (inst.m() as f64 * inst.m() as f64);

    while client_alive.iter().any(|&a| a) {
        rounds += 1;
        meter.add_round();
        // Round frontier = clients still unprocessed; counted only when traced.
        trace::round(
            rounds as u64,
            || client_alive.iter().filter(|&&a| a).count() as u64,
            &meter,
        );
        assert!(
            rounds <= MAX_ROUNDS,
            "LP rounding exceeded {} rounds — this indicates a bug",
            MAX_ROUNDS
        );

        // τ = smallest remaining δ; S = remaining clients within the (1+ε) slack.
        meter.add_primitive(nc as u64);
        let tau = (0..nc)
            .filter(|&j| client_alive[j])
            .map(|j| delta[j])
            .fold(f64::INFINITY, f64::min);
        let s: Vec<ClientId> = (0..nc)
            .filter(|&j| client_alive[j] && delta[j] <= (1.0 + eps) * tau + 1e-12)
            .collect();
        debug_assert!(!s.is_empty());

        // MaxUDom over the bipartite graph (S, alive facilities, ball
        // membership). Each ball is ascending and duplicate-free, so its
        // alive facilities are the client's CSR row as they stand.
        let rows: Vec<Vec<u32>> = s
            .iter()
            .map(|&j| {
                balls[j]
                    .iter()
                    .filter(|&&i| facility_alive[i])
                    .map(|&i| i as u32)
                    .collect()
            })
            .collect();
        let h = CsrBipartite::from_u_rows(s.len(), nf, rows);
        meter.add_primitive((s.len() * nf) as u64);
        let dom = max_u_dom(&h, cfg.seed ^ rounds as u64, &meter);
        inner_rounds += dom.rounds;
        let selected: Vec<ClientId> = dom.selected.iter().map(|&u| s[u]).collect();

        // Open the cheapest facility of each selected client's ball and assign π.
        for &j in &selected {
            let fac = cheapest_in_ball[j];
            open[fac] = true;
            pi[j] = Some(fac);
        }
        // Unselected processed clients charge to a selected client that blocks them:
        // same round, overlapping (still-alive) ball; or an earlier round that removed a
        // facility from their ball.
        for &j in &s {
            if pi[j].is_some() {
                continue;
            }
            // Same-round blocker: a selected client sharing a surviving ball facility.
            let blocker = selected.iter().copied().find(|&j2| {
                balls[j]
                    .iter()
                    .any(|&i| facility_alive[i] && balls[j2].contains(&i))
            });
            // Earlier-round blocker: some facility of the ball is already dead; charge
            // to the facility that the analysis says killed it — the cheapest open
            // facility within the ball if any, otherwise the closest open facility.
            let fac = match blocker {
                Some(j2) => cheapest_in_ball[j2],
                None => {
                    let in_ball_open = balls[j].iter().copied().find(|&i| open[i]);
                    in_ball_open.unwrap_or_else(|| {
                        (0..nf)
                            .filter(|&i| open[i])
                            .min_by(|&a, &b| inst.dist(j, a).partial_cmp(&inst.dist(j, b)).unwrap())
                            .expect("at least one facility is open by now")
                    })
                }
            };
            pi[j] = Some(fac);
        }

        // Remove S and all facilities inside processed balls from the graph.
        for &j in &s {
            client_alive[j] = false;
            for &i in &balls[j] {
                facility_alive[i] = false;
            }
        }
        clients_per_round.push(s.len());
    }
    drop(rounds_span);

    let finalize_span = trace::span("finalize", Some(&meter));
    let open_set: Vec<FacilityId> = (0..nf).filter(|&i| open[i]).collect();
    debug_assert!(!open_set.is_empty());
    let mut solution = FlSolution::from_open_set(inst, open_set);
    solution.lower_bound = lp.value();
    solution.rounds = rounds;
    solution.inner_rounds = inner_rounds;
    drop(finalize_span);
    solution.work = meter.report();

    RoundingOutput {
        solution,
        filter_alpha,
        pi: pi
            .into_iter()
            .map(|p| p.expect("every client assigned"))
            .collect(),
        clients_per_round,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfaclo_lp::solve_facility_lp;
    use parfaclo_metric::gen::{self, GenParams};
    use parfaclo_metric::lower_bounds;

    fn run(seed: u64, nc: usize, nf: usize, eps: f64) -> (FlInstance, RoundingOutput) {
        let inst = gen::facility_location(GenParams::uniform_square(nc, nf).with_seed(seed));
        let lp = solve_facility_lp(&inst).expect("lp solve");
        let cfg = RunConfig::new(eps).with_seed(seed);
        let out = parallel_lp_rounding_detailed(&inst, &lp, &cfg, 1.0 / 3.0);
        (inst, out)
    }

    #[test]
    fn rounded_cost_is_within_constant_of_lp_value() {
        for seed in 0..6 {
            let (_, out) = run(seed, 10, 6, 0.1);
            let ratio = out.solution.cost / out.solution.lower_bound;
            // Theorem 6.5 guarantee is 4 + ε; allow the ε and a little fp slack.
            assert!(
                ratio <= 4.0 + 0.2,
                "seed {seed}: ratio {ratio} exceeds 4 + ε"
            );
        }
    }

    #[test]
    fn rounded_cost_upper_bounds_optimum_and_lp_lower_bounds_it() {
        for seed in 0..4 {
            let (inst, out) = run(seed, 9, 5, 0.1);
            let (_, opt) = lower_bounds::brute_force_facility_location(&inst);
            assert!(out.solution.lower_bound <= opt + 1e-6, "seed {seed}");
            assert!(out.solution.cost >= opt - 1e-9, "seed {seed}");
            assert!(out.solution.cost <= (4.0 + 0.2) * opt + 1e-6, "seed {seed}");
        }
    }

    #[test]
    fn claim_6_4_per_client_charging_bound() {
        // Every client's assigned facility (π) is within 3(1+α)(1+ε)·δ_j — and clients
        // whose own ball facility opened are within (1+α)·δ_j.
        for seed in 0..5 {
            let inst = gen::facility_location(GenParams::uniform_square(12, 7).with_seed(seed));
            let lp = solve_facility_lp(&inst).expect("lp");
            let cfg = RunConfig::new(0.15).with_seed(seed);
            let alpha = 1.0 / 3.0;
            let out = parallel_lp_rounding_detailed(&inst, &lp, &cfg, alpha);
            for j in 0..inst.num_clients() {
                let dj = lp.delta(&inst, j);
                let bound = 3.0 * (1.0 + alpha) * (1.0 + 0.15) * dj + 1e-9;
                let d = inst.dist(j, out.pi[j]);
                assert!(
                    d <= bound.max((1.0 + alpha) * dj + 1e-9),
                    "seed {seed} client {j}: d(j,π)={d} exceeds bound {bound} (δ={dj})"
                );
            }
        }
    }

    #[test]
    fn every_pi_facility_is_open() {
        let (_, out) = run(3, 14, 8, 0.2);
        for (j, &f) in out.pi.iter().enumerate() {
            assert!(
                out.solution.open.contains(&f),
                "client {j} charged to unopened facility {f}"
            );
        }
    }

    #[test]
    fn rounds_are_few_and_cover_all_clients() {
        let (_, out) = run(5, 16, 8, 0.3);
        let total: usize = out.clients_per_round.iter().sum();
        assert_eq!(total, 16, "every client processed exactly once");
        assert_eq!(out.clients_per_round.len(), out.solution.rounds);
        assert!(out.solution.rounds <= 16);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let inst = gen::facility_location(GenParams::uniform_square(10, 6).with_seed(2));
        let lp = solve_facility_lp(&inst).expect("lp");
        let cfg = RunConfig::new(0.1).with_seed(42);
        let a = parallel_lp_rounding(&inst, &lp, &cfg);
        let b = parallel_lp_rounding(&inst, &lp, &cfg);
        assert_eq!(a.open, b.open);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    #[should_panic(expected = "filter parameter")]
    fn invalid_filter_alpha_rejected() {
        let inst = gen::facility_location(GenParams::uniform_square(4, 3).with_seed(1));
        let lp = solve_facility_lp(&inst).expect("lp");
        let _ = parallel_lp_rounding_detailed(&inst, &lp, &RunConfig::new(0.1), 1.5);
    }

    #[test]
    fn larger_filter_alpha_trades_facility_for_connection_cost() {
        let inst = gen::facility_location(GenParams::gaussian_clusters(14, 8, 3).with_seed(4));
        let lp = solve_facility_lp(&inst).expect("lp");
        let cfg = RunConfig::new(0.1).with_seed(4);
        let small = parallel_lp_rounding_detailed(&inst, &lp, &cfg, 0.1);
        let large = parallel_lp_rounding_detailed(&inst, &lp, &cfg, 0.9);
        // Both must still be valid solutions with every client served.
        assert_eq!(small.solution.assignment.len(), 14);
        assert_eq!(large.solution.assignment.len(), 14);
        // The bound constants differ, but both stay within the worst of the two bounds.
        for out in [&small, &large] {
            let ratio = out.solution.cost / lp.value();
            assert!(ratio <= 11.0, "ratio {ratio} unexpectedly large");
        }
    }
}

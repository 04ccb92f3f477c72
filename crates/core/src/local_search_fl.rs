//! Parallel local search for facility location (the extension remarked on at the end of
//! Section 7 of the paper).
//!
//! > "Furthermore, there is a factor-3 approximation local-search algorithm for facility
//! > location, in which a similar idea can be used to perform each local-search step
//! > efficiently; however, we do not know how to bound the number of rounds."
//!
//! This module implements that extension: the classical add / drop / swap local search
//! for facility location (Arya et al., Korupolu et al.), with each local-search step
//! evaluated **in parallel** over all candidate moves exactly the way Section 7
//! parallelises the k-median swap step (precompute each client's closest and
//! second-closest open facility, then every candidate move's Δ is an independent `O(n_c)`
//! reduction). As the paper notes, the number of rounds is not bounded by the theory;
//! we cap them at [`MAX_ROUNDS`] and report the number of rounds taken so the
//! E10 ablation can chart it. The `(1 − β)` improvement-threshold trick still bounds the
//! rounds by `O(log(initial/opt)/β)` for a `(3 + ε)`-style guarantee in practice.

use crate::solution::FlSolution;
use parfaclo_api::{RunConfig, MAX_ROUNDS};
use parfaclo_matrixops::{CostMeter, PAR_THRESHOLD};
use parfaclo_metric::{FacilityId, FlInstance};
use parfaclo_trace as trace;
use rayon::prelude::*;

/// One candidate local-search move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Move {
    /// Open a currently closed facility.
    Add(FacilityId),
    /// Close a currently open facility (only valid if at least one other stays open).
    Drop(FacilityId),
    /// Close `drop` and open `add` in one step.
    Swap {
        /// The facility to close.
        drop: FacilityId,
        /// The facility to open.
        add: FacilityId,
    },
}

/// Cost of a facility set given, for every client, its best and second-best open
/// facility distances and the identity of the best.
fn move_cost(
    inst: &FlInstance,
    opening_cost: f64,
    best: &[(FacilityId, f64, f64)],
    mv: Move,
) -> f64 {
    let nc = inst.num_clients();
    match mv {
        Move::Add(a) => {
            let conn: f64 = (0..nc).map(|j| best[j].1.min(inst.dist(j, a))).sum();
            opening_cost + inst.facility_cost(a) + conn
        }
        Move::Drop(d) => {
            let conn: f64 = (0..nc)
                .map(|j| if best[j].0 == d { best[j].2 } else { best[j].1 })
                .sum();
            opening_cost - inst.facility_cost(d) + conn
        }
        Move::Swap { drop, add } => {
            let conn: f64 = (0..nc)
                .map(|j| {
                    let keep = if best[j].0 == drop {
                        best[j].2
                    } else {
                        best[j].1
                    };
                    keep.min(inst.dist(j, add))
                })
                .sum();
            opening_cost - inst.facility_cost(drop) + inst.facility_cost(add) + conn
        }
    }
}

/// Runs the parallel add/drop/swap local search, starting from the solution that opens
/// the single facility minimising the total cost, and applying the best improving move
/// per round while it improves the cost by at least a `(1 − β)` factor with
/// `β = ε/(4(1+ε))` (the standard scaling that preserves the `3(1 + O(ε))` local-search
/// guarantee).
///
/// # Panics
/// Panics if the instance has no clients or facilities, or if [`MAX_ROUNDS`] is
/// exceeded (the paper gives no worst-case round bound for this algorithm).
pub fn parallel_local_search_fl(inst: &FlInstance, cfg: &RunConfig) -> FlSolution {
    let nc = inst.num_clients();
    let nf = inst.num_facilities();
    assert!(
        nc > 0 && nf > 0,
        "instance must have clients and facilities"
    );
    let meter = CostMeter::new();

    // Initial solution: the best single facility.
    let mut open: Vec<bool> = vec![false; nf];
    let best_single = (0..nf)
        .min_by(|&a, &b| {
            inst.solution_cost(&[a])
                .partial_cmp(&inst.solution_cost(&[b]))
                .unwrap()
        })
        .unwrap();
    open[best_single] = true;
    meter.add_primitive(inst.m() as u64);

    let open_set = |open: &[bool]| -> Vec<FacilityId> { (0..nf).filter(|&i| open[i]).collect() };
    let mut cost = inst.solution_cost(&open_set(&open));
    let beta = cfg.epsilon / (4.0 * (1.0 + cfg.epsilon));
    let threshold = 1.0 - beta;
    let mut rounds = 0usize;

    let search_span = trace::span("swap-search", Some(&meter));
    loop {
        assert!(
            rounds <= MAX_ROUNDS,
            "facility-location local search exceeded {} rounds",
            MAX_ROUNDS
        );
        let opened: Vec<FacilityId> = open_set(&open);
        let opening_cost: f64 = opened.iter().map(|&i| inst.facility_cost(i)).sum();

        // Closest and second-closest open facility for every client.
        meter.add_primitive((nc * opened.len()) as u64);
        let best: Vec<(FacilityId, f64, f64)> = (0..nc)
            .map(|j| {
                let mut b = (usize::MAX, f64::INFINITY);
                let mut second = f64::INFINITY;
                for &i in &opened {
                    let d = inst.dist(j, i);
                    if d < b.1 {
                        second = b.1;
                        b = (i, d);
                    } else if d < second {
                        second = d;
                    }
                }
                (b.0, b.1, second)
            })
            .collect();

        // Enumerate all candidate moves.
        let mut moves: Vec<Move> = Vec::new();
        for (i, &is_open) in open.iter().enumerate() {
            if !is_open {
                moves.push(Move::Add(i));
                for &d in &opened {
                    moves.push(Move::Swap { drop: d, add: i });
                }
            } else if opened.len() > 1 {
                moves.push(Move::Drop(i));
            }
        }
        meter.add_primitive((moves.len() * nc) as u64);
        let evaluated: Vec<(Move, f64)> = if moves.len() * nc >= PAR_THRESHOLD {
            moves
                .par_iter()
                .map(|&mv| (mv, move_cost(inst, opening_cost, &best, mv)))
                .collect()
        } else {
            moves
                .iter()
                .map(|&mv| (mv, move_cost(inst, opening_cost, &best, mv)))
                .collect()
        };
        let best_move = evaluated
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap());

        match best_move {
            Some(&(mv, new_cost)) if new_cost < threshold * cost => {
                match mv {
                    Move::Add(a) => open[a] = true,
                    Move::Drop(d) => open[d] = false,
                    Move::Swap { drop, add } => {
                        open[drop] = false;
                        open[add] = true;
                    }
                }
                cost = new_cost;
                rounds += 1;
                meter.add_round();
                // Swap-round frontier = candidate moves the sweep evaluated.
                trace::round(rounds as u64, || moves.len() as u64, &meter);
            }
            _ => break,
        }
    }
    drop(search_span);

    let mut solution = FlSolution::from_open_set(inst, open_set(&open));
    solution.rounds = rounds;
    solution.work = meter.report();
    solution
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfaclo_metric::gen::{self, GenParams};
    use parfaclo_metric::lower_bounds;

    #[test]
    fn within_local_search_guarantee_on_small_instances() {
        // The add/drop/swap local search is a 3-approximation (up to the 1+O(ε)
        // threshold slack); verify against brute force.
        for seed in 0..8 {
            let inst = gen::facility_location(GenParams::uniform_square(12, 6).with_seed(seed));
            let sol = parallel_local_search_fl(&inst, &RunConfig::new(0.1).with_seed(seed));
            let (_, opt) = lower_bounds::brute_force_facility_location(&inst);
            assert!(
                sol.cost <= 3.0 * (1.0 + 0.1) * opt + 1e-6,
                "seed {seed}: {} vs opt {opt}",
                sol.cost
            );
            assert!(sol.cost >= opt - 1e-9);
        }
    }

    #[test]
    fn often_matches_optimum_on_clustered_instances() {
        let inst = gen::facility_location(GenParams::gaussian_clusters(16, 6, 3).with_seed(5));
        let sol = parallel_local_search_fl(&inst, &RunConfig::new(0.05));
        let (_, opt) = lower_bounds::brute_force_facility_location(&inst);
        // Local search is typically near-optimal on well-clustered inputs.
        assert!(sol.cost <= 1.5 * opt + 1e-6, "{} vs {opt}", sol.cost);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let inst = gen::facility_location(GenParams::uniform_square(30, 12).with_seed(2));
        let a = parallel_local_search_fl(&inst, &RunConfig::new(0.1));
        let b = parallel_local_search_fl(&inst, &RunConfig::new(0.1));
        assert_eq!(a.open, b.open);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn improves_monotonically_from_single_facility_start() {
        let inst = gen::facility_location(GenParams::line(24, 12).with_seed(1));
        let sol = parallel_local_search_fl(&inst, &RunConfig::new(0.2));
        let single_best = (0..12)
            .map(|i| inst.solution_cost(&[i]))
            .fold(f64::INFINITY, f64::min);
        assert!(sol.cost <= single_best + 1e-9);
        assert!(sol.rounds <= 1000);
    }

    #[test]
    fn single_facility_instance_trivial() {
        let inst = gen::facility_location(GenParams::uniform_square(5, 1).with_seed(0));
        let sol = parallel_local_search_fl(&inst, &RunConfig::new(0.1));
        assert_eq!(sol.open, vec![0]);
        assert_eq!(sol.rounds, 0);
    }
}

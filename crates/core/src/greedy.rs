//! The parallel greedy facility-location algorithm (Algorithm 4.1, Theorem 4.9).
//!
//! The sequential JMS greedy repeatedly opens the single cheapest maximal star. The
//! parallel version instead admits, per round, **every** facility whose cheapest maximal
//! star is within a `(1 + ε)` factor of the global minimum `τ`, builds the bipartite
//! graph `H` connecting those facilities to the clients within distance `τ(1 + ε)`, and
//! then runs the **facility subselection** loop: in each inner iteration the candidate
//! facilities are randomly permuted, every client votes for its lowest-ranked adjacent
//! candidate, and a candidate is opened when it collects at least a
//! `1 / (2(1 + ε))` fraction of its neighbourhood's votes. Opened facilities have their
//! cost zeroed and their adjacent clients removed; candidates whose residual average
//! price exceeds `τ(1 + ε)` drop out of the round (they come back in later rounds).
//!
//! The `γ/m²` preprocessing of Section 4 opens ultra-cheap stars up front so that the
//! total number of outer rounds is `O(log_{1+ε} m)`; the subselection loop terminates in
//! `O(log_{1+ε} m)` iterations with high probability (Lemma 4.8).
//!
//! The recorded `α_j` (the `τ` value of the round in which client `j` was removed) feed
//! the dual-fitting analysis: scaled down by 1.861 (Lemma 4.6) — or 3 by the
//! self-contained Lemma 4.7 — they are dual feasible. The implementation certifies a
//! lower bound numerically by scaling `α` down until it passes the exact dual
//! feasibility check, which is at least as strong as either lemma.

use crate::config::FlConfig;
use crate::solution::FlSolution;
use crate::stars::{self, LazyOrders};
use parfaclo_lp::dual;
use parfaclo_matrixops::{CostMeter, PAR_THRESHOLD};
use parfaclo_metric::{ClientId, DistanceOracle, FacilityId, FlInstance};
use parfaclo_trace as trace;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// Per-round diagnostics, used by experiments E2 and E10.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyRoundStats {
    /// The threshold `τ` of the round.
    pub tau: f64,
    /// Number of candidate facilities admitted (`|I|`).
    pub candidates: usize,
    /// Number of facilities opened this round.
    pub opened: usize,
    /// Number of clients removed this round.
    pub clients_removed: usize,
    /// Number of subselection iterations the round needed.
    pub subselection_iters: usize,
}

/// Extended result of the parallel greedy algorithm.
#[derive(Debug, Clone)]
pub struct GreedyOutput {
    /// The solution (open set, costs, α values, work counters).
    pub solution: FlSolution,
    /// Per-round diagnostics.
    pub round_stats: Vec<GreedyRoundStats>,
}

/// Runs Algorithm 4.1 and returns just the solution. See [`parallel_greedy_detailed`]
/// for per-round diagnostics.
pub fn parallel_greedy(inst: &FlInstance, cfg: &FlConfig) -> FlSolution {
    parallel_greedy_detailed(inst, cfg).solution
}

/// Runs Algorithm 4.1, returning the solution plus per-round statistics.
///
/// # Panics
/// Panics if the instance has no clients or no facilities, or if the defensive
/// `cfg.max_rounds` cap is exceeded (which would indicate a bug, not an input problem).
pub fn parallel_greedy_detailed(inst: &FlInstance, cfg: &FlConfig) -> GreedyOutput {
    let nc = inst.num_clients();
    let nf = inst.num_facilities();
    assert!(
        nc > 0 && nf > 0,
        "instance must have clients and facilities"
    );
    let eps = cfg.epsilon;
    let slack = 1.0 + eps;
    let meter = CostMeter::new();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

    // Client orders: every facility's clients are partitioned into
    // geometric distance buckets (`O(m)`), and a bucket is sorted only when
    // a star scan actually reaches it.
    let mut orders = {
        let _span = trace::span("orders-build", Some(&meter));
        LazyOrders::build(inst, &meter)
    };
    let mut remaining: Vec<bool> = vec![true; nc];
    let mut remaining_count = nc;
    let mut fcost: Vec<f64> = (0..nf).map(|i| inst.facility_cost(i)).collect();
    let mut opened: Vec<bool> = vec![false; nf];
    let mut alpha: Vec<f64> = vec![0.0; nc];
    let mut round_stats: Vec<GreedyRoundStats> = Vec::new();
    let mut inner_rounds_total = 0usize;

    // ---- Preprocessing (Section 4, "Bounding the number of rounds") ----------------
    // Open every facility whose cheapest maximal star costs at most γ/m²; this costs at
    // most opt/m extra and guarantees τ >= γ/m² in the first real round.
    if cfg.preprocess {
        let _span = trace::span("preprocess", Some(&meter));
        let gamma = inst.gamma();
        let threshold = gamma / (inst.m() as f64 * inst.m() as f64);
        let stars = stars::all_cheapest_stars_lazy(inst, &fcost, &mut orders, &remaining, &meter);
        for star in stars.into_iter().flatten() {
            if star.price <= threshold && remaining_count > 0 {
                let i = star.facility;
                if !opened[i] {
                    opened[i] = true;
                }
                fcost[i] = 0.0;
                for &j in &star.clients {
                    if remaining[j] {
                        remaining[j] = false;
                        remaining_count -= 1;
                        alpha[j] = star.price;
                    }
                }
            }
        }
    }

    // ---- Main rounds -----------------------------------------------------------------
    let rounds_span = trace::span("star-rounds", Some(&meter));
    let mut outer_rounds = 0usize;
    while remaining_count > 0 {
        outer_rounds += 1;
        meter.add_round();
        trace::round(outer_rounds as u64, || remaining_count as u64, &meter);
        assert!(
            outer_rounds <= cfg.max_rounds,
            "parallel greedy exceeded {} rounds — this indicates a bug",
            cfg.max_rounds
        );

        // Step 1: cheapest maximal star per facility.
        let stars = stars::all_cheapest_stars_lazy(inst, &fcost, &mut orders, &remaining, &meter);

        // Step 2: τ and the candidate set I.
        let tau = stars
            .iter()
            .flatten()
            .map(|s| s.price)
            .fold(f64::INFINITY, f64::min);
        assert!(tau.is_finite(), "no star exists while clients remain");
        let threshold = tau * slack;
        let mut candidates: Vec<FacilityId> = stars
            .iter()
            .flatten()
            .filter(|s| s.price <= threshold)
            .map(|s| s.facility)
            .collect();
        let num_candidates = candidates.len();

        // Step 3: bipartite graph H between candidates and nearby remaining clients.
        // adj[c] = remaining clients within distance τ(1+ε) of candidates[c].
        // An index-capable oracle answers the threshold neighbourhood with a
        // range query (sublinear in |C|); scan oracles keep the cheap
        // remaining-first short circuit. Batch-kernel oracles take the same
        // branch: their `rows_within` is a blocked vectorised sweep, which
        // beats the per-element scalar loop in the same regimes an index
        // does. The one regime where either query loses is a near-diameter
        // τ(1+ε) paired with a *very* sparse
        // remaining set — enumerating ~|C| ids only to discard nearly all
        // of them — so the query branch stands down below ~1.6% remaining
        // (any less sparse, and a dense neighbourhood means the subselection
        // work on it dominates the query cost anyway). Both paths produce
        // the same ascending client list, and the meter charge is the
        // paper's |I|·|C| work bound either way.
        meter.add_primitive((num_candidates * nc) as u64);
        let use_index = (inst.distances().has_sublinear_queries()
            || inst.distances().has_batch_distance_kernels())
            && remaining_count * 64 >= nc;
        let build_adj = |&i: &FacilityId| -> Vec<ClientId> {
            if use_index {
                inst.distances()
                    .rows_within(i, threshold)
                    .into_iter()
                    .filter(|&j| remaining[j])
                    .collect()
            } else {
                (0..nc)
                    .filter(|&j| remaining[j] && inst.dist(j, i) <= threshold)
                    .collect()
            }
        };
        let mut adj: Vec<Vec<ClientId>> = if num_candidates * nc >= PAR_THRESHOLD {
            candidates.par_iter().map(build_adj).collect()
        } else {
            candidates.iter().map(build_adj).collect()
        };

        // Step 4: facility subselection.
        let mut opened_this_round = 0usize;
        let mut removed_this_round = 0usize;
        let mut subselection_iters = 0usize;
        while !candidates.is_empty() {
            subselection_iters += 1;
            inner_rounds_total += 1;
            assert!(
                subselection_iters <= cfg.max_rounds,
                "facility subselection exceeded {} iterations — this indicates a bug",
                cfg.max_rounds
            );

            // Refresh adjacency against the current remaining set and drop candidates
            // with no remaining neighbours.
            for a in adj.iter_mut() {
                a.retain(|&j| remaining[j]);
            }
            let keep: Vec<bool> = adj.iter().map(|a| !a.is_empty()).collect();
            let mut idx = 0usize;
            candidates.retain(|_| {
                let k = keep[idx];
                idx += 1;
                k
            });
            adj.retain(|a| !a.is_empty());
            if candidates.is_empty() {
                break;
            }

            // (a) Random permutation Π of the candidates.
            let mut ranks: Vec<usize> = (0..candidates.len()).collect();
            ranks.shuffle(&mut rng);
            // rank_of[c] = Π(candidates[c])
            let rank_of: Vec<usize> = ranks;

            // (b) Every adjacent client votes for its lowest-ranked candidate.
            meter.add_primitive((candidates.len() * nc) as u64);
            let client_vote: Vec<Option<usize>> = {
                // For each client, the candidate index with minimal rank among
                // candidates adjacent to it.
                let mut vote: Vec<Option<usize>> = vec![None; nc];
                for (c, a) in adj.iter().enumerate() {
                    for &j in a {
                        match vote[j] {
                            None => vote[j] = Some(c),
                            Some(prev) => {
                                if rank_of[c] < rank_of[prev] {
                                    vote[j] = Some(c);
                                }
                            }
                        }
                    }
                }
                vote
            };
            let mut votes: Vec<usize> = vec![0; candidates.len()];
            for v in client_vote.iter().flatten() {
                votes[*v] += 1;
            }

            // (c) Open sufficiently-voted candidates; remove their clients.
            let vote_threshold = |deg: usize| -> f64 {
                if cfg.subselection {
                    deg as f64 / (2.0 * slack)
                } else {
                    0.0
                }
            };
            let to_open: Vec<usize> = (0..candidates.len())
                .filter(|&c| votes[c] as f64 >= vote_threshold(adj[c].len()))
                .collect();
            for &c in &to_open {
                let i = candidates[c];
                if !opened[i] {
                    opened[i] = true;
                }
                fcost[i] = 0.0;
                opened_this_round += 1;
                for &j in &adj[c] {
                    if remaining[j] {
                        remaining[j] = false;
                        remaining_count -= 1;
                        removed_this_round += 1;
                        alpha[j] = tau;
                    }
                }
            }
            if !to_open.is_empty() {
                let open_set: Vec<bool> = {
                    let mut v = vec![false; candidates.len()];
                    for &c in &to_open {
                        v[c] = true;
                    }
                    v
                };
                let mut idx = 0usize;
                candidates.retain(|_| {
                    let k = !open_set[idx];
                    idx += 1;
                    k
                });
                let mut idx = 0usize;
                adj.retain(|_| {
                    let k = !open_set[idx];
                    idx += 1;
                    k
                });
            }

            // (d) Prune candidates whose residual average price exceeds τ(1+ε).
            // Each candidate's live-client distances are gathered in one
            // blocked-kernel oracle call and summed left-to-right in the
            // same ascending client order as a per-element loop would.
            meter.add_primitive((candidates.len() * nc) as u64);
            let mut dist_buf: Vec<f64> = Vec::new();
            let prune: Vec<bool> = candidates
                .iter()
                .zip(adj.iter())
                .map(|(&i, a)| {
                    let live: Vec<ClientId> = a.iter().copied().filter(|&j| remaining[j]).collect();
                    if live.is_empty() {
                        return true;
                    }
                    dist_buf.clear();
                    dist_buf.resize(live.len(), 0.0);
                    inst.distances().col_gather(i, &live, &mut dist_buf);
                    let sum: f64 = dist_buf.iter().sum();
                    (fcost[i] + sum) / live.len() as f64 > threshold
                })
                .collect();
            let mut idx = 0usize;
            candidates.retain(|_| {
                let k = !prune[idx];
                idx += 1;
                k
            });
            let mut idx = 0usize;
            adj.retain(|_| {
                let k = !prune[idx];
                idx += 1;
                k
            });
        }

        round_stats.push(GreedyRoundStats {
            tau,
            candidates: num_candidates,
            opened: opened_this_round,
            clients_removed: removed_this_round,
            subselection_iters,
        });
    }
    drop(rounds_span);

    // ---- Wrap up ----------------------------------------------------------------------
    let finalize_span = trace::span("finalize", Some(&meter));
    let open: Vec<FacilityId> = (0..nf).filter(|&i| opened[i]).collect();
    let open = if open.is_empty() {
        // Degenerate: all clients were removed by preprocessing alone without opening
        // anything (cannot happen — preprocessing always opens the star's facility), but
        // guard anyway by opening the globally cheapest facility.
        vec![(0..nf)
            .min_by(|&a, &b| {
                inst.facility_cost(a)
                    .partial_cmp(&inst.facility_cost(b))
                    .unwrap()
            })
            .unwrap()]
    } else {
        open
    };

    let mut solution = FlSolution::from_open_set(inst, open);
    // Certified lower bound: scale α down until it is exactly dual feasible. Lemma 4.6
    // guarantees a scaling of 1/1.861 always works, so the certified bound is at least
    // Σα / 1.861 up to the numerical search granularity.
    let scale = dual::max_feasible_scaling(inst, &alpha, 40);
    let scaled: Vec<f64> = alpha.iter().map(|a| a * scale).collect();
    solution.lower_bound = dual::dual_value(&scaled);
    solution.alpha = alpha;
    solution.rounds = outer_rounds;
    solution.inner_rounds = inner_rounds_total;
    drop(finalize_span);
    solution.work = meter.report();

    GreedyOutput {
        solution,
        round_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfaclo_metric::gen::{self, FacilityCostModel, GenParams};
    use parfaclo_metric::lower_bounds;
    use parfaclo_metric::DistanceMatrix;
    use parfaclo_seq_baselines::jms_greedy;

    #[test]
    fn single_facility_instance_is_trivial() {
        let inst = FlInstance::new(
            vec![2.0],
            DistanceMatrix::from_rows(3, 1, vec![1.0, 1.0, 2.0]),
        );
        let out = parallel_greedy_detailed(&inst, &FlConfig::new(0.1));
        assert_eq!(out.solution.open, vec![0]);
        assert_eq!(out.solution.cost, 6.0);
        assert!(out.solution.rounds >= 1);
    }

    #[test]
    fn within_theorem_bound_on_small_instances() {
        // Theorem 4.9 / abstract: (3.722 + ε)-approximation (6 + ε by the weaker
        // analysis). Check the *stronger* bound against brute force on small instances.
        for seed in 0..10 {
            let inst = gen::facility_location(GenParams::uniform_square(12, 6).with_seed(seed));
            let cfg = FlConfig::new(0.1).with_seed(seed);
            let sol = parallel_greedy(&inst, &cfg);
            let (_, opt) = lower_bounds::brute_force_facility_location(&inst);
            assert!(
                sol.cost <= (3.722 + 0.1) * opt + 1e-6,
                "seed {seed}: cost {} vs opt {opt}",
                sol.cost
            );
            assert!(sol.cost >= opt - 1e-9);
        }
    }

    #[test]
    fn certified_lower_bound_is_valid() {
        for seed in 0..6 {
            let inst =
                gen::facility_location(GenParams::gaussian_clusters(10, 6, 3).with_seed(seed));
            let sol = parallel_greedy(&inst, &FlConfig::new(0.2).with_seed(seed));
            let (_, opt) = lower_bounds::brute_force_facility_location(&inst);
            assert!(sol.lower_bound <= opt + 1e-6, "seed {seed}");
            assert!(sol.lower_bound > 0.0, "seed {seed}: certificate missing");
            // The certificate must also be consistent with the reported cost.
            assert!(sol.cost >= sol.lower_bound - 1e-9);
        }
    }

    #[test]
    fn comparable_to_sequential_jms() {
        // The parallel algorithm may lose up to a constant factor against JMS; verify it
        // stays within the analysed 2(1+ε)² blow-up on a batch of instances.
        for seed in 0..6 {
            let inst = gen::facility_location(GenParams::uniform_square(30, 12).with_seed(seed));
            let seq = jms_greedy(&inst);
            let par = parallel_greedy(&inst, &FlConfig::new(0.1).with_seed(seed));
            assert!(
                par.cost <= 2.0 * (1.1_f64).powi(2) * seq.cost + 1e-6,
                "seed {seed}: parallel {} vs sequential {}",
                par.cost,
                seq.cost
            );
        }
    }

    #[test]
    fn rounds_grow_logarithmically_with_epsilon_slack() {
        let inst = gen::facility_location(GenParams::uniform_square(60, 30).with_seed(3));
        let tight = parallel_greedy_detailed(&inst, &FlConfig::new(0.05).with_seed(1));
        let loose = parallel_greedy_detailed(&inst, &FlConfig::new(1.0).with_seed(1));
        // A larger slack admits more facilities per round, so it needs at most as many
        // outer rounds (typically far fewer).
        assert!(loose.solution.rounds <= tight.solution.rounds);
        // And the round statistics are internally consistent.
        for out in [&tight, &loose] {
            let removed: usize = out.round_stats.iter().map(|r| r.clients_removed).sum();
            assert!(removed <= 60);
            assert_eq!(out.round_stats.len(), out.solution.rounds);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let inst = gen::facility_location(GenParams::grid(36, 18).with_seed(0));
        let cfg = FlConfig::new(0.3).with_seed(5);
        let a = parallel_greedy(&inst, &cfg);
        let b = parallel_greedy(&inst, &cfg);
        assert_eq!(a.open, b.open, "same seed must give identical output");
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn zero_cost_facilities() {
        let inst = gen::facility_location(
            GenParams::uniform_square(20, 8)
                .with_seed(2)
                .with_cost_model(FacilityCostModel::Zero),
        );
        let sol = parallel_greedy(&inst, &FlConfig::new(0.1));
        // With free facilities the optimum is the sum of nearest-facility distances.
        let opt: f64 = (0..20)
            .map(|j| {
                (0..8)
                    .map(|i| inst.dist(j, i))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        assert!(sol.cost <= (3.722 + 0.1) * opt + 1e-6);
    }

    #[test]
    fn ablation_disabling_subselection_still_terminates() {
        let inst = gen::facility_location(GenParams::uniform_square(20, 10).with_seed(4));
        let cfg = FlConfig::new(0.2).with_subselection(false);
        let sol = parallel_greedy(&inst, &cfg);
        assert!(!sol.open.is_empty());
        // Without the vote threshold more facilities open, so the opening cost can only
        // be larger or equal compared to the guarded version with the same seed.
        let guarded = parallel_greedy(&inst, &FlConfig::new(0.2));
        assert!(sol.open.len() >= guarded.open.len());
    }

    #[test]
    fn ablation_disabling_preprocess_still_correct() {
        let inst = gen::facility_location(GenParams::uniform_square(15, 8).with_seed(6));
        let sol = parallel_greedy(&inst, &FlConfig::new(0.1).with_preprocess(false));
        let with = parallel_greedy(&inst, &FlConfig::new(0.1));
        let (_, opt) = lower_bounds::brute_force_facility_location(&gen::facility_location(
            GenParams::uniform_square(15, 8).with_seed(6),
        ));
        assert!(sol.cost <= (3.722 + 0.1) * opt + 1e-6);
        assert!(with.cost <= (3.722 + 0.1) * opt + 1e-6);
    }

    #[test]
    fn alpha_values_match_round_taus() {
        let inst = gen::facility_location(GenParams::uniform_square(25, 10).with_seed(9));
        let out = parallel_greedy_detailed(&inst, &FlConfig::new(0.15).with_seed(9));
        let taus: Vec<f64> = out.round_stats.iter().map(|r| r.tau).collect();
        for (j, &a) in out.solution.alpha.iter().enumerate() {
            // Every client's α is either a preprocessing star price (tiny) or one of the
            // round τ values.
            let matches_tau = taus.iter().any(|&t| (t - a).abs() < 1e-9);
            assert!(
                matches_tau || a <= inst.gamma() / (inst.m() as f64),
                "client {j}: α = {a} matches no round τ"
            );
        }
    }

    #[test]
    fn work_counters_are_populated() {
        // One sort is charged per lazily expanded bucket prefix, so at least
        // one sort is recorded (a star scan cannot produce a star without a
        // sorted prefix), and `rounds` agrees with the solution's round
        // count.
        let inst = gen::facility_location(GenParams::uniform_square(30, 15).with_seed(1));
        let sol = parallel_greedy(&inst, &FlConfig::new(0.1));
        assert!(sol.work.element_ops > 0);
        assert!(sol.work.primitive_calls > 0);
        assert!(
            sol.work.sort_calls >= 1,
            "sorted-prefix work must be recorded"
        );
        assert_eq!(sol.work.rounds as usize, sol.rounds);
    }
}

//! Parallel local search for k-median and k-means (Section 7, Theorem 7.1).
//!
//! The sequential single-swap local search is parallelised at the level of one
//! local-search step: all `k·(n−k)` candidate swaps are evaluated **simultaneously in
//! parallel**, each in `O(n)` work using the precomputed closest / second-closest center
//! of every node, and the best swap is applied if it improves the objective by at least
//! a `(1 − β/k)` factor (`β = ε/(1+ε)`). Two further ingredients bound the number of
//! rounds by `O(k log(n)/ε)`:
//!
//! * the initial solution comes from the parallel k-center 2-approximation of Section
//!   6.1, which is an `O(n)`-approximation for k-median / k-means, and
//! * the improvement threshold ensures geometric progress.
//!
//! The guarantees match the sequential local search: `5 + ε` for k-median and `81 + ε`
//! for k-means (Arya et al. / Gupta–Tangwongsan).

use crate::kcenter::parallel_kcenter;
use parfaclo_api::{RunConfig, MAX_ROUNDS};
use parfaclo_matrixops::{CostMeter, CostReport, PAR_THRESHOLD};
use parfaclo_metric::{ClusterInstance, DistanceOracle, NodeId};
use parfaclo_trace as trace;
use rayon::prelude::*;

/// Which objective the local search optimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterObjective {
    /// Sum of distances to the closest center (k-median).
    KMedian,
    /// Sum of squared distances to the closest center (k-means).
    KMeans,
}

impl ClusterObjective {
    /// Transforms a raw distance into its contribution to the objective.
    #[inline]
    pub fn cost_of(self, d: f64) -> f64 {
        match self {
            ClusterObjective::KMedian => d,
            ClusterObjective::KMeans => d * d,
        }
    }

    /// The approximation factor the local search guarantees for this objective (before
    /// the `+ ε`).
    pub fn guarantee(self) -> f64 {
        match self {
            ClusterObjective::KMedian => 5.0,
            ClusterObjective::KMeans => 81.0,
        }
    }
}

/// Result of the parallel local search.
#[derive(Debug, Clone)]
pub struct KClusterSolution {
    /// Final centers (exactly `min(k, n)` of them, sorted ascending).
    pub centers: Vec<NodeId>,
    /// Final objective value (weighted, when the instance carries per-node
    /// weights).
    pub cost: f64,
    /// Objective value of the k-center-based initial solution.
    pub initial_cost: f64,
    /// Number of improving swaps applied (= number of local-search rounds).
    pub rounds: usize,
    /// Work counters accumulated over the run (including the initialisation).
    pub work: CostReport,
}

/// For every node, its closest and second-closest center (indices into `centers`) and
/// the corresponding distances.
fn closest_two(inst: &ClusterInstance, centers: &[NodeId]) -> Vec<(usize, f64, f64)> {
    let n = inst.n();
    let oracle = inst.distances();
    // Each node's center distances are gathered in one blocked-kernel
    // oracle call, then walked in the same ascending center order (and with
    // the same strict comparisons) as a per-element loop would — identical
    // best/second values and indices.
    let scan = |dists: &[f64]| -> (usize, f64, f64) {
        let mut best = (usize::MAX, f64::INFINITY);
        let mut second = f64::INFINITY;
        for (ci, &d) in dists.iter().enumerate() {
            if d < best.1 {
                second = best.1;
                best = (ci, d);
            } else if d < second {
                second = d;
            }
        }
        (best.0, best.1, second)
    };
    let mut out = vec![(usize::MAX, f64::INFINITY, f64::INFINITY); n];
    let fill = |base: usize, seg: &mut [(usize, f64, f64)], buf: &mut [f64]| {
        for (o, slot) in seg.iter_mut().enumerate() {
            oracle.row_gather(base + o, centers, buf);
            *slot = scan(buf);
        }
    };
    if n * centers.len() >= PAR_THRESHOLD {
        let chunk = rayon::deterministic_chunk_len(n, 64);
        out.par_chunks_mut(chunk).enumerate().for_each(|(ci, seg)| {
            let mut buf = vec![0.0; centers.len()];
            fill(ci * chunk, seg, &mut buf);
        });
    } else {
        let mut buf = vec![0.0; centers.len()];
        fill(0, &mut out, &mut buf);
    }
    out
}

/// Scores every swap that drops a center position (`0..k`) and adds one of
/// `candidates`: `(pos, add, cost after the swap)`, candidate-major.
///
/// One candidate's distance column serves all `k` of its swaps and is
/// streamed once, in stack tiles. Node `j` adds
/// `b = w_j·cost(min(d2_j, d_j))` to the accumulator of its nearest
/// center's position and `a = w_j·cost(min(d1_j, d_j))` to the other
/// `k − 1`. So every accumulator adds the same terms in the same ascending
/// `j` order as a per-position loop — the same bits — and `k` independent
/// additions replace one latency-bound chain. The best-swap comparator is
/// total on `(cost, pos, add)`, so the enumeration order cannot change the
/// chosen swap.
fn swap_scores(
    inst: &ClusterInstance,
    objective: ClusterObjective,
    k: usize,
    nearest: &[(usize, f64, f64)],
    candidates: &[NodeId],
) -> Vec<(usize, NodeId, f64)> {
    let score = |&add: &NodeId| -> Vec<(usize, NodeId, f64)> {
        let mut sums = vec![0.0; k];
        inst.distances().for_each_column_tile(add, |start, tile| {
            for (j, (&(ci, d1, d2), &d)) in (start..).zip(nearest[start..].iter().zip(tile)) {
                let a = inst.weight(j) * objective.cost_of(d1.min(d));
                let b = inst.weight(j) * objective.cost_of(d2.min(d));
                for (pos, sum) in sums.iter_mut().enumerate() {
                    *sum += if pos == ci { b } else { a };
                }
            }
        });
        sums.into_iter()
            .enumerate()
            .map(|(pos, sum)| (pos, add, sum))
            .collect()
    };
    if k * candidates.len() * nearest.len() >= PAR_THRESHOLD {
        candidates
            .par_iter()
            .flat_map_iter(|add| score(add).into_iter())
            .collect()
    } else {
        candidates.iter().flat_map(score).collect()
    }
}

/// Runs the parallel local search for the given objective with
/// `k = cfg.k` centers, charging the swap scoring to `meter`: the caller
/// owns it, so the trace span it opens around the call counts that work (as
/// `max_dom`'s callers do). The returned `work` is this call's share of the
/// meter plus the k-center seed's own.
///
/// # Panics
/// Panics if `cfg.k == 0`, the instance is empty, or the k-center seed refuses
/// the instance because a sort of all pairwise distances would exceed the
/// 4 GiB scratch cap (`DistanceOracle::check_distance_sort_cap`, n ≈ 23,170); the
/// `kmedian-ls` and `kmeans-ls` solvers refuse such instances up front.
pub fn parallel_local_search(
    inst: &ClusterInstance,
    objective: ClusterObjective,
    cfg: &RunConfig,
    meter: &CostMeter,
) -> KClusterSolution {
    let n = inst.n();
    assert!(cfg.k >= 1, "k must be at least 1");
    assert!(n >= 1, "instance must be non-empty");
    let start = meter.report();
    let k = cfg.k.min(n);

    // ---- Initial solution: the parallel k-center 2-approximation ----------------------
    // The seed charges a meter of its own, so the caller's span counts the
    // swap rounds only; its work joins `work` below.
    let kc = parallel_kcenter(inst, k, cfg.seed, &CostMeter::new())
        .expect("the k-center seed's candidate radii fit the scratch cap");
    let mut centers: Vec<NodeId> = kc.centers;
    // k-center may return fewer than k centers when nodes coincide; pad with arbitrary
    // distinct nodes so exactly k centers are maintained (harmless: extra centers never
    // increase the objective).
    for v in 0..n {
        if centers.len() >= k {
            break;
        }
        if !centers.contains(&v) {
            centers.push(v);
        }
    }

    // Per-node weights (coreset cell populations) scale each node's term;
    // an unweighted instance multiplies by 1.0, which is bitwise identity,
    // so the historical unweighted outputs are byte-for-byte unchanged.
    let eval = |centers: &[NodeId]| -> f64 {
        (0..n)
            .map(|j| {
                let d = inst.closest_center(j, centers).unwrap().1;
                inst.weight(j) * objective.cost_of(d)
            })
            .sum()
    };
    let initial_cost = eval(&centers);
    let mut cost = initial_cost;

    let beta = cfg.epsilon / (1.0 + cfg.epsilon);
    let threshold = 1.0 - beta / k as f64;
    let mut rounds = 0usize;

    loop {
        assert!(
            rounds <= MAX_ROUNDS,
            "parallel local search exceeded {} rounds",
            MAX_ROUNDS
        );
        // Precompute closest / second-closest centers for every node.
        meter.add_primitive((n * k) as u64);
        let nearest = closest_two(inst, &centers);

        // Evaluate every swap (drop centers[pos], add candidate) in parallel.
        meter.add_primitive((k * n * n) as u64);
        let in_centers: Vec<bool> = {
            let mut v = vec![false; n];
            for &c in &centers {
                v[c] = true;
            }
            v
        };
        let candidates: Vec<NodeId> = (0..n).filter(|&v| !in_centers[v]).collect();
        let swaps = swap_scores(inst, objective, centers.len(), &nearest, &candidates);

        // Best swap, deterministic tie-breaking.
        let best = swaps.iter().min_by(|a, b| {
            a.2.partial_cmp(&b.2)
                .unwrap()
                .then(a.0.cmp(&b.0))
                .then(a.1.cmp(&b.1))
        });
        match best {
            Some(&(pos, add, new_cost)) if new_cost < threshold * cost => {
                centers[pos] = add;
                cost = new_cost;
                rounds += 1;
                meter.add_round();
                // Swap-round frontier = candidate nodes the sweep evaluated.
                trace::round(rounds as u64, || candidates.len() as u64, meter);
            }
            _ => break,
        }
    }

    centers.sort_unstable();
    KClusterSolution {
        centers,
        cost,
        initial_cost,
        rounds,
        // This call's share of the meter plus the k-center initialisation.
        work: meter.delta_since(&start) + kc.work,
    }
}

/// Parallel local search for **k-median** (`5 + ε`-approximation).
pub fn parallel_kmedian(inst: &ClusterInstance, cfg: &RunConfig) -> KClusterSolution {
    parallel_local_search(inst, ClusterObjective::KMedian, cfg, &CostMeter::new())
}

/// Parallel local search for **k-means** (`81 + ε`-approximation in general metrics).
pub fn parallel_kmeans(inst: &ClusterInstance, cfg: &RunConfig) -> KClusterSolution {
    parallel_local_search(inst, ClusterObjective::KMeans, cfg, &CostMeter::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfaclo_metric::gen::{self, GenParams};
    use parfaclo_metric::lower_bounds::{self, ClusterObjective as BfObjective};
    use parfaclo_seq_baselines::local_search_kmedian;

    #[test]
    fn kmedian_within_guarantee_on_small_instances() {
        for seed in 0..6 {
            let inst = gen::clustering(GenParams::uniform_square(11, 11).with_seed(seed));
            for k in 1..4 {
                let cfg = RunConfig::new(0.1).with_k(k).with_seed(seed);
                let sol = parallel_kmedian(&inst, &cfg);
                let (_, opt) =
                    lower_bounds::brute_force_kclustering(&inst, k, BfObjective::KMedian);
                assert!(
                    sol.cost <= (5.0 + 0.1) * opt + 1e-6,
                    "seed {seed} k {k}: {} vs opt {opt}",
                    sol.cost
                );
                assert!(sol.cost >= opt - 1e-9);
                assert_eq!(sol.centers.len(), k);
            }
        }
    }

    #[test]
    fn kmeans_within_guarantee_on_small_instances() {
        for seed in 0..4 {
            let inst = gen::clustering(GenParams::uniform_square(10, 10).with_seed(seed));
            let sol = parallel_kmeans(&inst, &RunConfig::new(0.2).with_k(2).with_seed(seed));
            let (_, opt) = lower_bounds::brute_force_kclustering(&inst, 2, BfObjective::KMeans);
            assert!(
                sol.cost <= (81.0 + 0.2) * opt + 1e-6,
                "seed {seed}: {} vs opt {opt}",
                sol.cost
            );
            assert!(sol.cost >= opt - 1e-9);
        }
    }

    #[test]
    fn planted_clusters_are_found() {
        let inst = gen::clustering(GenParams::planted(36, 36, 4).with_seed(8));
        let sol = parallel_kmedian(&inst, &RunConfig::new(0.1).with_k(4));
        // Every node is within distance 2 of its blob's members, so a correct clustering
        // costs at most 2n = 72; a wrong clustering pays ≥ 48 for a whole missed blob.
        assert!(sol.cost <= 72.0, "cost {}", sol.cost);
    }

    #[test]
    fn local_search_never_worse_than_initialisation() {
        for seed in 0..5 {
            let inst = gen::clustering(GenParams::gaussian_clusters(30, 30, 5).with_seed(seed));
            let sol = parallel_kmedian(&inst, &RunConfig::new(0.1).with_k(5).with_seed(seed));
            assert!(sol.cost <= sol.initial_cost + 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn rounds_are_bounded_by_theory() {
        let inst = gen::clustering(GenParams::uniform_square(40, 40).with_seed(3));
        let eps = 0.2;
        let k = 4;
        let sol = parallel_kmedian(&inst, &RunConfig::new(eps).with_k(k).with_seed(3));
        // Theorem 7.1 / Arya et al.: O(log_{1/(1-β/k)}(initial/opt)) rounds; bound the
        // ratio crudely by initial/final (final ≥ opt).
        let beta = eps / (1.0 + eps);
        let per_round = 1.0 / (1.0 - beta / k as f64);
        let bound = (sol.initial_cost / sol.cost.max(1e-12)).ln() / per_round.ln() + 2.0;
        assert!(
            (sol.rounds as f64) <= bound.max(2.0),
            "rounds {} exceed bound {bound}",
            sol.rounds
        );
    }

    #[test]
    fn comparable_to_sequential_local_search() {
        for seed in 0..4 {
            let inst = gen::clustering(GenParams::uniform_square(18, 18).with_seed(seed));
            let par = parallel_kmedian(&inst, &RunConfig::new(0.1).with_k(3).with_seed(seed));
            let seq = local_search_kmedian(&inst, 3, 0.1);
            // Both are (5+ε)-approximations; they should be within that factor of each
            // other (and typically nearly equal).
            assert!(par.cost <= 5.1 * seq.cost + 1e-6, "seed {seed}");
            assert!(seq.cost <= 5.1 * par.cost + 1e-6, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let inst = gen::clustering(GenParams::uniform_square(22, 22).with_seed(5));
        let cfg = RunConfig::new(0.15).with_k(3).with_seed(9);
        let a = parallel_kmedian(&inst, &cfg);
        let b = parallel_kmedian(&inst, &cfg);
        assert_eq!(a.centers, b.centers);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn k_geq_n_gives_zero_cost() {
        let inst = gen::clustering(GenParams::uniform_square(5, 5).with_seed(1));
        let sol = parallel_kmedian(&inst, &RunConfig::new(0.1).with_k(8));
        assert_eq!(sol.centers.len(), 5);
        assert_eq!(sol.cost, 0.0);
    }

    #[test]
    fn k_of_one() {
        let inst = gen::clustering(GenParams::line(9, 9));
        let sol = parallel_kmedian(&inst, &RunConfig::new(0.05).with_k(1));
        let (_, opt) = lower_bounds::brute_force_kclustering(&inst, 1, BfObjective::KMedian);
        assert!(sol.cost <= 5.05 * opt + 1e-9);
        assert_eq!(sol.centers.len(), 1);
    }

    #[test]
    fn work_counters_populated() {
        let inst = gen::clustering(GenParams::uniform_square(20, 20).with_seed(2));
        let sol = parallel_kmedian(&inst, &RunConfig::new(0.1).with_k(3));
        assert!(sol.work.element_ops > 0);
        assert!(sol.work.primitive_calls > 0);
    }

    #[test]
    fn unit_weights_are_bitwise_identical_to_unweighted() {
        let base = gen::clustering(GenParams::uniform_square(20, 20).with_seed(4));
        let unit = base.clone().with_weights(vec![1.0; 20]);
        let cfg = RunConfig::new(0.1).with_k(3).with_seed(4);
        for objective in [ClusterObjective::KMedian, ClusterObjective::KMeans] {
            let a = parallel_local_search(&base, objective, &cfg, &CostMeter::new());
            let b = parallel_local_search(&unit, objective, &cfg, &CostMeter::new());
            assert_eq!(a.centers, b.centers);
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
            assert_eq!(a.rounds, b.rounds);
        }
    }

    #[test]
    fn heavy_weight_attracts_a_center() {
        let base = gen::clustering(GenParams::uniform_square(20, 20).with_seed(4));
        let mut w = vec![1.0; 20];
        w[7] = 1e6;
        let heavy = parallel_kmedian(
            &base.clone().with_weights(w),
            &RunConfig::new(0.1).with_k(3).with_seed(4),
        );
        let d7 = heavy
            .centers
            .iter()
            .map(|&c| base.dist(7, c))
            .fold(f64::INFINITY, f64::min);
        assert!(d7 <= 1.0, "heavy node left uncovered at distance {d7}");
    }

    /// The per-position loop the fused scores replaced: one heap column per
    /// candidate, one pass over it per dropped position.
    fn per_position_reference(
        inst: &ClusterInstance,
        objective: ClusterObjective,
        k: usize,
        nearest: &[(usize, f64, f64)],
        candidates: &[NodeId],
    ) -> Vec<(usize, NodeId, f64)> {
        let mut out = Vec::new();
        for &add in candidates {
            let mut col = vec![0.0; inst.n()];
            inst.distances().col_range_into(add, 0, &mut col);
            for pos in 0..k {
                let mut sum = 0.0;
                for (j, &dj) in col.iter().enumerate() {
                    let (ci, d1, d2) = nearest[j];
                    let keep = if ci == pos { d2 } else { d1 };
                    sum += inst.weight(j) * objective.cost_of(keep.min(dj));
                }
                out.push((pos, add, sum));
            }
        }
        out
    }

    fn at_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool")
            .install(f)
    }

    #[test]
    fn fused_swap_scores_match_the_per_position_loop() {
        use parfaclo_metric::coreset::build_coreset;
        use parfaclo_metric::point::DistanceKind;
        use parfaclo_metric::{gen::build_clustering, Backend};
        let bits = |v: Vec<(usize, NodeId, f64)>| -> Vec<(usize, NodeId, u64)> {
            v.into_iter().map(|(p, a, c)| (p, a, c.to_bits())).collect()
        };
        // 300 nodes: 300-node columns span two 256-row tiles, and every
        // k ≥ 1 puts the candidate map above the parallel grain.
        let params = GenParams::gaussian_clusters(300, 300, 6).with_seed(3);
        let geometric = build_clustering(params, Backend::Implicit).expect("instance");
        let points = geometric.points().expect("point geometry").to_vec();
        let coreset = build_coreset(&points, 0.02);
        let reps: Vec<_> = coreset
            .representatives()
            .iter()
            .map(|&r| points[r].clone())
            .collect();
        assert!(reps.len() > 100, "coreset too small: {}", reps.len());
        assert!(
            coreset.weights().iter().any(|&w| w > 1.0),
            "no merged cells"
        );
        for backend in [Backend::Dense, Backend::Implicit, Backend::Spatial] {
            let plain = build_clustering(params, backend).expect("instance");
            let cases = [
                ("unweighted", plain.clone()),
                ("unit", plain.clone().with_weights(vec![1.0; 300])),
                (
                    "coreset",
                    ClusterInstance::build(reps.clone(), DistanceKind::Euclidean, backend)
                        .expect("instance")
                        .with_weights(coreset.weights().to_vec()),
                ),
            ];
            for (name, inst) in &cases {
                let n = inst.n();
                for centers in [
                    vec![n / 2],
                    vec![3, 90, n - 1],
                    (0..7).map(|i| i * 13).collect(),
                ] {
                    let nearest = closest_two(inst, &centers);
                    let candidates: Vec<NodeId> = (0..n).filter(|v| !centers.contains(v)).collect();
                    for objective in [ClusterObjective::KMedian, ClusterObjective::KMeans] {
                        let k = centers.len();
                        let want = bits(per_position_reference(
                            inst,
                            objective,
                            k,
                            &nearest,
                            &candidates,
                        ));
                        for threads in [1, 4] {
                            let got = at_threads(threads, || {
                                swap_scores(inst, objective, k, &nearest, &candidates)
                            });
                            assert_eq!(
                                bits(got),
                                want,
                                "{backend} {name} k {k} {objective:?} {threads} threads"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn objective_helpers() {
        assert_eq!(ClusterObjective::KMedian.cost_of(3.0), 3.0);
        assert_eq!(ClusterObjective::KMeans.cost_of(3.0), 9.0);
        assert_eq!(ClusterObjective::KMedian.guarantee(), 5.0);
        assert_eq!(ClusterObjective::KMeans.guarantee(), 81.0);
    }
}

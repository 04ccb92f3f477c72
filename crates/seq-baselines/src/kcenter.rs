//! Sequential 2-approximations for k-center.
//!
//! Two classical algorithms are provided:
//!
//! * [`gonzalez_kcenter`] — Gonzalez's farthest-point traversal (Theoret. Comput. Sci.
//!   1985): repeatedly add the node farthest from the current centers. Simple, fast
//!   (`O(nk)`), and a 2-approximation.
//! * [`hochbaum_shmoys_kcenter`] — the bottleneck approach of Hochbaum & Shmoys (Math.
//!   OR 1985) that Section 6.1 of the paper parallelises: binary search over the sorted
//!   set of pairwise distances; for a candidate radius build the threshold graph and
//!   greedily pick a maximal set of nodes no two of which share a neighbour (a dominator
//!   set); if the set has at most `k` nodes the radius is feasible.
//!
//! Both return the chosen centers; the parallel algorithm in `parfaclo-kclustering` is
//! compared against them in experiment E4.

use parfaclo_metric::{ClusterInstance, DistanceOracle, NodeId};

/// Result of a sequential k-center computation.
#[derive(Debug, Clone)]
pub struct KCenterResult {
    /// The chosen centers (at most `k`).
    pub centers: Vec<NodeId>,
    /// The k-center objective value (maximum distance of any node to its closest
    /// center).
    pub radius: f64,
}

/// Gonzalez's farthest-point 2-approximation
/// ([`ClusterInstance::farthest_first`]), with the radius evaluated
/// separately by [`ClusterInstance::kcenter_cost`].
///
/// # Panics
/// Panics if `k == 0` or the instance is empty.
pub fn gonzalez_kcenter(inst: &ClusterInstance, k: usize) -> KCenterResult {
    let (centers, _, _) = inst.farthest_first(k);
    let radius = inst.kcenter_cost(&centers);
    KCenterResult { centers, radius }
}

/// Greedy maximal dominator set of the threshold graph `H_alpha`: scan nodes in index
/// order, adding a node when it is not within `2·alpha`... more precisely, when it does
/// not share an `H_alpha`-neighbour with (and is not adjacent to) an already-chosen
/// node. Used as the feasibility probe of the Hochbaum–Shmoys binary search.
fn greedy_dominator_count(inst: &ClusterInstance, alpha: f64, k: usize) -> (Vec<NodeId>, bool) {
    let n = inst.n();
    let mut chosen: Vec<NodeId> = Vec::new();
    'outer: for v in 0..n {
        for &c in &chosen {
            // v conflicts with c when they are adjacent in H_alpha² — i.e. within
            // distance 2·alpha via the triangle inequality on the threshold graph.
            if inst.dist(v, c) <= 2.0 * alpha {
                continue 'outer;
            }
        }
        chosen.push(v);
        if chosen.len() > k {
            return (chosen, false);
        }
    }
    (chosen, true)
}

/// The sequential Hochbaum–Shmoys bottleneck 2-approximation.
///
/// # Panics
/// Panics if `k == 0` or the instance is empty.
pub fn hochbaum_shmoys_kcenter(inst: &ClusterInstance, k: usize) -> KCenterResult {
    let n = inst.n();
    assert!(k >= 1, "k must be at least 1");
    assert!(n >= 1, "instance must be non-empty");
    if n <= k {
        return KCenterResult {
            centers: (0..n).collect(),
            radius: 0.0,
        };
    }

    // Candidate radii: the distinct pairwise distances.
    let distances = inst.distances().sorted_distinct_values();
    // Binary search for the smallest alpha whose dominator set has at most k nodes.
    let mut lo = 0usize;
    let mut hi = distances.len() - 1;
    let mut best: Option<Vec<NodeId>> = None;
    while lo <= hi {
        let mid = (lo + hi) / 2;
        let (set, feasible) = greedy_dominator_count(inst, distances[mid], k);
        if feasible {
            best = Some(set);
            if mid == 0 {
                break;
            }
            hi = mid - 1;
        } else {
            lo = mid + 1;
        }
    }
    let centers = best.unwrap_or_else(|| {
        // The largest distance always yields a feasible (singleton) dominator set.
        greedy_dominator_count(inst, *distances.last().unwrap(), k).0
    });
    let radius = inst.kcenter_cost(&centers);
    KCenterResult { centers, radius }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfaclo_metric::gen::{self, GenParams};
    use parfaclo_metric::lower_bounds::{self, ClusterObjective};

    #[test]
    fn gonzalez_on_planted_clusters_finds_them() {
        let inst = gen::clustering(GenParams::planted(40, 40, 4).with_seed(3));
        let r = gonzalez_kcenter(&inst, 4);
        assert_eq!(r.centers.len(), 4);
        // Planted blobs have radius 1 and separation 50, so a correct 4-center solution
        // has radius at most 2 (2-approximation of an optimum ≤ 1... in fact ≤ 2).
        assert!(r.radius <= 2.0 + 1e-9, "radius {}", r.radius);
    }

    #[test]
    fn hochbaum_shmoys_on_planted_clusters() {
        let inst = gen::clustering(GenParams::planted(40, 40, 4).with_seed(3));
        let r = hochbaum_shmoys_kcenter(&inst, 4);
        assert!(r.centers.len() <= 4);
        assert!(r.radius <= 4.0 + 1e-9, "radius {}", r.radius);
    }

    #[test]
    fn both_algorithms_respect_2_approximation_vs_brute_force() {
        for seed in 0..6 {
            let inst = gen::clustering(GenParams::uniform_square(12, 12).with_seed(seed));
            for k in 1..4 {
                let (_, opt) =
                    lower_bounds::brute_force_kclustering(&inst, k, ClusterObjective::KCenter);
                let g = gonzalez_kcenter(&inst, k);
                let h = hochbaum_shmoys_kcenter(&inst, k);
                assert!(
                    g.radius <= 2.0 * opt + 1e-9,
                    "seed {seed} k {k}: Gonzalez {} vs opt {opt}",
                    g.radius
                );
                assert!(
                    h.radius <= 2.0 * opt + 1e-9,
                    "seed {seed} k {k}: HS {} vs opt {opt}",
                    h.radius
                );
                assert!(g.centers.len() <= k);
                assert!(h.centers.len() <= k);
            }
        }
    }

    #[test]
    fn k_larger_than_n_selects_everything() {
        let inst = gen::clustering(GenParams::uniform_square(5, 5).with_seed(0));
        let g = gonzalez_kcenter(&inst, 10);
        assert!(g.radius <= 1e-12);
        let h = hochbaum_shmoys_kcenter(&inst, 10);
        assert_eq!(h.centers.len(), 5);
        assert_eq!(h.radius, 0.0);
    }

    #[test]
    fn k_equal_one_picks_a_single_center() {
        let inst = gen::clustering(GenParams::line(6, 6));
        let g = gonzalez_kcenter(&inst, 1);
        assert_eq!(g.centers.len(), 1);
        // With a single center at an endpoint the radius is 5; with the best center it
        // would be 2.5 (nodes at 0..5); Gonzalez starts from node 0 so radius = 5, still
        // within 2x of the optimum 2.5 (brute force check).
        let (_, opt) = lower_bounds::brute_force_kclustering(&inst, 1, ClusterObjective::KCenter);
        assert!(g.radius <= 2.0 * opt + 1e-9);
    }

    #[test]
    fn radius_matches_objective_evaluation() {
        let inst = gen::clustering(GenParams::gaussian_clusters(30, 30, 3).with_seed(9));
        let r = gonzalez_kcenter(&inst, 3);
        assert!((r.radius - inst.kcenter_cost(&r.centers)).abs() < 1e-12);
    }
}

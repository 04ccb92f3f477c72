//! `MaxUDom(H)`: maximal U-dominator set of a bipartite graph, computed in place.
//!
//! Given `H = (U, V, E)`, a U-dominator set is a set `I ⊆ U` such that no two members
//! share a `V`-side neighbour; a *maximal* such set is a maximal independent set of the
//! implicit graph `H' = (U, {uw : ∃z ∈ V, uz, zw ∈ E})` (Section 3). The facility-location
//! algorithms use it to make sure each client "pays" for at most one opened facility:
//! the primal-dual post-processing (Section 5), the LP-rounding clean-up step
//! (Section 6.2) and, in spirit, the greedy subselection all call it.
//!
//! As with [`crate::maxdom`], Luby's select step is simulated with two min-propagation
//! passes — U → V and back V → U — so `H'` is never materialised. The passes run on the
//! bipartite frontier primitives of [`parfaclo_graph`]: dead U-nodes carry priority
//! `+∞`, so the unfiltered V-side minimum equals the live-filtered one, and restricting
//! each gather to the frontier's neighbourhood skips only values nothing reads. The cost
//! meter charges the paper's dense `O(|U||V|)`-per-round model on the CSR graph.

use crate::luby::draw_priorities;
use crate::DominatorResult;
use parfaclo_graph::{
    bi_edge_map_u, bi_edge_map_v, bi_min_into_u, bi_min_into_v, CsrBipartite, VertexSubset,
};
use parfaclo_matrixops::CostMeter;
use parfaclo_trace as trace;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Computes a maximal U-dominator set of the bipartite graph `h`.
///
/// U-side nodes with no `V`-neighbours are always selected (they conflict with nothing,
/// so maximality requires them). Deterministic for a fixed `seed`.
pub fn max_u_dom(h: &CsrBipartite, seed: u64, meter: &CostMeter) -> DominatorResult {
    let nu = h.nu();
    let nv = h.nv();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut alive = vec![true; nu];
    let mut selected = vec![false; nu];
    let mut rounds = 0usize;

    while alive.iter().any(|&a| a) {
        rounds += 1;
        meter.add_round();
        // Luby-round frontier = live U-nodes; counted only when traced.
        trace::round(
            rounds as u64,
            || alive.iter().filter(|&&a| a).count() as u64,
            meter,
        );

        // Random priorities for live U-nodes.
        let pri = draw_priorities(&mut rng, nu, &alive);
        meter.add_primitive(nu as u64);
        let alive_set = VertexSubset::from_mask(&alive);

        // V-side minimum: mv[v] = min over U-neighbours u of pri[u]. Dead
        // U-nodes hold +∞, so the unfiltered minimum is the live-filtered
        // one; V-nodes outside the live set's neighbourhood get +∞ — the
        // same value the dense scan produced for them — and are never read.
        meter.add_primitive((nu * nv) as u64);
        let touched_v = bi_edge_map_u(h, &alive_set);
        let mv = bi_min_into_v(h, &touched_v, &pri);

        // Back to U: closed H'-neighbourhood minimum of u.
        meter.add_primitive((nu * nv) as u64);
        let mu = bi_min_into_u(h, &alive_set, &mv, &pri);

        // Select live local minima of H' (distinct priorities ⇒ equality test works).
        let newly: Vec<bool> = (0..nu).map(|u| alive[u] && pri[u] == mu[u]).collect();
        meter.add_primitive(nu as u64);

        // Removal: a V-node covered by a selected U-node blocks all its U-neighbours.
        let newly_set = VertexSubset::from_mask(&newly);
        meter.add_primitive((nu * nv) as u64);
        let v_blocked = bi_edge_map_u(h, &newly_set);
        meter.add_primitive((nu * nv) as u64);
        let blocked_u = bi_edge_map_v(h, &v_blocked);
        let blocked_mask = blocked_u.to_mask();

        for u in 0..nu {
            if newly[u] {
                selected[u] = true;
            }
            if newly[u] || blocked_mask[u] {
                alive[u] = false;
            }
        }
    }

    DominatorResult {
        selected: (0..nu).filter(|&u| selected[u]).collect(),
        rounds,
    }
}

/// Whether `u1 ≠ u2` share a `V`-side neighbour (adjacency in `H'`).
fn share_v_neighbor(h: &CsrBipartite, u1: usize, u2: usize) -> bool {
    u1 != u2
        && h.neighbors_u(u1)
            .iter()
            .any(|&v| h.has_edge(u2, v as usize))
}

/// Checks that no two members of `set` share a `V`-side neighbour.
pub fn is_u_dominator_independent(h: &CsrBipartite, set: &[usize]) -> bool {
    for (idx, &a) in set.iter().enumerate() {
        for &b in &set[idx + 1..] {
            if share_v_neighbor(h, a, b) {
                return false;
            }
        }
    }
    true
}

/// Checks that `set` is a **maximal** U-dominator set: valid, and every U-node outside
/// the set shares a `V`-neighbour with some member (so nothing can be added).
pub fn is_maximal_u_dominator_set(h: &CsrBipartite, set: &[usize]) -> bool {
    if !is_u_dominator_independent(h, set) {
        return false;
    }
    let in_set = {
        let mut v = vec![false; h.nu()];
        for &i in set {
            v[i] = true;
        }
        v
    };
    (0..h.nu()).all(|u| in_set[u] || set.iter().any(|&s| share_v_neighbor(h, u, s)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn meter() -> CostMeter {
        CostMeter::new()
    }

    /// Each pair `(u, v)` of `nu × nv` nodes, kept with probability `p`.
    fn random_bipartite(rng: &mut ChaCha8Rng, nu: usize, nv: usize, p: f64) -> CsrBipartite {
        let mut edges = Vec::new();
        for u in 0..nu {
            for v in 0..nv {
                if rng.gen_bool(p) {
                    edges.push((u, v));
                }
            }
        }
        CsrBipartite::from_edges(nu, nv, &edges)
    }

    #[test]
    fn empty_bipartite_graph_selects_all_u() {
        let h = CsrBipartite::from_edges(4, 3, &[]);
        let r = max_u_dom(&h, 0, &meter());
        assert_eq!(r.selected, vec![0, 1, 2, 3]);
        assert_eq!(r.rounds, 1);
    }

    #[test]
    fn single_shared_v_node_selects_one_u() {
        // All U-nodes attached to the single V-node: only one can be selected.
        let h = CsrBipartite::from_edges(5, 1, &[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]);
        for seed in 0..5 {
            let r = max_u_dom(&h, seed, &meter());
            assert_eq!(r.selected.len(), 1, "seed {seed}");
            assert!(is_maximal_u_dominator_set(&h, &r.selected));
        }
    }

    #[test]
    fn disjoint_stars_select_one_each() {
        // U {0,1} share V0; U {2,3} share V1.
        let h = CsrBipartite::from_edges(4, 2, &[(0, 0), (1, 0), (2, 1), (3, 1)]);
        for seed in 0..5 {
            let r = max_u_dom(&h, seed, &meter());
            assert_eq!(r.selected.len(), 2, "seed {seed}");
            assert!(is_maximal_u_dominator_set(&h, &r.selected));
        }
    }

    #[test]
    fn isolated_u_nodes_are_always_selected() {
        // U-node 2 has no edges — it must be in every maximal U-dominator set.
        let h = CsrBipartite::from_edges(3, 2, &[(0, 0), (1, 0), (0, 1), (1, 1)]);
        for seed in 0..5 {
            let r = max_u_dom(&h, seed, &meter());
            assert!(r.selected.contains(&2), "seed {seed}: {:?}", r.selected);
            assert!(is_maximal_u_dominator_set(&h, &r.selected));
        }
    }

    #[test]
    fn random_bipartite_graphs_produce_valid_results() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        for trial in 0..20 {
            let nu = rng.gen_range(1..20);
            let nv = rng.gen_range(1..20);
            let h = random_bipartite(&mut rng, nu, nv, 0.2);
            let r = max_u_dom(&h, trial, &meter());
            assert!(
                is_maximal_u_dominator_set(&h, &r.selected),
                "trial {trial} invalid: {:?}",
                r.selected
            );
        }
    }

    #[test]
    fn parallel_matches_sequential_for_same_seed() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let (nu, nv) = (150, 120);
        let h = random_bipartite(&mut rng, nu, nv, 0.15);
        assert!(
            nv + h.num_edges() >= parfaclo_matrixops::PAR_THRESHOLD,
            "the rounds run on the pool"
        );
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| max_u_dom(&h, 123, &meter()))
        };
        let a = run(1);
        assert!(is_maximal_u_dominator_set(&h, &a.selected));
        assert_eq!(a, run(4));
    }

    #[test]
    fn checkers_reject_bad_sets() {
        let h = CsrBipartite::from_edges(3, 1, &[(0, 0), (1, 0)]);
        assert!(!is_u_dominator_independent(&h, &[0, 1]));
        assert!(is_u_dominator_independent(&h, &[0, 2]));
        assert!(is_maximal_u_dominator_set(&h, &[0, 2]));
        assert!(!is_maximal_u_dominator_set(&h, &[2]));
    }

    #[test]
    fn rounds_are_logarithmic_in_practice() {
        let mut rng = ChaCha8Rng::seed_from_u64(44);
        let (nu, nv) = (300, 200);
        let h = random_bipartite(&mut rng, nu, nv, 0.02);
        let r = max_u_dom(&h, 5, &meter());
        assert!(is_maximal_u_dominator_set(&h, &r.selected));
        assert!(r.rounds <= 25, "expected few rounds, got {}", r.rounds);
    }
}

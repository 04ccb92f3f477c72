//! Luby's maximal independent set algorithm on an explicit graph.
//!
//! This is the classical algorithm the paper builds on (Algorithm 3.1): in each round
//! every live node draws a random priority, nodes that hold a local minimum among their
//! live neighbours enter the independent set, and selected nodes plus their neighbours
//! are removed. The expected number of rounds is `O(log n)`.
//!
//! The round body runs on the frontier engine of [`parfaclo_graph`]: the set of live
//! nodes is a [`VertexSubset`], the neighbour minimum is one [`edge_map_min`], and the
//! removal wave is one [`edge_map`]. The algorithm is therefore generic over any
//! [`Neighbors`] representation — dense bit matrix or CSR — and produces identical
//! output on either, because dead nodes carry priority `+∞` (an unfiltered neighbour
//! minimum equals the live-filtered one) and `min` / set-union combines are
//! order-independent.
//!
//! The cost meter still charges the paper's dense PRAM model (`O(n²)` per round)
//! whatever the representation: the model prices the *algorithm*, not the container,
//! and keeping the charge representation-independent is what lets canonical run JSON
//! stay byte-identical across graph backends.
//!
//! The dominator-set variants in [`crate::maxdom`] and [`crate::maxudom`] simulate this
//! algorithm on the *square* of a graph without materialising it; this explicit version
//! is used as the reference implementation in tests (run it on an explicitly squared
//! graph and compare invariants) and is exposed because it is useful in its own right.

use crate::DominatorResult;
use parfaclo_graph::{edge_map, edge_map_min, Neighbors, VertexSubset};
use parfaclo_matrixops::{CostMeter, ExecPolicy};
use parfaclo_trace as trace;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Draws one distinct priority per node: the high 32 bits are random, the low 32 bits
/// are the node index, so priorities never collide (the paper instead draws from
/// `{1, ..., 2n^4}` and accepts a small collision probability).
pub(crate) fn draw_priorities(rng: &mut ChaCha8Rng, n: usize, alive: &[bool]) -> Vec<u64> {
    (0..n)
        .map(|i| {
            if alive[i] {
                ((rng.gen::<u32>() as u64) << 32) | i as u64
            } else {
                u64::MAX
            }
        })
        .collect()
}

/// Computes a maximal independent set of `g` using Luby's algorithm.
///
/// Deterministic for a fixed `seed`. Returns the selected nodes (sorted) and the number
/// of rounds executed.
pub fn maximal_independent_set<G: Neighbors>(
    g: &G,
    seed: u64,
    meter: &CostMeter,
) -> DominatorResult {
    let n = g.n();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut alive = vec![true; n];
    let mut selected = vec![false; n];
    let mut rounds = 0usize;

    while alive.iter().any(|&a| a) {
        rounds += 1;
        meter.add_round();
        // Luby-round frontier = live vertices; counted only when traced.
        trace::round(
            rounds as u64,
            || alive.iter().filter(|&&a| a).count() as u64,
            meter,
        );
        let pri = draw_priorities(&mut rng, n, &alive);
        meter.add_primitive(n as u64);
        let alive_set = VertexSubset::from_mask(&alive);

        // Select step: node i is selected if it is alive and its priority is
        // strictly smaller than every live neighbour's priority. Dead nodes
        // hold priority +∞, so the unfiltered neighbour minimum the engine
        // computes equals the live-filtered minimum.
        meter.add_primitive((n * n) as u64);
        let min_nb = edge_map_min(g, &alive_set, &pri, false);
        let newly: Vec<bool> = (0..n).map(|i| alive[i] && pri[i] < min_nb[i]).collect();

        // Removal step: selected nodes and their neighbours leave the graph.
        meter.add_primitive((n * n) as u64);
        let newly_set = VertexSubset::from_mask(&newly);
        let killed = newly_set.union(&edge_map(g, &newly_set, |_| true, ExecPolicy::Parallel));
        let kill_mask = killed.to_mask();

        for i in 0..n {
            if newly[i] {
                selected[i] = true;
            }
            if kill_mask[i] {
                alive[i] = false;
            }
        }
    }

    DominatorResult {
        selected: (0..n).filter(|&i| selected[i]).collect(),
        rounds,
    }
}

/// Checks that `set` is an independent set of `g` (no two members adjacent).
pub fn is_independent_set<G: Neighbors>(g: &G, set: &[usize]) -> bool {
    for (idx, &a) in set.iter().enumerate() {
        for &b in &set[idx + 1..] {
            if g.any_neighbor(a, &|z| z == b) {
                return false;
            }
        }
    }
    true
}

/// Checks that `set` is a *maximal* independent set of `g`: independent, and every
/// non-member has a neighbour in the set.
pub fn is_maximal_independent_set<G: Neighbors>(g: &G, set: &[usize]) -> bool {
    if !is_independent_set(g, set) {
        return false;
    }
    let in_set = {
        let mut v = vec![false; g.n()];
        for &i in set {
            v[i] = true;
        }
        v
    };
    (0..g.n()).all(|i| in_set[i] || g.any_neighbor(i, &|j| in_set[j]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfaclo_graph::{CsrGraph, DenseGraph};
    use parfaclo_matrixops::PAR_THRESHOLD;

    fn meter() -> CostMeter {
        CostMeter::new()
    }

    #[test]
    fn empty_graph_selects_everything() {
        let g = DenseGraph::new(5);
        let r = maximal_independent_set(&g, 1, &meter());
        assert_eq!(r.selected, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.rounds, 1);
    }

    #[test]
    fn complete_graph_selects_one() {
        let mut g = DenseGraph::new(6);
        for a in 0..6 {
            for b in (a + 1)..6 {
                g.add_edge(a, b);
            }
        }
        let r = maximal_independent_set(&g, 2, &meter());
        assert_eq!(r.selected.len(), 1);
        assert!(is_maximal_independent_set(&g, &r.selected));
    }

    #[test]
    fn path_graph_mis_is_valid() {
        let g = DenseGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        for seed in 0..10 {
            let r = maximal_independent_set(&g, seed, &meter());
            assert!(is_maximal_independent_set(&g, &r.selected), "seed {seed}");
            // A maximal independent set of P6 has between 2 and 3 nodes.
            assert!(r.selected.len() >= 2 && r.selected.len() <= 3);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n = 300;
        let mut g = DenseGraph::new(n);
        for a in 0..n {
            for b in (a + 1)..n {
                if rng.gen_bool(0.05) {
                    g.add_edge(a, b);
                }
            }
        }
        assert!(
            n + g.num_edges() >= PAR_THRESHOLD,
            "the rounds run on the pool"
        );
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| maximal_independent_set(&g, 99, &meter()))
        };
        let a = run(1);
        assert!(is_maximal_independent_set(&g, &a.selected));
        assert_eq!(a, run(4), "1 and 4 threads must agree for the same seed");
    }

    #[test]
    fn dense_and_csr_representations_agree() {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for trial in 0..10 {
            let n = rng.gen_range(2..40);
            let mut edges = Vec::new();
            for a in 0..n {
                for b in (a + 1)..n {
                    if rng.gen_bool(0.25) {
                        edges.push((a, b));
                    }
                }
            }
            let d = DenseGraph::from_edges(n, &edges);
            let c = CsrGraph::from_edges(n, &edges);
            assert_eq!(
                maximal_independent_set(&d, trial, &meter()),
                maximal_independent_set(&c, trial, &meter()),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn random_graphs_produce_valid_mis() {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for trial in 0..20 {
            let n = rng.gen_range(2..30);
            let mut g = DenseGraph::new(n);
            for a in 0..n {
                for b in (a + 1)..n {
                    if rng.gen_bool(0.3) {
                        g.add_edge(a, b);
                    }
                }
            }
            let r = maximal_independent_set(&g, trial, &meter());
            assert!(is_maximal_independent_set(&g, &r.selected), "trial {trial}");
        }
    }

    #[test]
    fn round_count_is_recorded() {
        let g = DenseGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let m = meter();
        let r = maximal_independent_set(&g, 3, &m);
        assert!(r.rounds >= 1);
        assert_eq!(m.report().rounds as usize, r.rounds);
    }

    #[test]
    fn independence_checkers() {
        let g = DenseGraph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(is_independent_set(&g, &[0, 2]));
        assert!(!is_independent_set(&g, &[0, 1]));
        assert!(is_maximal_independent_set(&g, &[0, 2]));
        assert!(!is_maximal_independent_set(&g, &[0]));
    }
}

//! `MaxDom(G)`: maximal dominator set — a maximal independent set of `G²` computed
//! **in place**, i.e. without constructing `G²` (Section 3, Lemma 3.1).
//!
//! Per Luby round the algorithm performs a constant number of frontier operations:
//!
//! 1. every live node draws a random priority;
//! 2. the priorities are propagated to neighbours taking minima, **twice** — after the
//!    second propagation every node knows the minimum priority within its closed radius-2
//!    ball in `G`, which is exactly its closed neighbourhood in `G²`;
//! 3. a live node whose own priority equals that minimum joins the dominator set
//!    (priorities are distinct, so "equals the closed-ball minimum" is the same as
//!    "strictly smaller than every `G²`-neighbour");
//! 4. selection flags are propagated twice the same way, and every live node within
//!    radius 2 of a selected node (including the selected nodes themselves) is removed.
//!
//! Note that the *intermediate* node of a length-2 path may already be dead: edges of
//! `G²` between live nodes persist even when the common neighbour that induced them has
//! been removed, so the propagation in steps 2 and 4 deliberately flows through dead
//! nodes (their own priorities are treated as `+∞` / not-selected, but they still relay).
//! On the frontier engine this means the first min-propagation targets the *closed
//! neighbourhood* of the live set (live nodes plus their relays), not just the live set —
//! the only values the second propagation reads. Values outside that set are never read,
//! so skipping them changes no output byte.
//!
//! The cost meter charges the paper's dense PRAM model (`O(n²)` per propagation) on the
//! CSR graph — see [`crate::luby`].

use crate::luby::draw_priorities;
use crate::DominatorResult;
use parfaclo_graph::{edge_map, edge_map_min, CsrGraph, VertexSubset};
use parfaclo_matrixops::{CostMeter, ExecPolicy};
use parfaclo_trace as trace;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Computes a maximal dominator set of `g` (maximal independent set of `G²`) without
/// constructing `G²`.
///
/// Deterministic for a fixed `seed`. The returned [`DominatorResult`] carries the number
/// of Luby rounds, which is `O(log n)` in expectation (Lemma 3.1 charges
/// `O(|V|² log |V|)` work in total).
pub fn max_dom(g: &CsrGraph, seed: u64, meter: &CostMeter) -> DominatorResult {
    let n = g.n();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut alive = vec![true; n];
    let mut selected = vec![false; n];
    let mut rounds = 0usize;

    while alive.iter().any(|&a| a) {
        rounds += 1;
        meter.add_round();
        // Luby-round frontier = live vertices; the count is only computed
        // when a rounds-level tracer is installed.
        trace::round(
            rounds as u64,
            || alive.iter().filter(|&&a| a).count() as u64,
            meter,
        );

        // Step 1: random priorities for live nodes (+∞ for dead ones).
        let pri = draw_priorities(&mut rng, n, &alive);
        meter.add_primitive(n as u64);
        let alive_set = VertexSubset::from_mask(&alive);

        // Step 2: two min-propagations give the closed radius-2-ball minimum.
        // The first targets N[alive] — live nodes plus the dead relays the
        // second propagation will read through; the second targets only the
        // live nodes whose minima step 3 inspects.
        let relay = alive_set.union(&edge_map(g, &alive_set, |_| true, ExecPolicy::Parallel));
        let m1 = edge_map_min(g, &relay, &pri, true);
        let m2 = edge_map_min(g, &alive_set, &m1, true);
        meter.add_primitive((n * n) as u64);
        meter.add_primitive((n * n) as u64);

        // Step 3: select live local minima of G².
        let newly: Vec<bool> = (0..n).map(|i| alive[i] && pri[i] == m2[i]).collect();
        meter.add_primitive(n as u64);

        // Step 4: remove everything within radius 2 of a selected node.
        let newly_set = VertexSubset::from_mask(&newly);
        let s1 = newly_set.union(&edge_map(g, &newly_set, |_| true, ExecPolicy::Parallel));
        let s2 = s1.union(&edge_map(g, &s1, |_| true, ExecPolicy::Parallel));
        meter.add_primitive((n * n) as u64);
        meter.add_primitive((n * n) as u64);
        let s2_mask = s2.to_mask();

        for i in 0..n {
            if newly[i] {
                selected[i] = true;
            }
            if s2_mask[i] {
                alive[i] = false;
            }
        }
    }

    DominatorResult {
        selected: (0..n).filter(|&i| selected[i]).collect(),
        rounds,
    }
}

/// Whether `a ≠ b` are adjacent in `G²`: some neighbour `z` of `a` is `b`
/// itself or a neighbour of `b`.
fn adjacent_in_square(g: &CsrGraph, a: usize, b: usize) -> bool {
    a != b
        && g.neighbors(a)
            .iter()
            .any(|&z| z as usize == b || g.has_edge(z as usize, b))
}

/// Checks that `set` is a valid **dominator set** of `g`: no two members are adjacent in
/// `G²` (i.e. adjacent in `G` or sharing a common neighbour).
pub fn is_dominator_independent(g: &CsrGraph, set: &[usize]) -> bool {
    for (idx, &a) in set.iter().enumerate() {
        for &b in &set[idx + 1..] {
            if adjacent_in_square(g, a, b) {
                return false;
            }
        }
    }
    true
}

/// Checks that `set` is a **maximal** dominator set of `g`: valid, and no node outside
/// the set could be added (every outside node is adjacent in `G²` to some member).
pub fn is_maximal_dominator_set(g: &CsrGraph, set: &[usize]) -> bool {
    if !is_dominator_independent(g, set) {
        return false;
    }
    let in_set = {
        let mut v = vec![false; g.n()];
        for &i in set {
            v[i] = true;
        }
        v
    };
    (0..g.n()).all(|i| in_set[i] || set.iter().any(|&s| adjacent_in_square(g, i, s)))
}

/// Builds `G²` explicitly (quadratic work per node pair). Only used by tests to compare
/// the in-place algorithm against running plain MIS on the materialised square.
pub fn explicit_square(g: &CsrGraph) -> CsrGraph {
    let n = g.n();
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if adjacent_in_square(g, a, b) {
                edges.push((a, b));
            }
        }
    }
    CsrGraph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::luby::{is_maximal_independent_set, maximal_independent_set};
    use parfaclo_matrixops::PAR_THRESHOLD;
    use rand::Rng;

    fn meter() -> CostMeter {
        CostMeter::new()
    }

    /// Each pair `a < b` of `n` nodes, kept with probability `p`.
    fn random_graph(rng: &mut ChaCha8Rng, n: usize, p: f64) -> CsrGraph {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if rng.gen_bool(p) {
                    edges.push((a, b));
                }
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn empty_graph_selects_everything() {
        let g = CsrGraph::from_edges(4, &[]);
        let r = max_dom(&g, 0, &meter());
        assert_eq!(r.selected, vec![0, 1, 2, 3]);
    }

    #[test]
    fn star_graph_selects_single_node() {
        // Star centred at 0: every pair of leaves shares neighbour 0, and every leaf is
        // adjacent to 0, so the dominator set has exactly one node.
        let g = CsrGraph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        for seed in 0..5 {
            let r = max_dom(&g, seed, &meter());
            assert_eq!(r.selected.len(), 1, "seed {seed}");
            assert!(is_maximal_dominator_set(&g, &r.selected));
        }
    }

    #[test]
    fn path_graph_dominators_are_spaced() {
        // P9: nodes selected in MaxDom must be at distance >= 3 apart.
        let edges: Vec<(usize, usize)> = (0..8).map(|i| (i, i + 1)).collect();
        let g = CsrGraph::from_edges(9, &edges);
        for seed in 0..10 {
            let r = max_dom(&g, seed, &meter());
            assert!(is_maximal_dominator_set(&g, &r.selected), "seed {seed}");
            for w in r.selected.windows(2) {
                assert!(w[1] - w[0] >= 3, "seed {seed}: {:?}", r.selected);
            }
        }
    }

    #[test]
    fn matches_explicit_square_mis_invariants() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for trial in 0..15 {
            let n = rng.gen_range(3..25);
            let g = random_graph(&mut rng, n, 0.25);
            // In-place algorithm.
            let r = max_dom(&g, trial, &meter());
            assert!(
                is_maximal_dominator_set(&g, &r.selected),
                "trial {trial}: in-place result invalid"
            );
            // Reference: plain MIS on the explicit square gives a valid MIS of G².
            let sq = explicit_square(&g);
            let reference = maximal_independent_set(&sq, trial, &meter());
            assert!(is_maximal_independent_set(&sq, &reference.selected));
            // Our in-place result must also be a valid MIS of the explicit square.
            assert!(is_maximal_independent_set(&sq, &r.selected));
        }
    }

    #[test]
    fn parallel_matches_sequential_for_same_seed() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let n = 300;
        let g = random_graph(&mut rng, n, 0.05);
        assert!(
            n + g.num_edges() >= PAR_THRESHOLD,
            "the rounds run on the pool"
        );
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| max_dom(&g, 77, &meter()))
        };
        let a = run(1);
        assert!(is_maximal_dominator_set(&g, &a.selected));
        assert_eq!(a, run(4));
    }

    #[test]
    fn rounds_grow_slowly() {
        // A graph with 200 isolated edges finishes in very few rounds.
        let n = 400;
        let edges: Vec<(usize, usize)> = (0..200).map(|i| (2 * i, 2 * i + 1)).collect();
        let g = CsrGraph::from_edges(n, &edges);
        let r = max_dom(&g, 1, &meter());
        assert_eq!(r.selected.len(), 200, "one endpoint of each isolated edge");
        assert!(r.rounds <= 20, "expected O(log n) rounds, got {}", r.rounds);
    }

    #[test]
    fn dominator_checkers_reject_bad_sets() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        // 0 and 2 share neighbour 1 → not a valid dominator set.
        assert!(!is_dominator_independent(&g, &[0, 2]));
        // {0, 3}: distance 3 apart → valid and maximal.
        assert!(is_maximal_dominator_set(&g, &[0, 3]));
        // {0} alone is not maximal (3 could be added).
        assert!(!is_maximal_dominator_set(&g, &[0]));
    }
}

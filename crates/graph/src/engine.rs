//! The Ligra-style frontier engine: `edge_map` and its `min`-combining and
//! bipartite siblings over [`CsrGraph`] and [`CsrBipartite`].
//!
//! Every primitive is deterministic by construction: direction switching
//! (sparse *push* vs dense *pull*) is a pure function of frontier density and
//! graph size — never of thread count — and every combine is either
//! order-independent (set membership, `min`) or evaluated left-to-right over
//! ascending neighbour ids, so results are byte-identical across thread
//! counts. A dense pass goes parallel once `vertices + edges` reaches
//! [`PAR_THRESHOLD`]; [`edge_map`] also takes an [`ExecPolicy`] whose
//! `Sequential` branch is its tests' reference.

use crate::frontier::VertexSubset;
use crate::{CsrBipartite, CsrGraph};
use parfaclo_matrixops::{ExecPolicy, PAR_THRESHOLD};
use rayon::prelude::*;

/// Ligra's direction heuristic, early-exiting so the sparse case never pays
/// more than `O(|frontier|)` degree lookups: take the dense (pull) direction
/// when `|frontier| + Σ deg(frontier) > m/20 + 1`. A pure function of the
/// frontier *contents* and the graph — the frontier's representation and the
/// thread count play no part, so the decision (and with it every downstream
/// byte) is stable.
fn use_dense_direction(g: &CsrGraph, frontier: &VertexSubset) -> bool {
    let threshold = (g.num_edges() / 20 + 1) as u64;
    let mut work = frontier.len() as u64;
    if work > threshold {
        return true;
    }
    let mut heavy = false;
    frontier.for_each(|v| {
        if !heavy {
            work += g.degree(v) as u64;
            heavy = work > threshold;
        }
    });
    heavy
}

/// Ligra `edgeMap`: the set `{ v : cond(v) ∧ ∃ u ∈ frontier, {u,v} ∈ E }`.
///
/// Sparse (push) direction walks the frontier's ascending neighbour lists and
/// sort-dedups the result; dense (pull) direction gathers per target vertex.
/// Both produce the same member set, so downstream output never depends on
/// which direction ran.
pub fn edge_map<C>(
    g: &CsrGraph,
    frontier: &VertexSubset,
    cond: C,
    policy: ExecPolicy,
) -> VertexSubset
where
    C: Fn(usize) -> bool + Sync,
{
    let n = g.n();
    if frontier.is_empty() {
        return VertexSubset::empty(n);
    }
    if use_dense_direction(g, frontier) {
        let mask = frontier.to_mask();
        let one = |v: usize| cond(v) && g.neighbors(v).iter().any(|&w| mask[w as usize]);
        let bits: Vec<bool> = if policy.run_parallel(n + g.num_edges()) {
            (0..n).into_par_iter().with_min_len(256).map(one).collect()
        } else {
            (0..n).map(one).collect()
        };
        VertexSubset::from_mask_owned(bits)
    } else {
        let mut out: Vec<u32> = Vec::new();
        frontier.for_each(|u| out.extend_from_slice(g.neighbors(u)));
        out.sort_unstable();
        out.dedup();
        out.retain(|&v| cond(v as usize));
        VertexSubset::from_sorted_ids(n, out)
    }
}

/// `edgeMap` with a `min` combine: for every `v ∈ targets`,
/// `out[v] = min(values over N(v))` (including `values[v]` itself when
/// `include_self`); vertices outside `targets` keep `values[v]` unchanged.
///
/// This is the propagation primitive of the paper's Luby simulations: `min`
/// is order-independent, so the result is identical whichever direction or
/// schedule computes it.
pub fn edge_map_min(
    g: &CsrGraph,
    targets: &VertexSubset,
    values: &[u64],
    include_self: bool,
) -> Vec<u64> {
    let n = g.n();
    debug_assert_eq!(values.len(), n);
    let gather = |v: usize| -> u64 {
        let m = if include_self { values[v] } else { u64::MAX };
        g.neighbors(v)
            .iter()
            .fold(m, |m, &w| m.min(values[w as usize]))
    };
    if targets.len() * 2 >= n {
        let mask = targets.to_mask();
        let one = |v: usize| if mask[v] { gather(v) } else { values[v] };
        if n + g.num_edges() >= PAR_THRESHOLD {
            (0..n).into_par_iter().with_min_len(256).map(one).collect()
        } else {
            (0..n).map(one).collect()
        }
    } else {
        let ids = targets.ids();
        let gathered: Vec<u64> = if n + g.num_edges() >= PAR_THRESHOLD {
            (0..ids.len())
                .into_par_iter()
                .with_min_len(64)
                .map(|i| gather(ids[i] as usize))
                .collect()
        } else {
            ids.iter().map(|&v| gather(v as usize)).collect()
        };
        let mut out = values.to_vec();
        for (&v, &m) in ids.iter().zip(gathered.iter()) {
            out[v as usize] = m;
        }
        out
    }
}

/// Bipartite `edgeMap`, `U → V`: the V-side set adjacent to `u_frontier`.
pub fn bi_edge_map_u(h: &CsrBipartite, u_frontier: &VertexSubset) -> VertexSubset {
    let nv = h.nv();
    if u_frontier.is_empty() {
        return VertexSubset::empty(nv);
    }
    let threshold = (h.num_edges() / 20 + 1) as u64;
    let mut work = u_frontier.len() as u64;
    let mut heavy = work > threshold;
    u_frontier.for_each(|u| {
        if !heavy {
            work += h.degree_u(u) as u64;
            heavy = work > threshold;
        }
    });
    if heavy {
        let mask = u_frontier.to_mask();
        let one = |v: usize| h.neighbors_v(v).iter().any(|&u| mask[u as usize]);
        let bits: Vec<bool> = if nv + h.num_edges() >= PAR_THRESHOLD {
            (0..nv).into_par_iter().with_min_len(256).map(one).collect()
        } else {
            (0..nv).map(one).collect()
        };
        VertexSubset::from_mask_owned(bits)
    } else {
        let mut out: Vec<u32> = Vec::new();
        u_frontier.for_each(|u| out.extend_from_slice(h.neighbors_u(u)));
        out.sort_unstable();
        out.dedup();
        VertexSubset::from_sorted_ids(nv, out)
    }
}

/// Bipartite `edgeMap`, `V → U`: the U-side set adjacent to `v_frontier`.
pub fn bi_edge_map_v(h: &CsrBipartite, v_frontier: &VertexSubset) -> VertexSubset {
    let nu = h.nu();
    if v_frontier.is_empty() {
        return VertexSubset::empty(nu);
    }
    let threshold = (h.num_edges() / 20 + 1) as u64;
    let mut work = v_frontier.len() as u64;
    let mut heavy = work > threshold;
    v_frontier.for_each(|v| {
        if !heavy {
            work += h.degree_v(v) as u64;
            heavy = work > threshold;
        }
    });
    if heavy {
        let mask = v_frontier.to_mask();
        let one = |u: usize| h.neighbors_u(u).iter().any(|&v| mask[v as usize]);
        let bits: Vec<bool> = if nu + h.num_edges() >= PAR_THRESHOLD {
            (0..nu).into_par_iter().with_min_len(256).map(one).collect()
        } else {
            (0..nu).map(one).collect()
        };
        VertexSubset::from_mask_owned(bits)
    } else {
        let mut out: Vec<u32> = Vec::new();
        v_frontier.for_each(|v| out.extend_from_slice(h.neighbors_v(v)));
        out.sort_unstable();
        out.dedup();
        VertexSubset::from_sorted_ids(nu, out)
    }
}

/// Bipartite `min` gather into the V side: for `v ∈ v_targets`,
/// `out[v] = min over U-neighbours u of u_values[u]` (`u64::MAX` when there
/// are none); vertices outside the targets get `u64::MAX`.
pub fn bi_min_into_v(h: &CsrBipartite, v_targets: &VertexSubset, u_values: &[u64]) -> Vec<u64> {
    let nv = h.nv();
    let gather = |v: usize| -> u64 {
        h.neighbors_v(v)
            .iter()
            .fold(u64::MAX, |m, &u| m.min(u_values[u as usize]))
    };
    if v_targets.len() * 2 >= nv {
        let mask = v_targets.to_mask();
        let one = |v: usize| if mask[v] { gather(v) } else { u64::MAX };
        if nv + h.num_edges() >= PAR_THRESHOLD {
            (0..nv).into_par_iter().with_min_len(256).map(one).collect()
        } else {
            (0..nv).map(one).collect()
        }
    } else {
        let ids = v_targets.ids();
        let gathered: Vec<u64> = if nv + h.num_edges() >= PAR_THRESHOLD {
            (0..ids.len())
                .into_par_iter()
                .with_min_len(64)
                .map(|i| gather(ids[i] as usize))
                .collect()
        } else {
            ids.iter().map(|&v| gather(v as usize)).collect()
        };
        let mut out = vec![u64::MAX; nv];
        for (&v, &m) in ids.iter().zip(gathered.iter()) {
            out[v as usize] = m;
        }
        out
    }
}

/// Bipartite `min` gather back into the U side: for `u ∈ u_targets`,
/// `out[u] = min(u_self[u], min over V-neighbours v of v_values[v])`;
/// vertices outside the targets keep `u_self[u]`.
pub fn bi_min_into_u(
    h: &CsrBipartite,
    u_targets: &VertexSubset,
    v_values: &[u64],
    u_self: &[u64],
) -> Vec<u64> {
    let nu = h.nu();
    let gather = |u: usize| -> u64 {
        h.neighbors_u(u)
            .iter()
            .fold(u_self[u], |m, &v| m.min(v_values[v as usize]))
    };
    if u_targets.len() * 2 >= nu {
        let mask = u_targets.to_mask();
        let one = |u: usize| if mask[u] { gather(u) } else { u_self[u] };
        if nu + h.num_edges() >= PAR_THRESHOLD {
            (0..nu).into_par_iter().with_min_len(256).map(one).collect()
        } else {
            (0..nu).map(one).collect()
        }
    } else {
        let ids = u_targets.ids();
        let gathered: Vec<u64> = if nu + h.num_edges() >= PAR_THRESHOLD {
            (0..ids.len())
                .into_par_iter()
                .with_min_len(64)
                .map(|i| gather(ids[i] as usize))
                .collect()
        } else {
            ids.iter().map(|&u| gather(u as usize)).collect()
        };
        let mut out = u_self.to_vec();
        for (&u, &m) in ids.iter().zip(gathered.iter()) {
            out[u as usize] = m;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift so the tests need no RNG dependency.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn chance(&mut self, percent: u64) -> bool {
            self.next() % 100 < percent
        }
    }

    fn random_edges(n: usize, percent: u64, seed: u64) -> Vec<(usize, usize)> {
        let mut rng = XorShift(seed.max(1));
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if rng.chance(percent) {
                    edges.push((a, b));
                }
            }
        }
        edges
    }

    fn random_subset(n: usize, percent: u64, seed: u64) -> Vec<u32> {
        let mut rng = XorShift(seed.max(1));
        (0..n as u32).filter(|_| rng.chance(percent)).collect()
    }

    /// Reference edgeMap: brute-force over all pairs.
    fn edge_map_reference(
        n: usize,
        edges: &[(usize, usize)],
        frontier: &[u32],
        cond: impl Fn(usize) -> bool,
    ) -> Vec<u32> {
        let mut mask = vec![false; n];
        for &u in frontier {
            mask[u as usize] = true;
        }
        let mut out = vec![false; n];
        for &(a, b) in edges {
            if mask[a] {
                out[b] = true;
            }
            if mask[b] {
                out[a] = true;
            }
        }
        (0..n as u32)
            .filter(|&v| out[v as usize] && cond(v as usize))
            .collect()
    }

    #[test]
    fn edge_map_matches_reference_on_both_representations() {
        for seed in 1..6 {
            let n = 40;
            let edges = random_edges(n, 8, seed);
            let g = CsrGraph::from_edges(n, &edges);
            for density in [5, 40, 90] {
                let ids = random_subset(n, density, seed * 7 + density);
                let want = edge_map_reference(n, &edges, &ids, |v| v % 3 != 0);
                let sparse_in = VertexSubset::from_sorted_ids(n, ids.clone());
                let mut mask = vec![false; n];
                for &v in &ids {
                    mask[v as usize] = true;
                }
                let dense_in = VertexSubset::from_mask(&mask);
                for policy in [ExecPolicy::Sequential, ExecPolicy::Parallel] {
                    for f in [&sparse_in, &dense_in] {
                        let got = edge_map(&g, f, |v| v % 3 != 0, policy);
                        assert_eq!(got.ids(), want, "seed {seed} density {density}");
                    }
                }
            }
        }
    }

    #[test]
    fn edge_map_empty_and_full_frontier() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (2, 3), (3, 4)]);
        let empty = edge_map(&g, &VertexSubset::empty(6), |_| true, ExecPolicy::Parallel);
        assert!(empty.is_empty());
        let full = edge_map(&g, &VertexSubset::full(6), |_| true, ExecPolicy::Parallel);
        // Node 5 is isolated: everything else has a neighbour in the full set.
        assert_eq!(full.ids(), vec![0, 1, 2, 3, 4]);
    }

    /// Seeds 1–4 build 30-node graphs, which run the sequential loops;
    /// seeds 5–8 build 200-node graphs, which reach the parallel grain.
    #[test]
    fn edge_map_min_matches_reference() {
        for seed in 1..9 {
            let (n, percent) = if seed < 5 { (30, 10) } else { (200, 12) };
            let edges = random_edges(n, percent, seed);
            let g = CsrGraph::from_edges(n, &edges);
            assert_eq!(n + edges.len() >= PAR_THRESHOLD, seed >= 5);
            let values: Vec<u64> = (0..n as u64).map(|i| (i * 2654435761) % 1000).collect();
            for density in [10, 80] {
                let ids = random_subset(n, density, seed + density);
                let targets = VertexSubset::from_sorted_ids(n, ids.clone());
                for include_self in [false, true] {
                    let mut want = values.clone();
                    for &v in &ids {
                        let v = v as usize;
                        let mut m = if include_self { values[v] } else { u64::MAX };
                        for &(a, b) in &edges {
                            if a == v {
                                m = m.min(values[b]);
                            }
                            if b == v {
                                m = m.min(values[a]);
                            }
                        }
                        want[v] = m;
                    }
                    for threads in [1, 4] {
                        let pool = rayon::ThreadPoolBuilder::new()
                            .num_threads(threads)
                            .build()
                            .unwrap();
                        pool.install(|| {
                            assert_eq!(edge_map_min(&g, &targets, &values, include_self), want);
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn direction_switch_is_a_pure_density_function() {
        // A dense-represented small frontier and the equal sparse frontier
        // must produce identical results (the switch looks at contents, not
        // representation).
        let n = 50;
        let edges = random_edges(n, 30, 3);
        let g = CsrGraph::from_edges(n, &edges);
        let ids = vec![2u32, 17, 31];
        let sparse = VertexSubset::from_sorted_ids(n, ids.clone());
        let mut mask = vec![false; n];
        for &v in &ids {
            mask[v as usize] = true;
        }
        let dense = VertexSubset::from_mask(&mask);
        let a = edge_map(&g, &sparse, |_| true, ExecPolicy::Parallel);
        let b = edge_map(&g, &dense, |_| true, ExecPolicy::Parallel);
        assert_eq!(a, b);
    }

    /// Seeds 1–4 build 25 x 18 graphs, which run the sequential loops;
    /// seeds 5–8 build 120 x 100 graphs, which reach the parallel grain.
    #[test]
    fn bipartite_edge_maps_match_brute_force() {
        for seed in 1..9 {
            let ((nu, nv), percent) = if seed < 5 {
                ((25, 18), 12)
            } else {
                ((120, 100), 20)
            };
            let mut rng = XorShift(seed);
            let mut edges = Vec::new();
            for u in 0..nu {
                for v in 0..nv {
                    if rng.chance(percent) {
                        edges.push((u, v));
                    }
                }
            }
            assert_eq!(nu.min(nv) + edges.len() >= PAR_THRESHOLD, seed >= 5);
            let hc = CsrBipartite::from_edges(nu, nv, &edges);
            for density in [8, 70] {
                let u_ids = random_subset(nu, density, seed * 3 + density);
                let uf = VertexSubset::from_sorted_ids(nu, u_ids.clone());
                let mut want: Vec<u32> = edges
                    .iter()
                    .filter(|(u, _)| u_ids.contains(&(*u as u32)))
                    .map(|&(_, v)| v as u32)
                    .collect();
                want.sort_unstable();
                want.dedup();
                // And the V → U direction on the transposed question.
                let v_ids = random_subset(nv, density, seed * 5 + density);
                let vf = VertexSubset::from_sorted_ids(nv, v_ids.clone());
                let mut want_u: Vec<u32> = edges
                    .iter()
                    .filter(|(_, v)| v_ids.contains(&(*v as u32)))
                    .map(|&(u, _)| u as u32)
                    .collect();
                want_u.sort_unstable();
                want_u.dedup();
                for threads in [1, 4] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    pool.install(|| {
                        assert_eq!(bi_edge_map_u(&hc, &uf).ids(), want);
                        assert_eq!(bi_edge_map_v(&hc, &vf).ids(), want_u);
                    });
                }
            }
        }
    }

    /// The CSR gathers against a brute-force pass over the dense `U × V`
    /// adjacency matrix of the same edges.
    #[test]
    fn bipartite_min_gathers_match_dense_and_csr() {
        let (nu, nv) = (12, 9);
        let edges = vec![(0, 0), (1, 0), (2, 3), (5, 8), (7, 3), (11, 0)];
        let h = CsrBipartite::from_edges(nu, nv, &edges);
        let mut adj = vec![vec![false; nv]; nu];
        for &(u, v) in &edges {
            adj[u][v] = true;
        }
        let pri: Vec<u64> = (0..nu as u64).map(|u| 100 - u).collect();
        let want_v: Vec<u64> = (0..nv)
            .map(|v| {
                (0..nu)
                    .filter(|&u| adj[u][v])
                    .map(|u| pri[u])
                    .fold(u64::MAX, u64::min)
            })
            .collect();
        let mv = bi_min_into_v(&h, &VertexSubset::full(nv), &pri);
        assert_eq!(mv, want_v);
        assert_eq!(mv[0], 100 - 11, "min over u ∈ {{0, 1, 11}}");
        assert_eq!(mv[1], u64::MAX, "no neighbours");
        let want_u: Vec<u64> = (0..nu)
            .map(|u| {
                (0..nv)
                    .filter(|&v| adj[u][v])
                    .map(|v| mv[v])
                    .fold(pri[u], u64::min)
            })
            .collect();
        let mu = bi_min_into_u(&h, &VertexSubset::full(nu), &mv, &pri);
        assert_eq!(mu, want_u);
        assert_eq!(mu[0], 100 - 11, "u0 sees v0's min");
        assert_eq!(mu[3], pri[3], "isolated u keeps its own value");
    }
}

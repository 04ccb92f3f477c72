//! Compressed sparse row (CSR) adjacency — the scale representation.
//!
//! A [`CsrGraph`] stores one offsets array and one concatenated neighbour
//! array, `O(n + m)` words total, against the `O(n²)` bits of
//! [`crate::DenseGraph`]. Construction from a [`DistanceOracle`] issues one
//! `cols_within` range query per node — the queries run in parallel, and
//! because every backend returns its hits in ascending column order (the
//! contract `cols_within` documents and tests), the assembled arrays are
//! byte-identical at any thread count.
//!
//! [`DistanceOracle`]: parfaclo_metric::DistanceOracle

use parfaclo_metric::{DistanceOracle, Oracle};
use rayon::prelude::*;

/// A simple undirected graph in CSR form: `neighbors[offsets[v]..offsets[v+1]]`
/// are the neighbours of `v`, strictly ascending, with no self-loops.
///
/// Node ids are stored as `u32`, so the representation supports up to
/// `u32::MAX` nodes — far beyond what the dense bit-matrix can reach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    n: usize,
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl CsrGraph {
    /// Assembles a CSR graph from per-node neighbour rows (each already
    /// strictly ascending, self-free). The rows were produced in parallel;
    /// the flatten here is a plain `O(m)` memcpy in node order, so the
    /// resulting arrays are positionally deterministic by construction.
    fn from_rows(n: usize, rows: Vec<Vec<u32>>) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total = 0usize;
        offsets.push(0);
        for row in &rows {
            total += row.len();
            offsets.push(total);
        }
        let mut neighbors = Vec::with_capacity(total);
        for row in &rows {
            neighbors.extend_from_slice(row);
        }
        CsrGraph {
            n,
            offsets,
            neighbors,
        }
    }

    /// Builds a graph from an undirected edge list (duplicates tolerated).
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or an edge is a self-loop.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge endpoint out of range");
            assert_ne!(a, b, "self-loops are not allowed");
            rows[a].push(b as u32);
            rows[b].push(a as u32);
        }
        for row in &mut rows {
            row.sort_unstable();
            row.dedup();
        }
        Self::from_rows(n, rows)
    }

    /// Builds the threshold graph `H_α` directly from a square
    /// [`DistanceOracle`]: nodes `a ≠ b` are adjacent iff `d(a, b) <= alpha`.
    ///
    /// One `cols_within(a, alpha)` range query per node, issued in parallel.
    /// The ascending-order contract of `cols_within` means each row arrives
    /// already sorted; on the spatial backend each query is sublinear, so the
    /// whole build is `O(n·query + m)` instead of the dense `O(n²)`.
    ///
    /// # Panics
    /// Panics if the oracle is not square or has `u32::MAX` or more rows.
    pub fn from_threshold_oracle(oracle: &Oracle, alpha: f64) -> Self {
        let n = oracle.rows();
        assert_eq!(n, oracle.cols(), "threshold graphs need a square oracle");
        assert!((n as u64) < u32::MAX as u64, "CSR node ids are u32");
        let rows: Vec<Vec<u32>> = (0..n)
            .into_par_iter()
            .with_min_len(16)
            .map(|a| {
                oracle
                    .cols_within(a, alpha)
                    .into_iter()
                    .filter(|&b| b != a)
                    .map(|b| b as u32)
                    .collect()
            })
            .collect();
        Self::from_rows(n, rows)
    }

    /// The subgraph of `self` that keeps neighbour `b` of `a` iff
    /// `d(a, b) <= alpha` — the packing step GBBS applies between rounds.
    ///
    /// Each row's distances come from `row_gather` over its neighbour ids
    /// in stack tiles, with rows in parallel, and rows stay ascending. So
    /// when `self` is `H_t` built from the same oracle and `alpha <= t`, the
    /// result equals [`CsrGraph::from_threshold_oracle`]`(oracle, alpha)`
    /// array for array, at a cost of `O(m)` distances instead of a full
    /// threshold build.
    ///
    /// # Panics
    /// Panics if the oracle has fewer rows than the graph has nodes.
    pub fn filter_within(&self, oracle: &Oracle, alpha: f64) -> Self {
        const TILE: usize = 256;
        assert!(oracle.rows() >= self.n, "oracle smaller than the graph");
        let rows: Vec<Vec<u32>> = (0..self.n)
            .into_par_iter()
            .with_min_len(16)
            .map(|a| {
                let mut ids = [0usize; TILE];
                let mut dists = [0.0f64; TILE];
                let mut row = Vec::new();
                for chunk in self.neighbors(a).chunks(TILE) {
                    let (ids, dists) = (&mut ids[..chunk.len()], &mut dists[..chunk.len()]);
                    for (id, &b) in ids.iter_mut().zip(chunk) {
                        *id = b as usize;
                    }
                    oracle.row_gather(a, ids, dists);
                    row.extend(
                        chunk
                            .iter()
                            .zip(dists.iter())
                            .filter(|&(_, &d)| d <= alpha)
                            .map(|(&b, _)| b),
                    );
                }
                row
            })
            .collect();
        Self::from_rows(self.n, rows)
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The neighbours of `v`, strictly ascending.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether `a` and `b` are adjacent (binary search over `a`'s row).
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.neighbors(a).binary_search(&(b as u32)).is_ok()
    }

    /// Resident bytes of the adjacency arrays.
    pub fn memory_bytes(&self) -> u64 {
        (self.offsets.len() * std::mem::size_of::<usize>()
            + self.neighbors.len() * std::mem::size_of::<u32>()) as u64
    }
}

/// A bipartite graph `H = (U, V, E)` in CSR form, stored from both sides so
/// the frontier engine can push `U → V` and pull `V → U` (and vice versa)
/// without scanning a dense `|U| × |V|` matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrBipartite {
    nu: usize,
    nv: usize,
    u_offsets: Vec<usize>,
    u_neighbors: Vec<u32>,
    v_offsets: Vec<usize>,
    v_neighbors: Vec<u32>,
}

impl CsrBipartite {
    /// Builds a bipartite graph from an edge list of `(u, v)` pairs
    /// (duplicates tolerated).
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn from_edges(nu: usize, nv: usize, edges: &[(usize, usize)]) -> Self {
        let mut u_rows: Vec<Vec<u32>> = vec![Vec::new(); nu];
        for &(u, v) in edges {
            assert!(u < nu && v < nv, "edge endpoint out of range");
            u_rows[u].push(v as u32);
        }
        for row in &mut u_rows {
            row.sort_unstable();
            row.dedup();
        }
        Self::from_u_rows(nu, nv, u_rows)
    }

    /// Assembles both CSR sides from ascending, duplicate-free per-`u` rows
    /// (`u_rows[u]` lists the `v`-neighbours of `u`). The `v`-side is
    /// derived with a counting sort: scanning `u` in ascending order fills
    /// each `v`-row in ascending `u` order, keeping both sides sorted and
    /// positionally deterministic.
    ///
    /// # Panics
    /// Panics if `u_rows.len() != nu` or a neighbour is out of range.
    pub fn from_u_rows(nu: usize, nv: usize, u_rows: Vec<Vec<u32>>) -> Self {
        assert_eq!(u_rows.len(), nu, "one row per U-side node");
        debug_assert!(u_rows.iter().all(|row| row.windows(2).all(|w| w[0] < w[1])));
        let mut u_offsets = Vec::with_capacity(nu + 1);
        let mut total = 0usize;
        u_offsets.push(0);
        for row in &u_rows {
            total += row.len();
            u_offsets.push(total);
        }
        let mut u_neighbors = Vec::with_capacity(total);
        for row in &u_rows {
            u_neighbors.extend_from_slice(row);
        }

        let mut v_deg = vec![0usize; nv];
        for &v in &u_neighbors {
            v_deg[v as usize] += 1;
        }
        let mut v_offsets = Vec::with_capacity(nv + 1);
        let mut acc = 0usize;
        v_offsets.push(0);
        for &d in &v_deg {
            acc += d;
            v_offsets.push(acc);
        }
        let mut cursor = v_offsets[..nv].to_vec();
        let mut v_neighbors = vec![0u32; total];
        for (u, row) in u_rows.iter().enumerate() {
            for &v in row {
                v_neighbors[cursor[v as usize]] = u as u32;
                cursor[v as usize] += 1;
            }
        }

        CsrBipartite {
            nu,
            nv,
            u_offsets,
            u_neighbors,
            v_offsets,
            v_neighbors,
        }
    }

    /// Number of U-side nodes.
    #[inline]
    pub fn nu(&self) -> usize {
        self.nu
    }

    /// Number of V-side nodes.
    #[inline]
    pub fn nv(&self) -> usize {
        self.nv
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.u_neighbors.len()
    }

    /// Degree of U-side node `u`.
    #[inline]
    pub fn degree_u(&self, u: usize) -> usize {
        self.u_offsets[u + 1] - self.u_offsets[u]
    }

    /// Degree of V-side node `v`.
    #[inline]
    pub fn degree_v(&self, v: usize) -> usize {
        self.v_offsets[v + 1] - self.v_offsets[v]
    }

    /// The V-side neighbours of U-node `u`, strictly ascending.
    #[inline]
    pub fn neighbors_u(&self, u: usize) -> &[u32] {
        &self.u_neighbors[self.u_offsets[u]..self.u_offsets[u + 1]]
    }

    /// The U-side neighbours of V-node `v`, strictly ascending.
    #[inline]
    pub fn neighbors_v(&self, v: usize) -> &[u32] {
        &self.v_neighbors[self.v_offsets[v]..self.v_offsets[v + 1]]
    }

    /// Whether `(u, v)` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors_u(u).binary_search(&(v as u32)).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfaclo_metric::DistanceMatrix;

    #[test]
    fn csr_basic_ops() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2)]);
        assert_eq!(g.n(), 4);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn csr_rows_are_strictly_ascending_and_deduped() {
        let g = CsrGraph::from_edges(5, &[(3, 1), (3, 0), (3, 4), (3, 1)]);
        assert_eq!(g.neighbors(3), &[0, 1, 4]);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn csr_rejects_self_loops() {
        let _ = CsrGraph::from_edges(2, &[(1, 1)]);
    }

    #[test]
    fn threshold_oracle_build_matches_pairwise_distances() {
        // 3 nodes on a line at 0, 1, 3.
        let dist = vec![0.0, 1.0, 3.0, 1.0, 0.0, 2.0, 3.0, 2.0, 0.0];
        let oracle = Oracle::Dense(DistanceMatrix::from_rows(3, 3, dist));
        let g = CsrGraph::from_threshold_oracle(&oracle, 1.5);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(1, 2));
        let g2 = CsrGraph::from_threshold_oracle(&oracle, 2.0);
        assert!(g2.has_edge(1, 2));
        assert_eq!(g2.num_edges(), 2);
    }

    #[test]
    fn filtering_a_threshold_graph_equals_building_at_the_lower_threshold() {
        use parfaclo_metric::gen::{self, GenParams};
        use parfaclo_metric::{Backend, DistanceOracle};
        for backend in [Backend::Dense, Backend::Implicit, Backend::Spatial] {
            let inst =
                gen::build_clustering(GenParams::uniform_square(300, 300).with_seed(5), backend)
                    .expect("instance");
            let oracle = inst.distances();
            let values = oracle.sorted_distinct_values();
            // 300 nodes put the longest rows above one 256-id tile.
            let top = values[values.len() * 3 / 4];
            let h = CsrGraph::from_threshold_oracle(oracle, top);
            assert!((0..300).any(|a| h.degree(a) > 256), "{backend:?}");
            for q in [
                0,
                1,
                values.len() / 7,
                values.len() / 3,
                values.len() * 3 / 4,
            ] {
                let alpha = values[q];
                let want = CsrGraph::from_threshold_oracle(oracle, alpha);
                assert_eq!(h.filter_within(oracle, alpha), want, "{backend:?} q {q}");
                // Filtering twice is filtering once at the smaller threshold.
                let mid =
                    CsrGraph::from_threshold_oracle(oracle, values[(q + values.len() * 3 / 4) / 2]);
                assert_eq!(mid.filter_within(oracle, alpha), want, "{backend:?} q {q}");
            }
        }
    }

    #[test]
    fn memory_is_linear_in_edges() {
        let g = CsrGraph::from_edges(1000, &[(0, 1), (2, 3)]);
        assert!(g.memory_bytes() < 1000 * 16, "{}", g.memory_bytes());
    }

    #[test]
    fn bipartite_sides_are_consistent() {
        let h = CsrBipartite::from_edges(3, 2, &[(0, 0), (1, 0), (2, 1), (0, 1)]);
        assert_eq!(h.neighbors_u(0), &[0, 1]);
        assert_eq!(h.neighbors_v(0), &[0, 1]);
        assert_eq!(h.neighbors_v(1), &[0, 2]);
        assert_eq!(h.num_edges(), 4);
        assert_eq!(h.degree_u(0), 2);
        assert_eq!(h.degree_v(1), 2);
        assert!(h.has_edge(2, 1));
        assert!(!h.has_edge(2, 0));
    }
}

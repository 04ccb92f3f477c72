//! Compressed sparse row (CSR) adjacency — the workspace's one graph
//! representation.
//!
//! A [`CsrGraph`] stores one offsets array and one concatenated neighbour
//! array, `O(n + m)` words total. Construction from a [`DistanceOracle`]
//! issues one `cols_within` range query per node — the queries run in
//! parallel, and because every backend returns its hits in ascending column
//! order (the contract `cols_within` documents and tests), the assembled
//! arrays are byte-identical at any thread count.
//!
//! [`DistanceOracle`]: parfaclo_metric::DistanceOracle

use parfaclo_metric::{DistanceOracle, Oracle, SCRATCH_BYTES_CAP};
use rayon::prelude::*;

/// Peak bytes a threshold build holds per directed edge: the per-row `u32`
/// vectors and the flattened `u32` neighbour array coexist until the rows
/// are dropped.
const BUILD_BYTES_PER_EDGE: u64 = 8;

/// A threshold-graph build refused before it started, because its CSR
/// arrays would pass the scratch cap.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphTooLarge {
    n: usize,
    alpha: f64,
    /// Directed edges counted when the count stopped: at least this many.
    directed_edges: u64,
    cap_bytes: u64,
}

impl std::fmt::Display for GraphTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let gib = |bytes: u64| bytes as f64 / (1u64 << 30) as f64;
        write!(
            f,
            "the threshold graph H_α at α = {} on {} nodes holds at least {} directed \
             edges, whose CSR build needs more than {:.1} GiB, past the {:.1} GiB cap",
            self.alpha,
            self.n,
            self.directed_edges,
            gib(self.directed_edges.saturating_mul(BUILD_BYTES_PER_EDGE)),
            gib(self.cap_bytes),
        )
    }
}

impl std::error::Error for GraphTooLarge {}

/// A simple undirected graph in CSR form: `neighbors[offsets[v]..offsets[v+1]]`
/// are the neighbours of `v`, strictly ascending, with no self-loops.
///
/// Node ids are stored as `u32`, so the representation supports up to
/// `u32::MAX` nodes.
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
    /// whole build is `O(n·query + m)` instead of `O(n²)`. The build holds
    /// 8 bytes per directed edge at its peak and refuses nothing; callers
    /// that take `alpha` from their input ask
    /// [`CsrGraph::check_threshold_cap`] first.
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

    /// Refuses, before any allocation that grows with the edges, a
    /// [`CsrGraph::from_threshold_oracle`] build whose peak would pass
    /// [`SCRATCH_BYTES_CAP`].
    ///
    /// When even the complete graph fits (`n·(n−1)·8` bytes within the cap,
    /// so `n ≤ 23,170`) nothing is counted. Otherwise the row lengths are
    /// counted in blocks of range queries, and the count stops as soon as
    /// the running total passes the cap, so a refusal costs at most one
    /// block of queries past the cap's worth of edges.
    pub fn check_threshold_cap(oracle: &Oracle, alpha: f64) -> Result<(), GraphTooLarge> {
        check_threshold_cap_at(oracle, alpha, SCRATCH_BYTES_CAP)
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

/// [`CsrGraph::check_threshold_cap`] against an explicit cap.
fn check_threshold_cap_at(
    oracle: &Oracle,
    alpha: f64,
    cap_bytes: u64,
) -> Result<(), GraphTooLarge> {
    const BLOCK: usize = 1024;
    let n = oracle.rows();
    let complete = (n as u64)
        .saturating_mul(n.saturating_sub(1) as u64)
        .saturating_mul(BUILD_BYTES_PER_EDGE);
    if complete <= cap_bytes {
        return Ok(());
    }
    let mut directed_edges = 0u64;
    for start in (0..n).step_by(BLOCK) {
        let degrees: Vec<u64> = (start..n.min(start + BLOCK))
            .into_par_iter()
            .map(|a| {
                oracle
                    .cols_within(a, alpha)
                    .iter()
                    .filter(|&&b| b != a)
                    .count() as u64
            })
            .collect();
        directed_edges += degrees.iter().sum::<u64>();
        if directed_edges.saturating_mul(BUILD_BYTES_PER_EDGE) > cap_bytes {
            return Err(GraphTooLarge {
                n,
                alpha,
                directed_edges,
                cap_bytes,
            });
        }
    }
    Ok(())
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

    fn line_oracle(n: usize) -> Oracle {
        let mut dist = vec![0.0; n * n];
        for a in 0..n {
            for b in 0..n {
                dist[a * n + b] = (a as f64 - b as f64).abs();
            }
        }
        Oracle::Dense(DistanceMatrix::from_rows(n, n, dist))
    }

    #[test]
    fn csr_memory_is_sublinear_in_n_squared() {
        let c = CsrGraph::from_threshold_oracle(&line_oracle(64), 1.0);
        assert!(c.memory_bytes() < 64 * 64, "path graph: O(n) not O(n²)");
    }

    #[test]
    fn threshold_builds_past_the_cap_are_refused() {
        // 40 nodes on a line: the complete graph's 1,560 directed edges
        // need 12,480 bytes, past a 4,000-byte cap, so the rows get counted.
        let o = line_oracle(40);
        // α = 1 is the path graph: 78 directed edges, 624 bytes.
        assert_eq!(check_threshold_cap_at(&o, 1.0, 4_000), Ok(()));
        // α = 20 holds 1,180 directed edges (9,440 bytes). The count stops
        // after the first block of rows, having seen all of them.
        let err = check_threshold_cap_at(&o, 20.0, 4_000).unwrap_err();
        assert_eq!(
            (err.n, err.directed_edges, err.cap_bytes),
            (40, 1_180, 4_000)
        );
        assert!(err.to_string().contains("past the"), "{err}");
        // A cap that holds the complete graph skips the count.
        assert_eq!(check_threshold_cap_at(&o, 1e9, 12_480), Ok(()));
        assert_eq!(CsrGraph::check_threshold_cap(&o, 1e9), Ok(()));
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

//! Compressed sparse row (CSR) adjacency — the workspace's one graph
//! representation.
//!
//! A [`CsrGraph`] stores one offsets array and one concatenated neighbour
//! array, `O(n + m)` words total. Construction from a [`DistanceOracle`]
//! issues one `cols_within` range query per node — the queries run in
//! parallel, and because every backend returns its hits in ascending column
//! order (the contract `cols_within` documents and tests), the assembled
//! arrays are byte-identical at any thread count. The capped build
//! ([`CsrGraph::try_from_threshold_oracle`]) runs the same queries once, in
//! blocks, and refuses as soon as the rows it holds say the arrays would
//! pass the scratch cap.
//!
//! [`DistanceOracle`]: parfaclo_metric::DistanceOracle

use parfaclo_metric::{DistanceOracle, Oracle, SCRATCH_BYTES_CAP};
use rayon::prelude::*;

/// Peak bytes a threshold build holds per directed edge: the per-row `u32`
/// vectors and the flattened `u32` neighbour array coexist until the rows
/// are dropped.
const BUILD_BYTES_PER_EDGE: u64 = 8;

/// Most rows per block of range queries in a capped threshold build whose
/// complete graph would pass the cap: the running edge total is checked
/// after each block (see [`build_block`]).
const BUILD_BLOCK: usize = 1024;

/// A threshold-graph build refused partway, because the rows built so far
/// already hold enough edges to take its CSR arrays past the scratch cap.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphTooLarge {
    n: usize,
    alpha: f64,
    /// Directed edges in the rows built when the build stopped: the graph
    /// holds at least this many.
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
    /// that take `alpha` from their input build through
    /// [`CsrGraph::try_from_threshold_oracle`] instead.
    ///
    /// # Panics
    /// Panics if the oracle is not square or has `u32::MAX` or more rows.
    pub fn from_threshold_oracle(oracle: &Oracle, alpha: f64) -> Self {
        threshold_build(oracle, alpha, u64::MAX).expect("an uncapped build never refuses")
    }

    /// [`CsrGraph::from_threshold_oracle`], refused once its peak of 8
    /// bytes per directed edge would pass [`SCRATCH_BYTES_CAP`].
    ///
    /// While even the complete graph fits (`n·(n−1)·8` bytes within the cap,
    /// so `n ≤ 23,170`) the build is the same single parallel pass. Past
    /// that, the rows are built in blocks of up to 1,024 range queries with
    /// a running total of their lengths, and the build stops at the first
    /// block that takes the total past the cap. Each query runs once either
    /// way. A block is sized so that its rows hold at most half the cap
    /// even when complete (fewer than 1,024 rows past `n = 524,289`), and
    /// the rows before it hold at most half the cap, or the build would
    /// have stopped; so a refusal's peak stays within the cap, the peak an
    /// accepted build just under the cap reaches too.
    ///
    /// # Errors
    /// [`GraphTooLarge`] when the graph's CSR build would pass the cap.
    ///
    /// # Panics
    /// As [`CsrGraph::from_threshold_oracle`].
    pub fn try_from_threshold_oracle(oracle: &Oracle, alpha: f64) -> Result<Self, GraphTooLarge> {
        threshold_build(oracle, alpha, SCRATCH_BYTES_CAP)
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

/// The threshold build behind [`CsrGraph::from_threshold_oracle`] and
/// [`CsrGraph::try_from_threshold_oracle`], against an explicit cap.
fn threshold_build(oracle: &Oracle, alpha: f64, cap_bytes: u64) -> Result<CsrGraph, GraphTooLarge> {
    let n = oracle.rows();
    assert_eq!(n, oracle.cols(), "threshold graphs need a square oracle");
    assert!((n as u64) < u32::MAX as u64, "CSR node ids are u32");
    let block = build_block(n, cap_bytes);
    let mut rows: Vec<Vec<u32>> = Vec::with_capacity(n);
    let mut directed_edges = 0u64;
    for start in (0..n).step_by(block) {
        let built: Vec<Vec<u32>> = (start..n.min(start + block))
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
        directed_edges += built.iter().map(|row| row.len() as u64).sum::<u64>();
        if directed_edges.saturating_mul(BUILD_BYTES_PER_EDGE) > cap_bytes {
            return Err(GraphTooLarge {
                n,
                alpha,
                directed_edges,
                cap_bytes,
            });
        }
        rows.extend(built);
    }
    Ok(CsrGraph::from_rows(n, rows))
}

/// Rows per block of a threshold build on `n` nodes against `cap_bytes`:
/// all `n` while the complete graph fits the cap; otherwise at most
/// [`BUILD_BLOCK`], and few enough that a block of complete rows needs at
/// most the cap at 8 bytes per edge, so its `u32` rows hold at most half
/// of it. At least one row.
fn build_block(n: usize, cap_bytes: u64) -> usize {
    let row_bytes = (n.saturating_sub(1) as u64).saturating_mul(BUILD_BYTES_PER_EDGE);
    if (n as u64).saturating_mul(row_bytes) <= cap_bytes {
        n.max(1)
    } else {
        (cap_bytes / row_bytes).clamp(1, BUILD_BLOCK as u64) as usize
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
        // need 12,480 bytes, past a 4,000-byte cap, so the rows are built
        // in blocks of 12 (a complete row needs 39 · 8 = 312 bytes).
        let o = line_oracle(40);
        // α = 1 is the path graph: 78 directed edges, 624 bytes.
        assert_eq!(
            threshold_build(&o, 1.0, 4_000),
            Ok(CsrGraph::from_threshold_oracle(&o, 1.0))
        );
        // α = 20 holds 1,180 directed edges (9,440 bytes). The first block
        // of rows holds 306 (2,448 bytes); the second takes the total to
        // 740 and stops the build.
        let err = threshold_build(&o, 20.0, 4_000).unwrap_err();
        assert_eq!((err.n, err.directed_edges, err.cap_bytes), (40, 740, 4_000));
        assert!(err.to_string().contains("past the"), "{err}");
        // A cap that holds the complete graph builds it in one pass.
        assert_eq!(
            threshold_build(&o, 1e9, 12_480),
            Ok(CsrGraph::from_threshold_oracle(&o, 1e9))
        );
        assert_eq!(
            CsrGraph::try_from_threshold_oracle(&o, 1e9),
            Ok(CsrGraph::from_threshold_oracle(&o, 1e9))
        );
        // At the 4 GiB cap the complete graph fits up to n = 23,170, blocks
        // keep 1,024 rows up to n = 524,289, and 10M points take 53; a
        // block of complete rows holds at most half the cap.
        let ns = [23_170, 23_171, 524_289, 10_000_000];
        let blocks = ns.map(|n| build_block(n, SCRATCH_BYTES_CAP));
        assert_eq!(blocks, [23_170, 1_024, 1_024, 53]);
        for (n, block) in ns.into_iter().zip(blocks) {
            assert!(block as u64 * (n as u64 - 1) * 4 <= SCRATCH_BYTES_CAP / 2);
        }
        assert_eq!([0, 1].map(|n| build_block(n, SCRATCH_BYTES_CAP)), [1, 1]);
        assert_eq!(build_block(5, 0), 1);
    }

    #[test]
    fn capped_threshold_builds_sum_edges_across_blocks() {
        use parfaclo_metric::gen::{self, GenParams};
        use parfaclo_metric::Backend;
        // 3,000 unit-spaced points on a line. A complete row needs
        // 2,999 · 8 = 23,992 bytes, so a 48,000-byte cap builds blocks of
        // two rows and a 20,000-byte cap blocks of one.
        let inst = gen::build_clustering(GenParams::line(3_000, 3_000), Backend::Spatial)
            .expect("instance");
        let o = inst.distances();
        // α = 1 is the path graph, whose 5,998 directed edges (47,984
        // bytes) fit the larger cap across 1,500 blocks.
        let path = CsrGraph::from_threshold_oracle(o, 1.0);
        assert_eq!(path.num_edges(), 2_999);
        assert_eq!(threshold_build(o, 1.0, 48_000), Ok(path));
        // At 20,000 bytes the 1,251st row takes the total to 2,501 and
        // stops the build.
        let err = threshold_build(o, 1.0, 20_000).unwrap_err();
        assert_eq!((err.n, err.directed_edges), (3_000, 2_501));
        // α = 1e9 joins every pair. The first block's two complete rows
        // (5,998 edges, 47,984 bytes) fit the cap; the second block stops
        // the build holding four rows, not 1,024.
        let err = threshold_build(o, 1e9, 48_000).unwrap_err();
        assert_eq!((err.n, err.directed_edges), (3_000, 11_996));
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

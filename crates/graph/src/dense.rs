//! Dense graph representations.
//!
//! The graphs in the paper are all derived from the dense distance matrix by
//! thresholding (`H_α` in Section 6.1, the bipartite graph `H` in Algorithms 4.1 and
//! 5.1), so a dense boolean adjacency matrix is the natural representation — it makes
//! each Luby propagation step a pair of row/column reductions over an `n × n` (or
//! `|U| × |V|`) matrix, exactly the cost model the paper charges. The edge count is
//! cached at construction so the frontier engine's density heuristic can read it in
//! `O(1)`.

use rayon::prelude::*;

/// Counts set bits in parallel, row-chunked so the result (a plain sum of
/// per-chunk counts) is schedule-independent.
fn count_true(bits: &[bool], chunk: usize) -> usize {
    if bits.is_empty() {
        return 0;
    }
    let counts: Vec<usize> = bits
        .par_chunks(chunk.max(1))
        .map(|c| c.iter().filter(|&&b| b).count())
        .collect();
    counts.into_iter().sum()
}

/// A simple undirected graph on `n` nodes stored as a dense boolean adjacency matrix.
///
/// Self-loops are not represented (the diagonal is always `false`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseGraph {
    n: usize,
    adj: Vec<bool>,
    edges: usize,
}

impl DenseGraph {
    /// Creates an empty (edge-less) graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        DenseGraph {
            n,
            adj: vec![false; n * n],
            edges: 0,
        }
    }

    /// Builds a graph from an edge list.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or an edge is a self-loop.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = DenseGraph::new(n);
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    /// Builds the threshold graph `H_α` over `n` nodes from a symmetric distance matrix
    /// given as a row-major slice: nodes `a ≠ b` are adjacent iff `dist[a*n+b] <= alpha`.
    pub fn from_distance_threshold(dist: &[f64], n: usize, alpha: f64) -> Self {
        assert_eq!(dist.len(), n * n, "distance matrix shape mismatch");
        Self::from_threshold_fn(n, alpha, |a, b| dist[a * n + b])
    }

    /// Builds the threshold graph `H_α` from a distance *function* evaluated on demand
    /// (in parallel): nodes `a ≠ b` are adjacent iff `dist(a, b) <= alpha`. This is the
    /// oracle-friendly constructor — it works identically against a dense matrix or an
    /// implicit geometric backend without requiring a materialised `n x n` slice.
    pub fn from_threshold_fn<F>(n: usize, alpha: f64, dist: F) -> Self
    where
        F: Fn(usize, usize) -> f64 + Sync,
    {
        let adj: Vec<bool> = (0..n * n)
            .into_par_iter()
            .with_min_len(4096)
            .map(|idx| {
                let (a, b) = (idx / n, idx % n);
                a != b && dist(a, b) <= alpha
            })
            .collect();
        let edges = count_true(&adj, n) / 2;
        DenseGraph { n, adj, edges }
    }

    /// Builds the threshold graph `H_α` directly from a square
    /// [`DistanceOracle`]: bit-identical to
    /// [`DenseGraph::from_threshold_fn`] over `oracle.dist`, but the spatial
    /// backend serves each node's neighbourhood with one index range query
    /// instead of an O(n) distance sweep on sparse thresholds — turning the
    /// O(n²) distance evaluations of a maxdom, mis or sketch k-center graph
    /// build into O(n · query).
    ///
    /// [`DistanceOracle`]: parfaclo_metric::DistanceOracle
    ///
    /// # Panics
    /// Panics if the oracle is not square.
    pub fn from_threshold_oracle(oracle: &parfaclo_metric::Oracle, alpha: f64) -> Self {
        use parfaclo_metric::DistanceOracle;
        let n = oracle.rows();
        assert_eq!(n, oracle.cols(), "threshold graphs need a square oracle");
        if !oracle.has_sublinear_queries() {
            return Self::from_threshold_rows(oracle, n, alpha);
        }
        // Density probe: on near-complete thresholds (the upper half of
        // the candidate radii) a range query returns ~n ids per
        // node and pays an extra sort on top of the same n distance
        // evaluations — strictly worse than the flat scan. One probe row
        // decides for the whole graph; the choice never changes the bits,
        // only who computes them.
        if n > 0 && oracle.cols_within(0, alpha).len() * 2 > n {
            return Self::from_threshold_rows(oracle, n, alpha);
        }
        // One range query per node (ascending neighbour ids, inclusive <=),
        // written straight into that node's adjacency row in parallel — no
        // intermediate neighbour-list vectors, whose total size approaches
        // 8·n² bytes on near-complete thresholds.
        let mut adj = vec![false; n * n];
        adj.par_chunks_mut(n).enumerate().for_each(|(a, row)| {
            for b in oracle.cols_within(a, alpha) {
                if a != b {
                    row[b] = true;
                }
            }
        });
        let edges = count_true(&adj, n) / 2;
        DenseGraph { n, adj, edges }
    }

    /// Flat-scan oracle build: fills each node's distance row through the
    /// oracle's batch entry point (the blocked SoA kernels on geometric
    /// backends, a row copy on a materialised matrix) and thresholds it.
    /// Bit-identical to `from_threshold_fn` over `oracle.dist` — the batch
    /// path returns bitwise-equal distances and the predicate is unchanged.
    fn from_threshold_rows(oracle: &parfaclo_metric::Oracle, n: usize, alpha: f64) -> Self {
        use parfaclo_metric::DistanceOracle;
        let mut adj = vec![false; n * n];
        adj.par_chunks_mut(n.max(1))
            .enumerate()
            .for_each(|(a, row)| {
                let mut dists = vec![0.0f64; n];
                oracle.row_range_into(a, 0, &mut dists);
                for (b, (slot, &d)) in row.iter_mut().zip(dists.iter()).enumerate() {
                    *slot = a != b && d <= alpha;
                }
            });
        let edges = count_true(&adj, n) / 2;
        DenseGraph { n, adj, edges }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{a, b}`.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or self-loops.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n, "edge endpoint out of range");
        assert_ne!(a, b, "self-loops are not allowed");
        if !self.adj[a * self.n + b] {
            self.edges += 1;
        }
        self.adj[a * self.n + b] = true;
        self.adj[b * self.n + a] = true;
    }

    /// Whether `a` and `b` are adjacent.
    #[inline]
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj[a * self.n + b]
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.row(v).iter().filter(|&&b| b).count()
    }

    /// The neighbours of `v` as a vector of node indices.
    pub fn neighbors(&self, v: usize) -> Vec<usize> {
        self.row(v)
            .iter()
            .enumerate()
            .filter_map(|(u, &b)| if b { Some(u) } else { None })
            .collect()
    }

    /// Number of undirected edges (`O(1)` — cached at construction).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// The adjacency row of `v` as a boolean slice.
    #[inline]
    pub fn row(&self, v: usize) -> &[bool] {
        &self.adj[v * self.n..(v + 1) * self.n]
    }

    /// Whether two nodes are adjacent in `G²`, i.e. adjacent in `G` or sharing a common
    /// neighbour. Quadratic per query; used by tests and verification only.
    pub fn adjacent_in_square(&self, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        if self.has_edge(a, b) {
            return true;
        }
        (0..self.n).any(|z| self.has_edge(a, z) && self.has_edge(z, b))
    }
}

/// A bipartite graph `H = (U, V, E)` stored as a dense `|U| × |V|` boolean matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BipartiteGraph {
    nu: usize,
    nv: usize,
    adj: Vec<bool>,
    edges: usize,
}

impl BipartiteGraph {
    /// Creates an empty bipartite graph with `nu` U-side and `nv` V-side nodes.
    pub fn new(nu: usize, nv: usize) -> Self {
        BipartiteGraph {
            nu,
            nv,
            adj: vec![false; nu * nv],
            edges: 0,
        }
    }

    /// Builds a bipartite graph from an edge list of `(u, v)` pairs.
    pub fn from_edges(nu: usize, nv: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = BipartiteGraph::new(nu, nv);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Builds a bipartite graph from a predicate evaluated on every `(u, v)` pair (in
    /// parallel). This is how the facility-location algorithms construct their client /
    /// facility graphs from the distance matrix and a threshold.
    pub fn from_predicate<F>(nu: usize, nv: usize, pred: F) -> Self
    where
        F: Fn(usize, usize) -> bool + Sync,
    {
        let adj: Vec<bool> = (0..nu * nv)
            .into_par_iter()
            .with_min_len(4096)
            .map(|idx| pred(idx / nv, idx % nv))
            .collect();
        let edges = count_true(&adj, nv.max(1));
        BipartiteGraph { nu, nv, adj, edges }
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

    /// Adds the edge `(u, v)`.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u < self.nu && v < self.nv, "edge endpoint out of range");
        if !self.adj[u * self.nv + v] {
            self.edges += 1;
        }
        self.adj[u * self.nv + v] = true;
    }

    /// Whether `(u, v)` is an edge.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u * self.nv + v]
    }

    /// Degree of U-side node `u`.
    pub fn degree_u(&self, u: usize) -> usize {
        self.row_u(u).iter().filter(|&&b| b).count()
    }

    /// Degree of V-side node `v`.
    pub fn degree_v(&self, v: usize) -> usize {
        (0..self.nu).filter(|&u| self.has_edge(u, v)).count()
    }

    /// The V-side neighbours of U-node `u`.
    pub fn neighbors_u(&self, u: usize) -> Vec<usize> {
        self.row_u(u)
            .iter()
            .enumerate()
            .filter_map(|(v, &b)| if b { Some(v) } else { None })
            .collect()
    }

    /// The U-side neighbours of V-node `v`.
    pub fn neighbors_v(&self, v: usize) -> Vec<usize> {
        (0..self.nu).filter(|&u| self.has_edge(u, v)).collect()
    }

    /// Number of edges (`O(1)` — cached at construction).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// The adjacency row of U-node `u` (length `nv`).
    #[inline]
    pub fn row_u(&self, u: usize) -> &[bool] {
        &self.adj[u * self.nv..(u + 1) * self.nv]
    }

    /// Whether two U-side nodes share at least one V-side neighbour (adjacency in the
    /// implicit graph `H'`). Used by tests and verification only.
    pub fn share_v_neighbor(&self, u1: usize, u2: usize) -> bool {
        if u1 == u2 {
            return false;
        }
        self.row_u(u1)
            .iter()
            .zip(self.row_u(u2).iter())
            .any(|(&a, &b)| a && b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_graph_basic_ops() {
        let mut g = DenseGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), vec![0, 2]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.n(), 4);
    }

    #[test]
    fn square_adjacency() {
        // Path 0-1-2-3: in G², 0~2 (via 1), 1~3 (via 2), but 0 !~ 3.
        let g = DenseGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(g.adjacent_in_square(0, 1));
        assert!(g.adjacent_in_square(0, 2));
        assert!(!g.adjacent_in_square(0, 3));
        assert!(g.adjacent_in_square(1, 3));
        assert!(!g.adjacent_in_square(2, 2));
    }

    #[test]
    fn threshold_graph_construction() {
        // 3 nodes on a line at 0, 1, 3.
        let dist = vec![0.0, 1.0, 3.0, 1.0, 0.0, 2.0, 3.0, 2.0, 0.0];
        let g = DenseGraph::from_distance_threshold(&dist, 3, 1.5);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(1, 2));
        assert!(!g.has_edge(0, 0), "no self loops from zero diagonal");
        assert_eq!(g.num_edges(), 1, "cached count matches the bits");
        let g2 = DenseGraph::from_distance_threshold(&dist, 3, 2.0);
        assert!(g2.has_edge(1, 2));
        assert_eq!(g2.num_edges(), 2);
    }

    #[test]
    fn edge_count_ignores_duplicate_adds() {
        let mut g = DenseGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(0, 1);
        assert_eq!(g.num_edges(), 1);
        let mut h = BipartiteGraph::new(2, 2);
        h.add_edge(0, 1);
        h.add_edge(0, 1);
        assert_eq!(h.num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut g = DenseGraph::new(2);
        g.add_edge(1, 1);
    }

    #[test]
    fn bipartite_basic_ops() {
        let mut h = BipartiteGraph::new(2, 3);
        h.add_edge(0, 0);
        h.add_edge(0, 2);
        h.add_edge(1, 2);
        assert!(h.has_edge(0, 2));
        assert!(!h.has_edge(1, 0));
        assert_eq!(h.degree_u(0), 2);
        assert_eq!(h.degree_v(2), 2);
        assert_eq!(h.neighbors_u(0), vec![0, 2]);
        assert_eq!(h.neighbors_v(2), vec![0, 1]);
        assert_eq!(h.num_edges(), 3);
        assert!(h.share_v_neighbor(0, 1));
        assert!(!h.share_v_neighbor(0, 0));
    }

    #[test]
    fn bipartite_from_predicate() {
        let h = BipartiteGraph::from_predicate(3, 4, |u, v| (u + v) % 2 == 0);
        for u in 0..3 {
            for v in 0..4 {
                assert_eq!(h.has_edge(u, v), (u + v) % 2 == 0);
            }
        }
        assert_eq!(h.num_edges(), 6);
    }

    #[test]
    fn bipartite_share_neighbor_requires_common_v() {
        let h = BipartiteGraph::from_edges(3, 2, &[(0, 0), (1, 1), (2, 0)]);
        assert!(h.share_v_neighbor(0, 2));
        assert!(!h.share_v_neighbor(0, 1));
        assert!(!h.share_v_neighbor(1, 2));
    }
}

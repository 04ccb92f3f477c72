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

    /// Builds the threshold graph `H_α` from a square [`DistanceOracle`]:
    /// nodes `a ≠ b` are adjacent iff `d(a, b) <= alpha`. One
    /// `cols_within(a, alpha)` query per node, like
    /// [`crate::CsrGraph::from_threshold_oracle`], written straight into
    /// that node's adjacency row in parallel.
    ///
    /// [`DistanceOracle`]: parfaclo_metric::DistanceOracle
    ///
    /// # Panics
    /// Panics if the oracle is not square.
    pub fn from_threshold_oracle(oracle: &parfaclo_metric::Oracle, alpha: f64) -> Self {
        use parfaclo_metric::DistanceOracle;
        let n = oracle.rows();
        assert_eq!(n, oracle.cols(), "threshold graphs need a square oracle");
        let mut adj = vec![false; n * n];
        adj.par_chunks_mut(n.max(1))
            .enumerate()
            .for_each(|(a, row)| {
                for b in oracle.cols_within(a, alpha) {
                    if a != b {
                        row[b] = true;
                    }
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
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.n(), 4);
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
        assert_eq!(h.num_edges(), 3);
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
}

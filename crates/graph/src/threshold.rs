//! The threshold-graph facade: one type, two representations.
//!
//! Every round-based solver in the workspace runs on the threshold graph
//! `H_α` of a metric instance. [`ThresholdGraph`] lets callers pick the
//! representation per run — the dense bit matrix (`O(n²)` bytes, the paper's
//! native cost model, refused beyond 4 GiB) or the CSR sparse form
//! (`O(n + m)` bytes, the only way to reach million-node sparse metrics) —
//! while the [`Neighbors`] impl guarantees identical adjacency, and therefore
//! byte-identical solver output, from either.

use crate::engine::Neighbors;
use crate::{CsrGraph, DenseGraph};
use parfaclo_metric::SCRATCH_BYTES_CAP;

/// Which representation a threshold graph is built in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GraphBackend {
    /// Dense `n × n` boolean adjacency matrix.
    #[default]
    Dense,
    /// Compressed sparse row: offsets plus sorted neighbour ids.
    Csr,
}

impl GraphBackend {
    /// The canonical lowercase name (`"dense"` / `"csr"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            GraphBackend::Dense => "dense",
            GraphBackend::Csr => "csr",
        }
    }
}

impl std::fmt::Display for GraphBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for GraphBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dense" => Ok(GraphBackend::Dense),
            "csr" => Ok(GraphBackend::Csr),
            other => Err(format!(
                "unknown graph backend '{other}' (expected 'dense' or 'csr')"
            )),
        }
    }
}

/// A threshold graph `H_α` in either dense or CSR representation.
///
/// Both variants expose the same adjacency through [`Neighbors`], so a solver
/// written against the frontier engine produces byte-identical output on
/// either — the choice only moves the memory/build-cost trade-off.
#[derive(Debug, Clone)]
pub enum ThresholdGraph {
    /// Dense bit-matrix form (small `n`, conformance baseline).
    Dense(DenseGraph),
    /// CSR form (large sparse metrics).
    Csr(CsrGraph),
}

impl ThresholdGraph {
    /// Builds `H_α` from a square distance oracle in the requested backend.
    ///
    /// The dense backend refuses instances whose `n²` adjacency bytes exceed
    /// [`SCRATCH_BYTES_CAP`], pointing the caller at `--graph csr`
    /// instead of letting the allocator take the machine down.
    pub fn build(
        oracle: &parfaclo_metric::Oracle,
        alpha: f64,
        backend: GraphBackend,
    ) -> Result<Self, String> {
        use parfaclo_metric::DistanceOracle;
        let n = oracle.rows();
        match backend {
            GraphBackend::Dense => {
                let bytes = (n as u64) * (n as u64);
                if bytes > SCRATCH_BYTES_CAP {
                    return Err(format!(
                        "the dense graph backend would materialise a {:.1} GiB \
                         adjacency matrix for n = {}; use --graph csr, which stores \
                         only the edges actually present",
                        bytes as f64 / (1u64 << 30) as f64,
                        n
                    ));
                }
                Ok(ThresholdGraph::Dense(DenseGraph::from_threshold_oracle(
                    oracle, alpha,
                )))
            }
            GraphBackend::Csr => Ok(ThresholdGraph::Csr(CsrGraph::from_threshold_oracle(
                oracle, alpha,
            ))),
        }
    }

    /// Which backend this graph was built in.
    pub fn backend(&self) -> GraphBackend {
        match self {
            ThresholdGraph::Dense(_) => GraphBackend::Dense,
            ThresholdGraph::Csr(_) => GraphBackend::Csr,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        match self {
            ThresholdGraph::Dense(g) => g.n(),
            ThresholdGraph::Csr(g) => g.n(),
        }
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        match self {
            ThresholdGraph::Dense(g) => g.num_edges(),
            ThresholdGraph::Csr(g) => g.num_edges(),
        }
    }

    /// Whether `a` and `b` are adjacent.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        match self {
            ThresholdGraph::Dense(g) => g.has_edge(a, b),
            ThresholdGraph::Csr(g) => g.has_edge(a, b),
        }
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: usize) -> usize {
        match self {
            ThresholdGraph::Dense(g) => g.degree(v),
            ThresholdGraph::Csr(g) => g.degree(v),
        }
    }

    /// Bytes of adjacency storage this representation holds.
    pub fn memory_bytes(&self) -> u64 {
        match self {
            ThresholdGraph::Dense(g) => (g.n() as u64) * (g.n() as u64),
            ThresholdGraph::Csr(g) => g.memory_bytes(),
        }
    }
}

impl Neighbors for ThresholdGraph {
    fn n(&self) -> usize {
        ThresholdGraph::n(self)
    }
    fn num_edges(&self) -> usize {
        ThresholdGraph::num_edges(self)
    }
    fn degree(&self, v: usize) -> usize {
        ThresholdGraph::degree(self, v)
    }
    fn for_each_neighbor(&self, v: usize, f: &mut dyn FnMut(usize)) {
        match self {
            ThresholdGraph::Dense(g) => Neighbors::for_each_neighbor(g, v, f),
            ThresholdGraph::Csr(g) => Neighbors::for_each_neighbor(g, v, f),
        }
    }
    fn any_neighbor(&self, v: usize, pred: &dyn Fn(usize) -> bool) -> bool {
        match self {
            ThresholdGraph::Dense(g) => Neighbors::any_neighbor(g, v, pred),
            ThresholdGraph::Csr(g) => Neighbors::any_neighbor(g, v, pred),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfaclo_metric::{DistanceMatrix, Oracle};

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
    fn backend_parsing_round_trips() {
        assert_eq!(
            "dense".parse::<GraphBackend>().unwrap(),
            GraphBackend::Dense
        );
        assert_eq!("csr".parse::<GraphBackend>().unwrap(), GraphBackend::Csr);
        assert_eq!(GraphBackend::Csr.to_string(), "csr");
        assert_eq!(GraphBackend::default(), GraphBackend::Dense);
        let err = "coo".parse::<GraphBackend>().unwrap_err();
        assert!(err.contains("coo") && err.contains("csr"), "{err}");
    }

    #[test]
    fn dense_and_csr_expose_identical_adjacency() {
        let o = line_oracle(12);
        for alpha in [0.5, 1.0, 2.5, 20.0] {
            let d = ThresholdGraph::build(&o, alpha, GraphBackend::Dense).unwrap();
            let c = ThresholdGraph::build(&o, alpha, GraphBackend::Csr).unwrap();
            assert_eq!(d.num_edges(), c.num_edges(), "alpha {alpha}");
            for a in 0..12 {
                assert_eq!(d.degree(a), c.degree(a));
                for b in 0..12 {
                    assert_eq!(
                        d.has_edge(a, b),
                        c.has_edge(a, b),
                        "alpha {alpha} ({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn csr_memory_is_sublinear_in_n_squared() {
        let o = line_oracle(64);
        let c = ThresholdGraph::build(&o, 1.0, GraphBackend::Csr).unwrap();
        assert!(c.memory_bytes() < 64 * 64, "path graph: O(n) not O(n²)");
        let d = ThresholdGraph::build(&o, 1.0, GraphBackend::Dense).unwrap();
        assert_eq!(d.memory_bytes(), 64 * 64);
    }

    #[test]
    fn oversized_dense_build_is_refused_with_csr_pointer() {
        use parfaclo_metric::point::DistanceKind;
        use parfaclo_metric::{ImplicitMetric, Point};
        // Implicit oracle: no n² allocation anywhere until the dense graph
        // itself would materialise — exactly what the cap must prevent.
        let n = 100_000; // n² = 10 GiB of adjacency bytes > 4 GiB cap
        let points: Vec<Point> = (0..n).map(|i| Point::xy(i as f64, 0.0)).collect();
        let o = Oracle::Implicit(ImplicitMetric::symmetric(points, DistanceKind::Euclidean));
        let err = ThresholdGraph::build(&o, 0.001, GraphBackend::Dense).unwrap_err();
        assert!(err.contains("--graph csr"), "{err}");
        assert!(err.contains("GiB"), "{err}");
    }
}

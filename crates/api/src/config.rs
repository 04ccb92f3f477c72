//! The unified run configuration.

use parfaclo_bucket::RadiusDeriver;
use parfaclo_metric::{Backend, Coreset};

/// Defensive cap on the outer rounds of every round-based solver. A run
/// that would exceed it indicates a bug, except primal-dual's dual ascent,
/// which refuses up front when its derived iteration bound passes it.
pub const MAX_ROUNDS: usize = 100_000;

/// The one threshold-graph representation: compressed sparse row. An inert
/// stub kept, with [`RunConfig::with_graph`], only because the frozen
/// benchmark harness (`perfbench/src/ops.rs`) names it; the next change to
/// the benchmark deletes both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphBackend {
    /// Compressed sparse row: offsets plus sorted neighbour ids.
    Csr,
}

/// Configuration accepted by every registered solver.
///
/// One struct for every solver, and for the facility-location and
/// local-search free functions too: each reads the fields it understands
/// and ignores the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// The slack parameter `ε > 0` of the paper: every round admits all
    /// elements within a `(1 + ε)` factor of the cheapest.
    pub epsilon: f64,
    /// RNG seed; fixed seed ⇒ deterministic output for every solver.
    pub seed: u64,
    /// Number of worker threads for the run: `Some(n)` installs an
    /// `n`-thread pool around the solve, `None` inherits the ambient pool
    /// (the process default, `RAYON_NUM_THREADS`, or an enclosing
    /// `install`). This is the only execution knob: `Some(1)` is the
    /// sequential run. Thread count never changes results — the runtime
    /// guarantees byte-identical output at any pool size — so this is a
    /// performance knob, not a semantic one.
    pub threads: Option<usize>,
    /// Ablation knob: the `γ/m²` round-bounding preprocessing step
    /// (facility-location solvers only).
    pub preprocess: bool,
    /// Ablation knob: the greedy subselection vote threshold
    /// (facility-location greedy only).
    pub subselection: bool,
    /// Number of centers for the k-clustering and dominator solvers;
    /// ignored by the facility-location solvers.
    pub k: usize,
    /// Distance threshold for the dominator-set solvers' threshold graph.
    /// `None` derives a threshold from the instance (the median of the
    /// strict upper triangle of distances plus one zero, by selection).
    pub threshold: Option<f64>,
    /// Which distance backend generated instances use: `Dense` materialises
    /// the `|C| x |F|` matrix (`O(m)` memory, the historical default);
    /// `Implicit` stores only the points and computes distances on demand
    /// (`O(|C| + |F|)` memory — required for the 100k–1M-client presets);
    /// `Spatial` adds a deterministic exact uniform-grid index over 1-D to
    /// 3-D points so nearest/range queries run sublinearly instead of as
    /// O(n) sweeps; other dimensions keep a flat scan (still
    /// `O(|C| + |F|)` memory — the backend that makes the
    /// 10M-point `xxlarge` preset practical). All backends produce
    /// byte-identical solver output for the same workload and seed, so this
    /// is a memory/latency knob, not a semantic one.
    pub backend: Backend,
    /// How the k-center solver derives its candidate radii: `Exact` (the
    /// default) sorts the distinct pairwise distances in a farthest-first
    /// factor-2 bracket, which holds the optimal radius (refused where a
    /// sort of all `O(n²)` distances would pass the oracle's scratch cap);
    /// `Sketch` probes a deterministic seeded distance sample coarse-to-fine
    /// through geometric buckets, lifting k-center to the sparse/xlarge
    /// presets. Unlike `backend`, the sketch may probe different radii than
    /// the exact path, so it changes results (while keeping the
    /// 2-approximation structure) — which is why it is opt-in per run.
    pub radius_deriver: RadiusDeriver,
    /// Coreset mode for the clustering solvers: `Off` (the default) solves
    /// on the full instance; `Eps(ε)` aggregates the points into a
    /// deterministic ε-grid coreset (one lowest-id medoid per occupied
    /// cell, weighted by population), solves on that weighted sub-instance,
    /// and finishes with one full-set assignment sweep. Like
    /// `radius_deriver`, this changes results (the reported cost is the
    /// full-set cost of the coreset-chosen centers) and is opt-in per run;
    /// the output is still byte-identical at any thread count and backend.
    /// Ignored by the facility-location and dominator solvers.
    pub coreset: Coreset,
}

impl RunConfig {
    /// Creates a configuration with the given `ε` and defaults for
    /// everything else (seed 0, the ambient thread pool, preprocessing and
    /// subselection on, `k = 4`).
    ///
    /// # Panics
    /// Panics if `epsilon` is not a positive finite number, or exceeds 1
    /// (where the `+ ε` in every guarantee certifies nothing).
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "epsilon must be positive and finite, got {epsilon}"
        );
        assert!(epsilon <= 1.0, "epsilon must be at most 1, got {epsilon}");
        RunConfig {
            epsilon,
            seed: 0,
            threads: None,
            preprocess: true,
            subselection: true,
            k: 4,
            threshold: None,
            backend: Backend::Dense,
            radius_deriver: RadiusDeriver::default(),
            coreset: Coreset::Off,
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pins the run to an `n`-thread pool.
    ///
    /// # Panics
    /// Panics if `threads == 0` (use [`RunConfig::with_ambient_threads`] to
    /// inherit the surrounding pool).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "threads must be at least 1");
        self.threads = Some(threads);
        self
    }

    /// Clears the thread pin so the run inherits the ambient pool.
    pub fn with_ambient_threads(mut self) -> Self {
        self.threads = None;
        self
    }

    /// Enables or disables the round-bounding preprocessing step (ablation).
    pub fn with_preprocess(mut self, preprocess: bool) -> Self {
        self.preprocess = preprocess;
        self
    }

    /// Enables or disables the greedy subselection vote threshold (ablation).
    pub fn with_subselection(mut self, subselection: bool) -> Self {
        self.subselection = subselection;
        self
    }

    /// Replaces the number of centers `k`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn with_k(mut self, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        self.k = k;
        self
    }

    /// Sets an explicit dominator-set distance threshold.
    ///
    /// # Panics
    /// Panics if `threshold` is negative or not finite.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold >= 0.0,
            "threshold must be non-negative and finite, got {threshold}"
        );
        self.threshold = Some(threshold);
        self
    }

    /// Replaces the instance distance backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Does nothing: every threshold graph is CSR. Kept, with
    /// [`GraphBackend`], only because the frozen benchmark harness
    /// (`perfbench/src/ops.rs`) calls it; the next change to the benchmark
    /// deletes both.
    pub fn with_graph(self, _graph: GraphBackend) -> Self {
        self
    }

    /// Replaces the k-center radius deriver.
    pub fn with_radius_deriver(mut self, radius_deriver: RadiusDeriver) -> Self {
        self.radius_deriver = radius_deriver;
        self
    }

    /// Replaces the clustering coreset mode.
    pub fn with_coreset(mut self, coreset: Coreset) -> Self {
        self.coreset = coreset;
        self
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::new(0.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let cfg = RunConfig::new(0.25)
            .with_seed(9)
            .with_threads(2)
            .with_preprocess(false)
            .with_subselection(false)
            .with_k(7)
            .with_threshold(3.5)
            .with_backend(Backend::Implicit)
            .with_radius_deriver(RadiusDeriver::Sketch)
            .with_coreset(Coreset::Eps(0.25));
        assert_eq!(cfg.epsilon, 0.25);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.threads, Some(2));
        assert_eq!(cfg.clone().with_ambient_threads().threads, None);
        assert!(!cfg.preprocess);
        assert!(!cfg.subselection);
        assert_eq!(cfg.k, 7);
        assert_eq!(cfg.threshold, Some(3.5));
        assert_eq!(cfg.backend, Backend::Implicit);
        assert_eq!(cfg.radius_deriver, RadiusDeriver::Sketch);
        assert_eq!(cfg.coreset, Coreset::Eps(0.25));
    }

    #[test]
    fn default_is_sane() {
        let cfg = RunConfig::default();
        assert!(cfg.epsilon > 0.0);
        assert!(cfg.preprocess && cfg.subselection);
        assert!(cfg.k >= 1);
        assert!(cfg.threshold.is_none());
        assert!(cfg.threads.is_none(), "default inherits the ambient pool");
        assert_eq!(cfg.backend, Backend::Dense, "dense is the default backend");
        assert_eq!(
            cfg.radius_deriver,
            RadiusDeriver::Exact,
            "the exact deriver preserves the paper's k-center bytes"
        );
        assert_eq!(cfg.coreset, Coreset::Off, "coresets are opt-in");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threads_rejected() {
        let _ = RunConfig::default().with_threads(0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_epsilon_rejected() {
        let _ = RunConfig::new(0.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn nan_epsilon_rejected() {
        let _ = RunConfig::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn infinite_epsilon_rejected() {
        let _ = RunConfig::new(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "at most 1, got 1.5")]
    fn epsilon_above_one_rejected() {
        assert_eq!(RunConfig::new(1.0).epsilon, 1.0);
        let _ = RunConfig::new(1.5);
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn nan_threshold_rejected() {
        let _ = RunConfig::default().with_threshold(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn negative_threshold_rejected() {
        let _ = RunConfig::default().with_threshold(-1.0);
    }

    #[test]
    fn zero_threshold_accepted() {
        assert_eq!(
            RunConfig::default().with_threshold(0.0).threshold,
            Some(0.0)
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_k_rejected() {
        let _ = RunConfig::default().with_k(0);
    }
}

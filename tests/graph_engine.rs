//! Conformance tests for the sparse frontier graph engine: every solver
//! that walks a threshold graph must produce the **byte-identical**
//! canonical Run JSON whether the graph is the dense adjacency matrix or
//! the CSR sparse representation, at any thread count — the graph backend
//! is an execution detail, never an algorithmic input.
//!
//! The tier-1 tests sweep (solver × size × seed × graph) at scales that
//! finish in seconds; the 1M-vertex sparse acceptance run is `#[ignore]`d
//! (release-build wall clock) and executed explicitly:
//!
//! ```text
//! cargo test --release -p parfaclo-tests --test graph_engine -- --ignored
//! ```

use parfaclo_api::{Backend, GraphBackend, Run, RunConfig};
use parfaclo_bench::runner::{run_solver, GenSpec};
use parfaclo_bench::standard_registry;

/// Every solver the bench matrix fans out over the graph axis.
const GRAPH_SOLVERS: &[&str] = &["maxdom", "mis"];

/// Runs `solver` on dense and on CSR threshold graphs, asserts that the
/// canonical JSON is byte-identical, and returns the CSR run.
fn dense_matches_csr(solver: &str, spec: &GenSpec, cfg: &RunConfig, what: &str) -> Run {
    let registry = standard_registry();
    let [dense, csr] = [GraphBackend::Dense, GraphBackend::Csr].map(|graph| {
        run_solver(&registry, solver, spec, &cfg.clone().with_graph(graph))
            .unwrap_or_else(|e| panic!("'{solver}' {what}, graph {graph}: {e}"))
    });
    assert_eq!(
        dense.canonical_json(),
        csr.canonical_json(),
        "'{solver}' diverged across graph backends {what}"
    );
    csr
}

/// The core conformance sweep: (2 solvers × 2 sizes × 2 seeds) dense-vs-CSR
/// canonical JSON byte-equality on the clustered workload (the one whose
/// threshold graphs have non-trivial component structure).
#[test]
fn graph_solvers_dense_and_csr_byte_identical() {
    for &solver in GRAPH_SOLVERS {
        for n in [48usize, 96] {
            for seed in [3u64, 11] {
                let spec =
                    GenSpec::parse(&format!("clustered:n={n},nf={n},c=4")).expect("valid spec");
                let cfg = RunConfig::new(0.1).with_seed(seed).with_k(4);
                let csr = dense_matches_csr(solver, &spec, &cfg, &format!("at n={n}, seed={seed}"));
                csr.validate().expect("structurally valid run");
            }
        }
    }
}

/// The sparse workloads dense graphs were never designed for must also be
/// backend-agnostic: power-law hubs and road grids, dense vs CSR.
#[test]
fn sparse_workloads_dense_and_csr_byte_identical() {
    for workload in ["powerlaw", "road"] {
        let spec = GenSpec::parse(&format!("{workload}:n=120,nf=120")).expect("valid spec");
        // Thresholds inside a power-law cluster stay below the 50-unit
        // grid separation; road blocks are 1.0 apart.
        let cfg = RunConfig::new(0.1).with_seed(9).with_threshold(3.0);
        for &solver in GRAPH_SOLVERS {
            dense_matches_csr(solver, &spec, &cfg, &format!("on '{workload}'"));
        }
    }
}

/// CSR runs are thread-count invariant in canonical form: the frontier
/// engine's direction switching and combines must depend only on the
/// graph, never on the worker pool.
#[test]
fn csr_runs_are_thread_count_invariant() {
    let registry = standard_registry();
    let spec = GenSpec::parse("clustered:n=80,nf=80,c=4").expect("valid spec");
    for &solver in GRAPH_SOLVERS {
        let cfg = RunConfig::new(0.1)
            .with_seed(5)
            .with_k(4)
            .with_graph(GraphBackend::Csr);
        let one = run_solver(&registry, solver, &spec, &cfg.clone().with_threads(1)).expect(solver);
        let four =
            run_solver(&registry, solver, &spec, &cfg.clone().with_threads(4)).expect(solver);
        assert_eq!(
            one.canonical_json(),
            four.canonical_json(),
            "'{solver}' on CSR diverged between 1 and 4 threads"
        );
    }
}

/// The graph backend is an execution detail like `Backend` and `threads`:
/// it must not leak into the canonical JSON at all (otherwise dense and
/// CSR artifacts could never be byte-compared).
#[test]
fn graph_backend_never_appears_in_canonical_json() {
    let registry = standard_registry();
    let spec = GenSpec::parse("uniform:n=40,nf=40").expect("valid spec");
    let cfg = RunConfig::new(0.1)
        .with_seed(2)
        .with_k(3)
        .with_graph(GraphBackend::Csr);
    let run = run_solver(&registry, "maxdom", &spec, &cfg).expect("csr run");
    let canon = run.canonical_json();
    assert!(
        !canon.contains("\"graph\"") && !canon.contains("csr"),
        "canonical JSON leaks the graph backend: {canon}"
    );
}

/// The sparse presets parse to their documented shapes and, scaled down,
/// drive a dominator run end to end on the CSR engine across the metric
/// backends.
#[test]
fn sparse_presets_scaled_down_run_on_csr() {
    let spec = GenSpec::parse("sparse-large").expect("sparse-large parses");
    assert_eq!(
        (spec.workload.as_str(), spec.n, spec.nf),
        ("road", 100_000, 100)
    );
    let spec = GenSpec::parse("sparse-xlarge").expect("sparse-xlarge parses");
    assert_eq!(
        (spec.workload.as_str(), spec.n, spec.nf),
        ("powerlaw", 1_000_000, 50)
    );

    let registry = standard_registry();
    let spec = GenSpec::parse("sparse-xlarge:n=600").expect("override parses");
    let cfg = RunConfig::new(0.1)
        .with_seed(7)
        .with_threshold(3.0)
        .with_graph(GraphBackend::Csr);
    let dense_metric = run_solver(&registry, "maxdom", &spec, &cfg).expect("dense-metric run");
    let spatial = run_solver(
        &registry,
        "maxdom",
        &spec,
        &cfg.clone().with_backend(Backend::Spatial),
    )
    .expect("spatial-metric run");
    assert_eq!(
        dense_metric.canonical_json(),
        spatial.canonical_json(),
        "maxdom on CSR diverged across metric backends"
    );
}

/// The acceptance run: a dominator-family solver completes on a 1M-vertex
/// sparse threshold graph with `--graph csr --backend spatial` — the
/// configuration the dense graph (931 GiB of adjacency) and the dense
/// metric (7.6 TiB matrix) can never reach. Ignored by default (release
/// wall clock); run explicitly with `-- --ignored`.
#[test]
#[ignore = "1M-vertex sparse acceptance run (release wall clock); run with -- --ignored"]
fn sparse_xlarge_csr_maxdom_completes() {
    let registry = standard_registry();
    let spec = GenSpec::parse("sparse-xlarge").expect("valid spec");
    // Power-law clusters have radius 1.0 on a 50-unit grid: threshold 3.0
    // keeps every cluster a clique and every pair of clusters disconnected.
    let cfg = RunConfig::new(0.1)
        .with_seed(7)
        .with_threshold(3.0)
        .with_backend(Backend::Spatial)
        .with_graph(GraphBackend::Csr);
    let run = run_solver(&registry, "maxdom", &spec, &cfg).expect("1M csr maxdom run");
    run.validate().expect("structurally valid run");
    assert_eq!(run.n, 1_000_000);
    assert_eq!(run.backend, Backend::Spatial);
    assert!(run.cost > 0.0 && run.cost.is_finite());
}

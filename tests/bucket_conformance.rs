//! Conformance tests for the bucket-driven k-center sketch radius deriver:
//! deterministic across thread counts and threshold-graph representations.
//! (Greedy's lazy bucket orders and primal-dual's bucket event loop are
//! pinned by the golden corpus in `tests/golden.rs` and by the reference
//! tests in `parfaclo-core`.)
//!
//! The sparse-xlarge acceptance run is `#[ignore]`d (release-build wall
//! clock) and executed explicitly:
//!
//! ```text
//! cargo test --release -p parfaclo-tests --test bucket_conformance -- --ignored
//! ```

use parfaclo_api::{Backend, GraphBackend, RadiusDeriver, RunConfig};
use parfaclo_bench::runner::{run_solver, GenSpec};
use parfaclo_bench::standard_registry;

/// The k-center sketch radius deriver must be deterministic across thread
/// counts and graph representations (its candidate sample is
/// value-independent and each probe mixes the candidate index into the
/// seed), even though it probes different thresholds than the exact path.
#[test]
fn kcenter_sketch_deterministic_across_threads_and_graphs() {
    let registry = standard_registry();
    let spec = GenSpec::parse("clustered:n=90,nf=90,c=5").expect("valid spec");
    let cfg = RunConfig::new(0.1)
        .with_seed(7)
        .with_k(5)
        .with_radius_deriver(RadiusDeriver::Sketch);
    let reference = run_solver(
        &registry,
        "kcenter",
        &spec,
        &cfg.clone().with_threads(1).with_graph(GraphBackend::Dense),
    )
    .expect("sketch run");
    for threads in [1usize, 4] {
        for graph in [GraphBackend::Dense, GraphBackend::Csr] {
            let run = run_solver(
                &registry,
                "kcenter",
                &spec,
                &cfg.clone().with_threads(threads).with_graph(graph),
            )
            .expect("sketch run");
            assert_eq!(
                reference.canonical_json(),
                run.canonical_json(),
                "kcenter sketch diverged at {threads} thread(s), graph {graph:?}"
            );
        }
    }
}

/// Acceptance: the sketch deriver lifts k-center to the sparse-xlarge
/// preset (1M power-law nodes), where the exact deriver's all-pairs
/// candidate sort is refused at the 4 GiB scratch cap. Deterministic at
/// any thread count; release wall clock, so `#[ignore]`d from tier 1.
#[test]
#[ignore = "1M-node acceptance run: needs --release wall clock (see module docs)"]
fn sparse_xlarge_kcenter_sketch_completes_and_exact_refuses() {
    let registry = standard_registry();
    let spec = GenSpec::parse("sparse-xlarge").expect("valid spec");
    let cfg = RunConfig::new(0.1)
        .with_seed(1)
        .with_k(64)
        .with_backend(Backend::Spatial);
    let exact = run_solver(
        &registry,
        "kcenter",
        &spec,
        &cfg.clone().with_radius_deriver(RadiusDeriver::Exact),
    );
    assert!(
        exact.is_err(),
        "exact deriver must refuse the 1M-node all-pairs candidate sort"
    );
    let a = run_solver(
        &registry,
        "kcenter",
        &spec,
        &cfg.clone()
            .with_radius_deriver(RadiusDeriver::Sketch)
            .with_threads(1),
    )
    .expect("sketch completes at sparse-xlarge");
    let b = run_solver(
        &registry,
        "kcenter",
        &spec,
        &cfg.clone()
            .with_radius_deriver(RadiusDeriver::Sketch)
            .with_threads(4),
    )
    .expect("sketch completes at sparse-xlarge");
    assert_eq!(a.canonical_json(), b.canonical_json());
    assert!(a.cost > 0.0, "radius must be positive on a spread instance");
}

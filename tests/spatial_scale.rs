//! Scale tests for the spatial index backend: the workloads that motivate
//! the subsystem, end to end through the CLI's own code path (`GenSpec` →
//! generator → registry solver → canonical Run JSON).
//!
//! The tier-1 tests run at a mid scale that finishes in seconds; the full
//! 10M-point `xxlarge` acceptance run is `#[ignore]`d (minutes of wall
//! clock) and executed explicitly by the CI perf job / release checklists:
//!
//! ```text
//! cargo test --release -p parfaclo-tests --test spatial_scale -- --ignored
//! ```

use parfaclo_api::{Backend, RunConfig};
use parfaclo_bench::runner::{run_solver, GenSpec};
use parfaclo_bench::standard_registry;
use parfaclo_metric::gen::{self, GenParams};
use parfaclo_metric::DistanceOracle;

/// Mid-scale greedy through the real runner path: the spatial backend must
/// reproduce the implicit backend's canonical Run JSON byte for byte while
/// reporting point-sized (never matrix-sized) oracle memory. This is the
/// same comparison the xlarge acceptance run makes, at a size tier-1 CI can
/// afford.
#[test]
fn greedy_mid_scale_spatial_matches_implicit_byte_for_byte() {
    let registry = standard_registry();
    let spec = GenSpec::parse("uniform:n=20000,nf=40").expect("valid spec");
    let cfg = RunConfig::new(0.1).with_seed(7);
    let implicit = run_solver(
        &registry,
        "greedy",
        &spec,
        &cfg.clone().with_backend(Backend::Implicit),
    )
    .expect("implicit run");
    let spatial = run_solver(
        &registry,
        "greedy",
        &spec,
        &cfg.clone().with_backend(Backend::Spatial),
    )
    .expect("spatial run");
    assert_eq!(
        implicit.canonical_json(),
        spatial.canonical_json(),
        "spatial backend diverged from implicit at n=20000"
    );
    assert_eq!(spatial.backend, Backend::Spatial);
    // 20040 points: well under a megabyte per side even with index arrays —
    // the 160 MB dense matrix must never be materialised.
    assert!(
        spatial.memory_bytes < 10_000_000,
        "spatial oracle memory {} is not point-sized",
        spatial.memory_bytes
    );
}

/// The `xxlarge` preset parses to the documented 10M × 100 shape and its
/// spatial instance construction works at a scaled-down size through the
/// exact same constructor path (`xxlarge:n=...` override).
#[test]
fn xxlarge_preset_shape_and_scaled_down_construction() {
    let spec = GenSpec::parse("xxlarge").expect("xxlarge parses");
    assert_eq!((spec.n, spec.nf), (10_000_000, 100));
    // Same preset, overridden to a testable size: constructs a spatial
    // instance and serves index-accelerated queries.
    let spec = GenSpec::parse("xxlarge:n=50000").expect("override parses");
    let inst = gen::build_facility_location(spec.params(3), Backend::Spatial).expect("generate");
    assert_eq!(inst.num_clients(), 50_000);
    assert_eq!(inst.num_facilities(), 100);
    let oracle = inst.distances();
    let (nearest, d) = oracle.row_min(12345).expect("nearest facility");
    assert!(nearest < 100 && d.is_finite());
    // Index answer == scan answer on a sampled row.
    let scan = (0..100)
        .map(|i| (i, inst.dist(12345, i)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)))
        .unwrap();
    assert_eq!((nearest, d), scan);
}

/// The acceptance run: `parfaclo run greedy --gen xxlarge --backend spatial`
/// completes. 10M clients × 100 facilities — only practical because the
/// bipartite-graph, dual-feasibility and assignment phases run through the
/// spatial index instead of O(n) sweeps. Ignored by default (several
/// minutes); run explicitly with `-- --ignored`.
#[test]
#[ignore = "10M-point acceptance run (minutes); run with -- --ignored"]
fn xxlarge_spatial_run_completes() {
    let registry = standard_registry();
    let spec = GenSpec::parse("xxlarge").expect("valid spec");
    let cfg = RunConfig::new(0.25)
        .with_seed(7)
        .with_backend(Backend::Spatial);
    let run = run_solver(&registry, "greedy", &spec, &cfg).expect("xxlarge spatial run");
    run.validate().expect("structurally valid run");
    assert_eq!(run.n, 10_000_000);
    assert_eq!(run.backend, Backend::Spatial);
    assert!(run.cost > 0.0 && run.cost.is_finite());
    // Point-sized memory: ~10M points must stay far under the 8 GB dense
    // matrix (10M × 100 × 8 bytes).
    assert!(run.memory_bytes < 2_000_000_000, "{}", run.memory_bytes);
}

/// Spatial clustering instances serve the threshold-graph and center
/// queries identically to the dense backend at a few thousand nodes (the
/// scale the k-center binary search actually probes). The radii straddle
/// the spatial oracle's range-query-or-sweep rule: 5% of the diameter keeps
/// the grid's window small, node 0's median distance and the diameter send
/// the query to the blocked sweep.
#[test]
fn clustering_spatial_queries_match_dense_at_scale() {
    let params = GenParams::gaussian_clusters(3000, 3000, 12).with_seed(5);
    let dense = gen::clustering(params);
    let spatial = gen::build_clustering(params, Backend::Spatial).expect("O(n) construction");
    let d_oracle = dense.distances();
    let s_oracle = spatial.distances();
    let max = d_oracle.max_entry();
    for radius in [max * 0.05, median_distance(d_oracle.row_to_vec(0)), max] {
        for node in [0usize, 777, 1500, 2999] {
            assert_eq!(
                d_oracle.cols_within(node, radius),
                s_oracle.cols_within(node, radius),
                "node {node} radius {radius}"
            );
        }
    }
    for node in [0usize, 777, 1500, 2999] {
        assert_eq!(d_oracle.row_min(node), s_oracle.row_min(node));
    }
    let centers: Vec<usize> = (0..3000).step_by(250).collect();
    assert_eq!(
        dense.center_assignment(&centers),
        spatial.center_assignment(&centers)
    );
    assert_eq!(
        dense.kmedian_cost(&centers).to_bits(),
        spatial.kmedian_cost(&centers).to_bits()
    );
}

/// The same rule on a rectangular facility-location instance: both point
/// sides exceed the flat-scan cutoff (64), so `rows_within` queries the
/// client grid and `cols_within` the facility grid, on both sides of the
/// range-query-or-sweep rule.
#[test]
fn facility_location_range_queries_match_dense_at_scale() {
    let params = GenParams::gaussian_clusters(2000, 150, 6).with_seed(11);
    let dense = gen::facility_location(params);
    let spatial = gen::build_facility_location(params, Backend::Spatial).expect("construction");
    let d_oracle = dense.distances();
    let s_oracle = spatial.distances();
    let max = d_oracle.max_entry();
    let mut column = vec![0.0; d_oracle.rows()];
    d_oracle.col_range_into(0, 0, &mut column);
    for radius in [max * 0.05, median_distance(column), max] {
        for facility in [0usize, 71, 149] {
            assert_eq!(
                d_oracle.rows_within(facility, radius),
                s_oracle.rows_within(facility, radius),
                "facility {facility} radius {radius}"
            );
        }
        for client in [0usize, 999, 1999] {
            assert_eq!(
                d_oracle.cols_within(client, radius),
                s_oracle.cols_within(client, radius),
                "client {client} radius {radius}"
            );
        }
    }
}

fn median_distance(mut distances: Vec<f64>) -> f64 {
    distances.sort_by(f64::total_cmp);
    distances[distances.len() / 2]
}

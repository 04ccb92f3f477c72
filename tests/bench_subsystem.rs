//! End-to-end test of the measurement subsystem: the bench matrix runner,
//! the `parfaclo.bench.v2` artifact, and the baseline comparator — the exact
//! code path the CI `perf-smoke` job drives through the `parfaclo bench`
//! CLI.

use parfaclo_api::{Backend, Coreset, RunConfig};
use parfaclo_bench::bench::{compare, run_matrix, BenchArtifact, BenchMatrix, BENCH_V2_SCHEMA};
use parfaclo_bench::standard_registry;
use std::collections::BTreeSet;
use std::path::Path;

fn smoke_matrix() -> BenchMatrix {
    BenchMatrix {
        solvers: vec!["greedy".to_string(), "kcenter".to_string()],
        workloads: vec!["uniform".to_string(), "clustered".to_string()],
        n: 32,
        nf: 16,
        backends: vec![Backend::Dense, Backend::Implicit],
        // One coreset setting keeps the cell pairing below exact; the
        // coreset axis has its own coverage in the bench crate and in
        // coreset_conformance.rs.
        coresets: vec![Coreset::Off],
        threads: vec![1, 4],
        warmup: 1,
        trials: 2,
    }
}

fn smoke_config() -> RunConfig {
    RunConfig::new(0.1).with_seed(7).with_k(4)
}

#[test]
fn matrix_to_artifact_to_comparator_round_trip() {
    let registry = standard_registry();
    let matrix = smoke_matrix();
    let (artifact, runs) = run_matrix(&registry, &matrix, &smoke_config()).expect("matrix runs");

    // Every cell measured, every cell byte-deterministic across trials.
    assert_eq!(artifact.records.len(), 2 * 2 * 2 * 2);
    assert_eq!(runs.len(), artifact.records.len());
    for rec in &artifact.records {
        assert!(rec.deterministic, "{} violated determinism", rec.key());
        assert_eq!(rec.stats.trials, 2);
        assert!(rec.memory_bytes > 0);
    }
    // Implicit cells must report less distance-storage memory than dense
    // ones for the same (solver, workload, threads).
    for dense in artifact
        .records
        .iter()
        .filter(|r| r.backend == Backend::Dense)
    {
        let implicit = artifact
            .records
            .iter()
            .find(|r| {
                r.backend == Backend::Implicit
                    && r.solver == dense.solver
                    && r.workload == dense.workload
                    && r.threads == dense.threads
            })
            .expect("matching implicit cell");
        assert!(
            implicit.memory_bytes < dense.memory_bytes,
            "{}: implicit {} >= dense {}",
            dense.key(),
            implicit.memory_bytes,
            dense.memory_bytes
        );
        // Work charges are backend-invariant (same algorithm, same meter).
        assert_eq!(implicit.work.element_ops, dense.work.element_ops);
    }

    // Serialise → parse is the identity, and the text carries the schema
    // tag plus the machine fingerprint.
    let text = artifact.to_json();
    assert!(text.contains(BENCH_V2_SCHEMA));
    assert!(text.contains("\"machine\""));
    let parsed = BenchArtifact::parse(&text).expect("artifact parses");
    assert_eq!(parsed, artifact);

    // Self-comparison joins every cell, finds no regressions at any
    // threshold, and has a geomean of exactly 1.
    let report = compare(&parsed, &artifact).unwrap();
    assert_eq!(report.rows.len(), artifact.records.len());
    assert!(report.missing.is_empty() && report.added.is_empty());
    assert!(report.regressions(0.0).is_empty());
    assert!((report.geomean_ratio() - 1.0).abs() < 1e-12);
}

#[test]
fn regressions_are_caught_and_subsets_compare_cleanly() {
    let registry = standard_registry();
    let mut matrix = smoke_matrix();
    matrix.backends = vec![Backend::Dense];
    matrix.threads = vec![1];
    let (baseline, _) = run_matrix(&registry, &matrix, &smoke_config()).expect("baseline runs");

    // A 10x-slower clone of one cell must trip the generous CI threshold.
    let mut slow = baseline.clone();
    slow.records[0].stats.median_ms = baseline.records[0].stats.median_ms.max(0.001) * 10.0;
    let report = compare(&baseline, &slow).unwrap();
    let regressions = report.regressions(300.0);
    assert_eq!(regressions.len(), 1);
    assert_eq!(regressions[0].key, baseline.records[0].key());

    // A narrower re-measurement (solver subset) joins only its own cells;
    // the baseline's extra cells are reported missing, never regressed.
    let mut narrow = matrix.clone();
    narrow.solvers = vec!["greedy".to_string()];
    let (current, _) = run_matrix(&registry, &narrow, &smoke_config()).expect("subset runs");
    let report = compare(&baseline, &current).unwrap();
    assert_eq!(report.rows.len(), current.records.len());
    assert_eq!(
        report.missing.len(),
        baseline.records.len() - current.records.len()
    );
    assert!(report.added.is_empty());
}

#[test]
fn repeated_matrices_agree_on_everything_but_wall_clock() {
    let registry = standard_registry();
    let mut matrix = smoke_matrix();
    matrix.workloads = vec!["uniform".to_string()];
    matrix.backends = vec![Backend::Dense];
    let (a, runs_a) = run_matrix(&registry, &matrix, &smoke_config()).expect("first run");
    let (b, runs_b) = run_matrix(&registry, &matrix, &smoke_config()).expect("second run");
    assert_eq!(a.records.len(), b.records.len());
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.key(), rb.key());
        assert_eq!(ra.work, rb.work, "{}: meter charges drifted", ra.key());
        assert_eq!(ra.memory_bytes, rb.memory_bytes);
    }
    // The canonical run records — results, not timing — are byte-identical
    // across whole matrix invocations.
    for (ra, rb) in runs_a.iter().zip(&runs_b) {
        assert_eq!(ra.canonical_json(), rb.canonical_json());
        // While the full records carry the trial statistics block.
        assert!(ra.to_json().contains("\"trials\""));
    }
}

/// Every committed `BENCH_*.json` at the repository root parses, and no two
/// of its records share a cell key, so the comparator joins each baseline
/// cell exactly once.
#[test]
fn committed_baselines_parse_with_unique_cell_keys() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut checked = 0;
    for entry in std::fs::read_dir(&root).expect("repository root") {
        let path = entry.expect("directory entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable baseline");
        let artifact = BenchArtifact::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut keys = BTreeSet::new();
        for rec in &artifact.records {
            assert!(
                keys.insert(rec.key()),
                "{name}: duplicate cell {}",
                rec.key()
            );
        }
        checked += 1;
    }
    assert!(checked > 0, "no BENCH_*.json under {}", root.display());
}

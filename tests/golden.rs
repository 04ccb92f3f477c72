//! Golden canonical corpus: the canonical output of every registered solver
//! on a fixed grid of small workloads, committed under `tests/golden/`.
//!
//! Each `tests/golden/<solver>.golden` file holds one line per cell with
//! three space-separated fields: the cell id, the FNV-1a-64 hash of the
//! run's canonical trace (recorded under a rounds-level tracer), and the
//! run's canonical JSON. A refactor that changes no output leaves every line
//! byte-identical; one that does change output shows up here as a diff that
//! names the cell.
//!
//! Cells: every registered solver on three 40-client workloads at seeds 1
//! and 2 (seed 1 on the dense backend, dense graphs and one thread; seed 2
//! on the spatial backend, CSR graphs and four threads), plus greedy and
//! primal-dual on a 200 × 48 instance whose `m` is above the parallel grain,
//! once with defaults and once with preprocessing and subselection off.
//!
//! Re-bless after an intended output change (and explain the diff in the
//! commit message):
//!
//! ```text
//! cargo test -p parfaclo-tests --test golden -- --ignored bless_golden_corpus
//! ```

use parfaclo_api::{Backend, GraphBackend, RunConfig};
use parfaclo_bench::runner::{run_solver, GenSpec};
use parfaclo_bench::standard_registry;
use parfaclo_trace::{install, TraceDetail, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

const BLESS: &str = "cargo test -p parfaclo-tests --test golden -- --ignored bless_golden_corpus";

const WORKLOADS: &[&str] = &[
    "uniform:n=40,nf=10",
    "clustered:n=40,nf=10,c=4",
    "grid:n=40,nf=10",
];

/// `m = 9600`, above the 2048-element parallel grain.
const PARALLEL_SIZED: &str = "uniform:n=200,nf=48";

struct Cell {
    id: String,
    spec: &'static str,
    cfg: RunConfig,
}

/// Seed 1 pins the dense/dense/1-thread configuration, seed 2 the
/// benchmark's spatial/CSR/4-thread one.
fn seeded(seed: u64) -> (String, RunConfig) {
    let (backend, graph, threads) = match seed {
        1 => (Backend::Dense, GraphBackend::Dense, 1),
        _ => (Backend::Spatial, GraphBackend::Csr, 4),
    };
    let cfg = RunConfig::new(0.1)
        .with_seed(seed)
        .with_k(4)
        .with_backend(backend)
        .with_graph(graph)
        .with_threads(threads);
    let label = format!("seed={seed},backend={backend},graph={graph},threads={threads}");
    (label, cfg)
}

fn cells(solver: &str) -> Vec<Cell> {
    let mut out = Vec::new();
    for &spec in WORKLOADS {
        for seed in [1, 2] {
            let (label, cfg) = seeded(seed);
            out.push(Cell {
                id: format!("{spec}/{label}"),
                spec,
                cfg,
            });
        }
    }
    if matches!(solver, "greedy" | "primal-dual") {
        let (label, cfg) = seeded(2);
        out.push(Cell {
            id: format!("{PARALLEL_SIZED}/{label}"),
            spec: PARALLEL_SIZED,
            cfg: cfg.clone(),
        });
        out.push(Cell {
            id: format!("{PARALLEL_SIZED}/{label},preprocess=off,subselection=off"),
            spec: PARALLEL_SIZED,
            cfg: cfg.with_preprocess(false).with_subselection(false),
        });
    }
    out
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs every cell of every registered solver: solver name → ordered
/// `(cell id, line)` records.
fn actual_corpus() -> BTreeMap<String, Vec<(String, String)>> {
    let registry = standard_registry();
    let mut corpus = BTreeMap::new();
    for solver in registry.names() {
        let lines = cells(solver)
            .into_iter()
            .map(|cell| {
                let spec = GenSpec::parse(cell.spec).expect("valid spec");
                let tracer = Arc::new(Tracer::new(TraceDetail::Rounds));
                let guard = install(Arc::clone(&tracer));
                let run = run_solver(&registry, solver, &spec, &cell.cfg)
                    .unwrap_or_else(|e| panic!("{solver} {}: {e}", cell.id));
                drop(guard);
                let hash = fnv1a64(tracer.canonical_json().as_bytes());
                let line = format!("{} {hash:016x} {}", cell.id, run.canonical_json());
                (cell.id, line)
            })
            .collect();
        corpus.insert(solver.to_string(), lines);
    }
    corpus
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// The committed corpus: solver name → `(cell id, line)` records.
fn committed_corpus() -> BTreeMap<String, Vec<(String, String)>> {
    let mut corpus = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(golden_dir()) else {
        return corpus;
    };
    for entry in entries {
        let path = entry.expect("readable golden dir").path();
        let Some(solver) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_suffix(".golden"))
        else {
            continue;
        };
        let text = std::fs::read_to_string(&path).expect("readable golden file");
        let lines = text
            .lines()
            .map(|line| {
                let id = line.split(' ').next().unwrap_or_default();
                (id.to_string(), line.to_string())
            })
            .collect();
        corpus.insert(solver.to_string(), lines);
    }
    corpus
}

#[test]
fn golden_corpus_matches() {
    let actual = actual_corpus();
    let committed = committed_corpus();
    let mut problems = Vec::new();
    for (solver, lines) in &actual {
        for (id, line) in lines {
            match committed
                .get(solver)
                .and_then(|l| l.iter().find(|(i, _)| i == id))
            {
                Some((_, want)) if want == line => {}
                Some((_, want)) => problems.push(format!(
                    "differs: {solver} {id}\n  expected: {want}\n  actual:   {line}"
                )),
                None => problems.push(format!("missing: {solver} {id}\n  actual:   {line}")),
            }
        }
    }
    for (solver, lines) in &committed {
        let live = actual.get(solver);
        for (id, line) in lines {
            if !live.is_some_and(|l| l.iter().any(|(a, _)| a == id)) {
                problems.push(format!("stale: {solver} {id}\n  expected: {line}"));
            }
        }
    }
    assert!(
        problems.is_empty(),
        "{} golden cell(s) out of date:\n{}\n\nIf the change is intended, re-bless with\n  {BLESS}\n\
         and explain the diff in the commit message.",
        problems.len(),
        problems.join("\n")
    );
}

#[test]
#[ignore = "rewrites tests/golden/; run explicitly after an intended output change"]
fn bless_golden_corpus() {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("create golden dir");
    let actual = actual_corpus();
    for solver in committed_corpus().keys() {
        if !actual.contains_key(solver) {
            std::fs::remove_file(dir.join(format!("{solver}.golden"))).expect("remove stale file");
        }
    }
    for (solver, lines) in &actual {
        let text: String = lines.iter().map(|(_, line)| format!("{line}\n")).collect();
        std::fs::write(dir.join(format!("{solver}.golden")), text).expect("write golden file");
    }
}

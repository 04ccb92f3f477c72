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
//! and 2 (seed 1 on the dense backend and one thread; seed 2 on the spatial
//! backend and four threads), plus greedy and
//! primal-dual on a 200 × 48 instance whose `m` is above the parallel grain,
//! once with defaults and once with preprocessing and subselection off, and
//! the clustering and dominator solvers on a 400-node instance in both seeded
//! configurations, whose 79,800 half-matrix distance keys are above the
//! parallel sort's sequential cutoff.
//!
//! k-center also runs the three workloads and the 400-node instance under the
//! sketch radius deriver, and k-center and the two local searches solve the
//! 400-node instance through an ε = 0.1 coreset, each in both seeded
//! configurations.
//!
//! A mismatch names each differing cell, whether its trace hash moved, and
//! every Run-JSON field whose value changed (object fields such as `work`
//! one level deep), so the test output is the diff to explain. Re-bless
//! after an intended output change (and explain the diff in the commit
//! message):
//!
//! ```text
//! cargo test -p parfaclo-tests --test golden -- --ignored bless_golden_corpus
//! ```

use parfaclo_api::json::JsonValue;
use parfaclo_api::{Backend, Coreset, RadiusDeriver, RunConfig};
use parfaclo_bench::runner::{run_solver, GenSpec};
use parfaclo_bench::standard_registry;
use parfaclo_trace::{install, TraceDetail, Tracer};
use std::collections::BTreeMap;
use std::convert::identity;
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

/// `n = 400`: 79,800 distinct-pair distances, above the 16,384-element
/// cutoff below which the shim sorts sequentially.
const CLUSTER_SIZED: &str = "uniform:n=400";

struct Cell {
    id: String,
    spec: &'static str,
    cfg: RunConfig,
}

/// Seed 1 pins the dense/1-thread configuration, seed 2 the benchmark's
/// spatial/4-thread one.
fn seeded(seed: u64) -> (String, RunConfig) {
    let (backend, threads) = match seed {
        1 => (Backend::Dense, 1),
        _ => (Backend::Spatial, 4),
    };
    let cfg = RunConfig::new(0.1)
        .with_seed(seed)
        .with_k(4)
        .with_backend(backend)
        .with_threads(threads);
    let label = format!("seed={seed},backend={backend},threads={threads}");
    (label, cfg)
}

/// The cell of `spec` in seed `seed`'s configuration; a non-empty `variant`
/// labels the change `tweak` makes to that configuration.
fn cell(
    spec: &'static str,
    seed: u64,
    variant: &str,
    tweak: impl FnOnce(RunConfig) -> RunConfig,
) -> Cell {
    let (label, cfg) = seeded(seed);
    Cell {
        id: format!("{spec}/{label}{variant}"),
        spec,
        cfg: tweak(cfg),
    }
}

fn cells(solver: &str) -> Vec<Cell> {
    let mut out = Vec::new();
    for &spec in WORKLOADS {
        out.extend([1, 2].map(|seed| cell(spec, seed, "", identity)));
    }
    if matches!(solver, "greedy" | "primal-dual") {
        out.push(cell(PARALLEL_SIZED, 2, "", identity));
        let ablated = |cfg: RunConfig| cfg.with_preprocess(false).with_subselection(false);
        let variant = ",preprocess=off,subselection=off";
        out.push(cell(PARALLEL_SIZED, 2, variant, ablated));
    }
    if matches!(
        solver,
        "kcenter" | "hs-kcenter" | "maxdom" | "mis" | "kmedian-ls" | "kmeans-ls"
    ) {
        out.extend([1, 2].map(|seed| cell(CLUSTER_SIZED, seed, "", identity)));
    }
    if solver == "kcenter" {
        let sketch = |cfg: RunConfig| cfg.with_radius_deriver(RadiusDeriver::Sketch);
        for &spec in WORKLOADS.iter().chain(&[CLUSTER_SIZED]) {
            out.extend([1, 2].map(|seed| cell(spec, seed, ",radius-deriver=sketch", sketch)));
        }
    }
    if matches!(solver, "kcenter" | "kmedian-ls" | "kmeans-ls") {
        let coreset = |cfg: RunConfig| cfg.with_coreset(Coreset::Eps(0.1));
        out.extend([1, 2].map(|seed| cell(CLUSTER_SIZED, seed, ",coreset=eps:0.1", coreset)));
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

/// The trace hash and Run-JSON object fields of one golden line
/// (`<cell id> <hash> <json>`), or `None` if the JSON does not parse.
fn parse_line(line: &str) -> Option<(&str, Vec<(String, JsonValue)>)> {
    let mut parts = line.splitn(3, ' ');
    parts.next()?;
    let hash = parts.next()?;
    match JsonValue::parse(parts.next()?).ok()? {
        JsonValue::Object(fields) => Some((hash, fields)),
        _ => None,
    }
}

/// The value of `key` among an object's fields.
fn field<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A field value for a mismatch report, cut to 72 characters.
fn show(value: Option<&JsonValue>) -> String {
    let text = value.map_or("(absent)".to_string(), ToString::to_string);
    match text.char_indices().nth(72) {
        Some((cut, _)) => format!("{}…", &text[..cut]),
        None => text,
    }
}

/// Appends an indented `path: old -> new` line for every field of `want` or
/// `got` whose value differs, in `want`'s field order and then `got`'s new
/// fields. Fields that are objects on both sides are compared one level
/// deeper when `descend`.
fn diff_fields(
    prefix: &str,
    want: &[(String, JsonValue)],
    got: &[(String, JsonValue)],
    descend: bool,
    out: &mut Vec<String>,
) {
    let added = got.iter().filter(|(k, _)| field(want, k).is_none());
    for (key, _) in want.iter().chain(added) {
        let (w, g) = (field(want, key), field(got, key));
        if w.map(ToString::to_string) == g.map(ToString::to_string) {
            continue;
        }
        match (w, g) {
            (Some(JsonValue::Object(wf)), Some(JsonValue::Object(gf))) if descend => {
                diff_fields(&format!("{prefix}{key}."), wf, gf, false, out);
            }
            _ => out.push(format!("  {prefix}{key}: {} -> {}", show(w), show(g))),
        }
    }
}

/// Explains a differing cell: whether the trace hash moved and which fields
/// changed. Falls back to both raw lines if either JSON does not parse.
fn explain(want: &str, got: &str) -> String {
    let (Some((want_hash, want_fields)), Some((got_hash, got_fields))) =
        (parse_line(want), parse_line(got))
    else {
        return format!("  expected: {want}\n  actual:   {got}");
    };
    let mut out = vec![if want_hash == got_hash {
        "  trace hash unchanged".to_string()
    } else {
        format!("  trace hash: {want_hash} -> {got_hash}")
    }];
    diff_fields("", &want_fields, &got_fields, true, &mut out);
    out.join("\n")
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
                Some((_, want)) => {
                    problems.push(format!("differs: {solver} {id}\n{}", explain(want, line)))
                }
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

//! The measurement subsystem: a workload-matrix benchmark runner, the
//! versioned `parfaclo.bench.v2` artifact, and the baseline comparator.
//!
//! The paper's claims are quantitative, so performance has to be a tested
//! property: [`run_matrix`] sweeps a (solver × workload × backend × thread
//! count) matrix with warmup and repeated trials, summarising each cell as a
//! [`parfaclo_api::TrialStats`] plus memory and meter charges, and
//! self-certifying determinism by byte-comparing every trial's canonical
//! JSON against the first. [`BenchArtifact`] serialises the result with a
//! machine fingerprint; [`compare`] diffs two artifacts cell-by-cell and
//! classifies each as improved / unchanged / regressed against a threshold,
//! which is what the CI `perf-smoke` job gates on.

use crate::runner::{run_solver_cached, GenSpec, InstanceCache};
use parfaclo_api::json::{JsonObject, JsonValue};
use parfaclo_api::{Backend, Coreset, GraphBackend, Registry, Run, RunConfig, TrialStats};
use parfaclo_matrixops::CostReport;

/// Schema tag of the matrix-benchmark artifact; bump on shape changes.
/// (`parfaclo.bench.v1` was the speedup artifact of the removed
/// `suite --emit-bench` path: one-shot threads=1 vs threads=N wall-clocks
/// with no trial statistics. Parsing rejects it with a pointer here.)
pub const BENCH_V2_SCHEMA: &str = "parfaclo.bench.v2";

/// Where the measurements were taken: enough to judge whether two artifacts
/// are comparable at all (a laptop baseline vs a CI runner is apples to
/// oranges; the comparator prints both fingerprints so the reader can tell).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineFingerprint {
    /// Logical CPUs visible to the process.
    pub cpus: usize,
    /// `git` commit hash the binary was run against (`unknown` outside a
    /// repository).
    pub commit: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
}

impl MachineFingerprint {
    /// Detects the current machine: CPU count, best-effort `git rev-parse
    /// HEAD`, and the compile-time OS/arch constants.
    pub fn detect() -> Self {
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        MachineFingerprint {
            cpus: std::thread::available_parallelism().map_or(1, |p| p.get()),
            commit,
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
        }
    }

    fn to_json_value(&self) -> JsonValue {
        JsonObject::new()
            .uint("cpus", self.cpus as u64)
            .string("commit", &self.commit)
            .string("os", &self.os)
            .string("arch", &self.arch)
            .build()
    }

    fn from_json_value(value: &JsonValue) -> Result<Self, String> {
        let string = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("fingerprint missing string field '{key}'"))
        };
        Ok(MachineFingerprint {
            cpus: value
                .get("cpus")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| "fingerprint missing field 'cpus'".to_string())?
                as usize,
            commit: string("commit")?,
            os: string("os")?,
            arch: string("arch")?,
        })
    }

    /// One-line human-readable form for table headers. The commit is
    /// abbreviated by characters, not bytes — artifact files are
    /// user-editable, so the field is not guaranteed to be a hex hash.
    pub fn describe(&self) -> String {
        let short: String = self.commit.chars().take(12).collect();
        format!(
            "{} cpus, {}/{}, commit {short}",
            self.cpus, self.os, self.arch
        )
    }
}

/// The solver-configuration slice that changes what a cell *measures* (as
/// opposed to the sweep dimensions, which are part of each cell's key).
/// Stored once per artifact — [`run_matrix`] applies one configuration to
/// every cell — and checked by [`compare`]: artifacts measured under
/// different configurations are never joined, because a seed or `k` change
/// alters the instances and the work several-fold.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchConfig {
    /// Generator / solver seed.
    pub seed: u64,
    /// Solver ε.
    pub epsilon: f64,
    /// Centers for the clustering/dominator solvers.
    pub k: usize,
    /// Round-bounding preprocessing enabled.
    pub preprocess: bool,
    /// Greedy subselection vote enabled.
    pub subselection: bool,
    /// Explicit dominator threshold (`None` derives from the instance).
    pub threshold: Option<f64>,
    /// k-center radius-deriver label (`exact` / `sketch`). The sketch
    /// probes different thresholds, so it is a measurement-relevant knob.
    pub radius_deriver: String,
}

impl BenchConfig {
    /// Projects the measurement-relevant fields out of a [`RunConfig`].
    pub fn from_run_config(cfg: &RunConfig) -> Self {
        BenchConfig {
            seed: cfg.seed,
            epsilon: cfg.epsilon,
            k: cfg.k,
            preprocess: cfg.preprocess,
            subselection: cfg.subselection,
            threshold: cfg.threshold,
            radius_deriver: cfg.radius_deriver.as_str().to_string(),
        }
    }

    fn to_json_value(&self) -> JsonValue {
        JsonObject::new()
            .uint("seed", self.seed)
            .number("epsilon", self.epsilon)
            .uint("k", self.k as u64)
            .bool("preprocess", self.preprocess)
            .bool("subselection", self.subselection)
            .field(
                "threshold",
                match self.threshold {
                    Some(t) => JsonValue::Number(t),
                    None => JsonValue::Null,
                },
            )
            .string("radius_deriver", &self.radius_deriver)
            .build()
    }

    fn from_json_value(value: &JsonValue) -> Result<Self, String> {
        let missing = |key: &str| format!("bench config missing field '{key}'");
        Ok(BenchConfig {
            seed: value
                .get("seed")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| missing("seed"))?,
            epsilon: value
                .get("epsilon")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| missing("epsilon"))?,
            k: value
                .get("k")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| missing("k"))? as usize,
            preprocess: value
                .get("preprocess")
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| missing("preprocess"))?,
            subselection: value
                .get("subselection")
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| missing("subselection"))?,
            threshold: match value.get("threshold") {
                None => return Err(missing("threshold")),
                Some(JsonValue::Null) => None,
                Some(v) => Some(v.as_f64().ok_or_else(|| missing("threshold"))?),
            },
            // Optional on parse: artifacts written before the radius-deriver
            // knob existed were all measured under the then-only exact path.
            // Older artifacts' `engine` and `policy` keys are ignored.
            radius_deriver: match value.get("radius_deriver") {
                None => "exact".to_string(),
                Some(v) => v
                    .as_str()
                    .ok_or_else(|| {
                        "bench config field 'radius_deriver' must be a string".to_string()
                    })?
                    .to_string(),
            },
        })
    }
}

/// The benchmark matrix: every combination of solver, workload, backend and
/// thread count becomes one measured cell.
#[derive(Debug, Clone)]
pub struct BenchMatrix {
    /// Registry names of the solvers to measure.
    pub solvers: Vec<String>,
    /// Workload entries. A bare workload name (`uniform`, `clustered`,
    /// `grid`, `line`, `planted`) is measured at the matrix's `n`/`nf`; the
    /// `large`/`xlarge` presets and explicit `name:key=value` specs keep
    /// their own dimensions.
    pub workloads: Vec<String>,
    /// Client/node count bare workload names are measured at.
    pub n: usize,
    /// Candidate-facility count for bare workload names.
    pub nf: usize,
    /// Distance backends to sweep.
    pub backends: Vec<Backend>,
    /// Threshold-graph representations to sweep. Only the solvers that
    /// read the knob (see [`solver_uses_graph`]) fan out over this axis —
    /// the rest never build a threshold graph from it, so sweeping them
    /// over graph backends would duplicate identical cells.
    pub graphs: Vec<GraphBackend>,
    /// Coreset settings to sweep. Only the clustering solvers (see
    /// [`solver_uses_coreset`]) fan out over this axis — the
    /// facility-location and dominator solvers ignore the knob, so sweeping
    /// them over coresets would duplicate identical cells.
    pub coresets: Vec<Coreset>,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Untimed warmup runs per cell (page in the instance, warm the
    /// allocator and the thread pool).
    pub warmup: usize,
    /// Timed trials per cell.
    pub trials: usize,
}

impl Default for BenchMatrix {
    /// The committed-baseline matrix: one solver per problem family plus the
    /// second facility-location algorithm, two workloads, all three distance
    /// backends, both graph backends (swept on `maxdom`), threads {1, 4} —
    /// small enough to run in seconds, wide enough to touch every layer
    /// (solver families, generator presets, every oracle backend, both
    /// threshold-graph representations, pool sizes). `n = 128` deliberately
    /// exceeds the spatial planner's flat-scan cutoff (64), so the spatial
    /// cells exercise — and byte-certify — the real grid index, not the
    /// fallback.
    fn default() -> Self {
        BenchMatrix {
            solvers: ["greedy", "primal-dual", "kcenter", "maxdom"]
                .map(String::from)
                .to_vec(),
            workloads: ["uniform", "clustered"].map(String::from).to_vec(),
            n: 128,
            nf: 64,
            backends: vec![Backend::Dense, Backend::Implicit, Backend::Spatial],
            graphs: vec![GraphBackend::Dense, GraphBackend::Csr],
            coresets: vec![Coreset::Off],
            threads: vec![1, 4],
            warmup: 1,
            trials: 3,
        }
    }
}

/// Whether a registry solver reads [`RunConfig::graph`] — and therefore
/// whether the bench matrix's graph axis applies to it. Only the dominator
/// family thresholds the instance in the requested representation
/// (k-center's searches always probe nested CSR graphs); sweeping graph
/// backends over any other solver would measure identical cells twice.
pub fn solver_uses_graph(name: &str) -> bool {
    matches!(name, "maxdom" | "mis")
}

/// Whether a registry solver consults the [`RunConfig::coreset`] knob — and
/// therefore whether the bench matrix's coreset axis applies to it. The
/// knob belongs to the k-clustering family (hierarchical coreset solve);
/// every other solver ignores it, so sweeping coresets over it would
/// measure identical cells twice.
pub fn solver_uses_coreset(name: &str) -> bool {
    matches!(name, "kcenter" | "kmedian-ls" | "kmeans-ls")
}

impl BenchMatrix {
    /// Number of cells the matrix will measure: solvers that read the graph
    /// knob fan out over the graph axis, coreset-aware solvers over the
    /// coreset axis; the rest contribute one cell per (workload, backend,
    /// thread) combination.
    pub fn cells(&self) -> usize {
        let solver_cells: usize = self
            .solvers
            .iter()
            .map(|s| {
                let graphs = if solver_uses_graph(s) {
                    self.graphs.len()
                } else {
                    1
                };
                let coresets = if solver_uses_coreset(s) {
                    self.coresets.len()
                } else {
                    1
                };
                graphs * coresets
            })
            .sum();
        solver_cells * self.workloads.len() * self.backends.len() * self.threads.len()
    }

    fn validate(&self) -> Result<(), String> {
        if self.solvers.is_empty()
            || self.workloads.is_empty()
            || self.backends.is_empty()
            || self.graphs.is_empty()
            || self.coresets.is_empty()
            || self.threads.is_empty()
        {
            return Err("bench matrix has an empty dimension".to_string());
        }
        if self.trials == 0 {
            return Err("bench needs at least one trial per cell".to_string());
        }
        Ok(())
    }
}

/// One measured cell of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Registry name of the solver.
    pub solver: String,
    /// Workload the instance was generated from.
    pub workload: String,
    /// Instance client/node count.
    pub n: usize,
    /// Instance candidate-facility count.
    pub nf: usize,
    /// Blob count of the clustered/planted generators (the generator
    /// default for the other workloads).
    pub clusters: usize,
    /// Distance backend the instance was served by.
    pub backend: Backend,
    /// Threshold-graph representation the cell ran under (always `Dense`
    /// for solvers that never build a threshold graph).
    pub graph: GraphBackend,
    /// Coreset setting the cell ran under (always `Off` for solvers that
    /// ignore the knob).
    pub coreset: Coreset,
    /// Worker threads the cell ran on.
    pub threads: usize,
    /// Wall-clock statistics over the timed trials.
    pub stats: TrialStats,
    /// The oracle's memory estimate for the instance.
    pub memory_bytes: u64,
    /// Meter charges of one trial (identical across trials by the
    /// determinism contract — asserted via `deterministic`).
    pub work: CostReport,
    /// Whether every trial's canonical JSON was byte-identical to the
    /// first's (self-certifying determinism check).
    pub deterministic: bool,
    /// Per-phase median wall-clock milliseconds over the timed trials
    /// (from each trial `Run`'s `phase_wall_ms` timing metadata), in
    /// first-encounter order. Lets the comparator say *which phase* of a
    /// regressed cell slowed down. Empty for artifacts written before
    /// phase attribution existed — optional on parse, like `graph` and
    /// `coreset`.
    pub phases: Vec<(String, f64)>,
}

impl BenchRecord {
    /// The identity of the cell — what the comparator joins on: solver,
    /// workload, both instance dimensions, backend and thread count. Cells
    /// measured on differently-shaped instances must never be compared as
    /// if they were the same workload.
    pub fn key(&self) -> String {
        let mut key = format!(
            "{}/{}:n={},nf={},c={}/{}:t={}/g={}",
            self.solver,
            self.workload,
            self.n,
            self.nf,
            self.clusters,
            self.backend.as_str(),
            self.threads,
            self.graph.as_str()
        );
        // Appended only when set, so the keys of every cell measured before
        // the coreset axis existed — including all committed baselines —
        // stay byte-identical and keep joining.
        if self.coreset != Coreset::Off {
            key.push_str(&format!("/cs={}", self.coreset));
        }
        key
    }

    fn to_json_value(&self) -> JsonValue {
        let mut obj = JsonObject::new()
            .string("solver", &self.solver)
            .string("workload", &self.workload)
            .uint("n", self.n as u64)
            .uint("nf", self.nf as u64)
            .uint("clusters", self.clusters as u64)
            .string("backend", self.backend.as_str())
            .string("graph", self.graph.as_str())
            .string("coreset", &self.coreset.as_string())
            .uint("threads", self.threads as u64)
            .field("wall_ms", self.stats.to_json_value())
            .uint("memory_bytes", self.memory_bytes)
            .field(
                "work",
                JsonObject::new()
                    .uint("element_ops", self.work.element_ops)
                    .uint("primitive_calls", self.work.primitive_calls)
                    .uint("sort_calls", self.work.sort_calls)
                    .uint("rounds", self.work.rounds)
                    .build(),
            )
            .bool("deterministic", self.deterministic);
        // Omitted when empty so artifacts from solvers without phase
        // attribution stay byte-identical to the pre-phases spelling.
        if !self.phases.is_empty() {
            let mut ph = JsonObject::new();
            for (name, ms) in &self.phases {
                ph = ph.number(name, *ms);
            }
            obj = obj.field("phases", ph.build());
        }
        obj.build()
    }

    fn from_json_value(value: &JsonValue) -> Result<Self, String> {
        let uint = |v: &JsonValue, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("bench record missing integer field '{key}'"))
        };
        let work_obj = value
            .get("work")
            .ok_or_else(|| "bench record missing field 'work'".to_string())?;
        Ok(BenchRecord {
            solver: value
                .get("solver")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| "bench record missing field 'solver'".to_string())?
                .to_string(),
            workload: value
                .get("workload")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| "bench record missing field 'workload'".to_string())?
                .to_string(),
            n: uint(value, "n")? as usize,
            nf: uint(value, "nf")? as usize,
            clusters: uint(value, "clusters")? as usize,
            backend: value
                .get("backend")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| "bench record missing field 'backend'".to_string())?
                .parse()?,
            // Optional on parse: artifacts written before the graph axis
            // existed measured under the then-only dense representation.
            graph: match value.get("graph") {
                None => GraphBackend::Dense,
                Some(v) => v
                    .as_str()
                    .ok_or_else(|| "bench record field 'graph' must be a string".to_string())?
                    .parse()?,
            },
            // Optional on parse: artifacts written before the coreset axis
            // existed all measured the full-instance path.
            coreset: match value.get("coreset") {
                None => Coreset::Off,
                Some(v) => v
                    .as_str()
                    .ok_or_else(|| "bench record field 'coreset' must be a string".to_string())?
                    .parse()?,
            },
            threads: uint(value, "threads")? as usize,
            stats: TrialStats::from_json_value(
                value
                    .get("wall_ms")
                    .ok_or_else(|| "bench record missing field 'wall_ms'".to_string())?,
            )?,
            memory_bytes: uint(value, "memory_bytes")?,
            work: CostReport {
                element_ops: uint(work_obj, "element_ops")?,
                primitive_calls: uint(work_obj, "primitive_calls")?,
                sort_calls: uint(work_obj, "sort_calls")?,
                rounds: uint(work_obj, "rounds")?,
            },
            deterministic: value
                .get("deterministic")
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| "bench record missing field 'deterministic'".to_string())?,
            // Optional on parse: artifacts written before phase attribution
            // existed carry no per-phase medians.
            phases: match value.get("phases") {
                None => Vec::new(),
                Some(JsonValue::Object(fields)) => fields
                    .iter()
                    .map(|(name, v)| {
                        v.as_f64()
                            .map(|ms| (name.clone(), ms))
                            .ok_or_else(|| format!("bench record phase '{name}' must be a number"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                Some(_) => return Err("bench record field 'phases' must be an object".to_string()),
            },
        })
    }
}

/// A complete benchmark artifact: schema tag, machine fingerprint, the
/// solver configuration shared by every cell, and one record per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArtifact {
    /// Where the measurements were taken.
    pub fingerprint: MachineFingerprint,
    /// The solver configuration every cell was measured under.
    pub config: BenchConfig,
    /// Warmup runs each cell performed before timing.
    pub warmup: usize,
    /// One record per matrix cell.
    pub records: Vec<BenchRecord>,
}

impl BenchArtifact {
    /// Serialises the artifact under the `parfaclo.bench.v2` schema.
    pub fn to_json(&self) -> String {
        let rows: Vec<JsonValue> = self
            .records
            .iter()
            .map(BenchRecord::to_json_value)
            .collect();
        JsonObject::new()
            .string("schema", BENCH_V2_SCHEMA)
            .field("machine", self.fingerprint.to_json_value())
            .field("config", self.config.to_json_value())
            .uint("warmup", self.warmup as u64)
            .field("records", JsonValue::Array(rows))
            .build()
            .to_string()
    }

    /// Parses an artifact, rejecting documents whose schema tag is not
    /// exactly `parfaclo.bench.v2` (in particular the older
    /// `parfaclo.bench.v1` speedup artifact).
    pub fn parse(text: &str) -> Result<BenchArtifact, String> {
        let doc = JsonValue::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "artifact has no 'schema' field".to_string())?;
        if schema != BENCH_V2_SCHEMA {
            return Err(format!(
                "artifact schema is '{schema}', expected '{BENCH_V2_SCHEMA}' \
                 (regenerate the baseline with `parfaclo bench --out <path> --force`)"
            ));
        }
        let fingerprint = MachineFingerprint::from_json_value(
            doc.get("machine")
                .ok_or_else(|| "artifact missing 'machine' fingerprint".to_string())?,
        )?;
        let config = BenchConfig::from_json_value(
            doc.get("config")
                .ok_or_else(|| "artifact missing 'config' section".to_string())?,
        )?;
        let warmup = doc
            .get("warmup")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| "artifact missing 'warmup'".to_string())? as usize;
        let records = doc
            .get("records")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| "artifact missing 'records' array".to_string())?
            .iter()
            .map(BenchRecord::from_json_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchArtifact {
            fingerprint,
            config,
            warmup,
            records,
        })
    }
}

/// Resolves the matrix's workload entries into concrete generator specs:
/// bare workload names inherit the matrix's `n`/`nf`; the `large`/`xlarge`
/// presets and explicit `name:key=value` specs keep their own dimensions.
/// Duplicate resolved specs are an error — they would produce cells with
/// identical keys, which the comparator would double-join.
fn resolve_workloads(matrix: &BenchMatrix) -> Result<Vec<GenSpec>, String> {
    let mut specs: Vec<GenSpec> = Vec::with_capacity(matrix.workloads.len());
    for entry in &matrix.workloads {
        let raw = entry.trim();
        let mut spec = GenSpec::parse(raw)?;
        // Bare name: no explicit options and not a preset alias (presets
        // resolve to a different workload string, e.g. large → uniform).
        if !raw.contains(':') && spec.workload.eq_ignore_ascii_case(raw) {
            spec.n = matrix.n;
            spec.nf = matrix.nf;
        }
        if spec.seed.is_some() {
            return Err(format!(
                "workload entry '{raw}' carries its own seed; the bench matrix uses \
                 one seed for every cell (set it via the run seed), because per-cell \
                 seeds are invisible to the comparator's cell keys"
            ));
        }
        if let Some(dup) = specs.iter().find(|s| **s == spec) {
            return Err(format!(
                "duplicate workload entry '{raw}' in the bench matrix \
                 (resolves to {}:n={},nf={}, same as an earlier entry)",
                dup.workload, dup.n, dup.nf
            ));
        }
        specs.push(spec);
    }
    Ok(specs)
}

/// Median of a non-empty sample vector (same definition as
/// [`TrialStats::from_samples`]): middle element, or the mean of the two
/// middle elements when even.
fn median(mut samples: Vec<f64>) -> f64 {
    debug_assert!(!samples.is_empty());
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Runs the full matrix under one base [`RunConfig`]: per cell, `warmup`
/// untimed runs then `trials` timed runs, each trial byte-compared
/// (canonical JSON) against the first. The base configuration supplies
/// seed, ε, `k` and the ablation knobs (recorded in the artifact's
/// `config` section); its backend/threads fields are overridden per cell by
/// the sweep dimensions.
///
/// Returns the artifact plus one representative [`Run`] per cell (the first
/// trial's, with the cell's [`TrialStats`] attached) for table display.
/// Errors if any cell violates the determinism contract, names an unknown
/// solver, or the matrix is degenerate.
pub fn run_matrix(
    registry: &Registry,
    matrix: &BenchMatrix,
    base: &RunConfig,
) -> Result<(BenchArtifact, Vec<Run>), String> {
    matrix.validate()?;
    let specs = resolve_workloads(matrix)?;
    let mut records = Vec::with_capacity(matrix.cells());
    let mut runs = Vec::with_capacity(matrix.cells());
    for spec in &specs {
        let workload = &spec.workload;
        for &backend in &matrix.backends {
            let mut cache = InstanceCache::new(spec, base.seed, backend);
            for solver in &matrix.solvers {
                let graphs: &[GraphBackend] = if solver_uses_graph(solver) {
                    &matrix.graphs
                } else {
                    &[GraphBackend::Dense]
                };
                let coresets: &[Coreset] = if solver_uses_coreset(solver) {
                    &matrix.coresets
                } else {
                    &[Coreset::Off]
                };
                for &graph in graphs {
                    for &coreset in coresets {
                        for &threads in &matrix.threads {
                            let cfg = base
                                .clone()
                                .with_backend(backend)
                                .with_graph(graph)
                                .with_coreset(coreset)
                                .with_threads(threads);
                            for _ in 0..matrix.warmup {
                                run_solver_cached(registry, solver, &mut cache, &cfg)?;
                            }
                            let mut samples = Vec::with_capacity(matrix.trials);
                            let mut phase_samples: Vec<(String, Vec<f64>)> = Vec::new();
                            let mut first: Option<Run> = None;
                            let mut deterministic = true;
                            for _ in 0..matrix.trials {
                                let run = run_solver_cached(registry, solver, &mut cache, &cfg)?;
                                samples.push(run.wall_ms);
                                for (name, ms) in &run.phase_wall_ms {
                                    match phase_samples.iter_mut().find(|(n, _)| n == name) {
                                        Some((_, v)) => v.push(*ms),
                                        None => phase_samples.push((name.clone(), vec![*ms])),
                                    }
                                }
                                match &first {
                                    None => first = Some(run),
                                    Some(f) => {
                                        deterministic &= f.canonical_json() == run.canonical_json();
                                    }
                                }
                            }
                            let first = first.expect("trials >= 1 checked in validate");
                            if !deterministic {
                                return Err(format!(
                                    "solver '{solver}' on workload '{workload}' \
                                     (backend {}, graph {}, coreset {coreset}, threads \
                                     {threads}) produced different canonical JSON across \
                                     trials — determinism contract violated",
                                    backend.as_str(),
                                    graph.as_str()
                                ));
                            }
                            let stats = TrialStats::from_samples(&samples);
                            records.push(BenchRecord {
                                solver: solver.clone(),
                                workload: workload.clone(),
                                n: spec.n,
                                nf: spec.nf,
                                clusters: spec.clusters,
                                backend,
                                graph,
                                coreset,
                                threads: first.threads,
                                stats: stats.clone(),
                                memory_bytes: first.memory_bytes,
                                work: first.work,
                                deterministic,
                                phases: phase_samples
                                    .into_iter()
                                    .map(|(name, walls)| (name, median(walls)))
                                    .collect(),
                            });
                            runs.push(first.with_trials(stats));
                        }
                    }
                }
            }
        }
    }
    Ok((
        BenchArtifact {
            fingerprint: MachineFingerprint::detect(),
            config: BenchConfig::from_run_config(base),
            warmup: matrix.warmup,
            records,
        },
        runs,
    ))
}

/// One joined (baseline, current) cell in a comparison.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Cell identity (see [`BenchRecord::key`]).
    pub key: String,
    /// Baseline median wall-clock (ms).
    pub baseline_ms: f64,
    /// Current median wall-clock (ms).
    pub current_ms: f64,
    /// Per-phase medians joined by name: `(phase, baseline_ms,
    /// current_ms)`, in the current record's order. Empty when either side
    /// predates phase attribution.
    pub phases: Vec<(String, f64, f64)>,
}

impl ComparisonRow {
    /// Slowdown ratio `current / baseline`: `> 1` is slower than baseline,
    /// `< 1` is faster. Infinite when the baseline median was 0 and the
    /// current one is not.
    pub fn ratio(&self) -> f64 {
        if self.baseline_ms > 0.0 {
            self.current_ms / self.baseline_ms
        } else if self.current_ms > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    }

    /// The phases slower than baseline by more than `threshold_pct`
    /// percent, worst first: `(phase, ratio)`. This is how the comparator
    /// answers *which phase* of a regressed cell slowed down. Phases under
    /// 1% of the cell's baseline median are ignored — a 5x blowup of a
    /// microsecond-scale phase is noise, not a verdict.
    pub fn phase_regressions(&self, threshold_pct: f64) -> Vec<(&str, f64)> {
        let floor = self.baseline_ms / 100.0;
        let mut out: Vec<(&str, f64)> = self
            .phases
            .iter()
            .filter(|(_, base, _)| *base > floor)
            .map(|(name, base, cur)| (name.as_str(), cur / base))
            .filter(|(_, ratio)| *ratio > 1.0 + threshold_pct / 100.0)
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// The single worst-shifting phase past the threshold, if any.
    pub fn worst_phase(&self, threshold_pct: f64) -> Option<(&str, f64)> {
        self.phase_regressions(threshold_pct).into_iter().next()
    }

    /// Human verdict against a regression threshold in percent.
    pub fn verdict(&self, threshold_pct: f64) -> &'static str {
        let ratio = self.ratio();
        if ratio > 1.0 + threshold_pct / 100.0 {
            "REGRESSED"
        } else if ratio < 1.0 / (1.0 + threshold_pct / 100.0) {
            "improved"
        } else {
            "ok"
        }
    }
}

/// The result of diffing two artifacts cell-by-cell.
#[derive(Debug, Clone)]
pub struct ComparisonReport {
    /// Cells present in both artifacts, in the current artifact's order.
    pub rows: Vec<ComparisonRow>,
    /// Cell keys present only in the baseline (workload dropped/renamed, or
    /// the current run measured a narrower matrix).
    pub missing: Vec<String>,
    /// Cell keys present only in the current artifact.
    pub added: Vec<String>,
}

impl ComparisonReport {
    /// The cells slower than baseline by more than `threshold_pct` percent.
    pub fn regressions(&self, threshold_pct: f64) -> Vec<&ComparisonRow> {
        self.rows
            .iter()
            .filter(|row| row.verdict(threshold_pct) == "REGRESSED")
            .collect()
    }

    /// Geometric-mean slowdown ratio over the joined cells (1.0 when there
    /// are none) — the one-number summary printed under the table.
    pub fn geomean_ratio(&self) -> f64 {
        if self.rows.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self
            .rows
            .iter()
            .map(|r| r.ratio().max(f64::MIN_POSITIVE).ln())
            .sum();
        (log_sum / self.rows.len() as f64).exp()
    }
}

/// Joins two artifacts on cell identity and compares median wall-clocks.
///
/// Errors when the artifacts were measured under different solver
/// configurations (seed, ε, `k`, ablation knobs): the cells would
/// join on identical keys while describing different instances and
/// different work, so any ratio would be meaningless. Cells only on one
/// side are reported (never silently dropped), not treated as regressions:
/// a baseline regenerated on a wider matrix must not fail CI runs that
/// measure a subset.
pub fn compare(
    baseline: &BenchArtifact,
    current: &BenchArtifact,
) -> Result<ComparisonReport, String> {
    if baseline.config != current.config {
        return Err(format!(
            "artifacts were measured under different configurations and cannot be \
             compared: baseline {:?} vs current {:?} \
             (re-run with matching --seed/--eps/--k/ablation flags, or \
             regenerate the baseline)",
            baseline.config, current.config
        ));
    }
    let mut rows = Vec::new();
    let mut added = Vec::new();
    for cur in &current.records {
        match baseline.records.iter().find(|b| b.key() == cur.key()) {
            Some(base) => rows.push(ComparisonRow {
                key: cur.key(),
                baseline_ms: base.stats.median_ms,
                current_ms: cur.stats.median_ms,
                phases: cur
                    .phases
                    .iter()
                    .filter_map(|(name, cur_ms)| {
                        base.phases
                            .iter()
                            .find(|(n, _)| n == name)
                            .map(|(_, base_ms)| (name.clone(), *base_ms, *cur_ms))
                    })
                    .collect(),
            }),
            None => added.push(cur.key()),
        }
    }
    let missing = baseline
        .records
        .iter()
        .filter(|b| !current.records.iter().any(|c| c.key() == b.key()))
        .map(|b| b.key())
        .collect();
    Ok(ComparisonReport {
        rows,
        missing,
        added,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::standard_registry;

    fn record(solver: &str, workload: &str, median_ms: f64) -> BenchRecord {
        BenchRecord {
            solver: solver.to_string(),
            workload: workload.to_string(),
            n: 64,
            nf: 32,
            clusters: 8,
            backend: Backend::Dense,
            graph: GraphBackend::Dense,
            coreset: Coreset::Off,
            threads: 1,
            stats: TrialStats {
                trials: 3,
                min_ms: median_ms * 0.9,
                median_ms,
                mean_ms: median_ms,
                stddev_ms: median_ms * 0.05,
            },
            memory_bytes: 64 * 32 * 8,
            work: CostReport {
                element_ops: 1000,
                primitive_calls: 10,
                sort_calls: 2,
                rounds: 4,
            },
            deterministic: true,
            phases: Vec::new(),
        }
    }

    fn artifact(records: Vec<BenchRecord>) -> BenchArtifact {
        BenchArtifact {
            fingerprint: MachineFingerprint {
                cpus: 4,
                commit: "deadbeef".to_string(),
                os: "linux".to_string(),
                arch: "x86_64".to_string(),
            },
            config: BenchConfig::from_run_config(&RunConfig::new(0.1).with_seed(5).with_k(3)),
            warmup: 1,
            records,
        }
    }

    #[test]
    fn artifact_json_round_trips() {
        let art = artifact(vec![
            record("greedy", "uniform", 2.5),
            record("kcenter", "clustered", 1.25),
        ]);
        let text = art.to_json();
        assert!(text.contains(BENCH_V2_SCHEMA));
        assert!(text.contains("\"machine\""));
        assert!(text.contains("\"element_ops\":1000"));
        let back = BenchArtifact::parse(&text).unwrap();
        assert_eq!(back, art);
    }

    #[test]
    fn schema_version_mismatch_is_rejected() {
        let v1 = r#"{"schema":"parfaclo.bench.v1","records":[]}"#;
        let err = BenchArtifact::parse(v1).unwrap_err();
        assert!(
            err.contains("parfaclo.bench.v1") && err.contains(BENCH_V2_SCHEMA),
            "error should name both schemas: {err}"
        );
        assert!(BenchArtifact::parse("{}").is_err());
        assert!(BenchArtifact::parse("not json").is_err());
    }

    #[test]
    fn comparator_classifies_improvement_and_regression() {
        let base = artifact(vec![
            record("greedy", "uniform", 10.0),
            record("kcenter", "uniform", 10.0),
            record("maxdom", "uniform", 10.0),
        ]);
        let cur = artifact(vec![
            record("greedy", "uniform", 4.0),   // 2.5x faster
            record("kcenter", "uniform", 10.5), // noise
            record("maxdom", "uniform", 30.0),  // 3x slower
        ]);
        let report = compare(&base, &cur).unwrap();
        assert_eq!(report.rows.len(), 3);
        assert!(report.missing.is_empty() && report.added.is_empty());
        assert_eq!(report.rows[0].verdict(50.0), "improved");
        assert_eq!(report.rows[1].verdict(50.0), "ok");
        assert_eq!(report.rows[2].verdict(50.0), "REGRESSED");
        let regressions = report.regressions(50.0);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].key.starts_with("maxdom/"));
        // A generous-enough threshold accepts the 3x slowdown.
        assert!(report.regressions(250.0).is_empty());
        assert!((report.rows[2].ratio() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn phases_field_round_trips_and_is_optional_on_parse() {
        let mut rec = record("greedy", "uniform", 10.0);
        rec.phases = vec![
            ("orders-build".to_string(), 2.5),
            ("star-rounds".to_string(), 6.0),
        ];
        let art = artifact(vec![rec]);
        let text = art.to_json();
        assert!(text.contains("\"phases\":{\"orders-build\":2.5,\"star-rounds\":6.0}"));
        let back = BenchArtifact::parse(&text).unwrap();
        assert_eq!(back, art);

        // Empty phases are omitted from the JSON and parse back as empty —
        // the pre-phases artifact spelling keeps parsing.
        let bare = artifact(vec![record("greedy", "uniform", 10.0)]);
        let text = bare.to_json();
        assert!(!text.contains("\"phases\""));
        assert_eq!(BenchArtifact::parse(&text).unwrap(), bare);
    }

    #[test]
    fn comparator_names_the_regressed_phase() {
        let mut base_rec = record("greedy", "uniform", 10.0);
        base_rec.phases = vec![
            ("orders-build".to_string(), 4.0),
            ("star-rounds".to_string(), 5.0),
            ("finalize".to_string(), 0.05), // under the 1% noise floor
        ];
        let mut cur_rec = record("greedy", "uniform", 21.0);
        cur_rec.phases = vec![
            ("orders-build".to_string(), 4.2),
            ("star-rounds".to_string(), 16.0), // 3.2x — the culprit
            ("finalize".to_string(), 0.5),     // 10x but noise-scale
        ];
        let report = compare(&artifact(vec![base_rec]), &artifact(vec![cur_rec])).unwrap();
        let row = &report.rows[0];
        assert_eq!(row.verdict(50.0), "REGRESSED");
        let culprits = row.phase_regressions(50.0);
        assert_eq!(culprits.len(), 1, "{culprits:?}");
        assert_eq!(culprits[0].0, "star-rounds");
        assert!((culprits[0].1 - 3.2).abs() < 1e-12);
        assert_eq!(row.worst_phase(50.0), Some(("star-rounds", 3.2)));
        // orders-build moved 5% — under the gate, not a phase regression.
        assert!(row
            .phase_regressions(50.0)
            .iter()
            .all(|(n, _)| *n != "orders-build"));
    }

    #[test]
    fn comparator_tolerates_phaseless_sides() {
        // Baseline predates phase attribution: the join yields no phases
        // and phase-level verdicts stay silent rather than erroring.
        let base_rec = record("greedy", "uniform", 10.0);
        let mut cur_rec = record("greedy", "uniform", 30.0);
        cur_rec.phases = vec![("star-rounds".to_string(), 25.0)];
        let report = compare(&artifact(vec![base_rec]), &artifact(vec![cur_rec])).unwrap();
        let row = &report.rows[0];
        assert_eq!(row.verdict(50.0), "REGRESSED");
        assert!(row.phases.is_empty());
        assert_eq!(row.worst_phase(0.0), None);
    }

    #[test]
    fn run_matrix_records_per_phase_medians() {
        let registry = standard_registry();
        let matrix = BenchMatrix {
            solvers: vec!["greedy".to_string()],
            workloads: vec!["uniform".to_string()],
            n: 24,
            nf: 12,
            backends: vec![Backend::Dense],
            graphs: vec![GraphBackend::Dense],
            coresets: vec![Coreset::Off],
            threads: vec![1],
            warmup: 0,
            trials: 3,
        };
        let base = RunConfig::new(0.1).with_seed(5).with_k(3);
        let (artifact, _) = run_matrix(&registry, &matrix, &base).unwrap();
        let rec = &artifact.records[0];
        let names: Vec<&str> = rec.phases.iter().map(|(n, _)| n.as_str()).collect();
        assert!(
            names.contains(&"star-rounds"),
            "greedy cell should attribute its round loop: {names:?}"
        );
        assert!(rec
            .phases
            .iter()
            .all(|(_, ms)| ms.is_finite() && *ms >= 0.0));
        // And phased records survive the artifact round trip.
        let back = BenchArtifact::parse(&artifact.to_json()).unwrap();
        assert_eq!(back, artifact);
    }

    #[test]
    fn comparator_reports_missing_and_added_cells() {
        let base = artifact(vec![
            record("greedy", "uniform", 10.0),
            record("greedy", "clustered", 10.0),
        ]);
        let cur = artifact(vec![
            record("greedy", "uniform", 10.0),
            record("greedy", "grid", 10.0),
        ]);
        let report = compare(&base, &cur).unwrap();
        assert_eq!(report.rows.len(), 1);
        assert_eq!(
            report.missing,
            vec![record("greedy", "clustered", 0.0).key()]
        );
        assert_eq!(report.added, vec![record("greedy", "grid", 0.0).key()]);
        // Missing cells are informational, never regressions.
        assert!(report.regressions(0.0).is_empty());
    }

    #[test]
    fn comparator_handles_zero_baselines_and_geomean() {
        let base = artifact(vec![record("greedy", "uniform", 0.0)]);
        let mut cur = artifact(vec![record("greedy", "uniform", 5.0)]);
        let report = compare(&base, &cur).unwrap();
        assert_eq!(report.rows[0].ratio(), f64::INFINITY);
        assert_eq!(report.rows[0].verdict(400.0), "REGRESSED");

        cur.records[0].stats.median_ms = 0.0;
        let report = compare(&base, &cur).unwrap();
        assert_eq!(report.rows[0].ratio(), 1.0, "0 vs 0 is unchanged");

        let base = artifact(vec![
            record("a", "uniform", 10.0),
            record("b", "uniform", 10.0),
        ]);
        let cur = artifact(vec![
            record("a", "uniform", 20.0),
            record("b", "uniform", 5.0),
        ]);
        let report = compare(&base, &cur).unwrap();
        assert!((report.geomean_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn run_matrix_measures_and_self_certifies() {
        let registry = standard_registry();
        let matrix = BenchMatrix {
            solvers: vec!["greedy".to_string(), "kcenter".to_string()],
            workloads: vec!["uniform".to_string()],
            n: 24,
            nf: 12,
            backends: vec![Backend::Dense],
            graphs: vec![GraphBackend::Dense],
            coresets: vec![Coreset::Off],
            threads: vec![1, 2],
            warmup: 1,
            trials: 3,
        };
        let base = RunConfig::new(0.1).with_seed(5).with_k(3);
        let (artifact, runs) = run_matrix(&registry, &matrix, &base).unwrap();
        assert_eq!(artifact.records.len(), matrix.cells());
        assert_eq!(runs.len(), matrix.cells());
        for rec in &artifact.records {
            assert!(rec.deterministic, "{} not byte-deterministic", rec.key());
            assert_eq!(rec.stats.trials, 3);
            assert!(rec.stats.min_ms <= rec.stats.median_ms + 1e-12);
            assert!(rec.work.element_ops > 0, "{} charged no work", rec.key());
        }
        for run in &runs {
            assert_eq!(run.trials.as_ref().map(|t| t.trials), Some(3));
        }
        // Self-comparison: same artifact on both sides has no regressions
        // at any threshold, ratio exactly 1 per cell.
        let report = compare(&artifact, &artifact).unwrap();
        assert_eq!(report.rows.len(), matrix.cells());
        assert!(report.regressions(0.0).is_empty());
        assert!(report.rows.iter().all(|r| r.ratio() == 1.0));
        // And the serialised artifact round-trips.
        let back = BenchArtifact::parse(&artifact.to_json()).unwrap();
        assert_eq!(back, artifact);
    }

    #[test]
    fn run_matrix_rejects_degenerate_input() {
        let registry = standard_registry();
        let empty = BenchMatrix {
            solvers: Vec::new(),
            ..BenchMatrix::default()
        };
        assert!(run_matrix(&registry, &empty, &RunConfig::default()).is_err());

        let zero_trials = BenchMatrix {
            trials: 0,
            ..BenchMatrix::default()
        };
        assert!(run_matrix(&registry, &zero_trials, &RunConfig::default()).is_err());

        let bad_workload = BenchMatrix {
            workloads: vec!["mystery".to_string()],
            ..BenchMatrix::default()
        };
        assert!(run_matrix(&registry, &bad_workload, &RunConfig::default()).is_err());

        let bad_solver = BenchMatrix {
            solvers: vec!["ghost".to_string()],
            workloads: vec!["uniform".to_string()],
            ..BenchMatrix::default()
        };
        assert!(run_matrix(&registry, &bad_solver, &RunConfig::default()).is_err());
    }

    #[test]
    fn default_matrix_spans_the_layers() {
        let m = BenchMatrix::default();
        // greedy, primal-dual and kcenter contribute one cell each; maxdom
        // fans out over both graph backends: (3·1 + 1·2) combos.
        assert_eq!(m.cells(), (3 + 2) * 2 * 3 * 2);
        assert!(m.backends.contains(&Backend::Implicit));
        assert!(m.backends.contains(&Backend::Spatial));
        assert!(m.graphs.contains(&GraphBackend::Csr));
        // Coresets are opt-in: the default axis is the full-instance path
        // only, so committed baselines keep their historical cell count.
        assert_eq!(m.coresets, vec![Coreset::Off]);
        assert!(m.threads.contains(&1) && m.threads.len() > 1);
    }

    #[test]
    fn coreset_axis_sweeps_only_clustering_solvers() {
        let registry = standard_registry();
        let matrix = BenchMatrix {
            solvers: vec!["greedy".to_string(), "kmedian-ls".to_string()],
            workloads: vec!["uniform".to_string()],
            n: 48,
            nf: 24,
            backends: vec![Backend::Dense],
            graphs: vec![GraphBackend::Dense],
            coresets: vec![Coreset::Off, Coreset::Eps(0.25)],
            threads: vec![1],
            warmup: 0,
            trials: 2,
        };
        let base = RunConfig::new(0.1).with_seed(5).with_k(3);
        let (artifact, _) = run_matrix(&registry, &matrix, &base).unwrap();
        assert_eq!(artifact.records.len(), matrix.cells());
        assert_eq!(matrix.cells(), 3, "greedy x1 + kmedian-ls x2 coresets");
        let greedy: Vec<_> = artifact
            .records
            .iter()
            .filter(|r| r.solver == "greedy")
            .collect();
        assert_eq!(greedy.len(), 1, "non-clustering solver must not fan out");
        assert_eq!(greedy[0].coreset, Coreset::Off);
        let kmedian: Vec<_> = artifact
            .records
            .iter()
            .filter(|r| r.solver == "kmedian-ls")
            .collect();
        assert_eq!(kmedian.len(), 2);
        assert_ne!(kmedian[0].key(), kmedian[1].key());
        assert!(kmedian.iter().any(|r| r.coreset == Coreset::Eps(0.25)));
        // The coreset cell key carries the axis; the off cell's key is the
        // historical (pre-axis) spelling, so old baselines keep joining.
        let off = kmedian.iter().find(|r| r.coreset == Coreset::Off).unwrap();
        assert!(!off.key().contains("cs="), "{}", off.key());
        let eps = kmedian.iter().find(|r| r.coreset != Coreset::Off).unwrap();
        assert!(eps.key().ends_with("/cs=eps:0.25"), "{}", eps.key());
        // And the artifact with coreset cells round-trips.
        let back = BenchArtifact::parse(&artifact.to_json()).unwrap();
        assert_eq!(back, artifact);
    }

    #[test]
    fn graph_axis_sweeps_only_graph_solvers() {
        let registry = standard_registry();
        let matrix = BenchMatrix {
            solvers: vec!["greedy".to_string(), "maxdom".to_string()],
            workloads: vec!["uniform".to_string()],
            n: 24,
            nf: 12,
            backends: vec![Backend::Dense],
            graphs: vec![GraphBackend::Dense, GraphBackend::Csr],
            coresets: vec![Coreset::Off],
            threads: vec![1],
            warmup: 0,
            trials: 1,
        };
        let base = RunConfig::new(0.1).with_seed(5).with_k(3);
        let (artifact, _) = run_matrix(&registry, &matrix, &base).unwrap();
        assert_eq!(artifact.records.len(), matrix.cells());
        assert_eq!(matrix.cells(), 3, "greedy x1 + maxdom x2 graphs");
        let greedy: Vec<_> = artifact
            .records
            .iter()
            .filter(|r| r.solver == "greedy")
            .collect();
        assert_eq!(greedy.len(), 1, "non-graph solver must not fan out");
        assert_eq!(greedy[0].graph, GraphBackend::Dense);
        let maxdom: Vec<_> = artifact
            .records
            .iter()
            .filter(|r| r.solver == "maxdom")
            .collect();
        assert_eq!(maxdom.len(), 2);
        assert_ne!(maxdom[0].key(), maxdom[1].key());
        assert!(maxdom.iter().any(|r| r.graph == GraphBackend::Csr));
        // The representations do identical algorithmic work — only wall
        // clock and memory may differ.
        assert_eq!(maxdom[0].work, maxdom[1].work);
    }

    #[test]
    fn comparator_rejects_mismatched_configurations() {
        let base = artifact(vec![record("greedy", "uniform", 10.0)]);
        let mut cur = artifact(vec![record("greedy", "uniform", 10.0)]);
        cur.config.seed = 99;
        let err = compare(&base, &cur).unwrap_err();
        assert!(err.contains("different configurations"), "{err}");

        let mut cur = artifact(vec![record("greedy", "uniform", 10.0)]);
        cur.config.k = 7;
        assert!(compare(&base, &cur).is_err(), "k change must not join");

        // Identical configurations compare fine.
        let cur = artifact(vec![record("greedy", "uniform", 10.0)]);
        assert!(compare(&base, &cur).is_ok());
    }

    #[test]
    fn bench_config_round_trips_and_is_required() {
        let cfg = BenchConfig::from_run_config(
            &RunConfig::new(0.25)
                .with_seed(3)
                .with_k(5)
                .with_threshold(1.5)
                .with_preprocess(false),
        );
        let text = cfg.to_json_value().to_string();
        let back = BenchConfig::from_json_value(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, cfg);
        // Older artifacts carry the removed `policy` and `engine` keys; they
        // still parse (and so still join) unchanged.
        let old = text.replacen('{', "{\"policy\":\"par\",\"engine\":\"bucket\",", 1);
        let back = BenchConfig::from_json_value(&JsonValue::parse(&old).unwrap()).unwrap();
        assert_eq!(back, cfg);
        // An artifact without a config section is rejected at parse time.
        let art = artifact(vec![]);
        let stripped = art
            .to_json()
            .replace(&format!(",\"config\":{}", art.config.to_json_value()), "");
        let err = BenchArtifact::parse(&stripped).unwrap_err();
        assert!(err.contains("config"), "{err}");
    }

    #[test]
    fn workload_resolution_keeps_preset_dimensions_and_rejects_duplicates() {
        let matrix = BenchMatrix {
            workloads: vec![
                "uniform".to_string(),
                "large".to_string(),
                "clustered:n=128".to_string(),
            ],
            ..BenchMatrix::default()
        };
        let specs = resolve_workloads(&matrix).unwrap();
        // Bare name: matrix dimensions.
        assert_eq!((specs[0].n, specs[0].nf), (128, 64));
        // Preset: its own dimensions, not silently shrunk to the matrix's.
        assert_eq!(specs[1].workload, "uniform");
        assert_eq!((specs[1].n, specs[1].nf), (100_000, 100));
        // Explicit spec: its own dimensions.
        assert_eq!((specs[2].workload.as_str(), specs[2].n), ("clustered", 128));

        // Duplicates — textual or after resolution — are rejected.
        for dup in [
            vec!["uniform".to_string(), "uniform".to_string()],
            vec!["uniform".to_string(), "uniform:n=128,nf=64".to_string()],
        ] {
            let matrix = BenchMatrix {
                workloads: dup.clone(),
                ..BenchMatrix::default()
            };
            let err = resolve_workloads(&matrix).unwrap_err();
            assert!(err.contains("duplicate"), "{dup:?}: {err}");
        }
    }
}

//! The unified `parfaclo` runner — one binary driving every solver in the
//! workspace through the registry, replacing the ten ad-hoc `exp_e*`
//! experiment binaries. Every subcommand emits the same JSON run schema
//! ([`parfaclo_api::RUN_SCHEMA`]), so results are comparable across solvers
//! and across invocations.
//!
//! ```text
//! parfaclo list
//! parfaclo run --solver greedy --gen uniform:n=2000,k=40 --eps 0.1 --seed 7 --json out.json
//! parfaclo suite --solvers greedy,primal-dual,jms-greedy --size 64 --json suite.json
//! parfaclo ablation --gen uniform:n=128,nf=64 --json ablation.json
//! ```

use parfaclo_api::{Backend, Coreset, ProblemKind, Registry, Run, RunConfig};
use parfaclo_bench::bench::{compare, run_matrix, BenchArtifact, BenchMatrix};
use parfaclo_bench::runner::{
    run_solver, run_solver_cached, runs_to_json, table_header, table_row, GenSpec, InstanceCache,
};
use parfaclo_bench::{reset_sigpipe, standard_registry, Table};
use parfaclo_trace::{install, InstallGuard, TraceDetail, Tracer};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
parfaclo — unified runner for the Blelloch-Tangwongsan SPAA'10 reproduction

USAGE:
    parfaclo list
        List every registered solver (name, problem, guarantee, paper ref).

    parfaclo run <name> [options]
        Run one solver on a generated instance and print/emit its Run
        record. The solver can be named positionally or via --solver;
        kmedian-local and kmeans-local are accepted as aliases for the
        registry names kmedian-ls and kmeans-ls. Example:
        parfaclo run kmedian-local --gen xxlarge --backend spatial \\
            --coreset eps:0.1

    parfaclo suite [--solvers a,b,c] [options]
        Run a set of solvers (default: all) over the standard workload
        suite. Always sweeps all five workloads; --gen contributes only
        its dimensions (n, nf, c) and seed, not its workload name.

    parfaclo bench [options]
        The measurement subsystem: run a (solver x workload x backend x
        thread count) matrix with --warmup untimed runs and --trials
        timed trials per cell, recording min/median/mean/stddev
        wall-clock, memory_bytes and the meter's work counters, with a
        self-certifying determinism check (canonical JSON byte-compared
        across trials). --out writes a parfaclo.bench.v2 artifact with
        a machine fingerprint (cpus, commit, os/arch). --baseline diffs
        the fresh measurements against a previously written artifact
        and prints a per-cell speedup/regression table; with
        --fail-on-regress <pct> the exit code is non-zero if any cell
        is slower than baseline by more than <pct> percent.

    parfaclo ablation [options]
        Run the greedy algorithm under every preprocess/subselection
        combination and an epsilon sweep (the old E10 experiment).

OPTIONS:
    --gen <spec>        Generator spec, e.g. uniform:n=2000,k=40
                        (workloads: uniform|clustered|grid|line|planted|
                        powerlaw|road, plus the CI-smoke preset medium
                        (n=2000, nf=64), the implicit-scale presets
                        large (n=100000, nf=100) and xlarge (n=1000000,
                        nf=50), the spatial-scale preset xxlarge
                        (n=10000000, nf=100), and the sparse-graph presets
                        sparse-large (road, n=100000) and sparse-xlarge
                        (powerlaw, n=1000000);
                        keys: n, nf|k, c, seed)          [default: uniform:n=200]
    --backend <b>       Instance distance backend: dense materialises the
                        |C| x |F| matrix (O(m) memory); implicit stores only
                        the points and computes distances on demand
                        (O(|C|+|F|) memory, but every structured query is an
                        O(n) sweep); spatial adds a deterministic exact
                        uniform grid over 1-D to 3-D points (a flat scan
                        above) so nearest queries run sublinearly, and
                        range queries too unless the grid's query window
                        holds more than 1/8 of the points, where the O(n)
                        kernel sweep answers instead (O(|C|+|F|) memory — the
                        backend that makes xxlarge practical; the
                        clustering/dominator probes still need O(n²)
                        transients at any backend).
                        Results are byte-identical in all cases [default: dense]
    --radius-deriver <d>
                        k-center candidate-radius derivation: exact sorts
                        all n² pairwise distances (the paper's Theorem 6.1
                        search; refused above the 4 GiB scratch cap);
                        sketch derives candidates from a deterministic
                        1024-node sample plus a diameter cap, probing
                        coarse-to-fine — the deriver that lifts k-center
                        to the sparse-large/sparse-xlarge/xlarge presets.
                        sketch may settle on a different (sampled) radius
                        than exact                       [default: exact]
    --coreset <c>       Clustering coreset: off solves on the full
                        instance; eps:<f64> snaps the points to a uniform
                        grid with ceil(1/eps) cells per axis, solves on
                        one lowest-id medoid per occupied cell (weighted
                        by cell population), then assigns every original
                        point in one sweep — the path that lifts the
                        k-clustering solvers to the xxlarge preset. The
                        run reports both the full-set cost (cost) and the
                        coreset-internal cost (extra.coreset_cost).
                        Byte-identical at any thread count and backend;
                        ignored by the facility-location and dominator
                        solvers                          [default: off]
    --eps <f>           Slack parameter, in (0, 1]       [default: 0.1]
    --seed <n>          RNG seed                         [default: 0]
    --k <n>             Centers for clustering solvers   [default: 8]
    --threshold <f>     Dominator-set threshold (>= 0); maxdom and mis
                        build its compressed-sparse-row graph, refused
                        when the build would pass 4 GiB [default: median]
    --threads <n>       Worker threads for the run (pool size); 1 is
                        the sequential run, and results are identical
                        at any count                     [default: ambient]
    --no-preprocess     Disable round-bounding preprocessing (ablation)
    --no-subselection   Disable greedy subselection vote (ablation)
    --size <n>          Suite/bench node count; overrides --gen's n,
                        other --gen keys are kept        [default: 64]
    --solvers <a,b,c>   Suite/bench solver subset        [default: all (suite);
                        greedy,primal-dual,kcenter,maxdom (bench)]
    --json <path>       Also write the run records as a JSON array
    --trace <path>      Record a deterministic span/event trace of the
                        invocation and write it as Chrome trace-event JSON
                        (load via chrome://tracing or Perfetto); a
                        <path>.canonical sidecar holds the timing-free
                        canonical trace (span topology + round events),
                        byte-identical across backends and thread counts.
                        Refuses to overwrite existing files without --force
    --progress          Stream per-round progress events (round number,
                        frontier size, work counter) to stderr as the
                        solvers run
    --force             Allow bench --out and run/bench --trace to
                        overwrite an existing artifact file
    --quiet             Suppress the human-readable table

BENCH OPTIONS (parfaclo bench only):
    --workloads <a,b>   Workload entries: bare names run at --size's
                        dimensions; the large/xlarge/xxlarge presets and
                        name:key=value specs keep their own
                        [default: uniform,clustered]
    --backends <a,b>    Backend subset (dense,implicit,spatial)
                        [default: dense,implicit,spatial]
    --coresets <a,b>    Coreset settings to sweep for the k-clustering
                        solvers (off and/or eps:<f64> entries);
                        non-clustering solvers always run once
                        [default: off]
    --thread-list <a,b> Thread counts to sweep           [default: 1,4]
    --warmup <n>        Untimed warmup runs per cell     [default: 1]
    --trials <n>        Timed trials per cell            [default: 3]
    --out <path>        Write the parfaclo.bench.v2 artifact
    --baseline <path>   Compare against a previous artifact
    --fail-on-regress <pct>
                        Exit non-zero if any cell is more than <pct> %
                        slower than the baseline (e.g. 300 = 4x)
";

fn main() -> ExitCode {
    reset_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// Parsed command-line options shared by the subcommands.
struct Options {
    gen: GenSpec,
    /// Whether --gen was passed explicitly (suite honours its dimensions).
    gen_given: bool,
    cfg: RunConfig,
    /// Bare (non-flag) arguments, e.g. the solver name in `parfaclo run
    /// greedy`. Consumed by `run`; rejected by the other subcommands.
    positional: Vec<String>,
    solver: Option<String>,
    solvers: Option<Vec<String>>,
    size: usize,
    /// Whether --size was passed explicitly (overrides --gen's n in suite).
    size_given: bool,
    json: Option<String>,
    /// Chrome-trace output path; also enables the rounds-level tracer.
    trace: Option<String>,
    /// Stream per-round progress events to stderr.
    progress: bool,
    quiet: bool,
    force: bool,
    /// bench: workload subset.
    workloads: Option<Vec<String>>,
    /// bench: backend subset.
    backends: Option<Vec<Backend>>,
    /// bench: coreset settings to sweep.
    coresets: Option<Vec<Coreset>>,
    /// bench: thread counts to sweep.
    thread_list: Option<Vec<usize>>,
    /// bench: untimed warmup runs per cell.
    warmup: usize,
    /// bench: timed trials per cell.
    trials: usize,
    /// bench: artifact output path.
    out: Option<String>,
    /// bench: baseline artifact to compare against.
    baseline: Option<String>,
    /// bench: regression threshold (percent slower than baseline) that
    /// flips the exit code.
    fail_on_regress: Option<f64>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut gen = GenSpec::parse("uniform:n=200")?;
    let mut gen_given = false;
    let mut cfg = RunConfig::new(0.1).with_k(8);
    let mut positional = Vec::new();
    let mut solver = None;
    let mut solvers = None;
    let mut size = 64usize;
    let mut size_given = false;
    let mut json = None;
    let mut trace = None;
    let mut progress = false;
    let mut quiet = false;
    let mut force = false;
    let mut workloads = None;
    let mut backends = None;
    let mut coresets = None;
    let mut thread_list = None;
    let mut warmup = 1usize;
    let mut trials = 3usize;
    let mut out = None;
    let mut baseline = None;
    let mut fail_on_regress = None;

    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            iter.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--gen" => {
                gen = GenSpec::parse(value("--gen")?)?;
                gen_given = true;
            }
            "--eps" => {
                let eps: f64 = value("--eps")?
                    .parse()
                    .map_err(|_| "invalid --eps".to_string())?;
                // Past 1 the guarantees (3 + ε, 3.722 + ε, …) certify nothing.
                if !(eps > 0.0 && eps <= 1.0) {
                    return Err("--eps must be a number in (0, 1]".to_string());
                }
                cfg.epsilon = eps;
            }
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "invalid --seed".to_string())?
            }
            "--k" => {
                let k: usize = value("--k")?
                    .parse()
                    .map_err(|_| "invalid --k".to_string())?;
                if k == 0 {
                    return Err("--k must be at least 1".to_string());
                }
                cfg.k = k;
            }
            "--threshold" => {
                let threshold: f64 = value("--threshold")?
                    .parse()
                    .map_err(|_| "invalid --threshold".to_string())?;
                if !threshold.is_finite() || threshold < 0.0 {
                    return Err("--threshold must be a non-negative finite distance".to_string());
                }
                cfg.threshold = Some(threshold);
            }
            "--threads" => {
                let threads: usize = value("--threads")?
                    .parse()
                    .map_err(|_| "invalid --threads".to_string())?;
                if threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                cfg.threads = Some(threads);
            }
            "--backend" => cfg.backend = value("--backend")?.parse()?,
            "--coreset" => cfg.coreset = value("--coreset")?.parse()?,
            "--radius-deriver" => cfg.radius_deriver = value("--radius-deriver")?.parse()?,
            "--no-preprocess" => cfg.preprocess = false,
            "--no-subselection" => cfg.subselection = false,
            "--solver" => solver = Some(value("--solver")?.clone()),
            "--solvers" => {
                solvers = Some(
                    value("--solvers")?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                )
            }
            "--size" => {
                size = value("--size")?
                    .parse()
                    .map_err(|_| "invalid --size".to_string())?;
                if size == 0 {
                    return Err("--size must be at least 1".to_string());
                }
                size_given = true;
            }
            "--json" => json = Some(value("--json")?.clone()),
            "--trace" => trace = Some(value("--trace")?.clone()),
            "--progress" => progress = true,
            "--quiet" => quiet = true,
            "--force" => force = true,
            "--workloads" => {
                workloads = Some(
                    value("--workloads")?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                )
            }
            "--backends" => {
                backends = Some(
                    value("--backends")?
                        .split(',')
                        .map(|s| s.trim().parse::<Backend>())
                        .collect::<Result<Vec<_>, _>>()?,
                )
            }
            "--coresets" => {
                coresets = Some(
                    value("--coresets")?
                        .split(',')
                        .map(|s| s.trim().parse::<Coreset>())
                        .collect::<Result<Vec<_>, _>>()?,
                )
            }
            "--thread-list" => {
                let list: Vec<usize> = value("--thread-list")?
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| "invalid --thread-list (expected e.g. 1,4)".to_string())?;
                if list.is_empty() || list.contains(&0) {
                    return Err("--thread-list needs counts >= 1".to_string());
                }
                thread_list = Some(list);
            }
            "--warmup" => {
                warmup = value("--warmup")?
                    .parse()
                    .map_err(|_| "invalid --warmup".to_string())?
            }
            "--trials" => {
                trials = value("--trials")?
                    .parse()
                    .map_err(|_| "invalid --trials".to_string())?;
                if trials == 0 {
                    return Err("--trials must be at least 1".to_string());
                }
            }
            "--out" => out = Some(value("--out")?.clone()),
            "--baseline" => baseline = Some(value("--baseline")?.clone()),
            "--fail-on-regress" => {
                let pct: f64 = value("--fail-on-regress")?
                    .parse()
                    .map_err(|_| "invalid --fail-on-regress".to_string())?;
                if !pct.is_finite() || pct < 0.0 {
                    return Err("--fail-on-regress must be a non-negative percentage".to_string());
                }
                fail_on_regress = Some(pct);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option '{other}'\n\n{USAGE}"))
            }
            bare => positional.push(bare.to_string()),
        }
    }
    Ok(Options {
        gen,
        gen_given,
        cfg,
        positional,
        solver,
        solvers,
        size,
        size_given,
        json,
        trace,
        progress,
        quiet,
        force,
        workloads,
        backends,
        coresets,
        thread_list,
        warmup,
        trials,
        out,
        baseline,
        fail_on_regress,
    })
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        println!("{USAGE}");
        return Ok(());
    };
    let registry = standard_registry();
    match command.as_str() {
        "list" => cmd_list(&registry),
        "run" => cmd_run(&registry, parse_options(&args[1..])?),
        "suite" => cmd_suite(&registry, parse_options(&args[1..])?),
        "bench" => cmd_bench(&registry, parse_options(&args[1..])?),
        "ablation" => cmd_ablation(&registry, parse_options(&args[1..])?),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

fn cmd_list(registry: &Registry) -> Result<(), String> {
    let table = Table::new(&["name", "problem", "guarantee", "paper"]);
    for solver in registry.iter() {
        table.row(&[
            solver.name.to_string(),
            solver.problem.to_string(),
            solver.guarantee_label(),
            solver.paper_ref.to_string(),
        ]);
    }
    Ok(())
}

fn emit(runs: &[Run], json: Option<&str>, quiet: bool) -> Result<(), String> {
    if !quiet {
        let table = Table::new(&table_header());
        for run in runs {
            table.row(&table_row(run));
        }
    }
    if let Some(path) = json {
        let payload = runs_to_json(runs);
        if path == "-" {
            println!("{payload}");
        } else {
            std::fs::write(path, payload).map_err(|e| format!("writing {path}: {e}"))?;
            if !quiet {
                println!("\nwrote {} run record(s) to {path}", runs.len());
            }
        }
    }
    Ok(())
}

/// A rounds-level tracer installed for the duration of a subcommand, plus
/// the guard that keeps it ambient on this thread.
struct TraceSession {
    tracer: Arc<Tracer>,
    _guard: InstallGuard,
}

/// Installs a rounds-level tracer when `--trace` or `--progress` asked for
/// one; every solve in the subcommand then records its spans and round
/// events into it (instead of the ephemeral per-solve phase tracer).
fn start_trace(opts: &Options) -> Option<TraceSession> {
    if opts.trace.is_none() && !opts.progress {
        return None;
    }
    let mut tracer = Tracer::new(TraceDetail::Rounds);
    if opts.progress {
        tracer = tracer.with_progress();
    }
    let tracer = Arc::new(tracer);
    let guard = install(Arc::clone(&tracer));
    Some(TraceSession {
        tracer,
        _guard: guard,
    })
}

/// Writes the Chrome trace (plus the `<path>.canonical` sidecar) and prints
/// the per-phase summary table. The canonical sidecar carries no
/// timestamps, so it byte-compares across backends and thread counts —
/// that is what the CI determinism check diffs.
fn finish_trace(session: Option<TraceSession>, opts: &Options) -> Result<(), String> {
    let Some(session) = session else {
        return Ok(());
    };
    if !opts.quiet {
        let table = Table::new(&["phase", "count", "wall_ms", "share", "rounds", "work"]);
        for phase in session.tracer.phase_summary() {
            table.row(&[
                phase.name.clone(),
                phase.count.to_string(),
                format!("{:.3}", phase.wall_ms),
                format!("{:.1}%", 100.0 * phase.share),
                phase.rounds.to_string(),
                phase.element_ops.to_string(),
            ]);
        }
    }
    let Some(path) = &opts.trace else {
        return Ok(()); // --progress alone: stream only, nothing to write
    };
    write_artifact(path, &session.tracer.chrome_json(), opts.force, opts.quiet)?;
    let canonical = format!("{path}.canonical");
    write_artifact(
        &canonical,
        &session.tracer.canonical_json(),
        opts.force,
        opts.quiet,
    )
}

/// CLI-level solver-name aliases. The registry requires unique names, so
/// the objective-spelled variants live here: `kmedian-local` and
/// `kmeans-local` name the same swap-based local searches as the registry's
/// `kmedian-ls` / `kmeans-ls`.
fn resolve_solver_alias(name: &str) -> &str {
    match name {
        "kmedian-local" => "kmedian-ls",
        "kmeans-local" => "kmeans-ls",
        other => other,
    }
}

fn cmd_run(registry: &Registry, opts: Options) -> Result<(), String> {
    let solver = match (&opts.solver, opts.positional.as_slice()) {
        (Some(_), [extra, ..]) => {
            return Err(format!(
                "run got both --solver and a positional solver name '{extra}'; pass one"
            ))
        }
        (Some(name), []) => name.clone(),
        (None, [name]) => name.clone(),
        (None, []) => {
            return Err(format!(
                "run needs a solver name (positional or --solver); available: {}",
                registry.names().join(", ")
            ))
        }
        (None, extra) => {
            return Err(format!(
                "run takes one solver name, got {}: {}",
                extra.len(),
                extra.join(", ")
            ))
        }
    };
    let solver = resolve_solver_alias(&solver);
    let trace_session = start_trace(&opts);
    let run = run_solver(registry, solver, &opts.gen, &opts.cfg)?;
    run.validate()
        .map_err(|e| format!("solver '{solver}' produced a structurally invalid run: {e}"))?;
    emit(std::slice::from_ref(&run), opts.json.as_deref(), opts.quiet)?;
    finish_trace(trace_session, &opts)
}

/// The non-`run` subcommands take no bare arguments; a stray one is most
/// likely a typo'd flag value, so fail instead of silently ignoring it.
fn reject_positional(command: &str, opts: &Options) -> Result<(), String> {
    match opts.positional.first() {
        Some(extra) => Err(format!("{command} takes no positional argument '{extra}'")),
        None => Ok(()),
    }
}

fn cmd_suite(registry: &Registry, opts: Options) -> Result<(), String> {
    reject_positional("suite", &opts)?;
    let names: Vec<String> = match &opts.solvers {
        Some(list) => list.clone(),
        None => registry.names().iter().map(|s| s.to_string()).collect(),
    };
    // lp-rounding solves a full LP per instance; keep it out of the default
    // sweep above small sizes so `parfaclo suite` stays interactive. Never
    // drop it silently: announce the exclusion and how to override it.
    //
    // Instance dimensions: --gen's n/nf/clusters are honoured; --size (when
    // given explicitly) overrides the client/node count.
    let n = if opts.size_given {
        opts.size
    } else if opts.gen_given {
        opts.gen.n
    } else {
        opts.size
    };
    let nf = if opts.gen_given {
        opts.gen.nf
    } else {
        (n / 2).max(1)
    };
    let before = names.len();
    let names: Vec<String> = names
        .into_iter()
        .filter(|name| opts.solvers.is_some() || name != "lp-rounding" || n <= 32)
        .collect();
    if names.len() < before && !opts.quiet {
        println!(
            "note: lp-rounding excluded from the default sweep at n > 32 \
             (pass --solvers ...,lp-rounding to force it)"
        );
    }
    // The clustering / dominator solvers need O(n²) transient memory even on
    // the implicit backend (sorted distinct distance sets, and CSR threshold
    // graphs holding about half of all pairs at the median threshold), so at
    // implicit-preset scales the default sweep keeps to the
    // facility-location family instead of refusing or spending minutes
    // mid-suite. Never dropped silently, and an explicit --solvers list
    // always wins.
    const CLUSTER_SWEEP_LIMIT: usize = 4096;
    let before = names.len();
    let names: Vec<String> = names
        .into_iter()
        .filter(|name| {
            opts.solvers.is_some()
                || n <= CLUSTER_SWEEP_LIMIT
                || registry
                    .get(name)
                    .is_some_and(|s| s.problem == ProblemKind::FacilityLocation)
        })
        .collect();
    if names.len() < before && !opts.quiet {
        println!(
            "note: clustering/dominator solvers excluded from the default sweep at \
             n > {CLUSTER_SWEEP_LIMIT} — their probes need O(n²) transient memory \
             regardless of backend (pass --solvers ... to force them)"
        );
    }
    let workloads = ["uniform", "clustered", "grid", "line", "planted"];
    let trace_session = start_trace(&opts);
    let mut runs = Vec::new();
    for workload in workloads {
        let spec = GenSpec {
            workload: workload.to_string(),
            n,
            nf,
            clusters: opts.gen.clusters,
            seed: opts.gen.seed,
        };
        let mut cache = InstanceCache::new(&spec, opts.cfg.seed, opts.cfg.backend);
        for name in &names {
            runs.push(run_solver_cached(registry, name, &mut cache, &opts.cfg)?);
        }
    }
    if !opts.quiet {
        println!(
            "suite: {} solvers x {} workloads at n = {n}, nf = {nf}\n",
            names.len(),
            workloads.len(),
        );
    }
    emit(&runs, opts.json.as_deref(), opts.quiet)?;
    finish_trace(trace_session, &opts)
}

/// Writes an artifact file, refusing to clobber an existing one unless the
/// user passed `--force` (a silently overwritten baseline is a lost
/// measurement).
fn write_artifact(path: &str, payload: &str, force: bool, quiet: bool) -> Result<(), String> {
    if !force && std::path::Path::new(path).exists() {
        return Err(format!(
            "refusing to overwrite existing artifact '{path}' (pass --force to replace it)"
        ));
    }
    std::fs::write(path, payload).map_err(|e| format!("writing {path}: {e}"))?;
    if !quiet {
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_bench(registry: &Registry, opts: Options) -> Result<(), String> {
    reject_positional("bench", &opts)?;
    // A gate with nothing to gate against is a CI invocation bug, not a
    // no-op: fail loudly instead of exiting green forever.
    if opts.fail_on_regress.is_some() && opts.baseline.is_none() {
        return Err("--fail-on-regress needs --baseline <artifact> to compare against".to_string());
    }
    let mut matrix = BenchMatrix::default();
    if let Some(solvers) = &opts.solvers {
        matrix.solvers = solvers.clone();
    }
    if let Some(workloads) = &opts.workloads {
        matrix.workloads = workloads.clone();
    }
    if let Some(backends) = &opts.backends {
        matrix.backends = backends.clone();
    }
    if let Some(coresets) = &opts.coresets {
        matrix.coresets = coresets.clone();
    }
    // A bare --coreset would silently apply to every clustering cell while
    // staying invisible in the matrix header; the sweep axis is explicit.
    if opts.coresets.is_none() && opts.cfg.coreset != Coreset::Off {
        matrix.coresets = vec![opts.cfg.coreset];
    }
    // --thread-list defines the sweep; a bare --threads pins the sweep to
    // that single count. Passing both is ambiguous, not silently resolved.
    match (&opts.thread_list, opts.cfg.threads) {
        (Some(_), Some(_)) => {
            return Err(
                "--threads and --thread-list conflict for bench; use --thread-list \
                 to sweep several counts or --threads for a single one"
                    .to_string(),
            )
        }
        (Some(list), None) => matrix.threads = list.clone(),
        (None, Some(n)) => matrix.threads = vec![n],
        (None, None) => {}
    }
    // Same precedence as `suite`: --gen contributes its dimensions, an
    // explicit --size overrides the node count. A --gen seed would be
    // invisible to the comparator's cell keys, so it must come in as the
    // run seed (recorded in the artifact's config section) instead.
    if opts.gen_given {
        if opts.gen.seed.is_some() {
            return Err(
                "--gen seed=... is not supported by bench; pass the seed as --seed \
                 so it is recorded in the artifact's config section"
                    .to_string(),
            );
        }
        matrix.n = opts.gen.n;
        matrix.nf = opts.gen.nf;
    }
    if opts.size_given {
        matrix.n = opts.size;
        if !opts.gen_given {
            matrix.nf = (opts.size / 2).max(1);
        }
    }
    matrix.warmup = opts.warmup;
    matrix.trials = opts.trials;
    let trace_session = start_trace(&opts);

    if !opts.quiet {
        println!(
            "bench: {} solvers x {} workloads x {} backends x {} thread counts \
             (clustering solvers x {} coresets) = {} cells, {} warmup + {} trials \
             each, n = {}, nf = {}\n",
            matrix.solvers.len(),
            matrix.workloads.len(),
            matrix.backends.len(),
            matrix.threads.len(),
            matrix.coresets.len(),
            matrix.cells(),
            matrix.warmup,
            matrix.trials,
            matrix.n,
            matrix.nf,
        );
    }
    let (artifact, runs) = run_matrix(registry, &matrix, &opts.cfg)?;
    if !opts.quiet {
        let table = Table::new(&[
            "solver",
            "workload",
            "backend",
            "coreset",
            "thr",
            "min_ms",
            "median_ms",
            "mean_ms",
            "stddev",
            "mem_bytes",
            "work",
        ]);
        for rec in &artifact.records {
            table.row(&[
                rec.solver.clone(),
                rec.workload.clone(),
                rec.backend.as_str().to_string(),
                rec.coreset.as_string(),
                rec.threads.to_string(),
                format!("{:.3}", rec.stats.min_ms),
                format!("{:.3}", rec.stats.median_ms),
                format!("{:.3}", rec.stats.mean_ms),
                format!("{:.3}", rec.stats.stddev_ms),
                rec.memory_bytes.to_string(),
                rec.work.element_ops.to_string(),
            ]);
        }
        println!(
            "\nall {} cells byte-deterministic across {} trials ({})",
            artifact.records.len(),
            matrix.trials,
            artifact.fingerprint.describe(),
        );
    }
    if let Some(path) = &opts.out {
        write_artifact(path, &artifact.to_json(), opts.force, opts.quiet)?;
    }
    // quiet=true: the bench table above already summarised the cells; emit
    // only handles the --json output here.
    emit(&runs, opts.json.as_deref(), true)?;
    finish_trace(trace_session, &opts)?;
    if let Some(path) = &opts.baseline {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading baseline {path}: {e}"))?;
        let base = BenchArtifact::parse(&text).map_err(|e| format!("baseline {path}: {e}"))?;
        let report = compare(&base, &artifact)?;
        // Display verdicts use the gating threshold when given, else a
        // generous default that only flags clear shifts on shared hardware.
        let display_pct = opts.fail_on_regress.unwrap_or(100.0);
        if !opts.quiet {
            println!(
                "\ncomparison vs {path}\n  baseline: {}\n  current:  {}\n",
                base.fingerprint.describe(),
                artifact.fingerprint.describe(),
            );
            let table = Table::new(&["cell", "base_ms", "cur_ms", "ratio", "verdict"]);
            for row in &report.rows {
                table.row(&[
                    row.key.clone(),
                    format!("{:.3}", row.baseline_ms),
                    format!("{:.3}", row.current_ms),
                    format!("{:.3}", row.ratio()),
                    row.verdict(display_pct).to_string(),
                ]);
            }
            // Name the culprit phase for each regressed cell (both sides
            // must carry per-phase medians for the join to be non-empty).
            for row in &report.rows {
                if row.verdict(display_pct) == "REGRESSED" {
                    if let Some((phase, ratio)) = row.worst_phase(display_pct) {
                        println!(
                            "  {}: worst phase '{phase}' ({ratio:.2}x baseline)",
                            row.key
                        );
                    }
                }
            }
            for key in &report.missing {
                println!("missing from current run (in baseline only): {key}");
            }
            for key in &report.added {
                println!("new cell (not in baseline): {key}");
            }
            println!(
                "\ngeomean ratio {:.3} over {} joined cell(s); {} regression(s) past {}%",
                report.geomean_ratio(),
                report.rows.len(),
                report.regressions(display_pct).len(),
                display_pct,
            );
        }
        if let Some(pct) = opts.fail_on_regress {
            let regressions = report.regressions(pct);
            if !regressions.is_empty() {
                let worst = regressions
                    .iter()
                    .map(|r| r.ratio())
                    .fold(f64::NEG_INFINITY, f64::max);
                return Err(format!(
                    "{} cell(s) regressed more than {pct}% vs {path} (worst {:.2}x): {}",
                    regressions.len(),
                    worst,
                    regressions
                        .iter()
                        .map(|r| r.key.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
    }
    Ok(())
}

fn cmd_ablation(registry: &Registry, opts: Options) -> Result<(), String> {
    reject_positional("ablation", &opts)?;
    let trace_session = start_trace(&opts);
    let mut runs = Vec::new();
    // One generated instance serves the whole grid (the knobs and ε vary,
    // the workload and seed do not).
    let mut cache = InstanceCache::new(&opts.gen, opts.cfg.seed, opts.cfg.backend);
    // Knob grid: preprocessing and subselection on/off.
    for &preprocess in &[true, false] {
        for &subselection in &[true, false] {
            let mut cfg = opts.cfg.clone();
            cfg.preprocess = preprocess;
            cfg.subselection = subselection;
            runs.push(run_solver_cached(registry, "greedy", &mut cache, &cfg)?);
        }
    }
    // Epsilon sweep with default knobs.
    for &eps in &[0.01, 0.05, 0.1, 0.25, 0.5, 1.0] {
        let mut cfg = opts.cfg.clone();
        cfg.epsilon = eps;
        runs.push(run_solver_cached(registry, "greedy", &mut cache, &cfg)?);
        runs.push(run_solver_cached(
            registry,
            "primal-dual",
            &mut cache,
            &cfg,
        )?);
    }
    if !opts.quiet {
        println!("ablation: greedy knob grid (4 combos) + eps sweep (6 values x 2 solvers)\n");
    }
    emit(&runs, opts.json.as_deref(), opts.quiet)?;
    finish_trace(trace_session, &opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn non_finite_or_non_positive_eps_is_a_usage_error() {
        for eps in ["nan", "inf", "-inf", "0", "-1", "1.0000001", "1e300"] {
            let err = dispatch(&args(&format!(
                "run greedy --gen uniform:n=30,k=15 --eps {eps}"
            )))
            .expect_err(eps);
            assert!(err.contains("--eps"), "--eps {eps}: {err}");
            assert!(err.contains("(0, 1]"), "--eps {eps}: {err}");
        }
        let opts = parse_options(&args("--eps 1")).expect("eps = 1 is valid");
        assert_eq!(opts.cfg.epsilon, 1.0);
    }

    #[test]
    fn non_finite_or_negative_threshold_is_a_usage_error() {
        for threshold in ["nan", "inf", "-1"] {
            let err = dispatch(&args(&format!(
                "run maxdom --gen uniform:n=30 --threshold {threshold}"
            )))
            .expect_err(threshold);
            assert!(
                err.contains("--threshold"),
                "--threshold {threshold}: {err}"
            );
        }
        let opts = parse_options(&args("--threshold 0")).expect("a zero threshold is valid");
        assert_eq!(opts.cfg.threshold, Some(0.0));
    }

    #[test]
    fn deleted_flags_are_unknown_options() {
        for flag in ["--graph", "--graphs", "--emit-bench"] {
            for command in ["run maxdom --gen uniform:n=30", "bench", "suite"] {
                let err = dispatch(&args(&format!("{command} {flag} csr"))).expect_err(flag);
                assert!(
                    err.starts_with(&format!("unknown option '{flag}'")),
                    "{command} {flag}: {err}"
                );
            }
        }
        assert!(!USAGE.contains("--graph") && !USAGE.contains("--emit-bench"));
    }
}

//! Repository benchmark for the parfaclo solvers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fl-5k|cluster-2k> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload's operations for `--seconds`, visiting
//! the workload's instances in turn with a pass at one thread and one at
//! `nproc` threads, after building the instance several times; it reports
//! the end-to-end metrics. `--trace 1` makes one untraced pass at each
//! thread count, one pass under a
//! rounds-level tracer, and times each layer's public calls on the
//! workload's instance; it reports the per-layer metrics and writes the
//! Chrome traces under `perfbench/results/`.
//!
//! Every metric is printed by name with its unit; the last line of standard
//! output is one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! Solves go through `standard_registry()` and instances through
//! `GenSpec::instance`, the path the `parfaclo` CLI runs.

mod layers;
mod ops;
mod report;

use layers::median;
use ops::{Tally, Workload, OPS, WORKLOAD_NAMES};
use parfaclo_api::{AnyInstance, ProblemKind, Run, TraceDetail, Tracer};
use parfaclo_bench::standard_registry;
use report::MetricDef;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// A timed run builds the instance at least `SETUP_MIN_REPS` times and
/// keeps rebuilding until `SETUP_SECS` have passed (at most
/// `SETUP_MAX_REPS` builds); `setup_s` is the median build.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 10_000;
const SETUP_SECS: f64 = 1.0;
/// Visits every instance of a timed run gets, however long they take.
const MIN_VISITS: u64 = 2;

/// Solver phase spans reported as per-layer metrics: (operation, span, metric).
const PHASES: [(&str, &str, &str); 16] = [
    ("greedy", "orders-build", "core.greedy.orders_build_ms"),
    ("greedy", "star-rounds", "core.greedy.star_rounds_ms"),
    ("greedy", "finalize", "core.greedy.finalize_ms"),
    (
        "primal-dual",
        "dual-ascent",
        "core.primal_dual.dual_ascent_ms",
    ),
    (
        "primal-dual",
        "postprocess-maxudom",
        "core.primal_dual.postprocess_ms",
    ),
    ("primal-dual", "certify", "core.primal_dual.certify_ms"),
    (
        "maxdom",
        "derive-threshold",
        "dominator.maxdom.derive_threshold_ms",
    ),
    (
        "maxdom",
        "threshold-graph",
        "dominator.maxdom.threshold_graph_ms",
    ),
    ("maxdom", "luby-rounds", "dominator.maxdom.luby_rounds_ms"),
    ("mis", "threshold-graph", "dominator.mis.threshold_graph_ms"),
    ("mis", "luby-rounds", "dominator.mis.luby_rounds_ms"),
    (
        "kcenter",
        "derive-radii",
        "kclustering.kcenter.derive_radii_ms",
    ),
    (
        "kcenter",
        "probe-search",
        "kclustering.kcenter.probe_search_ms",
    ),
    (
        "kmedian-ls",
        "swap-search",
        "kclustering.kmedian.swap_search_ms",
    ),
    (
        "kmedian-ls-coreset",
        "coreset-build",
        "kclustering.kmedian.coreset_build_ms",
    ),
    (
        "kmedian-ls-coreset",
        "full-sweep",
        "kclustering.kmedian.full_sweep_ms",
    ),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::named(&value).ok_or_else(|| {
                    format!(
                        "unknown workload '{value}' (expected {})",
                        WORKLOAD_NAMES.join("|")
                    )
                })?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("invalid --seed '{value}'"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("invalid --seconds '{value}'"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Everything one run reports.
struct Outcome {
    metrics: Vec<(String, f64)>,
    tally: Tally,
    /// GBBS-style rows: operation, T1 seconds, Tp seconds.
    speedup: Vec<(&'static str, f64, f64)>,
    /// Provenance lines: instance sizes, instance and pass counts, pass
    /// times, per-instance peaks, trace location.
    notes: Vec<String>,
}

fn describe(label: &str, inst: &AnyInstance) -> String {
    format!(
        "{label}: {} n={} m={} backend={}",
        inst.describes(),
        inst.n(),
        inst.m(),
        inst.backend()
    )
}

fn speedup_rows(w: &Workload, t1: &[Vec<f64>], tp: &[Vec<f64>]) -> Vec<(&'static str, f64, f64)> {
    let column =
        |passes: &[Vec<f64>], i: usize| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>());
    w.ops
        .iter()
        .enumerate()
        .map(|(i, op)| (*op, column(t1, i), column(tp, i)))
        .collect()
}

/// End-to-end run of `seconds` in all: repeated set-up, the peak-memory
/// children, then visits to the workload's instances in turn until the
/// time is spent. Instance `i` comes from [`ops::instance_seed`], so a run
/// averages over several instances. A visit rebuilds its instance (another
/// set-up sample) and runs a pass at one thread, then one at `nproc`
/// threads; each operation keeps its fastest visit per instance and thread
/// count. Other tenants of a shared host slow passes by up to 80% for
/// up to 40 s at a time, so an instance's visits are spread over the whole
/// run, and its fastest one is the least disturbed. After `MIN_VISITS` per
/// instance, a visit starts only if the previous one's duration fits.
/// Solve times are per-operation medians over the instances, summed.
/// `peak_rss_mb` is the median over instances of [`fresh_peak_kb`].
fn timed(w: &Workload, seed: u64, seconds: f64, nproc: usize) -> Result<Outcome, String> {
    let start = Instant::now();
    let registry = standard_registry();
    let mut setups = Vec::new();
    let mut inst = None;
    let build = |inst: &mut Option<AnyInstance>, setups: &mut Vec<f64>, seed: u64| {
        drop(inst.take());
        let start = Instant::now();
        *inst = Some(w.build(seed)?);
        setups.push(start.elapsed().as_secs_f64());
        Ok::<(), String>(())
    };
    while setups.len() < SETUP_MIN_REPS
        || (setups.iter().sum::<f64>() < SETUP_SECS && setups.len() < SETUP_MAX_REPS)
    {
        build(&mut inst, &mut setups, seed)?;
    }
    let seeds: Vec<u64> = (0..w.instances)
        .map(|i| ops::instance_seed(seed, i))
        .collect();
    let peaks_kb = seeds
        .iter()
        .map(|&s| fresh_peak_kb(w, s).map(|kb| kb as f64))
        .collect::<Result<Vec<f64>, String>>()?;
    let mut tally = Tally::default();
    let ops_len = w.ops.len();
    // Fastest seconds per instance and operation: [one thread, nproc].
    let mut best = vec![[vec![f64::INFINITY; ops_len], vec![f64::INFINITY; ops_len]]; seeds.len()];
    let mut last_visit = 0.0;
    let mut visits = 0;
    while visits < MIN_VISITS * w.instances || start.elapsed().as_secs_f64() + last_visit <= seconds
    {
        let began = Instant::now();
        let i = (visits % w.instances) as usize;
        build(&mut inst, &mut setups, seeds[i])?;
        let inst = inst.as_ref().expect("built above");
        for (fastest, threads) in best[i].iter_mut().zip([1, nproc]) {
            let pass = ops::pass(&registry, w, inst, seeds[i], threads, &mut tally);
            for (f, t) in fastest.iter_mut().zip(pass) {
                *f = f.min(t);
            }
        }
        visits += 1;
        last_visit = began.elapsed().as_secs_f64();
    }
    let (t1, tp): (Vec<Vec<f64>>, Vec<Vec<f64>>) =
        best.into_iter().map(|[one, many]| (one, many)).unzip();
    let pass_totals =
        |passes: &[Vec<f64>]| passes.iter().map(|p| p.iter().sum()).collect::<Vec<f64>>();
    let speedup = speedup_rows(w, &t1, &tp);
    let metrics = vec![
        ("solve_s".to_string(), speedup.iter().map(|r| r.2).sum()),
        ("solve_1t_s".to_string(), speedup.iter().map(|r| r.1).sum()),
        ("setup_s".to_string(), median(&setups)),
        ("peak_rss_mb".to_string(), median(&peaks_kb) / 1024.0),
        ("ok_frac".to_string(), tally.ok_frac()),
    ];
    Ok(Outcome {
        metrics,
        speedup,
        notes: vec![
            describe("instance", inst.as_ref().expect("built above")),
            format!(
                "set-ups: {}; instances: {}; visits: {visits}",
                setups.len(),
                w.instances
            ),
            format!("fastest-visit seconds at nproc: {:.3?}", pass_totals(&tp)),
            format!(
                "fastest-visit seconds at 1 thread: {:.3?}",
                pass_totals(&t1)
            ),
            format!(
                "peak MiB per instance: {:.1?}",
                peaks_kb.iter().map(|kb| kb / 1024.0).collect::<Vec<_>>()
            ),
        ],
        tally,
    })
}

/// First argument of the child mode behind [`fresh_peak_kb`].
const FRESH_PEAK: &str = "--fresh-peak";

/// Peak resident set (`VmHWM`, kB) of a fresh process that builds instance
/// `seed` of the workload and solves it once at one thread: this executable
/// again, in [`FRESH_PEAK`] mode. Measured in the benchmark's own process,
/// the peak depends on what ran before: glibc raises its mmap threshold as
/// large blocks are freed, and which thread's arena serves an allocation
/// varies between `nproc` passes, so peaks of one instance differed by a
/// quarter.
fn fresh_peak_kb(w: &Workload, seed: u64) -> Result<u64, String> {
    if cfg!(test) {
        // A unit-test binary cannot be started in child mode.
        return fresh_peak(w, seed);
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perfbench: {e}"))?;
    let output = std::process::Command::new(exe)
        .args([FRESH_PEAK, w.name, &seed.to_string()])
        .output()
        .map_err(|e| format!("cannot start the peak-memory child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "peak-memory child failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .trim()
        .parse()
        .map_err(|_| format!("peak-memory child printed '{}'", stdout.trim()))
}

/// Builds instance `seed`, runs one one-thread pass and reads `VmHWM`.
fn fresh_peak(w: &Workload, seed: u64) -> Result<u64, String> {
    let inst = w.build(seed)?;
    let mut tally = Tally::default();
    ops::pass(&standard_registry(), w, &inst, seed, 1, &mut tally);
    if tally.failed > 0 {
        return Err(tally.reasons.join("; "));
    }
    report::proc_status_kb("VmHWM").ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Child mode: `--fresh-peak <workload> <seed>` prints [`fresh_peak`] in kB.
fn fresh_peak_child(args: &[String]) -> Result<u64, String> {
    let [name, seed] = args else {
        return Err(format!("usage: perfbench {FRESH_PEAK} <workload> <seed>"));
    };
    let w = Workload::named(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = seed.parse().map_err(|_| format!("invalid seed '{seed}'"))?;
    fresh_peak(&w, seed)
}

fn family(op: &ops::Op) -> ProblemKind {
    match op.solver {
        "greedy" | "primal-dual" => ProblemKind::FacilityLocation,
        _ => ProblemKind::KClustering,
    }
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Share of the run's wall time spent in top-level phases whose spans
/// metered zero element operations.
fn zero_work_share(run: &Run, tracer: &Tracer) -> f64 {
    let summary = tracer.phase_summary();
    let idle: f64 = run
        .phase_wall_ms
        .iter()
        .filter(|(name, _)| {
            summary
                .iter()
                .any(|row| row.name == *name && row.element_ops == 0)
        })
        .map(|(_, ms)| ms)
        .sum();
    idle / run.wall_ms.max(f64::MIN_POSITIVE)
}

/// Per-layer run: untraced passes at `nproc` and one thread, a traced pass
/// over every operation (the workload's own on its instance, the rest on
/// the probe instance), then the layer timings.
fn traced(w: &Workload, seed: u64, nproc: usize) -> Result<Outcome, String> {
    let registry = standard_registry();
    let rss_before_kb = report::proc_status_kb("VmRSS").ok_or("no VmRSS in /proc/self/status")?;
    let inst = w.build(seed)?;
    let mut tally = Tally::default();
    let tp = ops::pass(&registry, w, &inst, seed, nproc, &mut tally);
    let t1 = ops::pass(&registry, w, &inst, seed, 1, &mut tally);
    let peak_kb = report::proc_status_kb("VmHWM").ok_or("no VmHWM in /proc/self/status")?;

    let probe = w.probe_spec();
    let mut probe_fl = None;
    let mut probe_cluster = None;
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut traced_total = 0.0;
    let mut cluster_radius = None;
    let mut centers = Vec::new();
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for op in &OPS {
        let own = w.ops.contains(&op.name);
        let (instance, cfg, key) = if own {
            (
                &inst,
                ops::base_config(seed, nproc, op),
                format!("{}@{seed}", op.name),
            )
        } else {
            let slot = match family(op) {
                ProblemKind::FacilityLocation => &mut probe_fl,
                _ => &mut probe_cluster,
            };
            if slot.is_none() {
                *slot = Some(
                    probe
                        .instance(family(op), seed, parfaclo_api::Backend::Spatial)
                        .map_err(|e| format!("probe set-up failed: {e}"))?,
                );
            }
            let instance = slot.as_ref().expect("filled above");
            (
                instance,
                ops::base_config(seed, nproc, op),
                format!("{}@probe{seed}", op.name),
            )
        };
        let tracer = Arc::new(Tracer::new(TraceDetail::Rounds));
        let guard = parfaclo_trace::install(Arc::clone(&tracer));
        let (run, secs) = ops::run_checked(&registry, op, instance, &cfg, &key, &mut tally);
        drop(guard);
        let path = dir.join(format!("{}-seed{seed}-{}.trace.json", w.name, op.name));
        std::fs::write(&path, tracer.chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(run) = run else { continue };
        if own {
            traced_total += secs;
        }
        for (_, span, metric) in PHASES.iter().filter(|(o, _, _)| *o == op.name) {
            if let Some((_, ms)) = run.phase_wall_ms.iter().find(|(name, _)| name == span) {
                metrics.push((metric.to_string(), *ms));
            }
        }
        metrics.push((format!("{}.rounds", op.name), run.rounds as f64));
        metrics.push((
            format!("{}.element_ops", op.name),
            run.work.element_ops as f64,
        ));
        metrics.push((format!("{}.sorts", op.name), run.work.sort_calls as f64));
        metrics.push((
            format!("{}.zero_work_share", op.name),
            zero_work_share(&run, &tracer),
        ));
        // maxdom runs on the clustering instance the graph layer uses.
        if op.name == "maxdom" {
            cluster_radius = run
                .extra
                .iter()
                .find(|(k, _)| k == "threshold")
                .map(|(_, v)| *v);
        }
        if own && run.problem == ProblemKind::KClustering {
            centers = run.selected.clone();
        }
    }

    let cluster = match w.problem {
        ProblemKind::FacilityLocation => probe_cluster.as_ref(),
        _ => Some(&inst),
    }
    .ok_or("no clustering instance for the graph layer")?;
    let fl = match (&inst, &probe_fl) {
        (AnyInstance::Fl(fl), _) | (_, Some(AnyInstance::Fl(fl))) => fl,
        _ => return Err("no facility-location instance for the lp layer".to_string()),
    };
    let inputs = layers::Inputs {
        spec: &w.spec,
        problem: w.problem,
        seed,
        inst: &inst,
        cluster,
        cluster_radius: cluster_radius.ok_or("maxdom reported no threshold")?,
        fl,
        centers: &centers,
        nproc,
    };
    metrics.extend(layers::measure(&inputs));

    let get = |metrics: &[(String, f64)], name: &str| {
        metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    };
    if let (Some(finalize), Some(sweep)) = (
        get(&metrics, "core.greedy.finalize_ms"),
        get(&metrics, "lp.check_alpha_feasible_ms"),
    ) {
        metrics.push(("lp.sweeps_per_finalize".to_string(), finalize / sweep));
    }
    let (tp_total, t1_total): (f64, f64) = (tp.iter().sum(), t1.iter().sum());
    metrics.push(("pool.self_speedup".to_string(), t1_total / tp_total));
    let growth = peak_kb.saturating_sub(rss_before_kb).max(1) as f64 * 1024.0;
    metrics.push((
        "api.memory_estimate_ratio".to_string(),
        inst.memory_bytes() as f64 / growth,
    ));
    metrics.push((
        "trace.overhead_pct".to_string(),
        (traced_total / tp_total - 1.0) * 100.0,
    ));

    let mut notes = vec![describe("instance", &inst)];
    for (label, probe_inst) in [("probe fl", &probe_fl), ("probe cluster", &probe_cluster)] {
        if let Some(p) = probe_inst {
            notes.push(describe(label, p));
        }
    }
    notes.push(format!("chrome traces: {}", dir.display()));
    Ok(Outcome {
        metrics,
        speedup: speedup_rows(w, &[t1], &[tp]),
        notes,
        tally,
    })
}

/// Prints the run: provenance, every metric with its unit, the T1/Tp table,
/// failures, and the result JSON as the last line. Also writes the result
/// file under `perfbench/results/`.
fn report(args: &Args, nproc: usize, defs: &[MetricDef], outcome: &Outcome) {
    let w = &args.workload;
    let commit = report::commit();
    println!(
        "perfbench workload={} seed={} nproc={nproc} trace={} commit={commit}",
        w.name, args.seed, args.trace as u8
    );
    for line in &outcome.notes {
        println!("  {line}");
    }
    println!("{:<40} {:>16} {:<9} should move", "metric", "value", "unit");
    for d in defs {
        match outcome.metrics.iter().find(|(n, _)| *n == d.name) {
            Some((_, v)) => println!("{:<40} {:>16.6} {:<9} {}", d.name, v, d.unit, d.moves),
            None => println!("{:<40} {:>16} {:<9} {}", d.name, "missing", d.unit, d.moves),
        }
    }
    println!(
        "{:<20} {:>10} {:>10} {:>8}",
        "operation", "T1_s", "Tp_s", "speedup"
    );
    for (op, t1, tp) in &outcome.speedup {
        println!("{op:<20} {t1:>10.4} {tp:>10.4} {:>8.3}", t1 / tp);
    }
    let tally = &outcome.tally;
    println!(
        "failed_frac: {} ({} of {})",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for reason in &tally.reasons {
        println!("  failure: {reason}");
    }
    let complete = defs
        .iter()
        .all(|d| outcome.metrics.iter().any(|(n, _)| *n == d.name));
    let metrics = report::metrics_json(defs, &outcome.metrics);
    let line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        tally.failed == 0 && complete,
        tally.attempted,
        tally.failed
    );
    let record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"nproc\":{nproc},\"trace\":{},\"commit\":\"{}\",\
         \"notes\":[{}],\"result\":{line}}}\n",
        w.name,
        args.seed,
        args.trace,
        report::escape(&commit),
        outcome
            .notes
            .iter()
            .map(|s| format!("\"{}\"", report::escape(s)))
            .collect::<Vec<_>>()
            .join(",")
    );
    let path = results_dir().join(format!(
        "{}-seed{}-trace{}.json",
        w.name, args.seed, args.trace as u8
    ));
    if let Err(e) =
        std::fs::create_dir_all(results_dir()).and_then(|_| std::fs::write(&path, record))
    {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    println!("{line}");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(FRESH_PEAK) {
        match fresh_peak_child(&argv[1..]) {
            Ok(kb) => println!("{kb}"),
            Err(e) => {
                eprintln!("perfbench {FRESH_PEAK}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let args = parse_args(argv.into_iter()).unwrap_or_else(|e| {
        eprintln!(
            "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            WORKLOAD_NAMES.join("|")
        );
        std::process::exit(2);
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (outcome, defs) = if args.trace {
        (
            traced(&args.workload, args.seed, nproc),
            report::per_layer(),
        )
    } else {
        (
            timed(&args.workload, args.seed, args.seconds, nproc),
            report::end_to_end(),
        )
    };
    match outcome {
        Ok(outcome) => report(&args, nproc, &defs, &outcome),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names listed in one section of `BENCHMARK.json`, in order.
    fn benchmark_names(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("sections are lists")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').expect("quoted name") + 1..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    fn toy(name: &str) -> Workload {
        let mut w = Workload::named(name).expect("known workload");
        w.spec.n = 300;
        w.spec.nf = w.spec.nf.min(20);
        w
    }

    fn sorted(names: impl Iterator<Item = String>) -> Vec<String> {
        let mut names: Vec<String> = names.collect();
        names.sort();
        names
    }

    #[test]
    fn every_benchmark_metric_is_emitted_at_toy_size() {
        let e2e: Vec<String> = report::end_to_end().into_iter().map(|d| d.name).collect();
        let layer: Vec<String> = report::per_layer().into_iter().map(|d| d.name).collect();
        assert_eq!(benchmark_names("end_to_end"), e2e);
        assert_eq!(benchmark_names("per_layer"), layer);
        for name in WORKLOAD_NAMES {
            let w = toy(name);
            for (outcome, expected) in [(timed(&w, 3, 0.01, 2), &e2e), (traced(&w, 3, 2), &layer)] {
                let outcome = outcome.unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(
                    outcome.tally.failed, 0,
                    "{name}: {:?}",
                    outcome.tally.reasons
                );
                assert_eq!(
                    sorted(outcome.metrics.iter().map(|(n, _)| n.clone())),
                    sorted(expected.iter().cloned()),
                    "{name}: emitted metrics differ from BENCHMARK.json"
                );
                assert!(outcome.metrics.iter().all(|(_, v)| v.is_finite()), "{name}");
            }
        }
    }

    #[test]
    fn arguments_are_all_required_and_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload fl-5k --seed 1 --seconds 5 --trace 0").is_ok());
        assert!(parse("--workload fl-5k --seed 1 --seconds 5").is_err());
        assert!(parse("--workload nope --seed 1 --seconds 5 --trace 0").is_err());
        assert!(parse("--workload fl-5k --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload fl-5k --seed 1 --seconds 5 --trace 2").is_err());
    }
}

//! The metric catalogue, process memory probes and result output.

use crate::ops::OPS;

/// One metric the benchmark emits.
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// Which end-to-end metric, on which workload, the metric should move.
    pub moves: &'static str,
}

fn def(name: &str, unit: &'static str, moves: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        moves,
    }
}

/// Metrics of a timed run (`--trace 0`), as a user of the solvers sees them.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def(
            "solve_s",
            "s",
            "seconds of the workload's operations at nproc threads (per operation, median over instances of the fastest visit; summed)",
        ),
        def("solve_1t_s", "s", "the same at one thread"),
        def(
            "setup_s",
            "s",
            "median seconds of GenSpec::instance: generator plus spatial indexes",
        ),
        def(
            "peak_rss_mb",
            "MiB",
            "median over instances of the peak resident set (VmHWM) of a fresh process that builds the instance and solves it at one thread",
        ),
        def(
            "ok_frac",
            "fraction",
            "operations that passed every output check / attempted",
        ),
    ]
}

/// Metrics of a traced run (`--trace 1`).
pub fn per_layer() -> Vec<MetricDef> {
    let fl = "solve_s and solve_1t_s on fl-5k";
    let cluster = "solve_s on cluster-2k";
    let mut defs = vec![
        def("core.greedy.orders_build_ms", "ms", fl),
        def("core.greedy.star_rounds_ms", "ms", fl),
        def("core.greedy.finalize_ms", "ms", fl),
        def("core.primal_dual.dual_ascent_ms", "ms", fl),
        def("core.primal_dual.postprocess_ms", "ms", fl),
        def("core.primal_dual.certify_ms", "ms", fl),
        def(
            "lp.check_alpha_feasible_ms",
            "ms",
            "solve_s on fl-5k, nothing elsewhere",
        ),
        def(
            "lp.sweeps_per_finalize",
            "count",
            "solve_s on fl-5k, nothing elsewhere",
        ),
        def("bucket.insert_ns", "ns", "solve_s on fl-5k (dual ascent)"),
        def(
            "bucket.extract_ready_ns",
            "ns",
            "solve_s on fl-5k (dual ascent)",
        ),
        def(
            "kernel.dist_range_ns",
            "ns",
            "solve_s on fl-5k (star rounds) and cluster-2k (coreset nearest sweep)",
        ),
        def(
            "kernel.argmin_range_ns",
            "ns",
            "solve_s on fl-5k (star rounds) and cluster-2k (coreset nearest sweep)",
        ),
        def("spatial.build_ms", "ms", "setup_s on fl-5k and cluster-2k"),
        def("spatial.range_us", "us", cluster),
        def("spatial.nearest_us", "us", cluster),
        def("metric.gen_ms", "ms", "setup_s on every workload"),
        def("metric.rows_within_us", "us", cluster),
        def("metric.nearest_in_set_all_ms", "ms", cluster),
        def("graph.csr_build_ms", "ms", cluster),
        def("graph.csr_edges", "count", cluster),
        def("graph.edge_map_dense_ms", "ms", cluster),
        def("graph.edge_map_sparse_ms", "ms", cluster),
        def("dominator.maxdom.derive_threshold_ms", "ms", cluster),
        def("dominator.maxdom.threshold_graph_ms", "ms", cluster),
        def("dominator.maxdom.luby_rounds_ms", "ms", cluster),
        def("dominator.mis.threshold_graph_ms", "ms", cluster),
        def("dominator.mis.luby_rounds_ms", "ms", cluster),
        def("kclustering.kcenter.derive_radii_ms", "ms", cluster),
        def("kclustering.kcenter.probe_search_ms", "ms", cluster),
        def("kclustering.kmedian.swap_search_ms", "ms", cluster),
        def("kclustering.kmedian.coreset_build_ms", "ms", cluster),
        def("kclustering.kmedian.full_sweep_ms", "ms", cluster),
        def("matrixops.sort_values_ms", "ms", cluster),
        def("matrixops.sorted_distinct_ms", "ms", cluster),
        def("matrixops.reduce_ms", "ms", cluster),
        def("matrixops.inclusive_scan_ms", "ms", cluster),
        def(
            "pool.join_us",
            "us",
            "solve_s on cluster-2k; solve_1t_s unchanged everywhere",
        ),
        def(
            "pool.par_for_each_ns",
            "ns",
            "solve_s on cluster-2k; solve_1t_s unchanged everywhere",
        ),
        def(
            "pool.par_sort_ms",
            "ms",
            "solve_s on cluster-2k; solve_1t_s unchanged everywhere",
        ),
        def(
            "pool.par_sort_1t_ms",
            "ms",
            "solve_1t_s: unchanged everywhere",
        ),
        def(
            "pool.self_speedup",
            "x",
            "solve_s on cluster-2k; solve_1t_s unchanged everywhere",
        ),
        def(
            "api.memory_estimate_ratio",
            "x",
            "peak_rss_mb: how far Run.memory_bytes is from real memory",
        ),
        def(
            "trace.overhead_pct",
            "%",
            "nothing: traced against untraced solve time",
        ),
    ];
    for op in &OPS {
        for (count, unit) in [
            ("rounds", "count"),
            ("element_ops", "count"),
            ("sorts", "count"),
            ("zero_work_share", "fraction"),
        ] {
            defs.push(MetricDef {
                name: format!("{}.{count}", op.name),
                unit,
                moves: "explains changes; not gated",
            });
        }
    }
    defs
}

/// Reads a `kB` field of `/proc/self/status` (e.g. `VmHWM`, `VmRSS`).
pub fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().trim_end_matches("kB").trim().parse().ok()
    })
}

/// The checked-out commit, when the benchmark runs inside a git work tree.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

/// Formats a finite number as JSON (Rust's `Display` never uses exponents).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// `{"name": {"value": v, "unit": u}, ...}` in catalogue order.
pub fn metrics_json(defs: &[MetricDef], values: &[(String, f64)]) -> String {
    let fields: Vec<String> = defs
        .iter()
        .filter_map(|d| {
            let (_, v) = values.iter().find(|(name, _)| *name == d.name)?;
            Some(format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                d.name,
                num(*v),
                d.unit
            ))
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

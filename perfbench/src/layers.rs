//! Per-layer timings: direct calls into each crate's public functions on
//! inputs taken from the workload's own instance.
//!
//! Every timing is the median of a few repetitions and is reported per unit
//! of work (per point, per query, per entry) where the layer has one.

use parfaclo_api::{AnyInstance, Backend, ProblemKind};
use parfaclo_bench::runner::GenSpec;
use parfaclo_bucket::{BucketMapping, BucketQueue};
use parfaclo_graph::{edge_map, CsrGraph, VertexSubset};
use parfaclo_kernel::{block, DistanceKind, SoaPoints};
use parfaclo_matrixops::ops::{reduce, AssocOp};
use parfaclo_matrixops::scan::inclusive_scan;
use parfaclo_matrixops::sort::{sort_values, sorted_distinct};
use parfaclo_matrixops::{CostMeter, ExecPolicy};
use parfaclo_metric::{DistanceOracle, FlInstance, Oracle, Point};
use parfaclo_spatial::SpatialIndex;
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Named per-layer values, in emission order.
pub type Metrics = Vec<(String, f64)>;

/// Distance evaluations per kernel timing (enough to dwarf call overhead).
const KERNEL_EVALS: usize = 8_000_000;
/// Entries of the distance matrix the sort/reduce/scan timings run over.
const MATRIX_VALUES: usize = 4_000_000;
/// Queries per nearest-neighbour timing.
const NEAREST_QUERIES: usize = 20_000;
/// Queries per range timing on clustering instances.
const RANGE_QUERIES: usize = 1_000;
/// Samples behind each median.
const REPS: usize = 3;
/// Each sample repeats its call until this many seconds have passed, so
/// sub-millisecond calls are not lost in timer and scheduling noise.
const MIN_SAMPLE_SECS: f64 = 0.02;

fn push(out: &mut Metrics, name: &str, value: f64) {
    out.push((name.to_string(), value));
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Median seconds per call of `f` over [`REPS`] samples.
fn per_call(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0;
            loop {
                f();
                calls += 1;
                let secs = start.elapsed().as_secs_f64();
                if secs >= MIN_SAMPLE_SECS {
                    return secs / calls as f64;
                }
            }
        })
        .collect();
    median(&samples)
}

fn flat(points: &[Point]) -> (Vec<f64>, usize) {
    let dim = points.first().map_or(0, Point::dim);
    (
        points
            .iter()
            .flat_map(|p| p.coords().iter().copied())
            .collect(),
        dim,
    )
}

/// Midpoints of consecutive points, cycled to `count` queries: query points
/// drawn from the workload's distribution that are not themselves indexed.
fn midpoints(points: &[Point], count: usize) -> Vec<Vec<f64>> {
    let n = points.len();
    (0..count)
        .map(|q| {
            let (a, b) = (points[q % n].coords(), points[(q + 1) % n].coords());
            a.iter().zip(b).map(|(x, y)| 0.5 * (x + y)).collect()
        })
        .collect()
}

fn spatial_oracle(oracle: &Oracle) -> &parfaclo_metric::SpatialOracle {
    oracle
        .as_spatial()
        .expect("benchmark instances use the spatial backend")
}

/// Row-side points of an instance (clients or nodes) and, for facility
/// location, the facility points.
fn points(inst: &AnyInstance) -> (&[Point], Option<&[Point]>) {
    match inst {
        AnyInstance::Fl(fl) => (
            fl.client_points().expect("generated instances keep points"),
            fl.facility_points(),
        ),
        AnyInstance::Cluster(c) => (c.points().expect("generated instances keep points"), None),
    }
}

fn oracle(inst: &AnyInstance) -> &Oracle {
    match inst {
        AnyInstance::Fl(fl) => fl.distances(),
        AnyInstance::Cluster(c) => c.distances(),
    }
}

/// What the layer timings need to know about the workload.
pub struct Inputs<'a> {
    pub spec: &'a GenSpec,
    pub problem: ProblemKind,
    pub seed: u64,
    pub inst: &'a AnyInstance,
    /// Clustering instance for the graph layer (the workload's own, or its
    /// probe for facility-location workloads).
    pub cluster: &'a AnyInstance,
    /// Threshold the dominator operations used on `cluster`.
    pub cluster_radius: f64,
    /// Facility-location instance for the lp layer (own or probe).
    pub fl: &'a FlInstance,
    /// Centers for the nearest-in-set sweep on clustering instances.
    pub centers: &'a [usize],
    pub nproc: usize,
}

/// Runs every layer timing inside an `nproc`-thread pool.
pub fn measure(inp: &Inputs<'_>) -> Metrics {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(inp.nproc)
        .build()
        .expect("thread pool construction is infallible");
    pool.install(|| measure_in_pool(inp))
}

fn measure_in_pool(inp: &Inputs<'_>) -> Metrics {
    let mut out = Metrics::new();
    let orc = oracle(inp.inst);
    let kind = spatial_oracle(orc).implicit().kind();
    let (rows, facilities) = points(inp.inst);

    // metric: the nearest-in-set sweep also yields the bucket keys and the
    // facility-location α (twice each client's nearest-facility distance).
    let set: Vec<usize> = match facilities {
        Some(f) => (0..f.len()).collect(),
        None => inp.centers.to_vec(),
    };
    let mut nearest = Vec::new();
    let sweep = per_call(|| nearest = orc.nearest_in_set_all(&set));
    let keys: Vec<f64> = nearest
        .iter()
        .map(|n| n.expect("non-empty set").1)
        .collect();
    let gen = per_call(|| {
        black_box(
            inp.spec
                .instance(inp.problem, inp.seed, Backend::Implicit)
                .expect("the workload built once already"),
        );
    });
    // A facility-location workload's range queries are the lp sweep's: every
    // facility, at radius max α. Clustering workloads query their threshold.
    let (radius, range_cols, range_queries): (f64, Vec<usize>, Vec<Vec<f64>>) = match facilities {
        Some(f) => (
            keys.iter().fold(0.0_f64, |m, &d| m.max(2.0 * d)),
            (0..f.len()).collect(),
            f.iter().map(|p| p.coords().to_vec()).collect(),
        ),
        None => {
            let step = (rows.len() / RANGE_QUERIES).max(1);
            (
                inp.cluster_radius,
                (0..rows.len()).step_by(step).collect(),
                midpoints(rows, RANGE_QUERIES),
            )
        }
    };
    let within = per_call(|| {
        for &c in &range_cols {
            black_box(orc.rows_within(c, radius));
        }
    });
    push(&mut out, "metric.gen_ms", gen * 1e3);
    push(
        &mut out,
        "metric.rows_within_us",
        within * 1e6 / range_cols.len() as f64,
    );
    push(&mut out, "metric.nearest_in_set_all_ms", sweep * 1e3);

    // spatial
    let (coords, dim) = flat(rows);
    // The build consumes its coordinates; the copy is a small share of it.
    let build = per_call(|| {
        black_box(SpatialIndex::build(coords.clone(), dim, kind));
    });
    let spatial = spatial_oracle(orc);
    let range = per_call(|| {
        for q in &range_queries {
            black_box(spatial.row_index().range(q, radius));
        }
    });
    let nearest_queries = match facilities {
        Some(_) => rows
            .iter()
            .take(NEAREST_QUERIES)
            .map(|p| p.coords().to_vec())
            .collect(),
        None => midpoints(rows, NEAREST_QUERIES),
    };
    let near = per_call(|| {
        for q in &nearest_queries {
            black_box(spatial.col_index().nearest(q));
        }
    });
    push(&mut out, "spatial.build_ms", build * 1e3);
    push(
        &mut out,
        "spatial.range_us",
        range * 1e6 / range_queries.len() as f64,
    );
    push(
        &mut out,
        "spatial.nearest_us",
        near * 1e6 / nearest_queries.len() as f64,
    );

    kernel(&mut out, &coords, dim, kind, &range_queries);
    bucket(&mut out, &keys);
    lp(&mut out, inp.fl);
    graph(&mut out, oracle(inp.cluster), inp.cluster_radius);
    let data = matrix_prefix(orc);
    matrixops(&mut out, &data);
    pool(&mut out, &data, inp.nproc);
    out
}

fn kernel(out: &mut Metrics, coords: &[f64], dim: usize, kind: DistanceKind, queries: &[Vec<f64>]) {
    let n = coords.len() / dim.max(1);
    let soa = SoaPoints::from_flat(coords, dim, n);
    let calls = (KERNEL_EVALS / n).max(1);
    let mut buf = vec![0.0; n];
    let dist = per_call(|| {
        for c in 0..calls {
            block::dist_range(kind, &queries[c % queries.len()], &soa, 0, &mut buf);
            black_box(&buf);
        }
    });
    let argmin = per_call(|| {
        for c in 0..calls {
            black_box(block::argmin_range(
                kind,
                &queries[c % queries.len()],
                &soa,
                0,
                n,
            ));
        }
    });
    let evals = (calls * n) as f64;
    push(out, "kernel.dist_range_ns", dist * 1e9 / evals);
    push(out, "kernel.argmin_range_ns", argmin * 1e9 / evals);
}

/// Inserts every key, then drains the queue through 64 rising thresholds;
/// each sample repeats the cycle until [`MIN_SAMPLE_SECS`] have passed.
fn bucket(out: &mut Metrics, keys: &[f64]) {
    let max = keys.iter().fold(0.0_f64, |m, &k| m.max(k));
    let (mut insert, mut extract) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (mut ins, mut ext, mut cycles) = (0.0, 0.0, 0);
        while ins + ext < MIN_SAMPLE_SECS {
            let mut q = BucketQueue::new(BucketMapping::geometric_default());
            let start = Instant::now();
            for (id, &key) in keys.iter().enumerate() {
                q.insert(id as u32, key);
            }
            ins += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let mut drained = 0;
            for step in 1..=64 {
                drained += black_box(q.extract_ready(max * step as f64 / 64.0)).len();
            }
            ext += start.elapsed().as_secs_f64();
            assert_eq!(drained, keys.len(), "the last threshold drains the queue");
            cycles += 1;
        }
        insert.push(ins / cycles as f64);
        extract.push(ext / cycles as f64);
    }
    let n = keys.len() as f64;
    push(out, "bucket.insert_ns", median(&insert) * 1e9 / n);
    push(out, "bucket.extract_ready_ns", median(&extract) * 1e9 / n);
}

/// One dual-feasibility sweep with α_j = 2·d(j, nearest facility), halved
/// until dual feasible so that the timed sweep checks every facility (an
/// infeasible α stops at the first violated one).
fn lp(out: &mut Metrics, fl: &FlInstance) {
    let facilities: Vec<usize> = (0..fl.num_facilities()).collect();
    let mut alpha: Vec<f64> = fl
        .distances()
        .nearest_in_set_all(&facilities)
        .iter()
        .map(|n| 2.0 * n.expect("instances have facilities").1)
        .collect();
    while parfaclo_lp::dual::check_alpha_feasible(fl, &alpha, 1e-9).is_err() {
        alpha.iter_mut().for_each(|a| *a *= 0.5);
    }
    let sweep = per_call(|| {
        let _ = black_box(parfaclo_lp::dual::check_alpha_feasible(fl, &alpha, 1e-9));
    });
    push(out, "lp.check_alpha_feasible_ms", sweep * 1e3);
}

fn graph(out: &mut Metrics, orc: &Oracle, radius: f64) {
    let start = Instant::now();
    let mut g = CsrGraph::from_threshold_oracle(orc, radius);
    let mut build = vec![start.elapsed().as_secs_f64()];
    // Large builds are timed once; small ones get a median.
    if build[0] < 0.3 {
        for _ in 1..REPS {
            let start = Instant::now();
            g = CsrGraph::from_threshold_oracle(orc, radius);
            build.push(start.elapsed().as_secs_f64());
        }
    }
    let n = g.n();
    let full = VertexSubset::full(n);
    let sparse = VertexSubset::from_sorted_ids(n, (0..n as u32).step_by(100).collect());
    let dense_ms = per_call(|| {
        black_box(edge_map(&g, &full, |_| true, ExecPolicy::Parallel));
    });
    let sparse_ms = per_call(|| {
        black_box(edge_map(&g, &sparse, |_| true, ExecPolicy::Parallel));
    });
    push(out, "graph.csr_build_ms", median(&build) * 1e3);
    push(out, "graph.csr_edges", g.num_edges() as f64);
    push(out, "graph.edge_map_dense_ms", dense_ms * 1e3);
    push(out, "graph.edge_map_sparse_ms", sparse_ms * 1e3);
}

/// The first [`MATRIX_VALUES`] entries of the distance matrix, row-major.
fn matrix_prefix(orc: &Oracle) -> Vec<f64> {
    let cols = orc.cols();
    let rows = (MATRIX_VALUES / cols).clamp(1, orc.rows());
    let mut data = vec![0.0; rows * cols];
    for (r, chunk) in data.chunks_mut(cols).enumerate() {
        orc.row_range_into(r, 0, chunk);
    }
    data
}

fn matrixops(out: &mut Metrics, data: &[f64]) {
    let meter = CostMeter::new();
    let policy = ExecPolicy::Parallel;
    let sort = per_call(|| {
        black_box(sort_values(data, policy, &meter));
    });
    let distinct = per_call(|| {
        black_box(sorted_distinct(data, policy, &meter));
    });
    let sum = per_call(|| {
        black_box(reduce(data, AssocOp::Add, policy, &meter));
    });
    let scan = per_call(|| {
        black_box(inclusive_scan(data, AssocOp::Add, policy, &meter));
    });
    push(out, "matrixops.sort_values_ms", sort * 1e3);
    push(out, "matrixops.sorted_distinct_ms", distinct * 1e3);
    push(out, "matrixops.reduce_ms", sum * 1e3);
    push(out, "matrixops.inclusive_scan_ms", scan * 1e3);
}

/// Pool dispatch costs, plus one sort of the matrix prefix at `nproc`
/// threads and at one thread.
fn pool(out: &mut Metrics, data: &[f64], nproc: usize) {
    const JOINS: usize = 2_000;
    const ITEMS: usize = 1_000_000;
    let join = per_call(|| {
        for i in 0..JOINS {
            black_box(rayon::join(|| black_box(i), || black_box(i + 1)));
        }
    });
    let for_each = per_call(|| {
        (0..ITEMS).into_par_iter().for_each(|i| {
            black_box(i);
        });
    });
    let sort_at = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool construction is infallible");
        pool.install(|| {
            per_call(|| {
                let mut v = data.to_vec();
                v.par_sort_by(f64::total_cmp);
                black_box(v);
            })
        })
    };
    let sort_p = sort_at(nproc);
    let sort_1 = sort_at(1);
    push(out, "pool.join_us", join * 1e6 / JOINS as f64);
    push(out, "pool.par_for_each_ns", for_each * 1e9 / ITEMS as f64);
    push(out, "pool.par_sort_ms", sort_p * 1e3);
    push(out, "pool.par_sort_1t_ms", sort_1 * 1e3);
}

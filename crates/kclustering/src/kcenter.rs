//! Parallel k-center (Section 6.1, Theorem 6.1).
//!
//! Hochbaum & Shmoys observed that k-center reduces to a bottleneck search: for a
//! candidate radius `α`, build the threshold graph `H_α` (nodes adjacent when within
//! distance `α`) and compute a maximal dominator set; if it has at most `k` nodes then
//! `2α` is an achievable radius, and the smallest feasible `α` in the sorted distance
//! set certifies a 2-approximation. The paper parallelises the probe with the in-place
//! `MaxDom` algorithm of Section 3 and keeps the binary search over the `O(n²)` distinct
//! distances, giving `O((n log n)²)` work overall.

use parfaclo_api::RunConfig;
use parfaclo_bucket::{BucketMapping, RadiusDeriver};
use parfaclo_dominator::max_dom;
use parfaclo_graph::CsrGraph;
use parfaclo_matrixops::{CostMeter, CostReport};
use parfaclo_metric::{ClusterInstance, DistanceOracle, NodeId};
use parfaclo_trace as trace;

/// Result of the parallel k-center algorithm.
#[derive(Debug, Clone)]
pub struct KCenterSolution {
    /// The chosen centers (at most `k`).
    pub centers: Vec<NodeId>,
    /// The achieved radius `max_j d(j, centers)`.
    pub radius: f64,
    /// The threshold distance `d_t` the search settled on. With the exact
    /// radius deriver the 2-approximation guarantee is `radius <= 2 * d_t`
    /// and `d_t <= opt`; with the sketch deriver `d_t` is the smallest
    /// *sampled* feasible candidate, which may exceed `opt`.
    pub threshold: f64,
    /// A certified lower bound on the optimal radius: the largest probed
    /// threshold whose dominator set had more than `k` nodes (`k + 1` points
    /// pairwise further apart than any achievable radius), or the settled
    /// threshold itself on the exact path (where it is the smallest feasible
    /// member of the complete distance set). 0.0 when nothing infeasible was
    /// probed and the exact certificate is unavailable.
    pub lower_bound: f64,
    /// Number of feasibility probes (each probe is one `MaxDom` run).
    pub probes: usize,
    /// Total Luby rounds across all probes.
    pub luby_rounds: usize,
    /// Work counters accumulated over the run.
    pub work: CostReport,
}

/// The solution when every node can be a center: all of them, radius 0.
fn every_node(n: usize) -> KCenterSolution {
    KCenterSolution {
        centers: (0..n).collect(),
        radius: 0.0,
        threshold: 0.0,
        lower_bound: 0.0,
        probes: 0,
        luby_rounds: 0,
        work: CostReport::default(),
    }
}

/// The feasibility probe both searches share: one `MaxDom` run per
/// candidate radius on its CSR threshold graph, charged `n²` (the paper's
/// cost model) and seeded by the candidate's index. The graphs nest: once a
/// probe at `t` is feasible, each search probes only below `t`, so every
/// later graph is that probe's graph packed with [`CsrGraph::filter_within`]
/// (GBBS's pack-between-rounds step) instead of a fresh build over all `n²`
/// pairs. Until the first feasible probe each graph is built from the oracle.
///
/// A prober is the search's `probe-search` phase: [`Prober::new`] opens the
/// trace span and [`Prober::finish`] closes it before evaluating the radius.
struct Prober<'a> {
    inst: &'a ClusterInstance,
    /// The candidate radii, ascending.
    candidates: &'a [f64],
    k: usize,
    seed: u64,
    meter: &'a CostMeter,
    probes: usize,
    luby_rounds: usize,
    /// The largest infeasible threshold probed so far, or 0.0.
    infeasible_below: f64,
    /// The last feasible probe: its candidate index, dominator set and graph.
    feasible: Option<(usize, Vec<NodeId>, CsrGraph)>,
    span: trace::Span<'a>,
}

impl<'a> Prober<'a> {
    fn new(
        inst: &'a ClusterInstance,
        candidates: &'a [f64],
        k: usize,
        seed: u64,
        meter: &'a CostMeter,
    ) -> Self {
        Prober {
            inst,
            candidates,
            k,
            seed,
            meter,
            probes: 0,
            luby_rounds: 0,
            infeasible_below: 0.0,
            feasible: None,
            span: trace::span("probe-search", Some(meter)),
        }
    }

    /// Runs `MaxDom` on candidate `idx`'s threshold graph as one trace round
    /// (`frontier`: candidates still open). Returns the dominator set and graph.
    fn max_dom_at(&mut self, idx: usize, frontier: usize) -> (Vec<NodeId>, CsrGraph) {
        self.probes += 1;
        trace::round(self.probes as u64, || frontier as u64, self.meter);
        let oracle = self.inst.distances();
        let t = self.candidates[idx];
        let g = match &self.feasible {
            Some((_, _, nested)) => nested.filter_within(oracle, t),
            None => CsrGraph::from_threshold_oracle(oracle, t),
        };
        let n = self.inst.n();
        self.meter.add_primitive((n * n) as u64);
        let seed = self.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9);
        let dom = max_dom(&g, seed, self.meter);
        self.luby_rounds += dom.rounds;
        (dom.selected, g)
    }

    /// Probes candidate `idx`: whether its dominator set has at most `k`
    /// nodes. A feasible probe's graph is the one later probes filter.
    fn probe(&mut self, idx: usize, frontier: usize) -> bool {
        let (selected, g) = self.max_dom_at(idx, frontier);
        let feasible = selected.len() <= self.k;
        if feasible {
            self.feasible = Some((idx, selected, g));
        } else {
            self.infeasible_below = self.infeasible_below.max(self.candidates[idx]);
        }
        feasible
    }

    /// Settles on the last feasible probe. The lower bound is the largest
    /// infeasible threshold: more than `k` dominators witness `k + 1` points
    /// pairwise further apart than it, so it lower-bounds the optimal radius.
    fn finish(mut self, start: &CostReport) -> KCenterSolution {
        let (t_idx, centers) = match self.feasible.take() {
            Some((t_idx, centers, _)) => (t_idx, centers),
            None => {
                // Unreachable: a search with nothing feasible below the
                // largest candidate probes it, and its complete graph has a
                // one-node dominator set. Keep that probe's set regardless.
                let last = self.candidates.len() - 1;
                (last, self.max_dom_at(last, 1).0)
            }
        };
        drop(self.span);
        KCenterSolution {
            radius: self.inst.kcenter_cost(&centers),
            centers,
            threshold: self.candidates[t_idx],
            lower_bound: self.infeasible_below,
            probes: self.probes,
            luby_rounds: self.luby_rounds,
            work: self.meter.delta_since(start),
        }
    }
}

/// Runs the parallel Hochbaum–Shmoys k-center algorithm (Theorem 6.1): a
/// binary search over the complete sorted set of distinct pairwise
/// distances, one `MaxDom` probe per step on nested CSR threshold graphs
/// (see [`CsrGraph::filter_within`]).
///
/// The search charges `meter`, which the caller owns, so a trace span the
/// caller opens around the call counts that work; the returned `work` is
/// this call's share of the meter.
///
/// Deterministic for a fixed `seed`.
///
/// # Errors
/// Returns `Err` when deriving the candidate radii (a sort of all pairwise
/// distances) would exceed the oracle's 4 GiB scratch cap.
///
/// # Panics
/// Panics if `k == 0` or the instance is empty.
pub fn parallel_kcenter(
    inst: &ClusterInstance,
    k: usize,
    seed: u64,
    meter: &CostMeter,
) -> Result<KCenterSolution, String> {
    let n = inst.n();
    assert!(k >= 1, "k must be at least 1");
    assert!(n >= 1, "instance must be non-empty");
    if n <= k {
        return Ok(every_node(n));
    }
    let start = meter.report();

    // The candidate radii are the distinct pairwise distances, sorted.
    // Deriving them materialises the pairwise distances, so past the
    // oracle's 4 GiB scratch cap the run is refused with an explanation
    // instead of exhausting memory.
    let oracle = inst.distances();
    let distances = {
        let _span = trace::span("derive-radii", Some(meter));
        oracle.check_distance_sort_cap().map_err(|e| {
            format!(
                "deriving the candidate radii: {e}; use a smaller instance, or sample \
                 the candidate radii with --radius-deriver sketch"
            )
        })?;
        meter.add_sort(oracle.len() as u64);
        oracle.sorted_distinct_values()
    };

    // Binary search for the smallest threshold whose dominator set has at most k nodes.
    let mut prober = Prober::new(inst, &distances, k, seed, meter);
    let (mut lo, mut hi) = (0usize, distances.len() - 1);
    while lo <= hi {
        let mid = (lo + hi) / 2;
        // Probe frontier = candidate radii still in the search range.
        if prober.probe(mid, hi - lo + 1) {
            if mid == 0 {
                break;
            }
            hi = mid - 1;
        } else {
            lo = mid + 1;
        }
    }
    let sol = prober.finish(&start);
    Ok(KCenterSolution {
        // The smallest feasible member of the complete distance set is at
        // most the optimal radius (which is itself a feasible member).
        lower_bound: sol.threshold,
        ..sol
    })
}

/// Runs the parallel k-center algorithm for `cfg.k` centers and `cfg.seed`
/// with the radius deriver `cfg.radius_deriver`: [`RadiusDeriver::Exact`] is
/// [`parallel_kcenter`] (the exact 2-approximation of Theorem 6.1, refused
/// past the oracle's 4 GiB scratch cap) and [`RadiusDeriver::Sketch`] is
/// [`parallel_kcenter_sketched`] (sampled candidate radii for instances whose
/// full distance set cannot be materialised; the guarantee weakens to
/// `radius ≤ 2·t` for a settled threshold `t` within one geometric sub-bucket
/// of the smallest sampled feasible candidate). Both searches share one probe
/// routine on nested CSR threshold graphs, so `cfg.graph` is not read, and
/// both charge `meter` as [`parallel_kcenter`] does.
pub fn parallel_kcenter_derived(
    inst: &ClusterInstance,
    cfg: &RunConfig,
    meter: &CostMeter,
) -> Result<KCenterSolution, String> {
    match cfg.radius_deriver {
        RadiusDeriver::Exact => parallel_kcenter(inst, cfg.k, cfg.seed, meter),
        RadiusDeriver::Sketch => Ok(parallel_kcenter_sketched(inst, cfg.k, cfg.seed, meter)),
    }
}

/// Number of sample nodes the sketch deriver draws candidate radii from.
const SKETCH_SAMPLE: usize = 1024;

/// The index of the largest of the ascending `candidates` in each bucket of
/// `mapping`, ascending.
fn bucket_maxima(candidates: &[f64], mapping: BucketMapping) -> Vec<usize> {
    (0..candidates.len())
        .filter(|&i| {
            candidates.get(i + 1).map_or(true, |&next| {
                mapping.bucket_of(next) != mapping.bucket_of(candidates[i])
            })
        })
        .collect()
}

/// Runs the parallel k-center algorithm with sampled candidate radii.
///
/// Instead of sorting all `n²` pairwise distances (refused beyond the 4 GiB
/// scratch cap), the candidate set is the pairwise distances of a
/// deterministic evenly-spaced sample of [`SKETCH_SAMPLE`] nodes, plus a
/// diameter cap `2·max_j d(0, j)` (by the triangle inequality no threshold
/// above the diameter can be infeasible, so the search space always contains
/// a feasible candidate). Feasibility probing is coarse-to-fine in two
/// geometric levels: the maxima of the **octave** buckets
/// ([`BucketMapping::Geometric`] with zero mantissa bits) the sorted
/// candidates fall into are probed ascending until one is feasible, and a
/// binary search over the mantissa-refined sub-bucket maxima inside that
/// octave settles the threshold to within one sub-bucket (a few percent) of
/// the infeasible frontier. Probing ascending keeps every threshold graph the
/// search builds within a constant factor of the settled one — a probe's cost
/// is its graph's edge count, so the classic midpoint binary search (whose
/// first probe is the median candidate) would materialise enormous graphs on
/// large instances — and stopping at sub-bucket granularity caps the number
/// of expensive near-frontier probes at `log₂` of the per-octave refinement,
/// instead of `log₂(candidates)`. Every refinement probe lies below the
/// octave's feasible probe, so the refinement filters nested CSR graphs as
/// the exact search does.
///
/// Deterministic for a fixed `seed` at any thread count and backend: the
/// sample is value-independent, candidates are sorted, and each probe mixes
/// the candidate index into the `MaxDom` seed exactly like the exact path.
/// It charges `meter` as [`parallel_kcenter`] does.
///
/// # Panics
/// Panics if `k == 0` or the instance is empty.
pub fn parallel_kcenter_sketched(
    inst: &ClusterInstance,
    k: usize,
    seed: u64,
    meter: &CostMeter,
) -> KCenterSolution {
    let n = inst.n();
    assert!(k >= 1, "k must be at least 1");
    assert!(n >= 1, "instance must be non-empty");
    if n <= k {
        return every_node(n);
    }
    let start = meter.report();

    // Evenly spaced sample (the full node set when it fits): value-independent,
    // so deterministic under every backend.
    let derive_span = trace::span("derive-radii", Some(meter));
    let s = n.min(SKETCH_SAMPLE);
    let sample: Vec<usize> = if s == n {
        (0..n).collect()
    } else {
        (0..s).map(|i| i * (n - 1) / (s - 1)).collect()
    };
    let mut candidates: Vec<f64> = Vec::with_capacity(s * s + 1);
    let mut row = vec![0.0f64; s];
    for &r in &sample {
        inst.distances().row_gather(r, &sample, &mut row);
        candidates.extend(row.iter().copied().filter(|d| *d > 0.0));
    }
    meter.add_primitive((s * s) as u64);

    // Diameter cap: every node is within max_j d(0, j) of node 0, so by the
    // triangle inequality twice that covers the true diameter and is always
    // feasible (the threshold graph is complete, MaxDom selects one node).
    let mut full_row = vec![0.0f64; n];
    inst.distances().row_range_into(0, 0, &mut full_row);
    meter.add_primitive(n as u64);
    let reach = full_row.iter().copied().fold(0.0f64, f64::max);
    candidates.push(2.0 * reach);

    candidates.sort_unstable_by(f64::total_cmp);
    candidates.dedup();
    meter.add_sort(candidates.len() as u64);
    drop(derive_span);

    let mut prober = Prober::new(inst, &candidates, k, seed, meter);

    // Coarse pass: probe each octave bucket's largest candidate ascending
    // until one is feasible; everything in earlier octaves is then known
    // infeasible, so the refinement below only searches inside the winning
    // octave (every remaining probe stays within 2× the settled threshold,
    // which is what bounds the probe graphs' edge counts).
    let mut octave = None;
    let mut first = 0usize;
    for last in bucket_maxima(&candidates, BucketMapping::Geometric { mantissa_bits: 0 }) {
        // Probe frontier = candidates not yet ruled out by the coarse pass.
        if prober.probe(last, candidates.len() - first) {
            octave = Some(first..=last);
            break;
        }
        first = last + 1;
    }

    // Refinement pass: bisect over the maxima of the mantissa-refined
    // sub-buckets inside the winning octave (the coarse pass already
    // certified its largest candidate feasible). Stopping at sub-bucket
    // granularity — a few percent of the threshold value — caps the count
    // of expensive near-frontier probes at log₂ of the refinement factor;
    // descending to per-candidate bisection would pay that near-frontier
    // graph cost log₂(candidates-in-octave) times for no meaningful
    // precision gain.
    if let Some(octave) = octave {
        let offset = *octave.start();
        let maxima = bucket_maxima(&candidates[octave], BucketMapping::geometric_default());
        let (mut blo, mut bhi) = (0usize, maxima.len() - 1);
        // maxima[bhi] is the octave's largest candidate, already feasible.
        while blo < bhi {
            let mid = (blo + bhi) / 2;
            // Probe frontier = sub-bucket maxima still in the bisection range.
            if prober.probe(offset + maxima[mid], bhi - blo + 1) {
                bhi = mid;
            } else {
                blo = mid + 1;
            }
        }
    }
    // The sampled feasible threshold may overshoot the optimum, so the
    // certificate is the prober's largest infeasible threshold.
    prober.finish(&start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfaclo_dominator::ThresholdGraph;
    use parfaclo_graph::GraphBackend;
    use parfaclo_metric::gen::{self, GenParams};
    use parfaclo_metric::lower_bounds::{self, ClusterObjective};
    use parfaclo_seq_baselines::{gonzalez_kcenter, hochbaum_shmoys_kcenter};

    /// The exact search on a fresh meter.
    fn exact_kcenter(inst: &ClusterInstance, k: usize, seed: u64) -> KCenterSolution {
        parallel_kcenter(inst, k, seed, &CostMeter::new()).expect("within the sort cap")
    }

    #[test]
    fn planted_clusters_are_recovered() {
        let inst = gen::clustering(GenParams::planted(48, 48, 6).with_seed(1));
        let sol = exact_kcenter(&inst, 6, 0);
        assert!(sol.centers.len() <= 6);
        // Blobs have radius 1 and separation 50; any valid 2-approximation has radius
        // at most 2·2 = 4, and the dominator-set structure typically achieves ≤ 2.
        assert!(sol.radius <= 4.0 + 1e-9, "radius {}", sol.radius);
    }

    #[test]
    fn two_approximation_vs_brute_force() {
        for seed in 0..6 {
            let inst = gen::clustering(GenParams::uniform_square(13, 13).with_seed(seed));
            for k in 1..4 {
                let (_, opt) =
                    lower_bounds::brute_force_kclustering(&inst, k, ClusterObjective::KCenter);
                let sol = exact_kcenter(&inst, k, seed);
                assert!(
                    sol.radius <= 2.0 * opt + 1e-9,
                    "seed {seed} k {k}: {} vs opt {opt}",
                    sol.radius
                );
                assert!(sol.centers.len() <= k);
                // The chosen threshold is itself a lower bound on the optimum.
                assert!(sol.threshold <= opt + 1e-9, "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn radius_within_twice_threshold() {
        // The structural guarantee behind the 2-approximation: the returned radius is at
        // most twice the feasibility threshold found by the binary search.
        for seed in 0..5 {
            let inst = gen::clustering(GenParams::gaussian_clusters(30, 30, 4).with_seed(seed));
            let sol = exact_kcenter(&inst, 4, seed);
            assert!(
                sol.radius <= 2.0 * sol.threshold + 1e-9,
                "seed {seed}: radius {} threshold {}",
                sol.radius,
                sol.threshold
            );
        }
    }

    #[test]
    fn comparable_to_sequential_baselines() {
        for seed in 0..5 {
            let inst = gen::clustering(GenParams::uniform_square(40, 40).with_seed(seed));
            let k = 5;
            let par = exact_kcenter(&inst, k, seed);
            let gonz = gonzalez_kcenter(&inst, k);
            let hs = hochbaum_shmoys_kcenter(&inst, k);
            // All three are 2-approximations of the same optimum, so no one of them can
            // be more than twice as bad as another.
            let lb = lower_bounds::kcenter_lower_bound(&inst, k);
            for r in [par.radius, gonz.radius, hs.radius] {
                assert!(r <= 2.0 * (2.0 * lb) + 1e-9 || lb == 0.0);
            }
            assert!(par.radius <= 2.0 * gonz.radius + 1e-9);
        }
    }

    #[test]
    fn probes_are_logarithmic_in_distance_count() {
        let inst = gen::clustering(GenParams::uniform_square(50, 50).with_seed(7));
        let sol = exact_kcenter(&inst, 4, 7);
        let num_distances = inst.distances().sorted_distinct_values().len();
        let bound = (num_distances as f64).log2().ceil() as usize + 2;
        assert!(
            sol.probes <= bound,
            "probes {} exceed log bound {bound}",
            sol.probes
        );
        assert!(sol.work.element_ops > 0);
    }

    #[test]
    fn k_geq_n_selects_everything() {
        let inst = gen::clustering(GenParams::uniform_square(6, 6).with_seed(2));
        let sol = exact_kcenter(&inst, 10, 0);
        assert_eq!(sol.centers.len(), 6);
        assert_eq!(sol.radius, 0.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let inst = gen::clustering(GenParams::uniform_square(25, 25).with_seed(4));
        let a = exact_kcenter(&inst, 3, 11);
        let b = exact_kcenter(&inst, 3, 11);
        assert_eq!(a.centers, b.centers);
        assert_eq!(a.radius, b.radius);
    }

    /// The per-probe search the nested probes replaced: every probe builds
    /// `H_α` from the oracle in the requested representation.
    fn per_probe_reference(
        inst: &ClusterInstance,
        k: usize,
        seed: u64,
        graph: GraphBackend,
    ) -> KCenterSolution {
        let n = inst.n();
        let meter = CostMeter::new();
        if n <= k {
            return every_node(n);
        }
        let distances = inst.distances().sorted_distinct_values();
        meter.add_sort(inst.distances().len() as u64);
        let (mut lo, mut hi) = (0usize, distances.len() - 1);
        let (mut probes, mut luby_rounds) = (0usize, 0usize);
        let mut best = None;
        while lo <= hi {
            let mid = (lo + hi) / 2;
            probes += 1;
            let g = ThresholdGraph::build(inst.distances(), distances[mid], graph).unwrap();
            meter.add_primitive((n * n) as u64);
            let dom = max_dom(&g, seed ^ (mid as u64).wrapping_mul(0x9E37_79B9), &meter);
            luby_rounds += dom.rounds;
            if dom.selected.len() <= k {
                best = Some((mid, dom.selected));
                if mid == 0 {
                    break;
                }
                hi = mid - 1;
            } else {
                lo = mid + 1;
            }
        }
        let (t_idx, centers) = best.expect("the largest threshold is feasible");
        KCenterSolution {
            radius: inst.kcenter_cost(&centers),
            centers,
            threshold: distances[t_idx],
            lower_bound: distances[t_idx],
            probes,
            luby_rounds,
            work: meter.report(),
        }
    }

    fn assert_same(a: &KCenterSolution, b: &KCenterSolution, what: &str) {
        assert_eq!(a.centers, b.centers, "{what}");
        assert_eq!(a.radius.to_bits(), b.radius.to_bits(), "{what}");
        assert_eq!(a.threshold.to_bits(), b.threshold.to_bits(), "{what}");
        assert_eq!(a.lower_bound.to_bits(), b.lower_bound.to_bits(), "{what}");
        assert_eq!(a.probes, b.probes, "{what}");
        assert_eq!(a.luby_rounds, b.luby_rounds, "{what}");
        assert_eq!(a.work, b.work, "{what}: work counters diverge");
    }

    fn at_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool")
            .install(f)
    }

    #[test]
    fn dense_and_csr_probes_agree() {
        for seed in 0..4 {
            let inst = gen::clustering(GenParams::uniform_square(22, 22).with_seed(seed));
            let dense = per_probe_reference(&inst, 3, seed, GraphBackend::Dense);
            let csr = per_probe_reference(&inst, 3, seed, GraphBackend::Csr);
            assert_same(&dense, &csr, &format!("seed {seed}"));
            let nested = exact_kcenter(&inst, 3, seed);
            assert_same(&nested, &csr, &format!("seed {seed}"));
        }
    }

    #[test]
    fn nested_probes_match_the_per_probe_reference() {
        use parfaclo_metric::{gen::build_clustering, Backend};
        let workloads = [
            (GenParams::uniform_square(90, 90), 4),
            (GenParams::gaussian_clusters(120, 120, 5), 5),
            (GenParams::planted(64, 64, 8), 8),
            // Equal distances everywhere: many ties in the threshold graphs.
            (GenParams::line(70, 70), 3),
        ];
        for (w, (params, k)) in workloads.into_iter().enumerate() {
            for seed in 0..2u64 {
                let params = params.with_seed(seed);
                let dense_inst = build_clustering(params, Backend::Dense).expect("instance");
                let want = per_probe_reference(&dense_inst, k, seed, GraphBackend::Dense);
                let csr = per_probe_reference(&dense_inst, k, seed, GraphBackend::Csr);
                assert_same(
                    &csr,
                    &want,
                    &format!("workload {w} seed {seed}: csr reference"),
                );
                assert!(want.probes >= 5, "workload {w}: too few probes to nest");
                for backend in [Backend::Dense, Backend::Implicit, Backend::Spatial] {
                    let inst = build_clustering(params, backend).expect("instance");
                    for threads in [1, 4] {
                        let got = at_threads(threads, || exact_kcenter(&inst, k, seed));
                        let what = format!("workload {w} seed {seed} {backend} {threads} threads");
                        assert_same(&got, &want, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn sketch_deriver_is_deterministic_and_backend_invariant() {
        use parfaclo_metric::{gen::build_clustering, Backend};
        for seed in 0..4 {
            let params = GenParams::uniform_square(60, 60).with_seed(seed);
            let sketch = |backend, threads| {
                let inst = build_clustering(params, backend).expect("instance");
                at_threads(threads, || {
                    parallel_kcenter_sketched(&inst, 4, seed, &CostMeter::new())
                })
            };
            let want = sketch(Backend::Dense, 1);
            for backend in [Backend::Dense, Backend::Implicit, Backend::Spatial] {
                let got = sketch(backend, 4);
                assert_same(&got, &want, &format!("seed {seed} {backend} 4 threads"));
            }
        }
    }

    #[test]
    fn sketch_radius_bounded_and_lower_bound_valid() {
        // The sketch's settled threshold may overshoot opt, but the structural
        // guarantee radius ≤ 2·threshold must hold, and the reported lower
        // bound (largest infeasible probe) must never exceed opt.
        for seed in 0..5 {
            let inst = gen::clustering(GenParams::uniform_square(14, 14).with_seed(seed));
            for k in 1..4 {
                let (_, opt) =
                    lower_bounds::brute_force_kclustering(&inst, k, ClusterObjective::KCenter);
                let sol = parallel_kcenter_sketched(&inst, k, seed, &CostMeter::new());
                assert!(
                    sol.radius <= 2.0 * sol.threshold + 1e-9,
                    "seed {seed} k {k}: radius {} threshold {}",
                    sol.radius,
                    sol.threshold
                );
                assert!(
                    sol.lower_bound <= opt + 1e-9,
                    "seed {seed} k {k}: lower bound {} exceeds opt {opt}",
                    sol.lower_bound
                );
                assert!(sol.centers.len() <= k);
            }
        }
    }

    #[test]
    fn sketch_stays_competitive_with_exact_on_full_sample() {
        // With n ≤ SKETCH_SAMPLE the sample covers every positive pairwise
        // distance, but the probe *sequence* still differs from the exact
        // path (and maximal dominator sets make feasibility non-monotone in
        // the threshold), so the two searches may settle on different
        // feasible candidates. The sketch must stay within the same
        // constant-factor regime.
        for seed in 0..4 {
            let inst = gen::clustering(GenParams::gaussian_clusters(40, 40, 5).with_seed(seed));
            let exact = exact_kcenter(&inst, 5, seed);
            let sketch = parallel_kcenter_sketched(&inst, 5, seed, &CostMeter::new());
            assert!(
                sketch.radius <= 2.0 * exact.radius + 1e-9,
                "seed {seed}: sketch radius {} vs exact {}",
                sketch.radius,
                exact.radius
            );
            assert!(
                sketch.threshold <= 4.0 * exact.threshold + 1e-9 || exact.threshold == 0.0,
                "seed {seed}: sketch threshold {} vs exact {}",
                sketch.threshold,
                exact.threshold
            );
            assert!(sketch.radius <= 2.0 * sketch.threshold + 1e-9);
        }
    }

    #[test]
    fn derived_exact_is_bit_identical_to_historical_path() {
        for seed in 0..3 {
            let inst = gen::clustering(GenParams::uniform_square(25, 25).with_seed(seed));
            let a = exact_kcenter(&inst, 3, seed);
            for graph in [GraphBackend::Dense, GraphBackend::Csr] {
                let cfg = RunConfig::new(0.1)
                    .with_k(3)
                    .with_seed(seed)
                    .with_graph(graph);
                let b = parallel_kcenter_derived(&inst, &cfg, &CostMeter::new()).expect("feasible");
                assert_same(&a, &b, &format!("seed {seed} {graph}"));
            }
        }
    }

    #[test]
    fn line_metric_radius() {
        // Nodes at 0..11 with k = 2: optimal radius is ceil(11/4) = 2.75 → 3 at integer
        // positions (centers at 3 and 9 give radius 3 exactly); accept ≤ 2·opt.
        let inst = gen::clustering(GenParams::line(12, 12));
        let (_, opt) = lower_bounds::brute_force_kclustering(&inst, 2, ClusterObjective::KCenter);
        let sol = exact_kcenter(&inst, 2, 1);
        assert!(sol.radius <= 2.0 * opt + 1e-9);
    }
}

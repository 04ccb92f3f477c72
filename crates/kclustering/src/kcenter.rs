//! Parallel k-center (Section 6.1, Theorem 6.1).
//!
//! Hochbaum & Shmoys observed that k-center reduces to a bottleneck search: for a
//! candidate radius `α`, build the threshold graph `H_α` (nodes adjacent when within
//! distance `α`) and compute a maximal dominator set; if it has at most `k` nodes then
//! `2α` is an achievable radius, and the smallest feasible `α` in the sorted distance
//! set certifies a 2-approximation. The paper parallelises the probe with the in-place
//! `MaxDom` algorithm of Section 3 and keeps the binary search over the `O(n²)` distinct
//! distances, giving `O((n log n)²)` work overall.

use parfaclo_bucket::{BucketMapping, RadiusDeriver};
use parfaclo_dominator::{max_dom, ThresholdGraph};
use parfaclo_graph::GraphBackend;
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

/// Runs the parallel Hochbaum–Shmoys k-center algorithm on the dense graph
/// backend (the paper's native representation).
///
/// Deterministic for a fixed `seed`. Equivalent to
/// [`parallel_kcenter_with`] with [`GraphBackend::Dense`]; kept as the
/// historical entry point for callers that never leave the dense regime.
///
/// # Panics
/// Panics if `k == 0`, the instance is empty, or the instance exceeds the
/// dense graph backend's size cap (use [`parallel_kcenter_with`] with
/// [`GraphBackend::Csr`] for such instances).
pub fn parallel_kcenter(inst: &ClusterInstance, k: usize, seed: u64) -> KCenterSolution {
    parallel_kcenter_with(inst, k, seed, GraphBackend::Dense)
        .expect("dense k-center within size caps")
}

/// Runs the parallel Hochbaum–Shmoys k-center algorithm with an explicit
/// threshold-graph representation for the feasibility probes.
///
/// Each binary-search probe builds the threshold graph `H_α` in the
/// requested representation and runs `MaxDom` on it; the selected backend
/// never changes the result — centers, radius, probes and work counters are
/// identical across backends — it only changes the memory the probes touch
/// (`n²` bits dense vs `O(n + m)` CSR).
///
/// Deterministic for a fixed `seed`.
///
/// # Errors
/// Returns `Err` when the requested representation cannot be built — the
/// dense backend refuses adjacency matrices beyond its 4 GiB cap and points
/// at `--graph csr` — or when deriving the candidate radii (a sort of all
/// n² pairwise distances) would exceed the oracle's 4 GiB scratch cap.
///
/// # Panics
/// Panics if `k == 0` or the instance is empty.
pub fn parallel_kcenter_with(
    inst: &ClusterInstance,
    k: usize,
    seed: u64,
    graph: GraphBackend,
) -> Result<KCenterSolution, String> {
    let n = inst.n();
    assert!(k >= 1, "k must be at least 1");
    assert!(n >= 1, "instance must be non-empty");
    let meter = CostMeter::new();

    if n <= k {
        return Ok(KCenterSolution {
            centers: (0..n).collect(),
            radius: 0.0,
            threshold: 0.0,
            lower_bound: 0.0,
            probes: 0,
            luby_rounds: 0,
            work: meter.report(),
        });
    }

    // The candidate radii are the distinct pairwise distances, sorted.
    // Deriving them materialises all n² distances, so past the oracle's
    // 4 GiB scratch cap the run is refused with an explanation instead of
    // exhausting memory.
    let distances = {
        let _span = trace::span("derive-radii", Some(&meter));
        let distances = inst.distances().try_sorted_distinct_values().map_err(|e| {
            format!("{e} — or sample the candidate radii with --radius-deriver sketch")
        })?;
        meter.add_sort(inst.distances().len() as u64);
        distances
    };

    // Binary search for the smallest threshold whose dominator set has at most k nodes.
    let probe_span = trace::span("probe-search", Some(&meter));
    let mut lo = 0usize;
    let mut hi = distances.len() - 1;
    let mut probes = 0usize;
    let mut luby_rounds = 0usize;
    let mut best: Option<(usize, Vec<NodeId>)> = None;
    while lo <= hi {
        let mid = (lo + hi) / 2;
        probes += 1;
        // Probe frontier = candidate radii still in the search range.
        trace::round(probes as u64, || (hi - lo + 1) as u64, &meter);
        let g = ThresholdGraph::build(inst.distances(), distances[mid], graph)?;
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

    let (t_idx, centers) = match best {
        Some(found) => found,
        None => {
            // The largest threshold makes the whole graph one clique-square, so the
            // dominator set is a single node — always feasible.
            let g = ThresholdGraph::build(inst.distances(), *distances.last().unwrap(), graph)?;
            let dom = max_dom(&g, seed, &meter);
            (distances.len() - 1, dom.selected)
        }
    };
    drop(probe_span);

    let radius = inst.kcenter_cost(&centers);
    Ok(KCenterSolution {
        centers,
        radius,
        threshold: distances[t_idx],
        // The smallest feasible member of the complete distance set is at
        // most the optimal radius (which is itself a feasible member).
        lower_bound: distances[t_idx],
        probes,
        luby_rounds,
        work: meter.report(),
    })
}

/// Runs the parallel k-center algorithm with an explicit radius deriver.
///
/// [`RadiusDeriver::Exact`] is [`parallel_kcenter_with`] verbatim — the binary
/// search runs over the complete sorted distinct distance set, the exact
/// 2-approximation of Theorem 6.1, and the run is refused past the oracle's
/// 4 GiB scratch cap. [`RadiusDeriver::Sketch`] derives candidate radii from a
/// deterministic O(√m)-ish sample instead (see [`parallel_kcenter_sketched`]),
/// lifting k-center to instances whose full distance set cannot be
/// materialised; the guarantee weakens to `radius ≤ 2·t` for a settled
/// threshold `t` within one geometric sub-bucket (a few percent) of the
/// smallest sampled feasible candidate.
pub fn parallel_kcenter_derived(
    inst: &ClusterInstance,
    k: usize,
    seed: u64,
    graph: GraphBackend,
    deriver: RadiusDeriver,
) -> Result<KCenterSolution, String> {
    match deriver {
        RadiusDeriver::Exact => parallel_kcenter_with(inst, k, seed, graph),
        RadiusDeriver::Sketch => parallel_kcenter_sketched(inst, k, seed, graph),
    }
}

/// Number of sample nodes the sketch deriver draws candidate radii from.
const SKETCH_SAMPLE: usize = 1024;

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
/// search builds within a constant factor of the settled one — on sparse CSR
/// backends a probe's cost is its graph's edge count, so the classic midpoint
/// binary search (whose first probe is the median candidate) would
/// materialise enormous graphs on large instances — and stopping at
/// sub-bucket granularity caps the number of expensive near-frontier probes
/// at `log₂` of the per-octave refinement, instead of `log₂(candidates)`.
///
/// Deterministic for a fixed `seed` at any thread count and backend: the
/// sample is value-independent, candidates are sorted, and each probe mixes
/// the candidate index into the `MaxDom` seed exactly like the exact path.
///
/// # Errors
/// Returns `Err` when the requested graph representation cannot be built.
///
/// # Panics
/// Panics if `k == 0` or the instance is empty.
pub fn parallel_kcenter_sketched(
    inst: &ClusterInstance,
    k: usize,
    seed: u64,
    graph: GraphBackend,
) -> Result<KCenterSolution, String> {
    let n = inst.n();
    assert!(k >= 1, "k must be at least 1");
    assert!(n >= 1, "instance must be non-empty");
    let meter = CostMeter::new();

    if n <= k {
        return Ok(KCenterSolution {
            centers: (0..n).collect(),
            radius: 0.0,
            threshold: 0.0,
            lower_bound: 0.0,
            probes: 0,
            luby_rounds: 0,
            work: meter.report(),
        });
    }

    // Evenly spaced sample (the full node set when it fits): value-independent,
    // so deterministic under every backend.
    let derive_span = trace::span("derive-radii", Some(&meter));
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

    let probe_span = trace::span("probe-search", Some(&meter));
    let mut probes = 0usize;
    let mut luby_rounds = 0usize;
    let mut infeasible_below = 0.0f64;
    let mut best: Option<(usize, Vec<NodeId>)> = None;
    let probe = |idx: usize, luby_rounds: &mut usize| -> Result<Option<Vec<NodeId>>, String> {
        let g = ThresholdGraph::build(inst.distances(), candidates[idx], graph)?;
        meter.add_primitive((n * n) as u64);
        let dom = max_dom(&g, seed ^ (idx as u64).wrapping_mul(0x9E37_79B9), &meter);
        *luby_rounds += dom.rounds;
        Ok((dom.selected.len() <= k).then_some(dom.selected))
    };

    // Coarse pass: probe each octave bucket's largest candidate ascending
    // until one is feasible; everything in earlier octaves is then known
    // infeasible, so the refinement below only searches inside the winning
    // octave (every remaining probe stays within 2× the settled threshold,
    // which is what bounds the probe graphs' edge counts).
    let coarse = BucketMapping::Geometric { mantissa_bits: 0 };
    let mut lo = 0usize;
    let mut hi = candidates.len() - 1;
    let mut idx = 0usize;
    while idx < candidates.len() {
        let bucket = coarse.bucket_of(candidates[idx]);
        let mut last = idx;
        while last + 1 < candidates.len() && coarse.bucket_of(candidates[last + 1]) == bucket {
            last += 1;
        }
        probes += 1;
        // Probe frontier = candidates not yet ruled out by the coarse pass.
        trace::round(probes as u64, || (candidates.len() - idx) as u64, &meter);
        match probe(last, &mut luby_rounds)? {
            Some(centers) => {
                best = Some((last, centers));
                lo = idx;
                hi = last;
                break;
            }
            None => {
                infeasible_below = candidates[last];
                idx = last + 1;
            }
        }
    }

    // Refinement pass: bisect over the maxima of the mantissa-refined
    // sub-buckets inside the winning octave (the coarse pass already
    // certified `hi` feasible). Stopping at sub-bucket granularity — a few
    // percent of the threshold value — caps the count of expensive
    // near-frontier probes at log₂ of the refinement factor; descending to
    // per-candidate bisection would pay that near-frontier graph cost
    // log₂(candidates-in-octave) times for no meaningful precision gain.
    if best.is_some() && lo < hi {
        let fine = BucketMapping::geometric_default();
        let mut maxima: Vec<usize> = Vec::new();
        let mut i = lo;
        while i <= hi {
            let bucket = fine.bucket_of(candidates[i]);
            let mut last = i;
            while last < hi && fine.bucket_of(candidates[last + 1]) == bucket {
                last += 1;
            }
            maxima.push(last);
            i = last + 1;
        }
        let (mut blo, mut bhi) = (0usize, maxima.len() - 1);
        // maxima[bhi] == hi, the octave probe already certified feasible.
        while blo < bhi {
            let mid = (blo + bhi) / 2;
            probes += 1;
            // Probe frontier = sub-bucket maxima still in the bisection range.
            trace::round(probes as u64, || (bhi - blo + 1) as u64, &meter);
            match probe(maxima[mid], &mut luby_rounds)? {
                Some(centers) => {
                    best = Some((maxima[mid], centers));
                    bhi = mid;
                }
                None => {
                    infeasible_below = infeasible_below.max(candidates[maxima[mid]]);
                    blo = mid + 1;
                }
            }
        }
    }

    let (t_idx, centers) = match best {
        Some(found) => found,
        None => {
            // Unreachable thanks to the diameter cap, but keep the exact
            // path's defensive fallback: the largest candidate is feasible.
            let last = candidates.len() - 1;
            probes += 1;
            trace::round(probes as u64, || 1, &meter);
            let g = ThresholdGraph::build(inst.distances(), candidates[last], graph)?;
            let dom = max_dom(&g, seed, &meter);
            luby_rounds += dom.rounds;
            (last, dom.selected)
        }
    };
    drop(probe_span);

    let radius = inst.kcenter_cost(&centers);
    Ok(KCenterSolution {
        centers,
        radius,
        threshold: candidates[t_idx],
        // A threshold with more than k dominators witnesses k + 1 points
        // pairwise further apart than it, so it strictly lower-bounds the
        // optimal radius; the sampled feasible threshold itself may overshoot
        // the optimum and is NOT a valid certificate.
        lower_bound: infeasible_below,
        probes,
        luby_rounds,
        work: meter.report(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfaclo_metric::gen::{self, GenParams};
    use parfaclo_metric::lower_bounds::{self, ClusterObjective};
    use parfaclo_seq_baselines::{gonzalez_kcenter, hochbaum_shmoys_kcenter};

    #[test]
    fn planted_clusters_are_recovered() {
        let inst = gen::clustering(GenParams::planted(48, 48, 6).with_seed(1));
        let sol = parallel_kcenter(&inst, 6, 0);
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
                let sol = parallel_kcenter(&inst, k, seed);
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
            let sol = parallel_kcenter(&inst, 4, seed);
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
            let par = parallel_kcenter(&inst, k, seed);
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
        let sol = parallel_kcenter(&inst, 4, 7);
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
        let sol = parallel_kcenter(&inst, 10, 0);
        assert_eq!(sol.centers.len(), 6);
        assert_eq!(sol.radius, 0.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let inst = gen::clustering(GenParams::uniform_square(25, 25).with_seed(4));
        let a = parallel_kcenter(&inst, 3, 11);
        let b = parallel_kcenter(&inst, 3, 11);
        assert_eq!(a.centers, b.centers);
        assert_eq!(a.radius, b.radius);
    }

    #[test]
    fn dense_and_csr_probes_agree() {
        for seed in 0..4 {
            let inst = gen::clustering(GenParams::uniform_square(22, 22).with_seed(seed));
            let dense =
                parallel_kcenter_with(&inst, 3, seed, GraphBackend::Dense).expect("dense feasible");
            let csr =
                parallel_kcenter_with(&inst, 3, seed, GraphBackend::Csr).expect("csr feasible");
            assert_eq!(dense.centers, csr.centers, "seed {seed}");
            assert_eq!(dense.radius, csr.radius, "seed {seed}");
            assert_eq!(dense.threshold, csr.threshold, "seed {seed}");
            assert_eq!(dense.probes, csr.probes, "seed {seed}");
            assert_eq!(dense.luby_rounds, csr.luby_rounds, "seed {seed}");
            assert_eq!(dense.work, csr.work, "seed {seed}: work counters diverge");
        }
    }

    #[test]
    fn sketch_deriver_is_deterministic_and_backend_invariant() {
        for seed in 0..4 {
            let inst = gen::clustering(GenParams::uniform_square(60, 60).with_seed(seed));
            let a = parallel_kcenter_sketched(&inst, 4, seed, GraphBackend::Dense)
                .expect("dense feasible");
            let b =
                parallel_kcenter_sketched(&inst, 4, seed, GraphBackend::Csr).expect("csr feasible");
            assert_eq!(a.centers, b.centers, "seed {seed}");
            assert_eq!(a.radius, b.radius, "seed {seed}");
            assert_eq!(a.threshold, b.threshold, "seed {seed}");
            assert_eq!(a.lower_bound, b.lower_bound, "seed {seed}");
            assert_eq!(a.probes, b.probes, "seed {seed}");
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
                let sol = parallel_kcenter_sketched(&inst, k, seed, GraphBackend::Dense)
                    .expect("feasible");
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
            let exact =
                parallel_kcenter_with(&inst, 5, seed, GraphBackend::Dense).expect("exact feasible");
            let sketch = parallel_kcenter_sketched(&inst, 5, seed, GraphBackend::Dense)
                .expect("sketch feasible");
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
            let a = parallel_kcenter_with(&inst, 3, seed, GraphBackend::Csr).expect("feasible");
            let b =
                parallel_kcenter_derived(&inst, 3, seed, GraphBackend::Csr, RadiusDeriver::Exact)
                    .expect("feasible");
            assert_eq!(a.centers, b.centers);
            assert_eq!(a.threshold.to_bits(), b.threshold.to_bits());
            assert_eq!(a.lower_bound.to_bits(), b.lower_bound.to_bits());
            assert_eq!(a.probes, b.probes);
            assert_eq!(a.work, b.work);
        }
    }

    #[test]
    fn line_metric_radius() {
        // Nodes at 0..11 with k = 2: optimal radius is ceil(11/4) = 2.75 → 3 at integer
        // positions (centers at 3 and 9 give radius 3 exactly); accept ≤ 2·opt.
        let inst = gen::clustering(GenParams::line(12, 12));
        let (_, opt) = lower_bounds::brute_force_kclustering(&inst, 2, ClusterObjective::KCenter);
        let sol = parallel_kcenter(&inst, 2, 1);
        assert!(sol.radius <= 2.0 * opt + 1e-9);
    }
}

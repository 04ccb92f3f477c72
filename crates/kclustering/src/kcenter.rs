//! Parallel k-center (Section 6.1, Theorem 6.1).
//!
//! Hochbaum & Shmoys observed that k-center reduces to a bottleneck search: for a
//! candidate radius `α`, build the threshold graph `H_α` (nodes adjacent when within
//! distance `α`) and compute a maximal dominator set; if it has at most `k` nodes then
//! `2α` is an achievable radius, and the smallest feasible `α` among candidates that
//! include the optimal radius certifies a 2-approximation. The paper parallelises the
//! probe with the in-place `MaxDom` algorithm of Section 3 and binary-searches the
//! `O(n²)` distinct distances, giving `O((n log n)²)` work overall.
//!
//! Theorem 6.1 needs the optimal radius among the candidates, not every distance. One
//! farthest-first pass (Gonzalez) gives a radius `r` with `opt ≤ r ≤ 2·opt`, so the exact
//! search sorts and probes only the distinct distances in `[r/2, r]`, a floor the
//! farthest-first points certify by pigeonhole (see [`parallel_kcenter`]); only the
//! `hs-kcenter` baseline still sorts every distance.

use parfaclo_api::RunConfig;
use parfaclo_bucket::{BucketMapping, RadiusDeriver};
use parfaclo_dominator::max_dom;
use parfaclo_graph::CsrGraph;
use parfaclo_matrixops::{CostMeter, CostReport};
use parfaclo_metric::oracle::distance_key;
use parfaclo_metric::{ClusterInstance, DistanceOracle, NodeId, Point};
use parfaclo_trace as trace;
use rayon::prelude::*;

/// Result of the parallel k-center algorithm.
#[derive(Debug, Clone)]
pub struct KCenterSolution {
    /// The chosen centers (at most `k`).
    pub centers: Vec<NodeId>,
    /// The achieved radius `max_j d(j, centers)`.
    pub radius: f64,
    /// The threshold distance `d_t` the search settled on. With the exact
    /// radius deriver the 2-approximation guarantee is `radius <= 2 * d_t`
    /// on a metric and `d_t <= opt` on any symmetric matrix: `d_t` is the
    /// smallest candidate of the bracket or follows an infeasible probe, and
    /// the bracket holds `opt` (its floor is certified without the triangle
    /// inequality, see [`parallel_kcenter`]). With the sketch deriver `d_t`
    /// is the smallest *sampled* feasible candidate, which may exceed `opt`.
    pub threshold: f64,
    /// A certified lower bound on the optimal radius: on the exact path the
    /// settled threshold itself (`d_t <= opt` on any symmetric matrix, metric
    /// or not, see [`KCenterSolution::threshold`]);
    /// on the sketch path the largest probed threshold whose dominator set
    /// had more than `k` nodes (`k + 1` points pairwise further apart than
    /// any achievable radius), or 0.0 when nothing infeasible was probed.
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
/// cost model) and seeded by the candidate's bits, so that any search
/// probes a given radius with the same seed whatever its candidate list
/// holds. The graphs nest: once a probe at `t` is feasible, each search
/// probes only below `t`, so every later graph is that probe's graph packed
/// with [`CsrGraph::filter_within`] (GBBS's pack-between-rounds step)
/// instead of a fresh build over all `n²` pairs. Until the first feasible probe each graph is built from the oracle
/// by [`CsrGraph::try_from_threshold_oracle`], which refuses one past the
/// scratch cap; a filtered graph is never larger than the one it filters.
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
    /// (`frontier`: candidates still open). Returns the dominator set and
    /// graph, or why the graph cannot be built.
    fn max_dom_at(
        &mut self,
        idx: usize,
        frontier: usize,
    ) -> Result<(Vec<NodeId>, CsrGraph), String> {
        self.probes += 1;
        trace::round(self.probes as u64, || frontier as u64, self.meter);
        let oracle = self.inst.distances();
        let t = self.candidates[idx];
        let g = match &self.feasible {
            Some((_, _, nested)) => nested.filter_within(oracle, t),
            None => CsrGraph::try_from_threshold_oracle(oracle, t).map_err(|e| {
                format!(
                    "probing radius {t}: {e}; solve on a coreset (--coreset eps:0.1) \
                     or with a larger k"
                )
            })?,
        };
        let n = self.inst.n();
        self.meter.add_primitive((n * n) as u64);
        let seed = self.seed ^ t.to_bits().wrapping_mul(0x9E37_79B9);
        let dom = max_dom(&g, seed, self.meter);
        self.luby_rounds += dom.rounds;
        Ok((dom.selected, g))
    }

    /// Probes candidate `idx`: whether its dominator set has at most `k`
    /// nodes. A feasible probe's graph is the one later probes filter.
    fn probe(&mut self, idx: usize, frontier: usize) -> Result<bool, String> {
        let (selected, g) = self.max_dom_at(idx, frontier)?;
        let feasible = selected.len() <= self.k;
        if feasible {
            self.feasible = Some((idx, selected, g));
        } else {
            self.infeasible_below = self.infeasible_below.max(self.candidates[idx]);
        }
        Ok(feasible)
    }

    /// Settles on the last feasible probe. The lower bound is the largest
    /// infeasible threshold: more than `k` dominators witness `k + 1` points
    /// pairwise further apart than it, so it lower-bounds the optimal radius.
    fn finish(mut self, start: &CostReport) -> Result<KCenterSolution, String> {
        let (t_idx, centers) = match self.feasible.take() {
            Some((t_idx, centers, _)) => (t_idx, centers),
            None => {
                // Unreachable on a metric: a search with nothing feasible
                // below the largest candidate probes it, and it is feasible
                // (the exact bracket's top is at least opt, the sketch's
                // diameter cap gives a complete graph). Keep that probe's
                // set regardless.
                let last = self.candidates.len() - 1;
                (last, self.max_dom_at(last, 1)?.0)
            }
        };
        drop(self.span);
        Ok(KCenterSolution {
            radius: self.inst.kcenter_cost(&centers),
            centers,
            threshold: self.candidates[t_idx],
            lower_bound: self.infeasible_below,
            probes: self.probes,
            luby_rounds: self.luby_rounds,
            work: self.meter.delta_since(start),
        })
    }
}

/// Relative step below `r/2` at the bottom of the exact search's bracket
/// (see [`bracket_floor`]); it covers points of up to about two million
/// dimensions, and higher dimensions step further.
const BRACKET_MARGIN: f64 = 1e-9;

/// The floor the exact search's bracket `[floor, r]` proposes under a
/// farthest-first radius `r` on points of dimension `dim` (0 for a matrix
/// without points), for [`certified_floor`] to check.
///
/// On a metric in exact arithmetic the `k + 1` points behind `r` (see
/// [`ClusterInstance::farthest_first`]) are pairwise at least `r` apart, so
/// no node lies closer than `r/2` to two of them, and the check passes at
/// `r/2`. The kernel's distances are rounded: each is a fold of `dim`
/// rounded per-coordinate terms (plus a square root), so with unit roundoff
/// `u = 2⁻⁵³` its relative error is at most `γ = (dim + 2)·u` while no term
/// leaves the normal range. If a node `c` had computed distances below `f`
/// to two such points `p` and `q`, the exact distances would give
/// `r/(1 + γ) ≤ d(p, q) ≤ d(p, c) + d(c, q) < 2·f/(1 − γ)`, which fails for
/// `f ≤ (r/2)·(1 − γ)/(1 + γ)`, so any `f ≤ (r/2)·(1 − 2γ)` passes. The
/// floor steps down by `max(BRACKET_MARGIN, 4γ)`, which covers `2γ` plus
/// the `3u` that rounding the floor's own product can add, at any dimension
/// (a matrix without points counts as dimension 0). Where a term could
/// underflow (`r` below 1e-150) or a distance overflowed (`r = +∞`) the
/// error model fails, and the floor is 0: every distance up to `r`.
fn bracket_floor(r: f64, dim: usize) -> f64 {
    if !(1e-150..f64::INFINITY).contains(&r) {
        return 0.0;
    }
    // `f64::EPSILON` is `2u`, so this is `4γ`.
    let margin = BRACKET_MARGIN.max(2.0 * (dim as f64 + 2.0) * f64::EPSILON);
    0.5 * r * (1.0 - margin)
}

/// `floor` if the farthest-first `witnesses` (the centers and the farthest
/// node, `k + 1` points) certify it as a lower bound on the optimal radius,
/// and 0 otherwise. Reads one kernel row per witness.
///
/// The check is pigeonhole on the computed distances, with no triangle
/// inequality: if no node `c` has two witnesses `w` with `d(w, c) < floor`,
/// then any `k` centers leave some witness at least `floor` from all of
/// them, so `opt ≥ floor`. On a metric it passes (see [`bracket_floor`]); on
/// a matrix that breaks the triangle inequality it may fail, and the
/// bracket then reaches down to 0, as a search over every distance would.
fn certified_floor(inst: &ClusterInstance, witnesses: &[NodeId], floor: f64) -> f64 {
    let n = inst.n();
    let mut claimed = vec![false; n];
    let mut row = vec![0.0f64; n];
    for &w in witnesses {
        inst.distances().row_range_into(w, 0, &mut row);
        for (claimed, &d) in claimed.iter_mut().zip(&row) {
            if d < floor {
                if *claimed {
                    return 0.0;
                }
                *claimed = true;
            }
        }
    }
    floor
}

/// The points' dimension, or 0 for a matrix without points.
fn dim_of(inst: &ClusterInstance) -> usize {
    inst.points().and_then(|p| p.first()).map_or(0, Point::dim)
}

/// Runs the parallel Hochbaum–Shmoys k-center algorithm (Theorem 6.1): a
/// binary search over the distinct pairwise distances in a factor-2
/// bracket, one `MaxDom` probe per step on nested CSR threshold graphs
/// (see [`CsrGraph::filter_within`]).
///
/// The bracket comes from one farthest-first pass
/// ([`ClusterInstance::farthest_first`]): its radius `r` is the cost of `k`
/// centers, so `opt ≤ r`, and on a metric `r ≤ 2·opt`. The candidates are
/// the distinct distances in `[floor, r]`, kept from one streaming pass over
/// the half matrix ([`DistanceOracle::half_matrix_keys`]) and sorted; `r` is
/// among them. The floor is `r/2` stepped down by a relative margin that
/// covers the kernel's rounding, when the `k + 1` farthest-first points
/// certify `opt ≥ floor` by pigeonhole (no node lies below the floor from
/// two of them; no triangle inequality needed), and 0 otherwise; on a
/// metric the check passes. The top of the bracket is feasible: at any
/// `α ≥ opt` each optimal cluster holds at most one `MaxDom` node. The
/// search settles on a threshold `t` that is either the smallest candidate
/// or follows an infeasible probe, and on a symmetric matrix `opt` is a
/// candidate, so `t ≤ opt` certifies the lower bound on any symmetric
/// matrix; on a metric `radius ≤ 2·t` keeps the factor 2 of Theorem 6.1.
/// When `r = 0` every node coincides with a center, and the one candidate
/// is `+0.0`.
///
/// The search charges `meter`, which the caller owns, so a trace span the
/// caller opens around the call counts that work; the returned `work` is
/// this call's share of the meter.
///
/// Deterministic for a fixed `seed`.
///
/// # Errors
/// Returns `Err` when a sort of all pairwise distances would exceed the
/// oracle's 4 GiB scratch cap (n ≈ 23,170), although the bracket holds
/// only part of them.
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

    // The candidate radii are the distinct pairwise distances in the
    // farthest-first bracket, sorted.
    let oracle = inst.distances();
    let distances = {
        let _span = trace::span("derive-radii", Some(meter));
        oracle.check_distance_sort_cap().map_err(|e| {
            format!(
                "deriving the candidate radii: {e}; use a smaller instance, or sample \
                 the candidate radii with --radius-deriver sketch"
            )
        })?;
        let (centers, farthest, r) = inst.farthest_first(k);
        meter.add_primitive((n * centers.len()) as u64);
        let witnesses = [&centers[..], &[farthest]].concat();
        let floor = certified_floor(inst, &witnesses, bracket_floor(r, dim_of(inst)));
        meter.add_primitive((n * witnesses.len()) as u64);
        let mut keys = oracle.half_matrix_keys();
        meter.add_primitive((n * (n - 1) / 2) as u64);
        let bracket = distance_key(floor)..=distance_key(r);
        keys.retain(|key| bracket.contains(key));
        // `r` is a distance, so on a symmetric oracle it is already a key;
        // pushing it keeps the feasible top on any square matrix.
        keys.push(distance_key(r));
        keys.shrink_to_fit();
        keys.par_sort_unstable();
        meter.add_sort(keys.len() as u64);
        keys.dedup();
        keys.into_iter().map(f64::from_bits).collect::<Vec<f64>>()
    };

    // Binary search for the smallest threshold whose dominator set has at most k nodes.
    let mut prober = Prober::new(inst, &distances, k, seed, meter);
    let (mut lo, mut hi) = (0usize, distances.len() - 1);
    while lo <= hi {
        let mid = (lo + hi) / 2;
        // Probe frontier = candidate radii still in the search range.
        if prober.probe(mid, hi - lo + 1)? {
            if mid == 0 {
                break;
            }
            hi = mid - 1;
        } else {
            lo = mid + 1;
        }
    }
    let sol = prober.finish(&start)?;
    Ok(KCenterSolution {
        // The settled threshold is at most the optimal radius, which is
        // itself a candidate (see above).
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
/// routine on nested CSR threshold graphs, and both charge `meter` as
/// [`parallel_kcenter`] does.
pub fn parallel_kcenter_derived(
    inst: &ClusterInstance,
    cfg: &RunConfig,
    meter: &CostMeter,
) -> Result<KCenterSolution, String> {
    match cfg.radius_deriver {
        RadiusDeriver::Exact => parallel_kcenter(inst, cfg.k, cfg.seed, meter),
        RadiusDeriver::Sketch => parallel_kcenter_sketched(inst, cfg.k, cfg.seed, meter),
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
/// deterministic evenly-spaced sample of `SKETCH_SAMPLE` (1,024) nodes, plus a
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
/// # Errors
/// Returns `Err` when a probe graph built from the oracle would pass the
/// 4 GiB scratch cap (see [`CsrGraph::try_from_threshold_oracle`]).
///
/// # Panics
/// Panics if `k == 0` or the instance is empty.
pub fn parallel_kcenter_sketched(
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
        if prober.probe(last, candidates.len() - first)? {
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
            if prober.probe(offset + maxima[mid], bhi - blo + 1)? {
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
    use parfaclo_metric::gen::{self, build_clustering, GenParams};
    use parfaclo_metric::lower_bounds::{self, ClusterObjective};
    use parfaclo_metric::point::DistanceKind;
    use parfaclo_metric::Backend;
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

    /// The exact search's bracket derived independently: `r` from the
    /// Gonzalez baseline's separately evaluated radius, the candidates from
    /// the complete sorted distance set filtered to `[floor, r]`.
    fn reference_bracket(inst: &ClusterInstance, k: usize) -> (f64, f64, Vec<f64>) {
        let r = gonzalez_kcenter(inst, k).radius;
        let lo = bracket_floor(r, dim_of(inst));
        let candidates = inst
            .distances()
            .sorted_distinct_values()
            .into_iter()
            .filter(|d| (lo..=r).contains(d))
            .collect();
        (lo, r, candidates)
    }

    /// The per-probe search the nested probes replaced, over the same
    /// bracket derived independently: every probe builds `H_α` from the
    /// oracle.
    fn per_probe_reference(inst: &ClusterInstance, k: usize, seed: u64) -> KCenterSolution {
        let n = inst.n();
        let meter = CostMeter::new();
        if n <= k {
            return every_node(n);
        }
        let (lo, r, distances) = reference_bracket(inst, k);
        // The derivation's charges: the farthest-first pass, the witness
        // rows that certify the floor, the streaming pass over the upper
        // triangle, and a sort of the keys it kept (the diagonal's when the
        // bracket holds 0, and `r` once more).
        let gathered = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .filter(|&(a, b)| (lo..=r).contains(&inst.dist(a, b)))
            .count()
            + usize::from(lo <= 0.0)
            + 1;
        let centers = gonzalez_kcenter(inst, k).centers.len();
        meter.add_primitive((n * centers) as u64);
        meter.add_primitive((n * (centers + 1)) as u64);
        meter.add_primitive((n * (n - 1) / 2) as u64);
        meter.add_sort(gathered as u64);
        let (mut lo, mut hi) = (0usize, distances.len() - 1);
        let (mut probes, mut luby_rounds) = (0usize, 0usize);
        let mut best = None;
        while lo <= hi {
            let mid = (lo + hi) / 2;
            probes += 1;
            let t = distances[mid];
            let g = CsrGraph::from_threshold_oracle(inst.distances(), t);
            meter.add_primitive((n * n) as u64);
            let dom = max_dom(&g, seed ^ t.to_bits().wrapping_mul(0x9E37_79B9), &meter);
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

    /// Asserts that the exact search on `points` equals the per-probe
    /// reference on every backend at 1 and 4 threads.
    fn assert_matches_reference(
        points: &[Point],
        kind: DistanceKind,
        k: usize,
        seed: u64,
        what: &str,
    ) {
        let build =
            |backend| ClusterInstance::build(points.to_vec(), kind, backend).expect("instance");
        let want = per_probe_reference(&build(Backend::Dense), k, seed);
        for backend in [Backend::Dense, Backend::Implicit, Backend::Spatial] {
            let inst = build(backend);
            for threads in [1, 4] {
                let got = at_threads(threads, || exact_kcenter(&inst, k, seed));
                assert_same(&got, &want, &format!("{what} {backend} {threads} threads"));
            }
        }
    }

    #[test]
    fn nested_probes_match_the_per_probe_reference() {
        let workloads = [
            (GenParams::uniform_square(90, 90), 4),
            (GenParams::gaussian_clusters(120, 120, 5), 5),
            (GenParams::planted(64, 64, 8), 8),
            // Equal distances everywhere: many ties in the threshold graphs.
            (GenParams::line(300, 300), 3),
        ];
        for (w, (params, k)) in workloads.into_iter().enumerate() {
            for seed in 0..2u64 {
                let params = params.with_seed(seed);
                let dense_inst = build_clustering(params, Backend::Dense).expect("instance");
                let want = per_probe_reference(&dense_inst, k, seed);
                assert!(want.probes >= 5, "workload {w}: too few probes to nest");
                let points = dense_inst.points().expect("generated points");
                let what = format!("workload {w} seed {seed}");
                assert_matches_reference(points, params.distance, k, seed, &what);
            }
        }
    }

    #[test]
    fn the_bracket_holds_the_optimum_and_certifies_it() {
        for kind in [
            DistanceKind::Euclidean,
            DistanceKind::Manhattan,
            DistanceKind::Chebyshev,
        ] {
            for seed in 0..6 {
                let params = GenParams {
                    distance: kind,
                    ..GenParams::uniform_square(13, 13).with_seed(seed)
                };
                let inst = gen::clustering(params);
                for k in 1..4 {
                    let what = format!("{kind:?} seed {seed} k {k}");
                    let (_, opt) =
                        lower_bounds::brute_force_kclustering(&inst, k, ClusterObjective::KCenter);
                    let (centers, _, r) = inst.farthest_first(k);
                    assert_eq!(r.to_bits(), inst.kcenter_cost(&centers).to_bits(), "{what}");
                    let lo = bracket_floor(r, dim_of(&inst));
                    assert!(
                        lo <= opt && opt <= r,
                        "{what}: opt {opt} outside [{lo}, {r}]"
                    );
                    let sol = exact_kcenter(&inst, k, seed);
                    assert!(
                        sol.lower_bound <= opt,
                        "{what}: lower bound {}",
                        sol.lower_bound
                    );
                    assert!(
                        sol.radius <= 2.0 * sol.threshold,
                        "{what}: radius {}",
                        sol.radius
                    );
                    assert!(sol.centers.len() <= k, "{what}");
                }
            }
        }
    }

    #[test]
    fn degenerate_brackets_match_the_reference_and_certify() {
        let spread: Vec<Point> = (0..13)
            .map(|i| Point::xy(i as f64 * 1.5, ((i * i) % 7) as f64))
            .collect();
        let mut duplicated = spread[..7].to_vec();
        duplicated.extend_from_slice(&spread[..6]);
        let line = gen::clustering(GenParams::line(13, 13));
        let cases = [
            // Every point coincides: r = 0 and the one candidate is +0.0.
            ("coincident", vec![Point::xy(2.0, -1.0); 9], 2),
            // Fewer distinct locations than k: Gonzalez stops early at r = 0.
            (
                "two-locations",
                [vec![Point::xy(0.0, 0.0); 5], vec![Point::xy(3.0, 4.0); 5]].concat(),
                3,
            ),
            ("n-is-k-plus-1", spread[..5].to_vec(), 4),
            ("duplicated", duplicated, 3),
            ("line-ties", line.points().expect("points").to_vec(), 3),
        ];
        for (name, points, k) in cases {
            let inst =
                ClusterInstance::build(points.clone(), DistanceKind::Euclidean, Backend::Dense)
                    .expect("instance");
            let (_, opt) =
                lower_bounds::brute_force_kclustering(&inst, k, ClusterObjective::KCenter);
            for seed in 0..3 {
                assert_matches_reference(&points, DistanceKind::Euclidean, k, seed, name);
                let sol = exact_kcenter(&inst, k, seed);
                assert!(
                    sol.lower_bound <= opt,
                    "{name}: lower bound {} opt {opt}",
                    sol.lower_bound
                );
                assert!(
                    sol.radius <= 2.0 * sol.threshold,
                    "{name}: radius {}",
                    sol.radius
                );
                assert!(sol.centers.len() <= k, "{name}");
                if opt == 0.0 {
                    assert_eq!((sol.threshold.to_bits(), sol.radius), (0, 0.0), "{name}");
                }
            }
        }
    }

    #[test]
    fn an_asymmetric_matrix_keeps_its_farthest_first_radius_as_a_candidate() {
        // Farthest-first settles on r = d(2, 1) = 2, a lower-triangle entry
        // with no upper-triangle distance in [1, 2]: without `r` itself the
        // bracket would hold no candidate.
        let m = parfaclo_metric::DistanceMatrix::from_rows(
            3,
            3,
            vec![0.0, 9.0, 10.0, 9.0, 0.0, 8.0, 3.0, 2.0, 0.0],
        );
        let inst = ClusterInstance::new(m);
        assert_eq!(inst.farthest_first(2), (vec![0, 1], 2, 2.0));
        let sol = exact_kcenter(&inst, 2, 0);
        assert_eq!((sol.threshold, sol.probes), (2.0, 1));
        assert!(sol.centers.len() <= 2);
    }

    #[test]
    fn a_floor_the_witnesses_cannot_certify_falls_to_zero() {
        // Symmetric but no metric: nodes 0 and 1 are 10 apart, and node 2 is
        // 1 from each. Farthest-first from node 0 gives r = 10 with node 1
        // farthest; node 2 is within 5 of both, so r/2 is no lower bound
        // (opt is 1, center 2), and the bracket reaches down to 0.
        let m = parfaclo_metric::DistanceMatrix::from_rows(
            3,
            3,
            vec![0.0, 10.0, 1.0, 10.0, 0.0, 1.0, 1.0, 1.0, 0.0],
        );
        let inst = ClusterInstance::new(m);
        assert_eq!(inst.farthest_first(1), (vec![0], 1, 10.0));
        assert_eq!(certified_floor(&inst, &[0, 1], bracket_floor(10.0, 0)), 0.0);
        let sol = exact_kcenter(&inst, 1, 0);
        assert_eq!((sol.threshold, sol.lower_bound, sol.probes), (1.0, 1.0, 2));
        assert_eq!(sol.centers.len(), 1);
        // On a metric the witnesses certify the floor: the points 0, 10 and
        // 5 on a line, k = 1, r = 10, opt = 5.
        let line = [0.0, 10.0, 5.0].map(|x| Point::xy(x, 0.0)).to_vec();
        let inst = ClusterInstance::build(line, DistanceKind::Euclidean, Backend::Dense)
            .expect("instance");
        let floor = bracket_floor(10.0, 2);
        assert_eq!(certified_floor(&inst, &[0, 1], floor), floor);
        let sol = exact_kcenter(&inst, 1, 0);
        assert_eq!((sol.threshold, sol.lower_bound, sol.probes), (5.0, 5.0, 1));
        assert!(sol.radius <= 2.0 * sol.threshold);
    }

    #[test]
    fn the_bracket_floor_steps_below_half_the_radius() {
        assert_eq!(bracket_floor(0.0, 2), 0.0);
        assert_eq!(bracket_floor(f64::INFINITY, 2), 0.0);
        assert_eq!(bracket_floor(1e-200, 2), 0.0);
        let r = 10.0;
        assert!(bracket_floor(r, 2) < 5.0 && bracket_floor(r, 2) >= 5.0 * (1.0 - 2e-9));
        // The margin grows with the dimension past the fixed one.
        assert!(bracket_floor(r, 100_000_000) < bracket_floor(r, 2));
    }

    #[test]
    fn sketch_deriver_is_deterministic_and_backend_invariant() {
        for seed in 0..4 {
            let params = GenParams::uniform_square(60, 60).with_seed(seed);
            let sketch = |backend, threads| {
                let inst = build_clustering(params, backend).expect("instance");
                at_threads(threads, || {
                    parallel_kcenter_sketched(&inst, 4, seed, &CostMeter::new())
                        .expect("within the cap")
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
                let sol = parallel_kcenter_sketched(&inst, k, seed, &CostMeter::new())
                    .expect("within the cap");
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
            let sketch = parallel_kcenter_sketched(&inst, 5, seed, &CostMeter::new())
                .expect("within the cap");
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
            let cfg = RunConfig::new(0.1).with_k(3).with_seed(seed);
            let b = parallel_kcenter_derived(&inst, &cfg, &CostMeter::new()).expect("feasible");
            assert_same(&a, &b, &format!("seed {seed}"));
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

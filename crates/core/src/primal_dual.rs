//! The parallel primal-dual facility-location algorithm (Algorithm 5.1, Theorem 5.4).
//!
//! The Jain–Vazirani primal-dual scheme raises all client duals `α_j` continuously; the
//! parallel version instead raises them **geometrically**: in iteration `ℓ` every
//! unfrozen client has `α_j = (γ/m²)(1 + ε)^ℓ`. Each iteration then performs three
//! data-parallel steps over the distance matrix: open every facility whose (slack-
//! inflated) payments cover its cost, freeze every client that can reach an open
//! facility, and extend the client/facility graph `H` with the newly tight edges.
//! Because `α` values rise by `(1 + ε)` factors, `O(log_{1+ε} m)` iterations suffice.
//!
//! The preprocessing step (borrowed by the paper from Pandit & Pemmaraju's distributed
//! algorithm) opens "free" facilities that are already paid for at the starting dual
//! value `γ/m²` and freezes their co-located clients at `α = 0`, which is what pins the
//! iteration count.
//!
//! Post-processing computes `MaxUDom(H)` so each client contributes to at most one open
//! facility, exactly as in the sequential algorithm's conflict-graph MIS. The final
//! α vector is dual feasible (Claim 5.1), so `Σ_j α_j` is a certified lower bound on
//! `opt`, and the solution cost is at most `(3 + O(ε))` times it (Lemmas 5.2, 5.3).

use crate::config::FlConfig;
use crate::solution::FlSolution;
use parfaclo_bucket::{BucketMapping, BucketQueue};
use parfaclo_dominator::{max_u_dom, BipartiteGraph};
use parfaclo_lp::dual;
use parfaclo_matrixops::{CostMeter, PAR_THRESHOLD};
use parfaclo_metric::{DistanceOracle, FacilityId, FlInstance};
use parfaclo_trace as trace;
use rayon::prelude::*;

/// Extended result of the parallel primal-dual algorithm.
#[derive(Debug, Clone)]
pub struct PrimalDualOutput {
    /// The solution (open set, costs, α values, work counters).
    pub solution: FlSolution,
    /// Facilities opened by the preprocessing step ("free facilities", `F_0`).
    pub free_facilities: Vec<FacilityId>,
    /// Facilities temporarily opened during the main iterations (`F_T`).
    pub temporarily_open: Vec<FacilityId>,
    /// Number of Luby rounds the `MaxUDom` post-processing used.
    pub postprocess_rounds: usize,
}

/// Refusal to run Algorithm 5.1 with an `ε` too small for the round cap.
///
/// Once the dual level `t` reaches `γ = max_j min_i (f_i + d(j,i))`, every unfrozen
/// client pays for its cheapest facility on its own and freezes on it. The ladder
/// therefore runs at most `⌈ln(γ/α₀) / ln(1+ε)⌉ + 2` iterations (the `+ 2` absorbs
/// rounding); a run whose bound exceeds `max_rounds` is refused before it starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundBoundError {
    /// The configured slack `ε`.
    pub epsilon: f64,
    /// The derived iteration bound; infinite when `1 + ε` rounds to `1` in `f64`.
    pub bound: f64,
    /// The configured iteration cap.
    pub max_rounds: usize,
}

impl std::fmt::Display for RoundBoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "eps = {} needs up to {} dual-ascent iterations \
             (ceil(ln(gamma/alpha0) / ln(1 + eps)) + 2), above max_rounds = {}; \
             use a larger eps",
            self.epsilon, self.bound, self.max_rounds
        )
    }
}

impl std::error::Error for RoundBoundError {}

/// Runs Algorithm 5.1 and returns just the solution.
pub fn parallel_primal_dual(
    inst: &FlInstance,
    cfg: &FlConfig,
) -> Result<FlSolution, RoundBoundError> {
    parallel_primal_dual_detailed(inst, cfg).map(|out| out.solution)
}

/// Runs Algorithm 5.1, returning the solution plus the intermediate facility sets.
///
/// # Errors
/// Refuses with [`RoundBoundError`] when the paper's iteration bound exceeds
/// `cfg.max_rounds`.
///
/// # Panics
/// Panics if the instance has no clients or no facilities.
pub fn parallel_primal_dual_detailed(
    inst: &FlInstance,
    cfg: &FlConfig,
) -> Result<PrimalDualOutput, RoundBoundError> {
    let nc = inst.num_clients();
    let nf = inst.num_facilities();
    assert!(
        nc > 0 && nf > 0,
        "instance must have clients and facilities"
    );
    let slack = 1.0 + cfg.epsilon;
    let ln_slack = slack.ln();
    let meter = CostMeter::new();
    let (gamma, alpha0) = starting_level(inst, cfg);
    if gamma > 0.0 {
        let bound = if ln_slack > 0.0 {
            ((gamma / alpha0).ln() / ln_slack).ceil() + 2.0
        } else {
            f64::INFINITY
        };
        if bound > cfg.max_rounds as f64 {
            return Err(RoundBoundError {
                epsilon: cfg.epsilon,
                bound,
                max_rounds: cfg.max_rounds,
            });
        }
    }
    let Ladder {
        mut frozen,
        mut alpha,
        mut opened,
        free_facilities,
    } = preprocess(inst, cfg, gamma, &meter);

    // ---- Main iterations ---------------------------------------------------------------
    //
    // The iteration ladder `t = α₀·(1+ε)^ℓ`, one `t *= slack` per iteration, with the
    // paper's exact open/freeze comparisons — but instead of rescanning all `m` entries
    // per iteration, facilities and clients wait on two deterministic bucket queues and
    // are touched only when their event level arrives:
    //
    // * an **open queue** keyed by the (integer) earliest iteration at which a
    //   facility's payments could cover its cost; a popped facility gets the exact
    //   `Σ_j max(0, (1+ε)·α_j − d(j,i))` check and is either opened or conservatively
    //   rescheduled, and
    // * a **freeze queue** keyed by each client's distance to its nearest opened
    //   facility (`d_open_min`, an exact elementwise `min`); a client freezes in the
    //   first iteration with `(1+ε)·t ≥ d_open_min[j]`, which is exactly the paper's
    //   freeze predicate because every unfrozen dual equals `t`. Key decreases use lazy
    //   deletion: stale (higher-keyed) entries pop later and are skipped via `frozen`.
    //
    // Within an iteration opens are processed before freezes (ascending facility id),
    // so clients reached by a facility opened in the *same* iteration freeze in that
    // iteration. The test-only `rescan_ladder` replays the data-parallel formulation and
    // must agree bit for bit. Work-meter charges reflect the events actually evaluated.
    let ascent_span = trace::span("dual-ascent", Some(&meter));
    let nc_f = nc as f64;
    let mut temporarily_open: Vec<FacilityId> = Vec::new();
    let mut unfrozen_count = frozen.iter().filter(|&&f| !f).count();
    let mut unopened_count = opened.iter().filter(|&&o| !o).count();

    // d_open_min[j] = min distance from client j to any opened facility (exact f64 min,
    // so the order of updates is immaterial). Seeded from the free facilities.
    let mut d_open_min = vec![f64::INFINITY; nc];
    let mut col = vec![0.0f64; nc];
    for &i in &free_facilities {
        inst.distances().col_range_into(i, 0, &mut col);
        meter.add_primitive(nc as u64);
        for (m, &d) in d_open_min.iter_mut().zip(col.iter()) {
            if d < *m {
                *m = d;
            }
        }
    }

    let mut freeze_q = BucketQueue::new(BucketMapping::geometric_default());
    for j in 0..nc {
        if !frozen[j] && d_open_min[j].is_finite() {
            freeze_q.insert(j as u32, d_open_min[j]);
        }
    }

    // Integer iteration indices are exact as f64, so a linear unit-width mapping gives
    // one bucket per iteration and exact readiness tests.
    let mut open_q = BucketQueue::new(BucketMapping::Linear {
        origin: 0.0,
        width: 1.0,
    });
    for (i, &is_open) in opened.iter().enumerate() {
        if !is_open {
            let step = earliest_open_step(inst.facility_cost(i), nc_f, slack, alpha0, ln_slack);
            open_q.insert(i as u32, step as f64);
        }
    }

    let mut iterations = 0usize;
    let mut t = alpha0;
    // Level of the last executed iteration: every still-unfrozen dual holds it (0.0 if
    // no iteration ran).
    let mut last_level = 0.0f64;
    while unfrozen_count > 0 && unopened_count > 0 {
        iterations += 1;
        meter.add_round();
        trace::round(iterations as u64, || unfrozen_count as u64, &meter);
        assert!(
            iterations <= cfg.max_rounds,
            "parallel primal-dual exceeded {} iterations — this indicates a bug",
            cfg.max_rounds
        );
        let step = (iterations - 1) as f64;
        let level = t;
        last_level = level;

        // Step 2: exact payment check for every facility whose scheduled iteration has
        // arrived, in ascending facility id. Unfrozen duals conceptually hold `t`; the
        // write is deferred until they freeze.
        let mut ready = open_q.extract_ready(step);
        ready.sort_unstable_by_key(|&(i, _)| i);
        for (iu, _) in ready {
            let i = iu as usize;
            let paid: f64 = (0..nc)
                .map(|j| {
                    let aj = if frozen[j] { alpha[j] } else { level };
                    (slack * aj - inst.dist(j, i)).max(0.0)
                })
                .sum();
            meter.add_primitive(nc as u64);
            let fi = inst.facility_cost(i);
            if paid >= fi {
                opened[i] = true;
                unopened_count -= 1;
                temporarily_open.push(i);
                // Fold the new facility's column into d_open_min and re-key clients
                // whose nearest open facility got closer.
                inst.distances().col_range_into(i, 0, &mut col);
                meter.add_primitive(nc as u64);
                for j in 0..nc {
                    if col[j] < d_open_min[j] {
                        d_open_min[j] = col[j];
                        if !frozen[j] {
                            freeze_q.insert(j as u32, col[j]);
                        }
                    }
                }
            } else {
                let ahead = reschedule_ahead(fi - paid, nc_f, slack, level, ln_slack);
                open_q.insert(iu, step + ahead as f64);
            }
        }

        // Step 3: every unfrozen client with an opened facility within `(1+ε)·t`
        // freezes now, at `α_j = t`.
        let ready = freeze_q.extract_ready(slack * level);
        meter.add_primitive(ready.len() as u64);
        for (ju, _) in ready {
            let j = ju as usize;
            if !frozen[j] {
                frozen[j] = true;
                alpha[j] = level;
                unfrozen_count -= 1;
            }
        }

        // Step 4 (the graph H) is materialised once at the end from the final α values:
        // edges only ever get added and the membership test is monotone in α.
        t *= slack;
    }
    for j in 0..nc {
        if !frozen[j] {
            alpha[j] = last_level;
        }
    }
    raise_unfrozen(inst, &frozen, &mut alpha, &opened);
    drop(ascent_span);

    // ---- Post-processing: MaxUDom over the tight-edge graph ----------------------------
    // H = (F_T, C, E) with ij ∈ E iff (1+ε)·α_j > d(j, i).
    let postprocess_span = trace::span("postprocess-maxudom", Some(&meter));
    let ft: Vec<FacilityId> = temporarily_open.clone();
    let h =
        BipartiteGraph::from_predicate(ft.len(), nc, |u, j| slack * alpha[j] > inst.dist(j, ft[u]));
    meter.add_primitive((ft.len() * nc) as u64);
    let dom = if ft.is_empty() {
        parfaclo_dominator::DominatorResult {
            selected: vec![],
            rounds: 0,
        }
    } else {
        max_u_dom(&h, cfg.seed, &meter)
    };
    let mut open_set: Vec<FacilityId> = dom.selected.iter().map(|&u| ft[u]).collect();
    open_set.extend(free_facilities.iter().copied());

    if open_set.is_empty() {
        // Degenerate guard (e.g. nf = 1 with an enormous cost and the loop cap): open
        // the cheapest facility so the solution is well-defined.
        open_set.push(
            (0..nf)
                .min_by(|&a, &b| {
                    inst.facility_cost(a)
                        .partial_cmp(&inst.facility_cost(b))
                        .unwrap()
                })
                .unwrap(),
        );
    }
    drop(postprocess_span);

    let certify_span = trace::span("certify", Some(&meter));
    let mut solution = FlSolution::from_open_set(inst, open_set);
    // α is dual feasible by Claim 5.1; certify numerically (and fall back to scaling if
    // floating-point slack pushed it marginally over).
    let scale = dual::max_feasible_scaling(inst, &alpha, 40);
    let scaled: Vec<f64> = alpha.iter().map(|a| a * scale).collect();
    solution.lower_bound = dual::dual_value(&scaled);
    solution.alpha = alpha;
    solution.rounds = iterations;
    solution.inner_rounds = dom.rounds;
    drop(certify_span);
    solution.work = meter.report();

    Ok(PrimalDualOutput {
        solution,
        free_facilities,
        temporarily_open,
        postprocess_rounds: dom.rounds,
    })
}

/// `γ = max_j min_i (f_i + d(j,i))` and the ladder's starting dual level `α₀`.
fn starting_level(inst: &FlInstance, cfg: &FlConfig) -> (f64, f64) {
    let m = inst.m() as f64;
    let gamma = inst.gamma();
    // γ > 0 whenever some client has a positive distance or some facility a positive
    // cost; if γ = 0 the whole instance is degenerate (every client sits on a free
    // facility) and the ladder terminates immediately anyway.
    let alpha0 = if cfg.preprocess {
        gamma / (m * m)
    } else {
        // Without preprocessing start at the smallest scale present in the input so the
        // guarantee still holds; only the round bound degrades.
        let min_pos = inst
            .distances()
            .min_positive_entry()
            .unwrap_or(1.0)
            .min(gamma.max(f64::MIN_POSITIVE));
        min_pos / (m * m)
    };
    (gamma, alpha0)
}

/// The dual-ascent state the ladder starts from.
struct Ladder {
    frozen: Vec<bool>,
    alpha: Vec<f64>,
    opened: Vec<bool>,
    /// Facilities opened by preprocessing (`F_0`).
    free_facilities: Vec<FacilityId>,
}

/// Preprocessing: opens the "free" facilities already paid for at the starting dual
/// value `γ/m²` and freezes their co-located clients at `α = 0`. Everything starts
/// unfrozen and closed without preprocessing or when `γ = 0`.
fn preprocess(inst: &FlInstance, cfg: &FlConfig, gamma: f64, meter: &CostMeter) -> Ladder {
    let nc = inst.num_clients();
    let nf = inst.num_facilities();
    let mut ladder = Ladder {
        frozen: vec![false; nc],
        alpha: vec![0.0; nc],
        opened: vec![false; nf],
        free_facilities: Vec::new(),
    };
    if !(cfg.preprocess && gamma > 0.0) {
        return ladder;
    }
    let _span = trace::span("preprocess", Some(meter));
    meter.add_primitive(inst.m() as u64);
    let m = inst.m() as f64;
    let threshold = gamma / (m * m);
    let is_free = |i: usize| -> bool {
        let paid: f64 = (0..nc)
            .map(|j| (threshold - inst.dist(j, i)).max(0.0))
            .sum();
        paid >= inst.facility_cost(i)
    };
    let free: Vec<bool> = if inst.m() >= PAR_THRESHOLD {
        (0..nf).into_par_iter().map(is_free).collect()
    } else {
        (0..nf).map(is_free).collect()
    };
    ladder.free_facilities = (0..nf).filter(|&i| free[i]).collect();
    for &i in &ladder.free_facilities {
        ladder.opened[i] = true;
    }
    // Clients adjacent to a free facility at distance <= γ/m² are freely connected.
    meter.add_primitive(inst.m() as u64);
    for j in 0..nc {
        if ladder
            .free_facilities
            .iter()
            .any(|&i| inst.dist(j, i) <= threshold)
        {
            ladder.frozen[j] = true;
            ladder.alpha[j] = 0.0;
        }
    }
    ladder
}

/// If every facility opened before every client froze, the remaining clients' duals
/// rise just enough to reach their closest (now open) facility.
fn raise_unfrozen(inst: &FlInstance, frozen: &[bool], alpha: &mut [f64], opened: &[bool]) {
    for j in 0..frozen.len() {
        if !frozen[j] {
            let d_min = (0..opened.len())
                .filter(|&i| opened[i])
                .map(|i| inst.dist(j, i))
                .fold(f64::INFINITY, f64::min);
            alpha[j] = alpha[j].max(d_min);
        }
    }
}

/// Earliest 0-based iteration at which facility `i` (cost `fi`) could possibly
/// open: payments are bounded by `nc·(1+ε)·t` because every dual is at most the
/// current level, so opening needs `t ≥ fi / (nc·(1+ε))`, i.e.
/// `(1+ε)^step ≥ fi / (nc·(1+ε)·α₀)`. The estimate is shifted two iterations
/// earlier so floating-point error in the logarithms can only cause a harmless
/// early (exact) re-check, never a late one.
fn earliest_open_step(fi: f64, nc: f64, slack: f64, alpha0: f64, ln_slack: f64) -> usize {
    if alpha0 <= 0.0 || fi <= nc * slack * alpha0 {
        return 0;
    }
    let est = ((fi / (nc * slack * alpha0)).ln() / ln_slack).ceil();
    if !est.is_finite() || est <= 2.0 {
        0
    } else {
        // Cap far above any real iteration count (max_rounds is 100k by default).
        (est.min(1e12) as usize).saturating_sub(2)
    }
}

/// How many iterations ahead a facility that failed its exact payment check by
/// `deficit` can safely be rescheduled. Payments grow by at most
/// `nc·(1+ε)·(t′ − t)` between levels `t` and `t′` (each of the `nc` duals rises
/// by at most `t′ − t` and `max(0, ·)` is 1-Lipschitz), so the facility cannot
/// open before `(1+ε)^k ≥ 1 + deficit/(nc·(1+ε)·t)`. As with
/// [`earliest_open_step`] the bound is shrunk by two iterations to absorb
/// floating-point error; re-checking early is always safe.
fn reschedule_ahead(deficit: f64, nc: f64, slack: f64, t: f64, ln_slack: f64) -> usize {
    // Degenerate levels (t = 0) or non-positive deficits make the ratio
    // non-finite or non-positive: just re-check next iteration.
    let ratio = deficit / (nc * slack * t);
    if !ratio.is_finite() || ratio <= 0.0 {
        return 1;
    }
    let k = (ratio.ln_1p() / ln_slack).ceil();
    if !k.is_finite() {
        return 1;
    }
    (k.min(1e12) as usize).saturating_sub(2).max(1)
}

/// Reference ladder: the paper's data-parallel formulation, re-evaluating every
/// facility and client each iteration. Returns the final α, the temporarily opened
/// facilities in opening order, and the iteration count.
#[cfg(test)]
fn rescan_ladder(inst: &FlInstance, cfg: &FlConfig) -> (Vec<f64>, Vec<FacilityId>, usize) {
    let (nc, nf) = (inst.num_clients(), inst.num_facilities());
    let slack = 1.0 + cfg.epsilon;
    let (gamma, mut t) = starting_level(inst, cfg);
    let Ladder {
        mut frozen,
        mut alpha,
        mut opened,
        ..
    } = preprocess(inst, cfg, gamma, &CostMeter::new());
    let mut temporarily_open = Vec::new();
    let mut iterations = 0usize;
    while frozen.contains(&false) && opened.contains(&false) {
        iterations += 1;
        // Step 1: unfrozen clients raise their dual to the current level.
        for j in (0..nc).filter(|&j| !frozen[j]) {
            alpha[j] = t;
        }
        // Step 2: open facilities whose slack-inflated payments cover their cost.
        let newly: Vec<FacilityId> = (0..nf)
            .filter(|&i| {
                !opened[i]
                    && (0..nc)
                        .map(|j| (slack * alpha[j] - inst.dist(j, i)).max(0.0))
                        .sum::<f64>()
                        >= inst.facility_cost(i)
            })
            .collect();
        for i in newly {
            opened[i] = true;
            temporarily_open.push(i);
        }
        // Step 3: freeze clients that can reach an open facility within the slack.
        for j in 0..nc {
            if (0..nf).any(|i| opened[i] && slack * alpha[j] >= inst.dist(j, i)) {
                frozen[j] = true;
            }
        }
        t *= slack;
    }
    raise_unfrozen(inst, &frozen, &mut alpha, &opened);
    (alpha, temporarily_open, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfaclo_metric::gen::{self, FacilityCostModel, GenParams};
    use parfaclo_metric::lower_bounds;
    use parfaclo_metric::DistanceMatrix;
    use parfaclo_seq_baselines::jain_vazirani;

    #[test]
    fn single_facility_single_client() {
        // With m = 1 the γ/m² preprocessing threshold equals γ itself, so the facility
        // is opened as a "free" facility straight away (the paper assumes large m; for
        // m = 1 this costs nothing since the solution is forced anyway).
        let inst = FlInstance::new(vec![2.0], DistanceMatrix::from_rows(1, 1, vec![1.0]));
        let sol = parallel_primal_dual(&inst, &FlConfig::new(0.1)).unwrap();
        assert_eq!(sol.open, vec![0]);
        assert!((sol.cost - 3.0).abs() < 1e-9);
        assert!(sol.alpha[0] <= 3.0 * 1.1 + 1e-9);

        // Without preprocessing the dual must rise to (roughly) the exact JV value 3.
        let sol2 = parallel_primal_dual(&inst, &FlConfig::new(0.1).with_preprocess(false)).unwrap();
        assert_eq!(sol2.open, vec![0]);
        assert!(sol2.alpha[0] <= 3.0 * 1.1 + 1e-9 && sol2.alpha[0] >= 3.0 / 1.1 - 1e-9);
    }

    #[test]
    fn within_theorem_bound_on_small_instances() {
        // Theorem 5.4: (3 + ε')-approximation. Check against brute force.
        for seed in 0..10 {
            let inst = gen::facility_location(GenParams::uniform_square(12, 6).with_seed(seed));
            let sol = parallel_primal_dual(&inst, &FlConfig::new(0.1).with_seed(seed)).unwrap();
            let (_, opt) = lower_bounds::brute_force_facility_location(&inst);
            assert!(
                sol.cost <= (3.0 + 3.0 * 0.1 + 0.05) * opt + 1e-6,
                "seed {seed}: cost {} vs opt {opt}",
                sol.cost
            );
            assert!(sol.cost >= opt - 1e-9);
        }
    }

    #[test]
    fn alpha_is_dual_feasible_and_certifies_lower_bound() {
        for seed in 0..6 {
            let inst =
                gen::facility_location(GenParams::gaussian_clusters(14, 7, 3).with_seed(seed));
            let sol = parallel_primal_dual(&inst, &FlConfig::new(0.2).with_seed(seed)).unwrap();
            // Claim 5.1: α with canonical β is dual feasible (tolerate tiny fp slack).
            assert!(
                dual::check_alpha_feasible(&inst, &sol.alpha, 1e-6).is_ok(),
                "seed {seed}: α not dual feasible"
            );
            let (_, opt) = lower_bounds::brute_force_facility_location(&inst);
            assert!(sol.lower_bound <= opt + 1e-6, "seed {seed}");
            assert!(sol.lower_bound > 0.0, "seed {seed}");
        }
    }

    #[test]
    fn comparable_to_sequential_jain_vazirani() {
        for seed in 0..6 {
            let inst = gen::facility_location(GenParams::uniform_square(25, 10).with_seed(seed));
            let seq = jain_vazirani(&inst);
            let par = parallel_primal_dual(&inst, &FlConfig::new(0.05).with_seed(seed)).unwrap();
            // Both are ≤ 3(1+O(ε))·opt; relative to each other they should be within a
            // small constant factor (and usually nearly identical).
            assert!(
                par.cost <= 1.5 * seq.cost + 1e-6,
                "seed {seed}: parallel {} vs sequential {}",
                par.cost,
                seq.cost
            );
        }
    }

    #[test]
    fn iteration_count_is_logarithmic() {
        let inst = gen::facility_location(GenParams::uniform_square(80, 40).with_seed(2));
        let cfg = FlConfig::new(0.1);
        let out = parallel_primal_dual_detailed(&inst, &cfg).unwrap();
        // Theory: at most ~3·log_{1+ε}(m) iterations with preprocessing.
        let m = inst.m() as f64;
        let bound = 3.0 * m.ln() / (1.1_f64).ln() + 10.0;
        assert!(
            (out.solution.rounds as f64) <= bound,
            "rounds {} exceed bound {bound}",
            out.solution.rounds
        );
        assert!(out.solution.rounds >= 1);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let inst = gen::facility_location(GenParams::grid(30, 15).with_seed(0));
        let cfg = FlConfig::new(0.2).with_seed(3);
        let a = parallel_primal_dual(&inst, &cfg).unwrap();
        let b = parallel_primal_dual(&inst, &cfg).unwrap();
        assert_eq!(a.open, b.open);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn free_facility_preprocessing_handles_zero_cost_colocated_facilities() {
        // A zero-cost facility at distance 0 from client 0 is opened as a free facility
        // by the preprocessing step (γ = 1 > 0 here because client 1 sits at distance 1).
        let dist = DistanceMatrix::from_rows(2, 2, vec![0.0, 5.0, 1.0, 5.0]);
        let inst = FlInstance::new(vec![0.0, 3.0], dist);
        let out = parallel_primal_dual_detailed(&inst, &FlConfig::new(0.1)).unwrap();
        assert!(out.free_facilities.contains(&0));
        assert!(out.solution.open.contains(&0));
        // Optimal cost is 1 (open the free facility; client 1 connects at distance 1).
        assert!(out.solution.cost <= 3.5, "cost {}", out.solution.cost);
        assert!(out.solution.cost >= 1.0 - 1e-9);

        // The fully degenerate case (γ = 0: every client co-located with a free
        // facility) must also work — preprocessing is skipped and the main loop opens
        // the free facility in its first iteration at zero cost.
        let dist0 = DistanceMatrix::from_rows(2, 2, vec![0.0, 5.0, 0.0, 5.0]);
        let inst0 = FlInstance::new(vec![0.0, 1.0], dist0);
        let sol0 = parallel_primal_dual(&inst0, &FlConfig::new(0.1)).unwrap();
        assert!(sol0.open.contains(&0));
        assert!((sol0.cost - 0.0).abs() < 1e-9);
    }

    #[test]
    fn no_client_pays_for_two_open_facilities() {
        // The MaxUDom post-processing guarantees each client contributes to at most one
        // opened (non-free) facility.
        let inst = gen::facility_location(GenParams::uniform_square(30, 12).with_seed(7));
        let cfg = FlConfig::new(0.25).with_seed(7);
        let out = parallel_primal_dual_detailed(&inst, &cfg).unwrap();
        let slack = 1.25;
        let non_free: Vec<_> = out
            .solution
            .open
            .iter()
            .copied()
            .filter(|i| !out.free_facilities.contains(i))
            .collect();
        for j in 0..inst.num_clients() {
            let paying: usize = non_free
                .iter()
                .filter(|&&i| slack * out.solution.alpha[j] > inst.dist(j, i))
                .count();
            assert!(paying <= 1, "client {j} pays for {paying} facilities");
        }
    }

    #[test]
    fn zero_cost_facilities_everywhere() {
        let inst = gen::facility_location(
            GenParams::uniform_square(16, 8)
                .with_seed(5)
                .with_cost_model(FacilityCostModel::Zero),
        );
        let sol = parallel_primal_dual(&inst, &FlConfig::new(0.1)).unwrap();
        let (_, opt) = lower_bounds::brute_force_facility_location(&inst);
        assert!(sol.cost <= (3.0 + 0.4) * opt + 1e-6);
    }

    #[test]
    fn preprocessing_ablation_still_meets_guarantee() {
        let inst = gen::facility_location(GenParams::uniform_square(12, 6).with_seed(11));
        let without =
            parallel_primal_dual(&inst, &FlConfig::new(0.1).with_preprocess(false)).unwrap();
        let with = parallel_primal_dual(&inst, &FlConfig::new(0.1)).unwrap();
        let (_, opt) = lower_bounds::brute_force_facility_location(&inst);
        assert!(without.cost <= (3.0 + 0.4) * opt + 1e-6);
        assert!(with.cost <= (3.0 + 0.4) * opt + 1e-6);
    }

    #[test]
    fn scan_and_bucket_engines_agree_bit_for_bit() {
        // The bucket event loop must replay the reference rescan ladder
        // exactly: same opens (order included), same α bits, same
        // iteration count.
        for seed in 0..4 {
            let inst = gen::facility_location(GenParams::uniform_square(24, 10).with_seed(seed));
            for preprocess in [true, false] {
                let cfg = FlConfig::new(0.15)
                    .with_seed(seed)
                    .with_preprocess(preprocess);
                let out = parallel_primal_dual_detailed(&inst, &cfg).unwrap();
                let (alpha, temporarily_open, iterations) = rescan_ladder(&inst, &cfg);
                let label = format!("seed {seed}, preprocess {preprocess}");
                assert_eq!(out.temporarily_open, temporarily_open, "{label}");
                assert_eq!(out.solution.rounds, iterations, "{label}");
                for (a, b) in out.solution.alpha.iter().zip(&alpha) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{label}: α diverged");
                }
            }
        }
    }

    #[test]
    fn bucket_engine_handles_degenerate_zero_gamma_instances() {
        // γ = 0: every client co-located with a zero-cost facility; the event
        // loop must open it in iteration 1 at level t = 0 and freeze everyone.
        let dist0 = DistanceMatrix::from_rows(2, 2, vec![0.0, 5.0, 0.0, 5.0]);
        let inst0 = FlInstance::new(vec![0.0, 1.0], dist0);
        let sol = parallel_primal_dual(&inst0, &FlConfig::new(0.1)).unwrap();
        assert!(sol.open.contains(&0));
        assert!((sol.cost - 0.0).abs() < 1e-9);
    }

    #[test]
    fn tiny_epsilon_is_refused_with_the_round_bound() {
        let inst = gen::facility_location(GenParams::uniform_square(50, 25).with_seed(0));
        let err = parallel_primal_dual(&inst, &FlConfig::new(1e-12)).unwrap_err();
        assert_eq!(err.epsilon, 1e-12);
        assert_eq!(err.max_rounds, 100_000);
        assert!(err.bound > 1e12, "{err}");
        assert!(err.to_string().contains("max_rounds = 100000"), "{err}");
        // 1 + ε rounds to 1: the ladder could never rise.
        let err = parallel_primal_dual(&inst, &FlConfig::new(1e-17)).unwrap_err();
        assert_eq!(err.bound, f64::INFINITY);
    }

    #[test]
    fn measured_rounds_stay_within_the_derived_bound() {
        for seed in 0..4 {
            let inst = gen::facility_location(GenParams::uniform_square(40, 10).with_seed(seed));
            for preprocess in [true, false] {
                let cfg = FlConfig::new(0.1)
                    .with_seed(seed)
                    .with_preprocess(preprocess);
                let rounds = parallel_primal_dual(&inst, &cfg).unwrap().rounds;
                // A zero cap makes the run report its bound instead of solving.
                let capped = FlConfig {
                    max_rounds: 0,
                    ..cfg
                };
                let bound = parallel_primal_dual(&inst, &capped).unwrap_err().bound;
                assert!(
                    rounds as f64 <= bound,
                    "seed {seed}, preprocess {preprocess}: {rounds} rounds > bound {bound}"
                );
                if preprocess {
                    // α₀ = γ/m² with m = 400: ⌈ln(160000) / ln(1.1)⌉ + 2.
                    assert_eq!(bound, 128.0);
                }
            }
        }
    }

    #[test]
    fn work_counters_and_round_stats_populated() {
        let inst = gen::facility_location(GenParams::uniform_square(40, 20).with_seed(1));
        let out = parallel_primal_dual_detailed(&inst, &FlConfig::new(0.1)).unwrap();
        assert!(out.solution.work.element_ops > 0);
        assert!(out.solution.work.primitive_calls > 0);
        assert!(out.solution.rounds > 0);
        // Every temporarily-open facility index is valid and distinct.
        let mut t = out.temporarily_open.clone();
        t.sort_unstable();
        t.dedup();
        assert_eq!(t.len(), out.temporarily_open.len());
    }
}

//! Relationships that must hold *between* algorithms and substrates.

use parfaclo_api::RunConfig;
use parfaclo_core::{greedy, primal_dual, verify};
use parfaclo_lp::{dual, solve_facility_lp};
use parfaclo_metric::gen::{self, GenParams};
use parfaclo_metric::lower_bounds;
use parfaclo_seq_baselines::{jain_vazirani, jms_greedy};

/// Weak duality chain on small instances:
/// every dual-feasible value ≤ LP value ≤ integral optimum ≤ every algorithm's cost.
#[test]
fn weak_duality_chain() {
    for seed in 0..4u64 {
        let inst = gen::facility_location(GenParams::uniform_square(9, 5).with_seed(seed));
        let cfg = RunConfig::new(0.1).with_seed(seed);

        let lp = solve_facility_lp(&inst).expect("lp");
        let (_, opt) = lower_bounds::brute_force_facility_location(&inst);
        let jv = jain_vazirani(&inst);
        let jv_dual: f64 = jv.alpha.iter().sum();
        let pd = primal_dual::parallel_primal_dual(&inst, &cfg).unwrap();
        let g = greedy::parallel_greedy(&inst, &cfg);

        // Lower bounds below the optimum.
        assert!(jv_dual <= lp.value() + 1e-6, "seed {seed}");
        assert!(pd.lower_bound <= lp.value() + 1e-6, "seed {seed}");
        assert!(g.lower_bound <= opt + 1e-6, "seed {seed}");
        assert!(lp.value() <= opt + 1e-6, "seed {seed}");
        assert!(inst.gamma() <= opt + 1e-6, "seed {seed}");

        // Costs above the optimum.
        for cost in [jv.cost, pd.cost, g.cost, jms_greedy(&inst).cost] {
            assert!(cost >= opt - 1e-9, "seed {seed}");
            assert!(cost <= inst.gamma_sum() + 1e-6, "seed {seed}");
        }
    }
}

/// The α certificates produced by the parallel primal-dual algorithm and the sequential
/// Jain–Vazirani simulation are both dual feasible and within a (1+ε) scale of each
/// other in total value.
#[test]
fn dual_certificates_are_consistent() {
    for seed in 0..4u64 {
        let inst = gen::facility_location(GenParams::gaussian_clusters(16, 8, 4).with_seed(seed));
        let pd = primal_dual::parallel_primal_dual(&inst, &RunConfig::new(0.05).with_seed(seed))
            .unwrap();
        let jv = jain_vazirani(&inst);
        assert!(dual::check_alpha_feasible(&inst, &pd.alpha, 1e-6).is_ok());
        assert!(dual::check_alpha_feasible(&inst, &jv.alpha, 1e-6).is_ok());
        let pd_val = dual::dual_value(&pd.alpha);
        let jv_val = dual::dual_value(&jv.alpha);
        // The geometric discretisation loses at most roughly a (1+ε)² factor per client
        // relative to the exact continuous process; allow a generous constant.
        assert!(
            pd_val <= 1.3 * jv_val + 1e-6 && jv_val <= 1.3 * pd_val + 1e-6,
            "seed {seed}: parallel dual {pd_val} vs sequential dual {jv_val}"
        );
    }
}

/// `verify::instance_lower_bound` and `verify::certified_ratio` glue the pieces
/// together: for the primal-dual algorithm the certified ratio never exceeds 3 + O(ε).
#[test]
fn certified_ratios_respect_guarantees() {
    for seed in 0..4u64 {
        let inst = gen::facility_location(GenParams::uniform_square(14, 7).with_seed(seed));
        let cfg = RunConfig::new(0.1).with_seed(seed);
        let pd = primal_dual::parallel_primal_dual(&inst, &cfg).unwrap();
        let lb = verify::instance_lower_bound(&inst, 10_000);
        let ratio = verify::certified_ratio(&inst, &pd, lb.best()).expect("certificate");
        assert!(
            ratio <= 3.0 + 0.35,
            "seed {seed}: certified primal-dual ratio {ratio}"
        );
        let g = greedy::parallel_greedy(&inst, &cfg);
        let gratio = verify::certified_ratio(&inst, &g, lb.best()).expect("certificate");
        assert!(
            gratio <= 3.722 + 0.4,
            "seed {seed}: certified greedy ratio {gratio}"
        );
    }
}

/// The γ bound of Equation (2) brackets every solution cost:
/// γ ≤ opt ≤ cost ≤ Σ_j γ_j is NOT generally true for cost (a bad solution could exceed
/// Σγ), but for all our approximation algorithms cost ≤ factor·opt ≤ factor·Σγ holds;
/// check the instrumented version.
#[test]
fn gamma_bounds_bracket_algorithm_costs() {
    for seed in 0..4u64 {
        let inst = gen::facility_location(GenParams::line(20, 10).with_seed(seed));
        let bounds = lower_bounds::gamma_bounds(&inst);
        let cfg = RunConfig::new(0.1).with_seed(seed);
        let pd = primal_dual::parallel_primal_dual(&inst, &cfg).unwrap();
        assert!(bounds.lower <= pd.cost + 1e-9);
        assert!(pd.cost <= 3.5 * bounds.upper + 1e-6);
    }
}

/// Work accounting sanity: the parallel primal-dual does `O(m)` work per round, so its
/// recorded element operations are at most a small constant times `m × rounds` (plus the
/// post-processing term), and greedy never presorts a full column up front — it expands
/// many small distance buckets lazily instead.
#[test]
fn work_accounting_is_plausible() {
    let inst = gen::facility_location(GenParams::uniform_square(64, 32).with_seed(2));
    let cfg = RunConfig::new(0.1).with_seed(2);
    let pd = primal_dual::parallel_primal_dual(&inst, &cfg).unwrap();
    let m = inst.m() as u64;
    let per_round_budget = 8 * m;
    assert!(
        pd.work.element_ops <= per_round_budget * (pd.rounds as u64 + pd.inner_rounds as u64 + 4),
        "primal-dual element ops {} exceed budget",
        pd.work.element_ops
    );

    let greedy = greedy::parallel_greedy(&inst, &cfg);
    assert!(
        greedy.work.sort_calls > 1,
        "greedy expands lazily: many small sorts, never one full presort (got {})",
        greedy.work.sort_calls
    );
}

//! End-to-end facility-location pipelines across the whole workspace.

use parfaclo_api::RunConfig;
use parfaclo_core::{greedy, lp_rounding, primal_dual, verify};
use parfaclo_lp::solve_facility_lp;
use parfaclo_metric::gen::{self, standard_suite, GenParams};
use parfaclo_seq_baselines::{jain_vazirani, jms_greedy};

/// Every parallel algorithm produces a structurally valid solution on every workload of
/// the standard suite.
#[test]
fn all_algorithms_valid_on_standard_suite() {
    for wl in standard_suite(40, 16, 11) {
        let inst = gen::facility_location(wl.params);
        let cfg = RunConfig::new(0.1).with_seed(3);

        let g = greedy::parallel_greedy(&inst, &cfg);
        verify::verify_solution(&inst, &g)
            .unwrap_or_else(|e| panic!("greedy invalid on {}: {e}", wl.name));

        let pd = primal_dual::parallel_primal_dual(&inst, &cfg).unwrap();
        verify::verify_solution(&inst, &pd)
            .unwrap_or_else(|e| panic!("primal-dual invalid on {}: {e}", wl.name));
    }
}

/// The full LP pipeline: build + solve the LP, round it, verify the result and the
/// (4+ε) guarantee relative to the LP value.
#[test]
fn lp_rounding_pipeline() {
    for seed in [1u64, 2, 3] {
        let inst = gen::facility_location(GenParams::gaussian_clusters(12, 7, 3).with_seed(seed));
        let lp = solve_facility_lp(&inst).expect("LP solve");
        lp.check_feasible(&inst, 1e-6).expect("LP feasibility");
        let cfg = RunConfig::new(0.1).with_seed(seed);
        let sol = lp_rounding::parallel_lp_rounding(&inst, &lp, &cfg);
        verify::verify_solution(&inst, &sol).expect("rounding produces a valid solution");
        assert!(
            sol.cost <= (4.0 + 0.2) * lp.value() + 1e-6,
            "seed {seed}: rounding ratio {} exceeds 4+ε",
            sol.cost / lp.value()
        );
    }
}

/// Parallel algorithms and their sequential counterparts coexist on the same instance
/// and their costs relate as the theory predicts (each is within its guarantee of the
/// common dual/LP lower bound).
#[test]
fn parallel_and_sequential_agree_on_quality_scale() {
    let inst = gen::facility_location(GenParams::uniform_square(60, 24).with_seed(5));
    let cfg = RunConfig::new(0.1).with_seed(5);

    let seq_g = jms_greedy(&inst);
    let seq_jv = jain_vazirani(&inst);
    let par_g = greedy::parallel_greedy(&inst, &cfg);
    let par_pd = primal_dual::parallel_primal_dual(&inst, &cfg).unwrap();

    // A common certified lower bound: the JV dual (exactly feasible).
    let dual: f64 = seq_jv.alpha.iter().sum();
    assert!(dual > 0.0);
    for (name, cost, factor) in [
        ("sequential JMS", seq_g.cost, 1.861),
        ("sequential JV", seq_jv.cost, 3.0),
        ("parallel greedy", par_g.cost, 3.722 * 1.21),
        ("parallel primal-dual", par_pd.cost, 3.0 * 1.21),
    ] {
        assert!(
            cost >= dual - 1e-6,
            "{name}: cost {cost} below the dual lower bound {dual}"
        );
        assert!(
            cost <= factor * 3.0 * dual + 1e-6,
            "{name}: cost {cost} implausibly far above the lower bound {dual}"
        );
    }
}

/// The epsilon knob trades rounds for quality in the expected direction on a larger
/// instance: larger ε ⇒ no more rounds than smaller ε.
#[test]
fn epsilon_controls_round_count() {
    let inst = gen::facility_location(GenParams::uniform_square(80, 32).with_seed(9));
    let tight =
        primal_dual::parallel_primal_dual(&inst, &RunConfig::new(0.02).with_seed(1)).unwrap();
    let loose =
        primal_dual::parallel_primal_dual(&inst, &RunConfig::new(0.5).with_seed(1)).unwrap();
    assert!(loose.rounds < tight.rounds);
    // Both still valid.
    assert!(loose.cost >= loose.lower_bound - 1e-9);
    assert!(tight.cost >= tight.lower_bound - 1e-9);
}

//! Determinism guarantees: fixed seeds give identical results, the thread count never
//! changes results, and different seeds stay within the approximation envelope.

use parfaclo_api::RunConfig;
use parfaclo_core::{greedy, lp_rounding, primal_dual};
use parfaclo_lp::solve_facility_lp;
use parfaclo_metric::gen::{self, GenParams};

#[test]
fn facility_location_algorithms_are_deterministic() {
    let inst = gen::facility_location(GenParams::gaussian_clusters(48, 20, 6).with_seed(13));
    for eps in [0.05, 0.3] {
        let cfg = RunConfig::new(eps).with_seed(99);
        let g1 = greedy::parallel_greedy(&inst, &cfg);
        let g2 = greedy::parallel_greedy(&inst, &cfg);
        assert_eq!(g1.open, g2.open);
        assert_eq!(g1.cost, g2.cost);
        assert_eq!(g1.alpha, g2.alpha);

        let p1 = primal_dual::parallel_primal_dual(&inst, &cfg).unwrap();
        let p2 = primal_dual::parallel_primal_dual(&inst, &cfg).unwrap();
        assert_eq!(p1.open, p2.open);
        assert_eq!(p1.rounds, p2.rounds);
    }
}

#[test]
fn different_seeds_stay_within_guarantees() {
    let inst = gen::facility_location(GenParams::uniform_square(30, 12).with_seed(23));
    let mut costs = Vec::new();
    for seed in 0..8u64 {
        let sol = greedy::parallel_greedy(&inst, &RunConfig::new(0.2).with_seed(seed));
        assert!(sol.cost >= sol.lower_bound - 1e-9);
        costs.push(sol.cost);
    }
    let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = costs.iter().cloned().fold(0.0, f64::max);
    // Randomness may change the solution, but not wildly: all runs are within the
    // worst-case factor of each other.
    assert!(
        max <= 3.722 * 1.44 * min + 1e-6,
        "spread too large: {costs:?}"
    );
}

#[test]
fn lp_rounding_determinism_with_shared_lp_solution() {
    let inst = gen::facility_location(GenParams::uniform_square(10, 6).with_seed(29));
    let lp = solve_facility_lp(&inst).expect("lp");
    let cfg = RunConfig::new(0.15).with_seed(31);
    let a = lp_rounding::parallel_lp_rounding(&inst, &lp, &cfg);
    let b = lp_rounding::parallel_lp_rounding(&inst, &lp, &cfg);
    assert_eq!(a.open, b.open);
    assert_eq!(a.cost, b.cost);
}

#[test]
fn generator_reproducibility_is_end_to_end() {
    // Same params + seed ⇒ same instance ⇒ same solution, across separate generator
    // invocations (no hidden global state anywhere in the stack).
    let params = GenParams::gaussian_clusters(25, 10, 3).with_seed(777);
    let a = gen::facility_location(params);
    let b = gen::facility_location(params);
    let cfg = RunConfig::new(0.1).with_seed(1);
    assert_eq!(
        primal_dual::parallel_primal_dual(&a, &cfg).unwrap().open,
        primal_dual::parallel_primal_dual(&b, &cfg).unwrap().open
    );
}

// ---------------------------------------------------------------------------
// Registry-wide conformance: the same guarantees, stated once for *every*
// registered solver through the unified API rather than per-algorithm.
// ---------------------------------------------------------------------------

mod registry_conformance {
    use parfaclo_api::{Backend, ProblemKind, RunConfig};
    use parfaclo_bench::runner::{run_solver, GenSpec};
    use parfaclo_bench::standard_registry;

    /// A workload small enough that even `lp-rounding` (which solves the full
    /// LP relaxation) stays fast.
    fn tiny_spec() -> GenSpec {
        GenSpec::parse("uniform:n=14,nf=7").expect("valid spec")
    }

    fn tiny_cfg() -> RunConfig {
        RunConfig::new(0.1).with_seed(7).with_k(3)
    }

    /// Every registered solver runs on a tiny generated instance and returns
    /// a structurally valid `Run` envelope.
    #[test]
    fn every_registered_solver_produces_a_valid_run() {
        let registry = standard_registry();
        let spec = tiny_spec();
        let cfg = tiny_cfg();
        assert!(registry.len() >= 14, "registry unexpectedly small");
        for name in registry.names() {
            let run = run_solver(&registry, name, &spec, &cfg)
                .unwrap_or_else(|e| panic!("solver '{name}' failed: {e}"));
            run.validate()
                .unwrap_or_else(|e| panic!("solver '{name}' invalid run: {e}"));
            assert_eq!(run.solver, name, "solver name echo mismatch");
            assert_eq!(run.seed, 7, "seed echo mismatch for '{name}'");
            let declared = registry.get(name).unwrap().guarantee;
            assert_eq!(
                run.guarantee, declared,
                "entry '{name}' did not stamp its declared guarantee"
            );
            assert!(run.wall_ms >= 0.0);
            // The JSON emission must succeed and carry the shared schema tag.
            assert!(run.to_json().contains(parfaclo_api::RUN_SCHEMA));
        }
    }

    /// Two runs of the same solver with the same seed produce byte-identical
    /// canonical JSON (the full record minus wall time).
    #[test]
    fn every_registered_solver_is_byte_deterministic_per_seed() {
        let registry = standard_registry();
        let spec = tiny_spec();
        let cfg = tiny_cfg();
        for name in registry.names() {
            let a = run_solver(&registry, name, &spec, &cfg).expect(name);
            let b = run_solver(&registry, name, &spec, &cfg).expect(name);
            assert_eq!(
                a.canonical_json(),
                b.canonical_json(),
                "solver '{name}' is not deterministic for a fixed seed"
            );
        }
    }

    /// Thread count must never change any solver's output: the Run JSON at
    /// threads = 1 must be byte-identical to the Run JSON at the maximum
    /// thread count (canonical form, i.e. minus the wall-clock/threads
    /// timing metadata).
    #[test]
    fn every_registered_solver_is_thread_count_invariant() {
        let registry = standard_registry();
        let spec = tiny_spec();
        let cfg = tiny_cfg();
        let max_threads = std::thread::available_parallelism()
            .map_or(4, |n| n.get())
            .max(4);
        for name in registry.names() {
            let one = run_solver(&registry, name, &spec, &cfg.clone().with_threads(1)).expect(name);
            let many = run_solver(
                &registry,
                name,
                &spec,
                &cfg.clone().with_threads(max_threads),
            )
            .expect(name);
            assert_eq!(one.threads, 1, "thread stamp for '{name}'");
            assert_eq!(many.threads, max_threads, "thread stamp for '{name}'");
            assert_eq!(
                one.canonical_json(),
                many.canonical_json(),
                "solver '{name}' output depends on the thread count"
            );
        }
    }

    /// The same byte-for-byte guarantee on instances big enough to actually
    /// cross the parallel threshold (m >= 2048), for every solver that is
    /// cheap enough to run at that size (lp-rounding solves a full LP and is
    /// covered at the tiny size above).
    #[test]
    fn thread_count_invariance_holds_on_parallel_sized_instances() {
        let registry = standard_registry();
        let spec = GenSpec::parse("clustered:n=80,nf=40,c=5").expect("valid spec");
        let cfg = RunConfig::new(0.15).with_seed(11).with_k(5);
        for name in registry.names() {
            if name == "lp-rounding" {
                continue;
            }
            let one = run_solver(&registry, name, &spec, &cfg.clone().with_threads(1)).expect(name);
            let four =
                run_solver(&registry, name, &spec, &cfg.clone().with_threads(4)).expect(name);
            assert_eq!(
                one.canonical_json(),
                four.canonical_json(),
                "solver '{name}' output depends on the thread count at parallel sizes"
            );
        }
    }

    /// The distance backend must never change any solver's output: for every
    /// registered solver, on two instance sizes and two seeds, the canonical
    /// Run JSON produced from an implicit- or spatial-backend instance is
    /// byte-identical to the dense-backend run — while the reported oracle
    /// memory stays `O(n)` (points, plus index structure for spatial)
    /// instead of the `O(n²)` matrix.
    #[test]
    fn every_registered_solver_is_backend_invariant_byte_for_byte() {
        let registry = standard_registry();
        for spec_str in ["uniform:n=14,nf=7", "clustered:n=26,nf=10,c=4"] {
            let spec = GenSpec::parse(spec_str).expect("valid spec");
            for seed in [7u64, 23] {
                let cfg = RunConfig::new(0.1).with_seed(seed).with_k(3);
                for name in registry.names() {
                    let dense = run_solver(&registry, name, &spec, &cfg).expect(name);
                    assert_eq!(dense.backend, Backend::Dense);
                    assert_eq!(
                        dense.memory_bytes,
                        (dense.m * 8) as u64,
                        "solver '{name}': dense oracle must report the matrix size"
                    );
                    for backend in [Backend::Implicit, Backend::Spatial] {
                        let other =
                            run_solver(&registry, name, &spec, &cfg.clone().with_backend(backend))
                                .expect(name);
                        assert_eq!(
                            dense.canonical_json(),
                            other.canonical_json(),
                            "solver '{name}' output differs between dense and {backend} \
                             (spec {spec_str}, seed {seed})"
                        );
                        assert_eq!(other.backend, backend);
                        // Point-backed memory is O(points): a generous 64
                        // bytes per point covers coords + Point/Vec headers
                        // (spatial adds index arrays, also O(points) — budget
                        // 64 more), independent of n².
                        let points = (dense.n + spec.nf) as u64;
                        let budget = match backend {
                            Backend::Spatial => points * 128,
                            _ => points * 64,
                        };
                        assert!(
                            other.memory_bytes <= budget,
                            "solver '{name}': {backend} oracle ({} bytes) is not \
                             O(|C| + |F|) for {points} points",
                            other.memory_bytes
                        );
                    }
                }
            }
        }
    }

    /// Certified lower bounds really are lower bounds: for every pair of
    /// facility-location solvers, each solver's cost dominates every other
    /// solver's certificate on the same instance.
    #[test]
    fn certificates_are_mutually_consistent_across_solvers() {
        let registry = standard_registry();
        let spec = tiny_spec();
        let cfg = tiny_cfg();
        let runs: Vec<_> = registry
            .names()
            .iter()
            .filter(|name| registry.get(name).unwrap().problem == ProblemKind::FacilityLocation)
            .map(|name| run_solver(&registry, name, &spec, &cfg).expect(name))
            .collect();
        assert!(runs.len() >= 5);
        for a in &runs {
            for b in &runs {
                assert!(
                    a.cost >= b.lower_bound - 1e-6,
                    "{} cost {} below {}'s certificate {}",
                    a.solver,
                    a.cost,
                    b.solver,
                    b.lower_bound
                );
            }
        }
    }
}

//! Cross-crate integration tests for the `parfaclo` workspace.
//!
//! The actual tests live in the sibling `*.rs` files declared as `[[test]]` targets:
//!
//! * `pipeline_facility_location` — end-to-end pipelines: generate → solve with every
//!   facility-location algorithm → verify structure and guarantees.
//! * `pipeline_kclustering` — the same for k-center / k-median / k-means.
//! * `cross_algorithm_consistency` — relationships that must hold *between* algorithms
//!   (every cost ≥ every certified lower bound, parallel vs sequential factors, ...).
//! * `determinism_and_seeds` — fixed seeds give identical output; plus the registry
//!   conformance suite: every entry of `parfaclo_bench::standard_registry()`
//!   produces a structurally valid `Run` stamped with its name, seed and
//!   guarantee, is byte-deterministic per seed and at any thread count, and
//!   respects the other solvers' certified lower bounds.
//! * `lower_bound_certification` — seeded randomized tests asserting the
//!   approximation guarantees against brute-force optima on random tiny instances.

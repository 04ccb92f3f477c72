//! # parfaclo-matrixops
//!
//! The "basic matrix operations" substrate assumed by Section 2 of
//! *Blelloch & Tangwongsan, SPAA 2010*.
//!
//! The paper expresses every parallel algorithm in terms of a small set of primitives
//! over dense vectors and matrices — element-wise maps, reductions, prefix sums,
//! distributions, transposes and row sorts. On an EREW PRAM each non-sort primitive
//! costs `O(m)` work and `O(log m)` depth, and a sort costs `O(m log m)` work; the
//! paper's bounds are stated as a number of calls to these primitives.
//!
//! The solvers run those primitives inline over their own data structures and charge
//! the *measured* work, the number of primitive invocations, and the number of
//! synchronisation rounds to a [`CostMeter`], so the experiment harness can compare
//! measured totals against the paper's `O(m log_{1+ε} m)`-style bounds. This crate owns
//! that meter, the [`PAR_THRESHOLD`] grain the solvers' parallel loops gate on, and the
//! four primitives the repository benchmark times (`ops::reduce`,
//! `scan::inclusive_scan`, `sort::sort_values`, `sort::sorted_distinct`); their
//! [`ExecPolicy`] argument picks the sequential branch their tests compare against.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod meter;
pub mod ops;
pub mod policy;
pub mod scan;
pub mod sort;

pub use meter::{CostMeter, CostReport};
pub use policy::ExecPolicy;

/// Minimum number of elements for which parallel execution is worthwhile;
/// below this a gated loop runs sequentially to avoid paying the fork-join
/// overhead on tiny inputs. Whether a loop goes parallel is a function of
/// its input size alone, never of the thread count, and both branches
/// produce the same bytes.
pub const PAR_THRESHOLD: usize = 2048;

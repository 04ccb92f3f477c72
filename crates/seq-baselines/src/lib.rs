//! # parfaclo-seq-baselines
//!
//! Sequential baseline algorithms for facility-location problems.
//!
//! Every guarantee in *Blelloch & Tangwongsan (SPAA 2010)* is phrased relative to a
//! sequential algorithm: the parallel greedy mimics Jain–Mahdian–Markakis–Saberi–Vazirani
//! (JMS) greedy, the parallel primal-dual mimics Jain–Vazirani (JV), the parallel
//! k-center parallelises Hochbaum–Shmoys, and the parallel local search parallelises the
//! classical swap-based local search of Arya et al. The experiment harness therefore
//! needs faithful sequential implementations to compare against — both for solution
//! quality ("does the slack cost us anything?") and for measured work ("is the parallel
//! algorithm within a log factor of the sequential one?", Section 1.1).
//!
//! This crate implements, from scratch:
//!
//! * [`jms_greedy`](mod@jms_greedy) — the greedy algorithm of Jain et al. (J. ACM
//!   2003): repeatedly open the cheapest maximal star (1.861-approximation);
//! * [`jain_vazirani`](mod@jain_vazirani) — the primal-dual 3-approximation of
//!   Jain & Vazirani (J. ACM 2001), implemented as an exact event-driven
//!   simulation of the continuous dual-raising process;
//! * [`kcenter`] — Gonzalez's farthest-point 2-approximation and the sequential
//!   Hochbaum–Shmoys bottleneck 2-approximation;
//! * [`local_search`] — sequential swap-based local search for k-median and k-means
//!   (5- and 81-approximations respectively) and Lloyd's heuristic for geometric
//!   k-means.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod jain_vazirani;
pub mod jms_greedy;
pub mod kcenter;
pub mod local_search;
pub mod solvers;

pub use jain_vazirani::jain_vazirani;
pub use jms_greedy::jms_greedy;
pub use kcenter::{gonzalez_kcenter, hochbaum_shmoys_kcenter};
pub use local_search::{lloyd_kmeans, local_search_kmeans, local_search_kmedian};

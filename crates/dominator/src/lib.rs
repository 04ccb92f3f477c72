//! # parfaclo-dominator
//!
//! Maximal independent set and the two dominator-set variants of Section 3 of
//! *Blelloch & Tangwongsan, SPAA 2010*.
//!
//! The paper introduces two variants of maximal independent set (MIS) that are used by
//! nearly every algorithm in the paper:
//!
//! * **Dominator set** `MaxDom(G)`: a maximal set `I ⊆ V(G)` such that no two selected
//!   nodes are adjacent *or share a common neighbour* — equivalently, a maximal
//!   independent set of the square graph `G²`.
//! * **U-dominator set** `MaxUDom(H)`: for a bipartite graph `H = (U, V, E)`, a maximal
//!   set `I ⊆ U` such that no two selected `U`-nodes share a `V`-side neighbour —
//!   equivalently, a maximal independent set of `H' = (U, {uw : ∃z ∈ V, uz, zw ∈ E})`.
//!
//! The crucial implementation point (and the reason the paper gets work-efficient
//! bounds) is that `G²` and `H'` are **never materialised**: Luby's select step is
//! simulated *in place* by propagating each node's random priority to its neighbours
//! twice, taking minima — a constant number of "basic matrix operations" per round
//! (Lemma 3.1).
//!
//! This crate provides:
//!
//! * [`luby::maximal_independent_set`] — classic Luby MIS on an explicit graph (used as
//!   a reference implementation in tests);
//! * [`maxdom::max_dom`] — `MaxDom(G)` without constructing `G²`;
//! * [`maxudom::max_u_dom`] — `MaxUDom(H)` without constructing `H'`.
//!
//! All three run on the frontier engine of [`parfaclo_graph`] over its CSR graphs
//! [`CsrGraph`] and [`CsrBipartite`] (re-exported here).
//!
//! All routines are deterministic given a seed, return the number of Luby rounds
//! executed (so the experiments can check the `O(log n)` round bound), and record their
//! work in a [`parfaclo_matrixops::CostMeter`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod luby;
pub mod maxdom;
pub mod maxudom;
pub mod solvers;

pub use luby::maximal_independent_set;
pub use maxdom::max_dom;
pub use maxudom::max_u_dom;
pub use parfaclo_graph::{CsrBipartite, CsrGraph};

/// Result of a dominator-set (or MIS) computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DominatorResult {
    /// The selected node indices, sorted ascending.
    pub selected: Vec<usize>,
    /// Number of Luby rounds the computation took.
    pub rounds: usize,
}

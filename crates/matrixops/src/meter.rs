//! Work / primitive-call / round accounting.
//!
//! The paper's cost model counts (i) total work in the EREW PRAM sense, and (ii) the
//! number of calls to the basic matrix operations, with depth being `O(log m)` per
//! primitive call. A [`CostMeter`] tracks both plus the number of algorithm-level
//! *rounds* (iterations of the outer loops of Algorithms 4.1 and 5.1, Luby rounds in the
//! dominator-set algorithms, and so on), so the experiment harness can report measured
//! quantities side by side with the paper's bounds, e.g. the `O(log_{1+ε} m)` round
//! bound of Lemma 4.8 or the `O(m log_{1+ε} m)` work bound of Theorem 5.4.
//!
//! Counters are relaxed atomics: they are incremented from inside rayon tasks and only
//! ever read after the parallel region has completed, so no ordering is required.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared, thread-safe cost counters.
///
/// Cheap to clone handles are not provided on purpose: algorithms take `&CostMeter` and
/// the owner decides the aggregation scope (per call, per experiment row, ...).
#[derive(Debug, Default)]
pub struct CostMeter {
    element_ops: AtomicU64,
    primitive_calls: AtomicU64,
    sort_calls: AtomicU64,
    rounds: AtomicU64,
}

/// A point-in-time snapshot of a [`CostMeter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostReport {
    /// Total element-wise operations performed ("work" in the PRAM sense).
    pub element_ops: u64,
    /// Number of basic-matrix-operation invocations (each is `O(log m)` depth on a
    /// PRAM).
    pub primitive_calls: u64,
    /// Number of sort invocations (each is `O(m log m)` work, `O(log^2 m)` depth).
    pub sort_calls: u64,
    /// Number of algorithm-level rounds (outer-loop iterations).
    pub rounds: u64,
}

impl CostMeter {
    /// Creates a meter with all counters at zero.
    pub fn new() -> Self {
        CostMeter::default()
    }

    /// Adds `n` units of element-wise work.
    #[inline]
    pub fn add_work(&self, n: u64) {
        self.element_ops.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one invocation of a basic matrix operation over `n` elements.
    #[inline]
    pub fn add_primitive(&self, n: u64) {
        self.primitive_calls.fetch_add(1, Ordering::Relaxed);
        self.element_ops.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one sort over `n` elements, costed at `n * ceil(log2 n)` work.
    #[inline]
    pub fn add_sort(&self, n: u64) {
        self.sort_calls.fetch_add(1, Ordering::Relaxed);
        let logn = 64 - (n.max(2) - 1).leading_zeros() as u64; // ceil(log2 n)
        self.element_ops.fetch_add(n * logn, Ordering::Relaxed);
    }

    /// Records one algorithm-level round.
    #[inline]
    pub fn add_round(&self) {
        self.rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of all counters.
    pub fn report(&self) -> CostReport {
        CostReport {
            element_ops: self.element_ops.load(Ordering::Relaxed),
            primitive_calls: self.primitive_calls.load(Ordering::Relaxed),
            sort_calls: self.sort_calls.load(Ordering::Relaxed),
            rounds: self.rounds.load(Ordering::Relaxed),
        }
    }

    /// Counter delta accumulated since the `earlier` snapshot was taken
    /// from this meter. The span-instrumentation idiom: snapshot at span
    /// open, `delta_since` at span close — nested spans each see exactly
    /// the work charged between their own endpoints, so nothing is
    /// double-counted however deeply spans nest.
    pub fn delta_since(&self, earlier: &CostReport) -> CostReport {
        self.report().since(earlier)
    }
}

impl std::ops::Add for CostReport {
    type Output = CostReport;

    /// Counter-wise sum, e.g. a run's own work plus that of a sub-call that
    /// ran on its own meter.
    fn add(self, other: CostReport) -> CostReport {
        CostReport {
            element_ops: self.element_ops + other.element_ops,
            primitive_calls: self.primitive_calls + other.primitive_calls,
            sort_calls: self.sort_calls + other.sort_calls,
            rounds: self.rounds + other.rounds,
        }
    }
}

impl CostReport {
    /// Difference between two snapshots (`self` taken after `earlier`).
    pub fn since(&self, earlier: &CostReport) -> CostReport {
        CostReport {
            element_ops: self.element_ops - earlier.element_ops,
            primitive_calls: self.primitive_calls - earlier.primitive_calls,
            sort_calls: self.sort_calls - earlier.sort_calls,
            rounds: self.rounds - earlier.rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = CostMeter::new();
        m.add_work(10);
        m.add_primitive(5);
        m.add_round();
        m.add_round();
        m.add_round();
        m.add_sort(8);
        let r = m.report();
        assert_eq!(r.element_ops, 10 + 5 + 8 * 3); // log2(8)=3
        assert_eq!(r.primitive_calls, 1);
        assert_eq!(r.sort_calls, 1);
        assert_eq!(r.rounds, 3);
    }

    #[test]
    fn reset_and_since() {
        let m = CostMeter::new();
        m.add_primitive(100);
        let first = m.report();
        m.add_primitive(50);
        let second = m.report();
        let delta = second.since(&first);
        assert_eq!(delta.primitive_calls, 1);
        assert_eq!(delta.element_ops, 50);
        assert_eq!(delta + first, second);
    }

    #[test]
    fn delta_since_does_not_double_count_under_nesting() {
        // Simulated nested spans: outer snapshots, inner snapshots, work
        // happens at every level; each level's delta covers exactly the
        // charges between its own snapshot and its close.
        let m = CostMeter::new();
        m.add_work(3); // before any span
        let outer_open = m.report();
        m.add_work(5);
        let inner_open = m.report();
        m.add_primitive(100);
        m.add_round();
        let inner_delta = m.delta_since(&inner_open);
        assert_eq!(inner_delta.element_ops, 100);
        assert_eq!(inner_delta.primitive_calls, 1);
        assert_eq!(inner_delta.rounds, 1);
        m.add_work(7);
        let outer_delta = m.delta_since(&outer_open);
        assert_eq!(
            outer_delta.element_ops,
            5 + 100 + 7,
            "outer delta is inclusive of the inner span, counted once"
        );
        assert_eq!(outer_delta.primitive_calls, 1);
        // The work outside both spans is attributed to neither.
        assert_eq!(m.report().element_ops, 3 + 5 + 100 + 7);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let m = CostMeter::new();
        rayon::scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    for _ in 0..1000 {
                        m.add_work(1);
                    }
                });
            }
        });
        assert_eq!(m.report().element_ops, 8000);
    }
}

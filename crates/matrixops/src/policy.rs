//! Execution policy: sequential or fork-join-parallel.
//!
//! Every primitive in this crate takes an [`ExecPolicy`]. The sequential
//! implementation is the reference (it is what the cost accounting models),
//! and the parallel implementation must produce identical results; the
//! experiment harness runs both to measure self-relative speedup, and the
//! property tests assert the equivalence.
//!
//! The number of worker threads is *not* part of the policy — it is owned by
//! the runtime (the rayon pool installed around the run; see
//! `RunConfig::threads` in `parfaclo-api`). Determinism does not depend on
//! it: every parallel primitive chunks its input independently of the
//! thread count.

/// Whether a primitive should run sequentially or on the fork-join pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecPolicy {
    /// Plain sequential loops. Used as the reference implementation and for
    /// tiny inputs where parallel overhead dominates.
    Sequential,
    /// Data-parallel execution on the fork-join pool, gated by the default
    /// [`ExecPolicy::PAR_THRESHOLD`] grain.
    #[default]
    Parallel,
}

impl ExecPolicy {
    /// Minimum number of elements for which parallel execution is worthwhile
    /// under [`ExecPolicy::Parallel`]; below this the parallel
    /// implementations silently fall back to sequential loops to avoid
    /// paying the fork-join overhead on tiny inputs.
    pub const PAR_THRESHOLD: usize = 2048;

    /// Returns `true` if work of the given size should actually be run in
    /// parallel under this policy.
    #[inline]
    pub fn run_parallel(self, len: usize) -> bool {
        match self {
            ExecPolicy::Sequential => false,
            ExecPolicy::Parallel => len >= Self::PAR_THRESHOLD,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_gates_parallelism() {
        assert!(!ExecPolicy::Sequential.run_parallel(usize::MAX));
        assert!(!ExecPolicy::Parallel.run_parallel(ExecPolicy::PAR_THRESHOLD - 1));
        assert!(ExecPolicy::Parallel.run_parallel(ExecPolicy::PAR_THRESHOLD));
    }

    #[test]
    fn default_is_parallel() {
        assert_eq!(ExecPolicy::default(), ExecPolicy::Parallel);
    }
}

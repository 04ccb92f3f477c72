//! Execution policy of the reduce / scan / sort primitives: sequential or
//! fork-join-parallel.
//!
//! The solvers do not take a policy: their gated loops go parallel once the
//! input reaches [`crate::PAR_THRESHOLD`], and `--threads 1` is the
//! sequential run. The policy is a parameter only of the primitives the
//! repository benchmark calls (`reduce`, `inclusive_scan`, `sort_values`,
//! `sorted_distinct` and the graph engine's `edge_map`), whose `Sequential`
//! branches are their tests' reference.
//!
//! The number of worker threads is *not* part of the policy — it is owned by
//! the runtime (the rayon pool installed around the run; see
//! `RunConfig::threads` in `parfaclo-api`). Determinism does not depend on
//! it: every parallel primitive chunks its input independently of the
//! thread count.

use crate::PAR_THRESHOLD;

/// Whether a primitive should run sequentially or on the fork-join pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecPolicy {
    /// Plain sequential loops: the reference implementation.
    Sequential,
    /// Data-parallel execution on the fork-join pool, gated by the
    /// [`PAR_THRESHOLD`] grain.
    #[default]
    Parallel,
}

impl ExecPolicy {
    /// Returns `true` if work of the given size should actually be run in
    /// parallel under this policy.
    #[inline]
    pub fn run_parallel(self, len: usize) -> bool {
        match self {
            ExecPolicy::Sequential => false,
            ExecPolicy::Parallel => len >= PAR_THRESHOLD,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_gates_parallelism() {
        assert!(!ExecPolicy::Sequential.run_parallel(usize::MAX));
        assert!(!ExecPolicy::Parallel.run_parallel(PAR_THRESHOLD - 1));
        assert!(ExecPolicy::Parallel.run_parallel(PAR_THRESHOLD));
    }

    #[test]
    fn default_is_parallel() {
        assert_eq!(ExecPolicy::default(), ExecPolicy::Parallel);
    }
}

//! Reduction over a dense vector — the non-scan, non-sort "basic matrix operation" of
//! Section 2 — and the associative operators it and the scans combine with.

use crate::meter::CostMeter;
use crate::policy::ExecPolicy;
use rayon::prelude::*;

/// The associative operators the paper's algorithms need for reductions and scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssocOp {
    /// Addition, identity 0.
    Add,
    /// Minimum, identity +∞.
    Min,
    /// Maximum, identity −∞.
    Max,
}

impl AssocOp {
    /// Identity element of the operator.
    #[inline]
    pub fn identity(self) -> f64 {
        match self {
            AssocOp::Add => 0.0,
            AssocOp::Min => f64::INFINITY,
            AssocOp::Max => f64::NEG_INFINITY,
        }
    }

    /// Applies the operator.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            AssocOp::Add => a + b,
            AssocOp::Min => a.min(b),
            AssocOp::Max => a.max(b),
        }
    }
}

/// Reduction over an entire vector.
///
/// Both policies fold the same fixed chunks (boundaries depend only on the
/// input length) and combine the per-chunk accumulators left-to-right, so the
/// result — including the association-order-sensitive `Add` on floats — is
/// byte-identical under `Sequential`, `Parallel`, and any thread count.
pub fn reduce(data: &[f64], op: AssocOp, policy: ExecPolicy, meter: &CostMeter) -> f64 {
    meter.add_primitive(data.len() as u64);
    if policy.run_parallel(data.len()) {
        data.par_iter()
            .copied()
            .reduce(|| op.identity(), |a, b| op.apply(a, b))
    } else {
        // Sequential mirror of the engine's chunked combine structure.
        let chunk = rayon::deterministic_chunk_len(data.len(), 1);
        data.chunks(chunk).fold(op.identity(), |acc, c| {
            let part = c.iter().copied().fold(op.identity(), |a, b| op.apply(a, b));
            op.apply(acc, part)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assoc_op_identities() {
        assert_eq!(AssocOp::Add.apply(AssocOp::Add.identity(), 5.0), 5.0);
        assert_eq!(AssocOp::Min.apply(AssocOp::Min.identity(), 5.0), 5.0);
        assert_eq!(AssocOp::Max.apply(AssocOp::Max.identity(), 5.0), 5.0);
    }

    #[test]
    fn reduce_matches_std() {
        let data: Vec<f64> = (0..5000).map(|x| (x % 13) as f64).collect();
        let meter = CostMeter::new();
        for p in [ExecPolicy::Sequential, ExecPolicy::Parallel] {
            assert_eq!(
                reduce(&data, AssocOp::Add, p, &meter),
                data.iter().sum::<f64>()
            );
            assert_eq!(reduce(&data, AssocOp::Min, p, &meter), 0.0);
            assert_eq!(reduce(&data, AssocOp::Max, p, &meter), 12.0);
        }
    }

    #[test]
    fn meter_counts_primitives() {
        let meter = CostMeter::new();
        let data = vec![1.0; 10];
        let _ = reduce(&data, AssocOp::Add, ExecPolicy::Sequential, &meter);
        let _ = reduce(&data, AssocOp::Max, ExecPolicy::Parallel, &meter);
        let r = meter.report();
        assert_eq!(r.primitive_calls, 2);
        assert_eq!(r.element_ops, 20);
    }
}

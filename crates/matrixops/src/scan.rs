//! Prefix sums (scans).
//!
//! "A prefix sum returns to each element of a sequence the sum of previous elements"
//! (Section 2). The paper uses prefix sums with `+`, `min` and `max`.
//!
//! Both policies run the classical two-pass blocked scan: partition the input
//! into chunks (boundaries a pure function of the length, never the thread
//! count), scan each chunk independently, scan the chunk totals sequentially
//! (there are few of them), then add each chunk's offset in a second pass.
//! Sharing one blocked structure keeps the floating-point association order —
//! and hence the exact bytes — identical under `Sequential`, `Parallel`, and
//! any pool size. This does `O(n)` work and `O(log n)` depth up to the
//! chunking granularity.

use crate::meter::CostMeter;
use crate::ops::AssocOp;
use crate::policy::ExecPolicy;
use rayon::prelude::*;

/// Inclusive scan: `out[i] = op(data[0], ..., data[i])`.
pub fn inclusive_scan(
    data: &[f64],
    op: AssocOp,
    policy: ExecPolicy,
    meter: &CostMeter,
) -> Vec<f64> {
    meter.add_primitive(data.len() as u64);
    let parallel = policy.run_parallel(data.len());
    let n = data.len();
    let chunk = rayon::deterministic_chunk_len(n, 1024);
    let fold_chunk =
        |c: &[f64]| -> f64 { c.iter().copied().fold(op.identity(), |a, b| op.apply(a, b)) };
    let scan_chunk = |out_chunk: &mut [f64], in_chunk: &[f64], offset: f64| {
        let mut acc = offset;
        for (o, &x) in out_chunk.iter_mut().zip(in_chunk.iter()) {
            acc = op.apply(acc, x);
            *o = acc;
        }
    };
    // Pass 1: per-chunk totals.
    let totals: Vec<f64> = if parallel {
        data.par_chunks(chunk).map(fold_chunk).collect()
    } else {
        data.chunks(chunk).map(fold_chunk).collect()
    };
    // Sequential exclusive scan over the (few) chunk totals gives the
    // per-chunk offsets; a single chunk degenerates to the plain accumulator
    // scan exactly.
    let mut acc = op.identity();
    let offsets: Vec<f64> = totals
        .iter()
        .map(|&t| {
            let offset = acc;
            acc = op.apply(acc, t);
            offset
        })
        .collect();
    // Pass 2: scan each chunk with its offset.
    let mut out = vec![0.0; n];
    if parallel {
        out.par_chunks_mut(chunk)
            .zip(data.par_chunks(chunk))
            .zip(offsets.par_iter())
            .for_each(|((out_chunk, in_chunk), &offset)| scan_chunk(out_chunk, in_chunk, offset));
    } else {
        for ((out_chunk, in_chunk), &offset) in out
            .chunks_mut(chunk)
            .zip(data.chunks(chunk))
            .zip(offsets.iter())
        {
            scan_chunk(out_chunk, in_chunk, offset);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inclusive_scan_add() {
        let meter = CostMeter::new();
        let data = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(
            inclusive_scan(&data, AssocOp::Add, ExecPolicy::Sequential, &meter),
            vec![1.0, 3.0, 6.0, 10.0]
        );
    }

    #[test]
    fn min_and_max_scans() {
        let meter = CostMeter::new();
        let data = vec![3.0, 1.0, 4.0, 1.0, 5.0];
        assert_eq!(
            inclusive_scan(&data, AssocOp::Min, ExecPolicy::Sequential, &meter),
            vec![3.0, 1.0, 1.0, 1.0, 1.0]
        );
        assert_eq!(
            inclusive_scan(&data, AssocOp::Max, ExecPolicy::Sequential, &meter),
            vec![3.0, 3.0, 4.0, 4.0, 5.0]
        );
    }

    #[test]
    fn empty_and_singleton() {
        let meter = CostMeter::new();
        assert!(inclusive_scan(&[], AssocOp::Add, ExecPolicy::Sequential, &meter).is_empty());
        assert_eq!(
            inclusive_scan(&[7.0], AssocOp::Add, ExecPolicy::Parallel, &meter),
            vec![7.0]
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let meter = CostMeter::new();
        let data: Vec<f64> = (0..10_000).map(|x| ((x * 37 + 11) % 19) as f64).collect();
        for op in [AssocOp::Add, AssocOp::Min, AssocOp::Max] {
            let seq = inclusive_scan(&data, op, ExecPolicy::Sequential, &meter);
            let par = inclusive_scan(&data, op, ExecPolicy::Parallel, &meter);
            for (a, b) in seq.iter().zip(par.iter()) {
                assert!((a - b).abs() < 1e-9, "{op:?}: {a} vs {b}");
            }
        }
    }

    /// Bitwise policy invariance on noisy floats spanning many chunks — the
    /// exact regression the blocked sequential mirror exists for (fp addition
    /// is not associative, so any structural divergence shows up in the bits).
    #[test]
    fn scan_policies_are_bit_identical_on_noisy_floats() {
        let meter = CostMeter::new();
        let mut state = 0x2545F4914F6CDD1Du64;
        let data: Vec<f64> = (0..40_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 100.0 - 50.0
            })
            .collect();
        let seq = inclusive_scan(&data, AssocOp::Add, ExecPolicy::Sequential, &meter);
        let par = inclusive_scan(&data, AssocOp::Add, ExecPolicy::Parallel, &meter);
        for (i, (a, b)) in seq.iter().zip(par.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "index {i}: {a} vs {b}");
        }
    }
}

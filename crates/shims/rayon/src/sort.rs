//! Deterministic parallel merge sort.
//!
//! Strategy: split the slice into one contiguous run per effective thread,
//! sort every run in place in parallel with std's stable sort, then merge
//! adjacent runs pairwise, round by round, between the slice and one scratch
//! buffer. Each pairwise merge is cut by *co-rank* (the merge-path split: the
//! number of left-run elements among the first `d` outputs, found by binary
//! search) into one independent piece per thread, so the last round — a
//! single merge — keeps every thread busy too. Elements move by value
//! (`T: Copy`) in sequential streams, with no index indirection.
//!
//! Merges take from the left run on comparator ties, so the result is the
//! unique stable order: byte-identical to `slice::sort_by` for every run
//! split and thread count. That canonicality is what allows free algorithm
//! choice: the sequential fallback (std's stable sort) is used whenever it
//! would win — small inputs, a 1-thread pool, or a machine without real
//! hardware parallelism — and the output is the same either way.
//! `par_sort_unstable_*` reuses the same routine: stability is a permitted
//! strengthening of the unstable contract and keeps the output canonical.
//!
//! If `compare` panics, the panic propagates and the slice may hold
//! duplicates of some elements in place of others; with `T: Copy` nothing
//! is dropped twice.

use crate::iter::{IntoParallelRefMutIterator, ParallelSliceMut};
use crate::pool::{current_num_threads, hardware_threads};
use std::cmp::Ordering;

/// Below this length the std stable sort on the calling thread wins.
const SEQ_SORT_CUTOFF: usize = 1 << 14;

pub(crate) fn par_merge_sort_by<T, F>(v: &mut [T], compare: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    // Only the effective *hardware* parallelism makes the parallel sort
    // profitable; an oversubscribed pool (threads > cores) would pay for the
    // merge rounds without the speedup. Output is the canonical stable order
    // on every path, so this choice is unobservable in the results.
    let threads = current_num_threads().min(hardware_threads());
    if v.len() <= SEQ_SORT_CUTOFF || threads <= 1 {
        v.sort_by(|a, b| compare(a, b));
        return;
    }
    merge_sort_runs(v, &compare, threads);
}

/// Sorts `v` as `runs` contiguous runs (each by std's stable sort), merged
/// pairwise in rounds with every merge split into `runs` pieces.
fn merge_sort_runs<T, F>(v: &mut [T], compare: &F, runs: usize)
where
    T: Copy + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let n = v.len();
    let run_len = n.div_ceil(runs).max(1);
    // Run `i` spans `bounds[i]..bounds[i + 1]`.
    let mut bounds: Vec<usize> = (0..n).step_by(run_len).chain([n]).collect();
    // Each round moves the data to the other buffer, so the runs are sorted
    // in whichever buffer is an even number of rounds away from `v`.
    let rounds = (bounds.len() - 1).next_power_of_two().trailing_zeros();
    let mut scratch = v.to_vec();
    let mut in_scratch = rounds % 2 == 1;
    let first: &mut [T] = if in_scratch { &mut scratch } else { v };
    first
        .par_chunks_mut(run_len)
        .for_each(|run| run.sort_by(|a, b| compare(a, b)));
    while bounds.len() > 2 {
        bounds = if in_scratch {
            merge_round(&scratch, v, &bounds, compare, runs)
        } else {
            merge_round(v, &mut scratch, &bounds, compare, runs)
        };
        in_scratch = !in_scratch;
    }
}

/// Merges each pair of adjacent runs of `src` (run `i` spans
/// `bounds[i]..bounds[i + 1]`) into the same positions of `dst`, in
/// parallel, and returns the bounds of the merged runs. Each merge is cut by
/// co-rank into `pieces` pieces of near-equal output length; an unpaired
/// last run is copied through.
fn merge_round<T, F>(
    src: &[T],
    dst: &mut [T],
    bounds: &[usize],
    compare: &F,
    pieces: usize,
) -> Vec<usize>
where
    T: Copy + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let mut tasks: Vec<(&[T], &[T], &mut [T])> = Vec::new();
    let mut merged = vec![0];
    let mut rest = dst;
    for r in (0..bounds.len() - 1).step_by(2) {
        let (lo, mid) = (bounds[r], bounds[r + 1]);
        let hi = bounds.get(r + 2).copied().unwrap_or(mid);
        let (left, right) = (&src[lo..mid], &src[mid..hi]);
        let piece_len = (hi - lo).div_ceil(pieces).max(1);
        let (mut i0, mut j0) = (0, 0);
        for d in (piece_len..hi - lo).step_by(piece_len).chain([hi - lo]) {
            let i = co_rank(d, left, right, compare);
            let (out, tail) = std::mem::take(&mut rest).split_at_mut(d - i0 - j0);
            tasks.push((&left[i0..i], &right[j0..d - i], out));
            rest = tail;
            (i0, j0) = (i, d - i);
        }
        merged.push(hi);
    }
    tasks
        .par_iter_mut()
        .for_each(|(left, right, out)| merge_into(left, right, out, compare));
    merged
}

/// The co-rank of output position `d` in the stable merge of `a` and `b`:
/// the number of elements of `a` among the first `d` outputs. `a[i]` comes
/// before `b[j]` unless `b[j] < a[i]`, so `a[i]` is among the first `d`
/// exactly when `b[d - 1 - i]` is not less than it — a predicate monotone in
/// `i`, hence the binary search.
fn co_rank<T, F>(d: usize, a: &[T], b: &[T], compare: &F) -> usize
where
    F: Fn(&T, &T) -> Ordering,
{
    let (mut lo, mut hi) = (d.saturating_sub(b.len()), d.min(a.len()));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if compare(&a[mid], &b[d - 1 - mid]) == Ordering::Greater {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Stable sequential merge of the sorted runs `a` and `b` into `out`
/// (`out.len() == a.len() + b.len()`); ties take from `a`.
fn merge_into<T, F>(a: &[T], b: &[T], out: &mut [T], compare: &F)
where
    T: Copy,
    F: Fn(&T, &T) -> Ordering,
{
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        // Select rather than branch: on unsorted keys the comparison is a
        // coin flip, and a mispredicted branch per element doubles the cost.
        let take_b = compare(&a[i], &b[j]) == Ordering::Greater;
        out[k] = if take_b { b[j] } else { a[i] };
        j += usize::from(take_b);
        i += usize::from(!take_b);
        k += 1;
    }
    let (from_a, from_b) = out[k..].split_at_mut(a.len() - i);
    from_a.copy_from_slice(&a[i..]);
    from_b.copy_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(key, original index)` pairs with only 64 distinct keys, so nearly
    /// every comparison ties and any stability slip shows in the payloads.
    fn noise_keys(n: usize) -> Vec<(i64, usize)> {
        let mut state = 0x9E3779B97F4A7C15u64;
        (0..n)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (((state >> 33) % 64) as i64, i)
            })
            .collect()
    }

    /// Sorts `base` through the merge path at each run count and checks it
    /// element for element against `slice::sort_by`. The run count is passed
    /// explicitly: the public entry point falls back to std's sort on
    /// single-core machines, where this path would otherwise never run.
    fn check_against_std(base: &[(i64, usize)], label: &str) {
        let cmp = |a: &(i64, usize), b: &(i64, usize)| a.0.cmp(&b.0);
        let mut expected = base.to_vec();
        expected.sort_by(cmp);
        for runs in [2usize, 3, 4, 7] {
            let mut v = base.to_vec();
            merge_sort_runs(&mut v, &cmp, runs);
            assert_eq!(v, expected, "{label}, n = {}, runs = {runs}", base.len());
        }
    }

    #[test]
    fn merge_path_matches_std_stable_sort_on_ties() {
        check_against_std(&noise_keys(100_000), "tie-heavy");
    }

    #[test]
    fn merge_path_handles_awkward_lengths() {
        let lengths = [
            0,
            1,
            2,
            3,
            17,
            SEQ_SORT_CUTOFF - 1,
            SEQ_SORT_CUTOFF,
            SEQ_SORT_CUTOFF + 1,
            // Not divisible by 3, 4 or 7: the last run is short.
            2 * 3 * 4 * 7 * 100 + 5,
        ];
        for n in lengths {
            check_against_std(&noise_keys(n), "noise");
        }
    }

    #[test]
    fn merge_path_handles_equal_sorted_and_reversed_input() {
        let n = SEQ_SORT_CUTOFF + 1;
        let all_equal: Vec<(i64, usize)> = (0..n).map(|i| (5, i)).collect();
        check_against_std(&all_equal, "all-equal");
        let sorted: Vec<(i64, usize)> = (0..n).map(|i| (i as i64 / 3, i)).collect();
        check_against_std(&sorted, "sorted");
        let reversed: Vec<(i64, usize)> = sorted.iter().rev().copied().collect();
        check_against_std(&reversed, "reversed");
    }

    #[test]
    fn co_rank_splits_ties_towards_the_left_run() {
        let cmp = |a: &i64, b: &i64| a.cmp(b);
        let (a, b) = ([1i64, 2, 2, 3], [2i64, 2, 4]);
        // Stable merge: 1 2a 2a 2b 2b 3 4.
        let expected = [0usize, 1, 2, 3, 3, 3, 4, 4];
        for (d, &want) in expected.iter().enumerate() {
            assert_eq!(co_rank(d, &a, &b, &cmp), want, "d = {d}");
        }
    }
}

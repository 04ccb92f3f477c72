//! Row sorting and argsort.
//!
//! Section 2 allows "sorting the rows of a matrix" as a primitive costing
//! `O(m log m)` work. Algorithm 4.1 pre-sorts each facility's client distances once
//! ("the rows can be presorted to give each client its distances from facilities in
//! order. In the original order, each element can be marked with its rank"), so what the
//! algorithms actually need is an **argsort with ranks**: for each row, the permutation
//! that sorts it and the rank of every original position.

use crate::meter::CostMeter;
use crate::policy::ExecPolicy;
use rayon::prelude::*;

/// The result of argsorting one row: the sorting permutation, with the rank
/// view available on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowOrder {
    /// `order[k]` is the original index of the `k`-th smallest element.
    pub order: Vec<u32>,
}

impl RowOrder {
    /// Builds the order/rank pair for one row.
    ///
    /// For rows of finite, non-negative values (every distance row) the sort
    /// runs on packed `(value_bits << 32) | index` integers: non-negative
    /// IEEE-754 doubles order by their bit patterns exactly as they order
    /// numerically, so one unstable integer sort yields the same
    /// (value, index)-lexicographic permutation as the comparison sort —
    /// several times faster on long rows, since each compare touches one
    /// contiguous `u128` instead of two indirect float loads. Rows with
    /// negatives, `-0.0` or non-finite values take the comparison path
    /// (where `-0.0` ties with `+0.0` and NaN panics, as before).
    fn from_row(row: &[f64]) -> RowOrder {
        Self::from_row_with(row, &mut Vec::new())
    }

    /// [`RowOrder::from_row`] with a caller-owned scratch buffer for the
    /// packed keys, so batch callers sorting many long rows reuse one
    /// allocation instead of churning a fresh `16·cols`-byte vector (and its
    /// page faults) per row.
    fn from_row_with(row: &[f64], packed: &mut Vec<u128>) -> RowOrder {
        let n = row.len();
        assert!(n <= u32::MAX as usize, "row length exceeds u32 index space");
        let order: Vec<u32> = if row.iter().all(|&v| v.is_finite() && v.to_bits() >> 63 == 0) {
            packed.clear();
            packed.extend(
                row.iter()
                    .enumerate()
                    .map(|(i, &v)| (u128::from(v.to_bits()) << 32) | i as u128),
            );
            packed.sort_unstable();
            packed.iter().map(|&p| p as u32).collect()
        } else {
            let mut ord: Vec<u32> = (0..n as u32).collect();
            ord.sort_by(|&a, &b| {
                row[a as usize]
                    .partial_cmp(&row[b as usize])
                    .unwrap()
                    .then(a.cmp(&b))
            });
            ord
        };
        RowOrder { order }
    }

    /// `rank[i]` — the position of original element `i` in the sorted order
    /// (the inverse permutation of [`RowOrder::order`]). Computed on demand:
    /// the permutation is what every current consumer keeps, and inverting a
    /// long row is a cache-hostile random scatter worth paying only when
    /// ranks are actually wanted.
    pub fn rank(&self) -> Vec<u32> {
        let mut rank = vec![0u32; self.order.len()];
        for (pos, &idx) in self.order.iter().enumerate() {
            rank[idx as usize] = pos as u32;
        }
        rank
    }
}

/// Argsorts every row of a row-major `rows x cols` matrix.
///
/// Ties are broken towards the smaller original index, so the result is deterministic.
pub fn argsort_rows(
    data: &[f64],
    rows: usize,
    cols: usize,
    policy: ExecPolicy,
    meter: &CostMeter,
) -> Vec<RowOrder> {
    assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
    meter.add_sort(data.len() as u64);
    let sort_row = |r: usize| RowOrder::from_row(&data[r * cols..(r + 1) * cols]);
    if policy.run_parallel(data.len()) {
        (0..rows).into_par_iter().map(sort_row).collect()
    } else {
        (0..rows).map(sort_row).collect()
    }
}

/// Argsorts every row of a **virtual** `rows x cols` matrix whose entries are
/// produced by `key(row, col)` on demand.
///
/// Semantically identical to materialising the matrix and calling
/// [`argsort_rows`] — same tie-breaking (towards the smaller original index),
/// same meter charge (one sort of `rows * cols` elements) — but the peak
/// memory is one `cols`-length scratch row per in-flight row instead of the
/// whole matrix, so a row sort can run against an implicit distance oracle
/// without ever allocating the dense matrix.
pub fn argsort_rows_by_key<F>(
    rows: usize,
    cols: usize,
    policy: ExecPolicy,
    meter: &CostMeter,
    key: F,
) -> Vec<RowOrder>
where
    F: Fn(usize, usize) -> f64 + Sync,
{
    argsort_rows_filled(rows, cols, policy, meter, |r, out| {
        for (c, slot) in out.iter_mut().enumerate() {
            *slot = key(r, c);
        }
    })
}

/// Argsorts every row of a virtual `rows x cols` matrix whose rows are
/// produced whole by `fill(row, scratch)` — the batch-filling sibling of
/// [`argsort_rows_by_key`], identical in semantics, tie-breaking and meter
/// charge. Callers with a batched row producer (a distance oracle's blocked
/// range kernels) fill the `cols`-length scratch in one call instead of
/// `cols` per-element callbacks.
pub fn argsort_rows_filled<F>(
    rows: usize,
    cols: usize,
    policy: ExecPolicy,
    meter: &CostMeter,
    fill: F,
) -> Vec<RowOrder>
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    meter.add_sort((rows * cols) as u64);
    // Rows are processed in deterministic contiguous chunks, each chunk
    // reusing one row scratch and one packed-key scratch across its rows —
    // on long rows the transient allocations (24·cols bytes per row)
    // otherwise dominate the sort itself through page-fault churn.
    let chunk = rayon::deterministic_chunk_len(rows.max(1), 1);
    let indices: Vec<usize> = (0..rows).collect();
    let sort_chunk = |rs: &[usize]| -> Vec<RowOrder> {
        let mut row = vec![0.0; cols];
        let mut packed: Vec<u128> = Vec::new();
        rs.iter()
            .map(|&r| {
                fill(r, &mut row);
                RowOrder::from_row_with(&row, &mut packed)
            })
            .collect()
    };
    let per_chunk: Vec<Vec<RowOrder>> = if policy.run_parallel(rows * cols) {
        indices.par_chunks(chunk).map(sort_chunk).collect()
    } else {
        indices.chunks(chunk).map(sort_chunk).collect()
    };
    per_chunk.into_iter().flatten().collect()
}

/// Sorts a vector of `f64` ascending (ties keep relative order), returning a new vector.
pub fn sort_values(data: &[f64], policy: ExecPolicy, meter: &CostMeter) -> Vec<f64> {
    meter.add_sort(data.len() as u64);
    let mut v = data.to_vec();
    if policy.run_parallel(data.len()) {
        v.par_sort_by(|a, b| a.partial_cmp(b).unwrap());
    } else {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
    v
}

/// Sorts and deduplicates a vector of `f64` (used for the k-center distance set `D`).
pub fn sorted_distinct(data: &[f64], policy: ExecPolicy, meter: &CostMeter) -> Vec<f64> {
    let mut v = sort_values(data, policy, meter);
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argsort_single_row() {
        let meter = CostMeter::new();
        let data = vec![3.0, 1.0, 2.0];
        let orders = argsort_rows(&data, 1, 3, ExecPolicy::Sequential, &meter);
        assert_eq!(orders[0].order, vec![1, 2, 0]);
        assert_eq!(orders[0].rank(), vec![2, 0, 1]);
    }

    #[test]
    fn argsort_breaks_ties_by_index() {
        let meter = CostMeter::new();
        let data = vec![5.0, 5.0, 1.0, 5.0];
        let orders = argsort_rows(&data, 1, 4, ExecPolicy::Sequential, &meter);
        assert_eq!(orders[0].order, vec![2, 0, 1, 3]);
    }

    #[test]
    fn argsort_multiple_rows_independent() {
        let meter = CostMeter::new();
        let data = vec![2.0, 1.0, 10.0, 20.0];
        let orders = argsort_rows(&data, 2, 2, ExecPolicy::Sequential, &meter);
        assert_eq!(orders[0].order, vec![1, 0]);
        assert_eq!(orders[1].order, vec![0, 1]);
    }

    #[test]
    fn order_and_rank_are_inverse_permutations() {
        let meter = CostMeter::new();
        let data: Vec<f64> = (0..500).map(|x| ((x * 7919 + 13) % 97) as f64).collect();
        let orders = argsort_rows(&data, 5, 100, ExecPolicy::Parallel, &meter);
        for ro in &orders {
            for (pos, &idx) in ro.order.iter().enumerate() {
                assert_eq!(ro.rank()[idx as usize] as usize, pos);
            }
            // Sorted order is non-decreasing.
            for w in ro.order.windows(2) {
                let row_start = orders.iter().position(|x| std::ptr::eq(x, ro)).unwrap() * 100;
                let a = data[row_start + w[0] as usize];
                let b = data[row_start + w[1] as usize];
                assert!(a <= b);
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let meter = CostMeter::new();
        let data: Vec<f64> = (0..4000).map(|x| ((x * 31 + 3) % 500) as f64).collect();
        let seq = argsort_rows(&data, 8, 500, ExecPolicy::Sequential, &meter);
        let par = argsort_rows(&data, 8, 500, ExecPolicy::Parallel, &meter);
        assert_eq!(seq, par);
    }

    #[test]
    fn argsort_by_key_matches_materialised_argsort() {
        let meter = CostMeter::new();
        let data: Vec<f64> = (0..600).map(|x| ((x * 37 + 11) % 53) as f64).collect();
        for policy in [ExecPolicy::Sequential, ExecPolicy::Parallel] {
            let dense = argsort_rows(&data, 6, 100, policy, &meter);
            let keyed = argsort_rows_by_key(6, 100, policy, &meter, |r, c| data[r * 100 + c]);
            assert_eq!(dense, keyed);
        }
    }

    #[test]
    fn argsort_filled_matches_materialised_argsort() {
        let meter = CostMeter::new();
        let data: Vec<f64> = (0..600).map(|x| ((x * 41 + 7) % 59) as f64).collect();
        for policy in [ExecPolicy::Sequential, ExecPolicy::Parallel] {
            let dense = argsort_rows(&data, 6, 100, policy, &meter);
            let filled = argsort_rows_filled(6, 100, policy, &meter, |r, out| {
                out.copy_from_slice(&data[r * 100..(r + 1) * 100]);
            });
            assert_eq!(dense, filled);
        }
    }

    #[test]
    fn packed_and_comparison_paths_agree() {
        // A non-negative row (packed integer path) and its negated copy
        // (comparison fallback) must produce mirror-consistent orders, and
        // ties must break towards the smaller index on both paths.
        let row = vec![2.5, 0.0, 7.0, 0.0, 2.5, 1.0, 0.0];
        let pos = RowOrder::from_row(&row);
        assert_eq!(pos.order, vec![1, 3, 6, 5, 0, 4, 2]);
        let neg: Vec<f64> = row.iter().map(|&v| -v - 1.0).collect();
        let fallback = RowOrder::from_row(&neg);
        let mut expect: Vec<u32> = (0..row.len() as u32).collect();
        expect.sort_by(|&a, &b| {
            neg[a as usize]
                .partial_cmp(&neg[b as usize])
                .unwrap()
                .then(a.cmp(&b))
        });
        assert_eq!(fallback.order, expect);
    }

    #[test]
    fn sort_values_and_distinct() {
        let meter = CostMeter::new();
        let data = vec![3.0, 1.0, 2.0, 1.0];
        assert_eq!(
            sort_values(&data, ExecPolicy::Sequential, &meter),
            vec![1.0, 1.0, 2.0, 3.0]
        );
        assert_eq!(
            sorted_distinct(&data, ExecPolicy::Sequential, &meter),
            vec![1.0, 2.0, 3.0]
        );
    }

    #[test]
    fn meter_counts_sorts() {
        let meter = CostMeter::new();
        let data = vec![1.0; 16];
        let _ = sort_values(&data, ExecPolicy::Sequential, &meter);
        let _ = argsort_rows(&data, 4, 4, ExecPolicy::Sequential, &meter);
        assert_eq!(meter.report().sort_calls, 2);
    }
}

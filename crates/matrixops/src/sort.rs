//! Sorting.
//!
//! Section 2 allows sorting as a primitive costing `O(m log m)` work. The
//! k-center search of Section 6.1 binary-searches the sorted set `D` of
//! distinct pairwise distances; the distance oracle derives that set itself
//! (`sorted_distinct_values`), and [`sorted_distinct`] is the same operation
//! over a plain slice.

use crate::meter::CostMeter;
use crate::policy::ExecPolicy;
use rayon::prelude::*;

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
    fn parallel_matches_sequential() {
        let meter = CostMeter::new();
        let data: Vec<f64> = (0..40_000).map(|x| ((x * 31 + 3) % 500) as f64).collect();
        for sort in [sort_values, sorted_distinct] {
            assert_eq!(
                sort(&data, ExecPolicy::Sequential, &meter),
                sort(&data, ExecPolicy::Parallel, &meter)
            );
        }
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
        let _ = sorted_distinct(&data, ExecPolicy::Parallel, &meter);
        assert_eq!(meter.report().sort_calls, 2);
    }
}

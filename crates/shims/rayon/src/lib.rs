//! # rayon (offline shim) — deterministic fork-join runtime
//!
//! A drop-in replacement for the parts of the `rayon` API this workspace
//! uses. The build environment has no network access to crates.io, so the
//! real work-stealing pool cannot be vendored; instead this crate implements
//! a real **multi-threaded** fork-join runtime on `std::thread::scope`:
//!
//! * parallel iterators (`par_iter` / `into_par_iter` / `par_chunks` /
//!   `par_chunks_mut` with `map`, `filter`, `filter_map`, `flat_map[_iter]`,
//!   `enumerate`, `zip`, `copied`, `cloned`, `take`, and the `collect`,
//!   `for_each`, `reduce`, `fold`, `count` consumers),
//! * parallel sorts (`par_sort`, `par_sort_by`, `par_sort_unstable[_by]`),
//! * `scope`/`spawn` and `join`,
//! * a [`ThreadPoolBuilder`] whose `num_threads` is **honored**:
//!   [`ThreadPool::install`] runs its closure with parallel operations
//!   fanning out over that many threads, and
//!   [`ThreadPoolBuilder::build_global`] sets the process-wide default
//!   (also settable via the `RAYON_NUM_THREADS` environment variable).
//!
//! ## Determinism guarantee
//!
//! Every data-parallel operation splits its input at **fixed chunk
//! boundaries** — a pure function of the input length (see
//! [`deterministic_chunk_len`]), never of the thread count — and combines
//! per-chunk results strictly left-to-right. Threads only decide *who*
//! executes a chunk. Results are therefore byte-identical at 1 thread and at
//! N threads, including floating-point reductions, whose value depends on
//! association order. Parallel sorts are merge sorts: one run per thread,
//! sorted in place, then merged pairwise with every merge cut by co-rank
//! (merge path) into one piece per thread. Merges take from the left run on
//! ties, so the result is always the canonical *stable* order — the output
//! of `slice::sort_by` — and independent of the pool size. The `scope` task
//! queue makes no ordering promises, as under real rayon.
//!
//! Differences from real rayon worth knowing about: data-parallel regions
//! run on a process-wide set of persistent workers (spawned lazily, parked
//! on a condvar between regions) rather than a work-stealing deque pool,
//! while `scope` and `join` spawn scoped threads per call; nested parallel
//! calls inside a worker run inline instead of work-stealing;
//! `into_par_iter()` is implemented for the owned sources the workspace
//! actually uses (`Range<usize>`, `Vec<T: Clone>`) rather than every
//! `IntoIterator`; and the `par_sort*` family requires `T: Copy`, because
//! the merge moves elements by value through a scratch buffer in safe code.
//! Swapping the real `rayon` back in (via the root `Cargo.toml`, once a
//! registry is reachable) additionally requires a home for
//! [`deterministic_chunk_len`], which `parfaclo-matrixops` calls to
//! mirror the parallel combine structure sequentially — and it forfeits the
//! byte-identical-across-thread-counts guarantee, which real rayon's
//! thread-count-dependent splits do not provide, so the thread-invariance
//! tests would need to be relaxed to tolerance-based comparisons.

mod iter;
mod pool;
mod sort;
mod task;

pub use iter::{
    IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParIter,
    ParallelSlice, ParallelSliceMut, Producer,
};
pub use pool::{
    current_num_threads, deterministic_chunk_len, ThreadPool, ThreadPoolBuildError,
    ThreadPoolBuilder,
};
pub use task::{join, scope, Scope};

/// Re-exports mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::iter::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelSlice,
        ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Deterministic pseudo-random f64s (LCG) — varied enough to expose any
    /// chunking/order bug in reductions and sorts.
    fn noise(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2000.0 - 1000.0
            })
            .collect()
    }

    fn pool(threads: usize) -> ThreadPool {
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool")
    }

    const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

    #[test]
    fn par_iter_chains_match_sequential() {
        let v: Vec<i64> = (0..5000).collect();
        let expected: Vec<i64> = v.iter().map(|&x| x * 2).filter(|x| x % 3 == 0).collect();
        for t in THREAD_COUNTS {
            let got: Vec<i64> = pool(t).install(|| {
                v.par_iter()
                    .map(|&x| x * 2)
                    .filter(|x| x % 3 == 0)
                    .collect()
            });
            assert_eq!(got, expected, "threads = {t}");
        }
    }

    #[test]
    fn reduce_is_bit_identical_across_thread_counts() {
        let v = noise(50_000, 42);
        let reference: f64 = pool(1).install(|| v.par_iter().copied().reduce(|| 0.0, |a, b| a + b));
        for t in THREAD_COUNTS {
            let sum: f64 = pool(t).install(|| v.par_iter().copied().reduce(|| 0.0, |a, b| a + b));
            assert_eq!(sum.to_bits(), reference.to_bits(), "threads = {t}");
        }
        // And the sequential mirror: folding fixed chunks reproduces it.
        let chunk = deterministic_chunk_len(v.len(), 1);
        let mirrored = v.chunks(chunk).fold(0.0, |acc, c| {
            acc + c.iter().copied().fold(0.0, |a, b| a + b)
        });
        assert_eq!(mirrored.to_bits(), reference.to_bits());
    }

    #[test]
    fn reduce_with_identity_and_enumerate() {
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        for t in THREAD_COUNTS {
            pool(t).install(|| {
                let s = v.par_iter().copied().reduce(|| 0.0, |a, b| a + b);
                assert_eq!(s, 55.0);
                let max = v.par_iter().copied().enumerate().reduce(
                    || (usize::MAX, f64::NEG_INFINITY),
                    |a, b| if b.1 > a.1 { b } else { a },
                );
                assert_eq!(max, (9, 10.0));
            });
        }
    }

    #[test]
    fn fold_then_reduce_matches_reduce() {
        let v = noise(20_000, 7);
        let direct = pool(4).install(|| v.par_iter().copied().reduce(|| 0.0, |a, b| a + b));
        let folded = pool(4).install(|| {
            v.par_iter()
                .copied()
                .fold(|| 0.0, |acc, x| acc + x)
                .reduce(|| 0.0, |a, b| a + b)
        });
        assert_eq!(direct.to_bits(), folded.to_bits());
    }

    #[test]
    fn filter_map_flat_map_count_take_zip() {
        let v: Vec<u32> = (0..10_000).collect();
        let seq_fm: Vec<u32> = v
            .iter()
            .filter_map(|&x| if x % 7 == 0 { Some(x / 7) } else { None })
            .collect();
        let seq_flat: Vec<u32> = v.iter().flat_map(|&x| [x, x + 1]).collect();
        for t in THREAD_COUNTS {
            pool(t).install(|| {
                let fm: Vec<u32> = v
                    .par_iter()
                    .filter_map(|&x| if x % 7 == 0 { Some(x / 7) } else { None })
                    .collect();
                assert_eq!(fm, seq_fm);
                let flat: Vec<u32> = v.par_iter().flat_map_iter(|&x| [x, x + 1]).collect();
                assert_eq!(flat, seq_flat);
                assert_eq!(v.par_iter().filter(|&&x| x % 2 == 0).count(), 5000);
                let taken: Vec<u32> = v.par_iter().copied().take(17).collect();
                assert_eq!(taken, (0..17).collect::<Vec<u32>>());
                let zipped: Vec<u32> = v
                    .par_iter()
                    .zip(v[1..].par_iter())
                    .map(|(&a, &b)| a + b)
                    .collect();
                assert_eq!(zipped.len(), v.len() - 1);
                assert_eq!(zipped[0], 1);
                assert_eq!(zipped[9998], 9999 + 9998);
            });
        }
    }

    #[test]
    fn chunks_zip_for_each_mutates_disjointly() {
        let data: Vec<f64> = (0..10_000).map(|x| x as f64).collect();
        for t in THREAD_COUNTS {
            let mut out = vec![0.0f64; data.len()];
            pool(t).install(|| {
                out.par_chunks_mut(97)
                    .zip(data.par_chunks(97))
                    .for_each(|(o, i)| {
                        for (a, b) in o.iter_mut().zip(i) {
                            *a = *b + 1.0;
                        }
                    });
            });
            assert!(out.iter().enumerate().all(|(k, &x)| x == k as f64 + 1.0));
        }
    }

    #[test]
    fn par_iter_mut_touches_every_element_once() {
        let mut v = vec![0u64; 30_000];
        pool(4).install(|| v.par_iter_mut().for_each(|x| *x += 1));
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn sorts_match_std_stable_sort() {
        // Duplicate keys with distinct payloads expose stability violations.
        let base: Vec<(i64, usize)> = noise(30_000, 3)
            .into_iter()
            .enumerate()
            .map(|(i, x)| ((x as i64) % 50, i))
            .collect();
        let mut expected = base.clone();
        expected.sort_by_key(|a| a.0);
        for t in THREAD_COUNTS {
            let mut v = base.clone();
            pool(t).install(|| v.par_sort_by(|a, b| a.0.cmp(&b.0)));
            assert_eq!(v, expected, "stable sort, threads = {t}");
            let mut u = base.clone();
            pool(t).install(|| u.par_sort_unstable_by(|a, b| a.0.cmp(&b.0)));
            assert_eq!(u, expected, "unstable sort canonical, threads = {t}");
        }
        let mut w: Vec<i64> = base.iter().map(|p| p.0).collect();
        let mut w_expected = w.clone();
        w_expected.sort();
        pool(4).install(|| w.par_sort());
        assert_eq!(w, w_expected);
    }

    #[test]
    fn float_sort_matches_sequential() {
        let mut v = noise(20_000, 11);
        let mut expected = v.clone();
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        pool(4).install(|| v.par_sort_by(|a, b| a.partial_cmp(b).unwrap()));
        assert_eq!(v, expected);
    }

    #[test]
    fn pool_honors_num_threads_and_really_runs_in_parallel() {
        for t in [1usize, 3, 8] {
            assert_eq!(pool(t).install(current_num_threads), t);
            assert_eq!(pool(t).current_num_threads(), t);
        }
        // With 4 requested threads and slow tasks, more than one OS thread
        // must participate.
        let seen = std::sync::Mutex::new(std::collections::HashSet::new());
        pool(4).install(|| {
            (0..64usize).into_par_iter().for_each(|_| {
                let begin = std::time::Instant::now();
                while begin.elapsed() < std::time::Duration::from_micros(500) {
                    std::hint::spin_loop();
                }
                seen.lock().unwrap().insert(std::thread::current().id());
            });
        });
        assert!(
            seen.lock().unwrap().len() > 1,
            "expected multiple worker threads to participate"
        );
    }

    #[test]
    fn nested_parallel_calls_run_inline_in_workers() {
        // A parallel region inside a parallel region must not explode the
        // thread count; inner calls see an effective thread count of 1.
        let inner_counts: Vec<usize> = pool(4).install(|| {
            (0..8usize)
                .into_par_iter()
                .map(|_| current_num_threads())
                .collect()
        });
        assert!(inner_counts.iter().all(|&c| c == 1), "{inner_counts:?}");
    }

    #[test]
    fn install_restores_previous_thread_count() {
        let outer = current_num_threads();
        pool(3).install(|| {
            assert_eq!(current_num_threads(), 3);
            pool(5).install(|| assert_eq!(current_num_threads(), 5));
            assert_eq!(current_num_threads(), 3);
        });
        assert_eq!(current_num_threads(), outer);
    }

    #[test]
    fn scope_runs_all_spawned_tasks_including_nested() {
        let hits = AtomicUsize::new(0);
        pool(4).install(|| {
            scope(|s| {
                for _ in 0..8 {
                    s.spawn(|inner| {
                        hits.fetch_add(1, Ordering::Relaxed);
                        inner.spawn(|_| {
                            hits.fetch_add(1, Ordering::Relaxed);
                        });
                    });
                }
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn join_returns_both_results() {
        for t in [1usize, 4] {
            let (a, b) = pool(t).install(|| join(|| 6 * 7, || "ok"));
            assert_eq!((a, b), (42, "ok"));
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let empty: Vec<f64> = Vec::new();
        pool(4).install(|| {
            let collected: Vec<f64> = empty.par_iter().copied().collect();
            assert!(collected.is_empty());
            assert_eq!(empty.par_iter().copied().reduce(|| 1.5, |a, b| a + b), 1.5);
            assert_eq!(empty.par_iter().count(), 0);
            let mut v: Vec<f64> = Vec::new();
            v.par_sort_by(|a, b| a.partial_cmp(b).unwrap());
        });
    }

    #[test]
    fn vec_into_par_iter_and_range() {
        let v = vec![3u64, 1, 4, 1, 5];
        let doubled: Vec<u64> = pool(4).install(|| v.into_par_iter().map(|x| x * 2).collect());
        assert_eq!(doubled, vec![6, 2, 8, 2, 10]);
        let idx: Vec<usize> = pool(2).install(|| (10..15).into_par_iter().collect());
        assert_eq!(idx, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn deterministic_chunk_len_is_a_pure_function_of_len() {
        for len in [0usize, 1, 100, 2048, 1 << 20] {
            let a = deterministic_chunk_len(len, 1);
            let b = pool(1).install(|| deterministic_chunk_len(len, 1));
            let c = pool(16).install(|| deterministic_chunk_len(len, 1));
            assert_eq!(a, b);
            assert_eq!(a, c);
            assert!(a >= 1);
        }
        assert_eq!(deterministic_chunk_len(100, 64), 64);
    }
}

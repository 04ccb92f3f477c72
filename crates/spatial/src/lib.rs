//! # parfaclo-spatial
//!
//! Deterministic, exact spatial indexes for the `parfaclo` workspace — the
//! query subsystem that replaces the implicit distance oracle's O(n) linear
//! sweeps with sublinear nearest and range queries, opening the 10M-point
//! workloads the dense matrix and the plain sweeps cannot reach.
//!
//! ## Contract
//!
//! Every structure in this crate answers every query **exactly** as a
//! brute-force scan would, byte for byte:
//!
//! * distances are computed by `parfaclo-kernel`'s [`DistanceKind`], the
//!   one slice kernel `parfaclo-metric`'s `Point::distance` also runs, so
//!   the values are bit-identical to the dense matrix's entries;
//! * ties are always broken towards the **lowest point id** — the same rule
//!   the `DistanceOracle` sweeps document;
//! * pruning uses *computed* lower bounds compared **strictly** (see
//!   below), so no equal-distance candidate is ever skipped;
//! * construction and traversal are pure functions of the input point set —
//!   never of thread count.
//!
//! Because of that contract, a solver routed through this crate emits
//! canonical Run JSON byte-identical to the dense and implicit backends.
//!
//! ## Computed lower bounds
//!
//! The grid prunes with [`DistanceKind::box_lower_bound`], a *computed*
//! lower bound: evaluated with the same shape of rounded, monotone IEEE
//! operations as the distance itself (per-coordinate displacement →
//! square/abs → left-to-right sum or max → optional sqrt), the bound of a
//! box never exceeds the computed distance of any point inside it. Searches
//! therefore prune only on a **strict** `bound > best` comparison and
//! remain exact, ties included.
//!
//! ## Structures
//!
//! [`SpatialIndex::build`] picks from `(n, dim)` alone: a [`UniformGrid`]
//! for dimensions 1–3 (the workspace's generators make 1-D and 2-D
//! points), and a [`Flat`] scan for everything else — at most 64 points,
//! dimension 0, or dimension above 3, where no workload needs a tree.
//! Subset queries (nearest-in-set over, say, the currently open
//! facilities) go through [`SpatialIndex::build_with_ids`], which indexes a
//! point subset while reporting and tie-breaking on the caller's original
//! ids.
//!
//! [`DistanceKind`]: parfaclo_kernel::DistanceKind
//! [`DistanceKind::box_lower_bound`]: parfaclo_kernel::DistanceKind::box_lower_bound

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod grid;
pub mod index;
mod query;
#[cfg(test)]
pub(crate) mod tests_util;

pub use grid::UniformGrid;
pub use index::{Flat, SpatialIndex};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_util::{brute_nearest, brute_range, sample_coords};
    use parfaclo_kernel::DistanceKind;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// The workspace-style seeded property sweep: many seeds, every metric,
    /// dimensions 1/2/3 (the grid) and 10 (the flat scan), duplicates
    /// injected, index vs brute force.
    #[test]
    fn property_index_matches_brute_force() {
        for seed in 0..8u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(0xBEEF ^ seed);
            for &dim in &[1usize, 2, 3, 10] {
                let n = 80 + (seed as usize * 37) % 220;
                let mut coords = sample_coords(n, dim, seed.wrapping_mul(31) + dim as u64);
                // Inject duplicates: copy a random earlier point over a later one.
                for _ in 0..n / 8 {
                    let src = rng.gen_range(0..n);
                    let dst = rng.gen_range(0..n);
                    let from = coords[src * dim..(src + 1) * dim].to_vec();
                    coords[dst * dim..(dst + 1) * dim].copy_from_slice(&from);
                }
                for metric in [
                    DistanceKind::Euclidean,
                    DistanceKind::SquaredEuclidean,
                    DistanceKind::Manhattan,
                    DistanceKind::Chebyshev,
                ] {
                    let idx = SpatialIndex::build(coords.clone(), dim, metric);
                    for _ in 0..6 {
                        let q: Vec<f64> =
                            (0..dim).map(|_| rng.gen::<f64>() * 120.0 - 10.0).collect();
                        assert_eq!(
                            idx.nearest(&q),
                            brute_nearest(&coords, dim, metric, &q),
                            "seed {seed} dim {dim} {metric:?} ({})",
                            idx.structure()
                        );
                        let radius = rng.gen::<f64>() * 60.0;
                        let radius = match metric {
                            DistanceKind::SquaredEuclidean => radius * radius,
                            _ => radius,
                        };
                        assert_eq!(
                            idx.range(&q, radius),
                            brute_range(&coords, dim, metric, &q, radius),
                            "seed {seed} dim {dim} {metric:?} r {radius}"
                        );
                    }
                }
            }
        }
    }

    /// The fully degenerate input: every point equidistant from the query
    /// (a circle) — ties everywhere; the lowest id must win and range must
    /// return everyone, in both structures.
    #[test]
    fn all_equidistant_points_tie_to_lowest_id() {
        let n = 200usize;
        let coords: Vec<f64> = (0..n)
            .flat_map(|i| {
                let angle = i as f64 * std::f64::consts::TAU / n as f64;
                [10.0 * angle.cos(), 10.0 * angle.sin()]
            })
            .collect();
        let q = [0.0, 0.0];
        for metric in [DistanceKind::Euclidean, DistanceKind::SquaredEuclidean] {
            for idx in [
                SpatialIndex::Flat(Flat::build(coords.clone(), 2, metric, None)),
                SpatialIndex::Grid(UniformGrid::build(coords.clone(), 2, metric, None)),
            ] {
                let (id, _) = idx.nearest(&q).unwrap();
                assert_eq!(
                    id,
                    brute_nearest(&coords, 2, metric, &q).unwrap().0,
                    "{metric:?} {}",
                    idx.structure()
                );
                let brute = brute_nearest(&coords, 2, metric, &q).unwrap();
                let all = idx.range(&q, brute.1);
                assert_eq!(
                    all,
                    brute_range(&coords, 2, metric, &q, brute.1),
                    "{metric:?} {}",
                    idx.structure()
                );
            }
        }
    }

    /// Subset indexes answer exactly like a scan over the subset — the
    /// nearest-in-set building block of the spatial oracle backend.
    #[test]
    fn subset_index_matches_subset_scan() {
        let dim = 2;
        let coords = sample_coords(150, dim, 11);
        let metric = DistanceKind::Euclidean;
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..10 {
            let subset: Vec<u32> = (0..150u32).filter(|_| rng.gen::<f64>() < 0.3).collect();
            let sub_coords: Vec<f64> = subset
                .iter()
                .flat_map(|&id| coords[id as usize * dim..(id as usize + 1) * dim].to_vec())
                .collect();
            let idx = SpatialIndex::build_with_ids(sub_coords, dim, metric, Some(subset.clone()));
            assert_eq!(idx.len(), subset.len());
            for _ in 0..5 {
                let q: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() * 100.0).collect();
                let expect = subset
                    .iter()
                    .map(|&id| {
                        let p = &coords[id as usize * dim..(id as usize + 1) * dim];
                        (id as usize, metric.distance(&q, p))
                    })
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
                assert_eq!(idx.nearest(&q), expect);
            }
        }
    }

    /// A range query that holds a large subset index sorts its hits, through
    /// a bitmask over the ids when they fill at least 1/8 of their span
    /// (stride 2) and by comparison otherwise (stride 10). The ids run past
    /// the point count, on the grid (2-D) and the flat scan (4-D).
    #[test]
    fn dense_subset_ranges_sort_ids_past_the_point_count() {
        for (stride, dim) in [(2, 2), (2, 4), (10, 2), (10, 4)] {
            let want: Vec<usize> = (0..5_000).map(|i| stride * i + 7).collect();
            let ids = want.iter().rev().map(|&id| id as u32).collect();
            let coords = sample_coords(5_000, dim, 3);
            let metric = DistanceKind::Chebyshev;
            let idx = SpatialIndex::build_with_ids(coords, dim, metric, Some(ids));
            let got = idx.range(&vec![50.0; dim], 50.0);
            assert_eq!(got, want, "stride {stride} dim {dim}");
        }
    }
}

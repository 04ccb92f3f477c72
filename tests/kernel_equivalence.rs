//! The blocked SoA kernels are bit-identical to the scalar distance path.
//!
//! This is the contract that lets every oracle backend route its batch
//! queries through `parfaclo_kernel::block` without changing a single output
//! byte: for any dimension, any [`DistanceKind`], any tile-boundary length
//! and any tie structure, each blocked kernel produces exactly the bits the
//! scalar reference loop produces. The suite exercises the kernels directly
//! (property tests over awkward shapes), the oracle batch entry points that
//! wrap them, and finally the whole registry at sizes that cross multiple
//! tile boundaries.

use parfaclo_kernel::{block, DistanceKind, SoaPoints};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const ALL_KINDS: [DistanceKind; 4] = [
    DistanceKind::Euclidean,
    DistanceKind::SquaredEuclidean,
    DistanceKind::Manhattan,
    DistanceKind::Chebyshev,
];

/// Sizes straddling the tile boundary: one short of a tile, exactly one
/// tile, one past it, and a multi-tile length with a ragged tail.
const SIZES: [usize; 4] = [
    block::TILE - 1,
    block::TILE,
    block::TILE + 1,
    2 * block::TILE + 3,
];

const DIMS: [usize; 4] = [1, 2, 3, 10];

/// Row-major coordinates with deliberately awkward structure: duplicated
/// points (exact bitwise copies) and pairs placed symmetrically around the
/// query so their distances tie bit-for-bit.
fn awkward_coords(rng: &mut ChaCha8Rng, n: usize, dim: usize, q: &[f64]) -> Vec<f64> {
    let mut coords: Vec<f64> = (0..n * dim).map(|_| rng.gen_range(-8.0..8.0)).collect();
    if n >= 8 {
        // Exact duplicates at tile-internal and tile-final positions.
        let (src, dup_a, dup_b) = (3, 7, n - 1);
        for d in 0..dim {
            coords[dup_a * dim + d] = coords[src * dim + d];
            coords[dup_b * dim + d] = coords[src * dim + d];
        }
        // A mirrored pair: q + e and q - e have bitwise-equal distances to q
        // under every kind (squaring/abs make the displacement sign vanish).
        for d in 0..dim {
            let e = coords[5 * dim + d] - q[d];
            coords[5 * dim + d] = q[d] + e;
            coords[6 * dim + d] = q[d] - e;
        }
        // One point exactly at the query (zero distance).
        coords[4 * dim..(4 + 1) * dim].copy_from_slice(q);
    }
    coords
}

fn point(coords: &[f64], dim: usize, i: usize) -> &[f64] {
    &coords[i * dim..(i + 1) * dim]
}

#[test]
fn blocked_kernels_bit_equal_scalar_at_tile_boundaries() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
    for &dim in &DIMS {
        for &n in &SIZES {
            let q: Vec<f64> = (0..dim).map(|_| rng.gen_range(-8.0..8.0)).collect();
            let coords = awkward_coords(&mut rng, n, dim, &q);
            let pts = SoaPoints::from_flat(&coords, dim, n);
            for kind in ALL_KINDS {
                let scalar: Vec<f64> = (0..n)
                    .map(|i| kind.distance(&q, point(&coords, dim, i)))
                    .collect();

                // dist_range over the whole range, and over an unaligned
                // sub-range starting inside a tile.
                let mut out = vec![0.0; n];
                block::dist_range(kind, &q, &pts, 0, &mut out);
                for i in 0..n {
                    assert_eq!(
                        out[i].to_bits(),
                        scalar[i].to_bits(),
                        "dist_range dim {dim} n {n} {kind:?} slot {i}"
                    );
                }
                let (sub_start, sub_len) = (n / 3, n - n / 3 - 1);
                let mut sub = vec![0.0; sub_len];
                block::dist_range(kind, &q, &pts, sub_start, &mut sub);
                for i in 0..sub_len {
                    assert_eq!(sub[i].to_bits(), scalar[sub_start + i].to_bits());
                }

                // dist_gather over a scrambled index set (stride walk hits
                // every residue, including the duplicated slots).
                let idxs: Vec<u32> = (0..n as u32).map(|i| (i * 7) % n as u32).collect();
                let mut gathered = vec![0.0; n];
                block::dist_gather(kind, &q, &pts, &idxs, &mut gathered);
                for (j, &i) in idxs.iter().enumerate() {
                    assert_eq!(gathered[j].to_bits(), scalar[i as usize].to_bits());
                }

                // argmin_range ties to the lowest position (strict < scan).
                let (pos, d) = block::argmin_range(kind, &q, &pts, 0, n).expect("non-empty");
                let mut ref_pos = 0;
                for (i, &s) in scalar.iter().enumerate() {
                    if s < scalar[ref_pos] {
                        ref_pos = i;
                    }
                }
                assert_eq!(pos, ref_pos, "argmin dim {dim} n {n} {kind:?}");
                assert_eq!(d.to_bits(), scalar[ref_pos].to_bits());

                // argmin_ids ties to the lowest id under equal distance.
                let ids: Vec<u32> = (0..n as u32).rev().collect();
                let sub_pts = pts.gather(&ids);
                let (best_id, best_d) =
                    block::argmin_ids(kind, &q, &sub_pts, &ids).expect("non-empty");
                let (ref_id, ref_d) = ids
                    .iter()
                    .map(|&id| (id, scalar[id as usize]))
                    .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                    .unwrap();
                assert_eq!(best_id, ref_id);
                assert_eq!(best_d.to_bits(), ref_d.to_bits());

                // Range predicates at a radius that is itself a produced
                // distance, so the mirrored pair sits exactly on the edge.
                let radius = scalar[if n >= 8 { 5 } else { 0 }];
                let mut within = Vec::new();
                block::collect_within(kind, &q, &pts, 0, n, radius, &mut within);
                let ref_within: Vec<usize> = (0..n).filter(|&i| scalar[i] <= radius).collect();
                assert_eq!(within, ref_within, "collect dim {dim} n {n} {kind:?}");

                // Exact reductions: max, min-positive, ordered sum.
                let max = block::max_in_range(kind, &q, &pts, 0, n);
                let ref_max = scalar.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
                assert_eq!(max.to_bits(), ref_max.to_bits());
                let minp = block::min_positive_in_range(kind, &q, &pts, 0, n);
                let ref_minp = scalar
                    .iter()
                    .filter(|&&d| d > 0.0)
                    .fold(None, |acc: Option<f64>, &d| {
                        Some(acc.map_or(d, |a| a.min(d)))
                    });
                assert_eq!(minp.map(f64::to_bits), ref_minp.map(f64::to_bits));
                let sum = block::sum_gather(kind, &q, &pts, &idxs);
                let ref_sum = idxs.iter().fold(0.0f64, |acc, &i| acc + scalar[i as usize]);
                assert_eq!(
                    sum.to_bits(),
                    ref_sum.to_bits(),
                    "sum dim {dim} n {n} {kind:?}"
                );
            }
        }
    }
}

#[test]
fn oracle_batch_entry_points_bit_equal_scalar_dist() {
    use parfaclo_metric::{DistanceOracle, ImplicitMetric, Point};
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let dim = 3;
    let (nf, nc) = (block::TILE + 3, 2 * block::TILE + 3);
    let mk = |n: usize, rng: &mut ChaCha8Rng| -> Vec<Point> {
        (0..n)
            .map(|_| Point::new((0..dim).map(|_| rng.gen_range(-5.0..5.0)).collect()))
            .collect()
    };
    for kind in ALL_KINDS {
        let oracle = ImplicitMetric::between(mk(nf, &mut rng), mk(nc, &mut rng), kind);
        let scalar: Vec<Vec<f64>> = (0..nf)
            .map(|i| (0..nc).map(|j| oracle.dist(i, j)).collect())
            .collect();

        let mut row = vec![0.0; nc - 5];
        oracle.row_range_into(2, 5, &mut row);
        for (o, &d) in row.iter().enumerate() {
            assert_eq!(d.to_bits(), scalar[2][5 + o].to_bits(), "{kind:?} row");
        }
        let mut col = vec![0.0; nf];
        oracle.col_range_into(9, 0, &mut col);
        for (i, &d) in col.iter().enumerate() {
            assert_eq!(d.to_bits(), scalar[i][9].to_bits(), "{kind:?} col");
        }
        let cols: Vec<usize> = (0..nc).step_by(3).collect();
        let mut g = vec![0.0; cols.len()];
        oracle.row_gather(1, &cols, &mut g);
        for (o, &j) in cols.iter().enumerate() {
            assert_eq!(g[o].to_bits(), scalar[1][j].to_bits(), "{kind:?} rgather");
        }
        let rows: Vec<usize> = (0..nf).rev().step_by(2).collect();
        let mut h = vec![0.0; rows.len()];
        oracle.col_gather(4, &rows, &mut h);
        for (o, &i) in rows.iter().enumerate() {
            assert_eq!(h[o].to_bits(), scalar[i][4].to_bits(), "{kind:?} cgather");
        }
    }
}

/// The whole registry, at sizes where every batch scan crosses multiple
/// tile boundaries (`|C| > 2·TILE`, `|F| > TILE`): dense, implicit and
/// spatial backends must produce byte-identical canonical records.
#[test]
fn registry_output_is_backend_invariant_at_tile_crossing_sizes() {
    use parfaclo_api::{Backend, RunConfig};
    use parfaclo_bench::runner::{run_solver, GenSpec};
    use parfaclo_bench::standard_registry;

    let registry = standard_registry();
    for spec_str in ["uniform:n=131,nf=66", "clustered:n=140,nf=70,c=5"] {
        let spec = GenSpec::parse(spec_str).expect("valid spec");
        for seed in [3u64, 19] {
            let cfg = RunConfig::new(0.15).with_seed(seed).with_k(5);
            for name in registry.names() {
                // lp-rounding solves a full LP; its backend invariance is
                // covered at small sizes in determinism_and_seeds.
                if name == "lp-rounding" {
                    continue;
                }
                let dense = run_solver(&registry, name, &spec, &cfg).expect(name);
                for backend in [Backend::Implicit, Backend::Spatial] {
                    let other =
                        run_solver(&registry, name, &spec, &cfg.clone().with_backend(backend))
                            .expect(name);
                    assert_eq!(
                        dense.canonical_json(),
                        other.canonical_json(),
                        "solver '{name}' output differs between dense and {backend} \
                         (spec {spec_str}, seed {seed})"
                    );
                }
            }
        }
    }
}

//! Cache-blocked batch kernels: one query point × a tile of stored points.
//!
//! Every kernel here computes the **same per-point operation sequence** as
//! the scalar [`DistanceKind::distance`] — per-coordinate displacement,
//! square/abs, fold over dimensions from `0.0` in ascending-dimension order,
//! optional final sqrt — it only *interleaves* the folds of [`TILE`]
//! independent points so the inner loop is a fixed-trip-count slice walk
//! LLVM can autovectorize. Blocking never reorders any single point's
//! accumulation, so each produced distance is bit-identical to the scalar
//! path regardless of tile boundaries or thread count. There is no
//! fast-math and no reassociation anywhere.
//!
//! Reductions over the produced distances (`argmin`, `max`, `min-positive`,
//! membership) are exact order-respecting scans: positions are visited in
//! ascending order and ties resolve by a strict `<` (lowest position / id
//! wins), matching the scalar `min_by (d, id)` convention used everywhere
//! else.

use crate::{DistanceKind, SoaPoints};

/// Number of points processed per block: the tile accumulator (`TILE` f64s =
/// 512 bytes) plus one axis slice stay resident in L1 while the inner loops
/// stream, and the trip count is a compile-time constant for all full tiles.
pub const TILE: usize = 64;

/// An index type a gather kernel can read point positions from (`u32` slot
/// ids from the spatial structures, `usize` node ids from the solvers).
pub trait SoaIndex: Copy {
    /// The position this index refers to.
    fn index(self) -> usize;
}

impl SoaIndex for u32 {
    #[inline(always)]
    fn index(self) -> usize {
        self as usize
    }
}

impl SoaIndex for usize {
    #[inline(always)]
    fn index(self) -> usize {
        self
    }
}

/// One tile of squared-L2 accumulation: `tile[j] += (q[d] - axis_d[j])²`
/// over all dimensions, starting from `0.0`.
#[inline]
fn sq_tile(q: &[f64], pts: &SoaPoints, pos: usize, tile: &mut [f64]) {
    tile.fill(0.0);
    for (d, &qd) in q.iter().enumerate() {
        let col = &pts.axis(d)[pos..pos + tile.len()];
        for (o, &c) in tile.iter_mut().zip(col) {
            let t = qd - c;
            *o += t * t;
        }
    }
}

#[inline]
fn l1_tile(q: &[f64], pts: &SoaPoints, pos: usize, tile: &mut [f64]) {
    tile.fill(0.0);
    for (d, &qd) in q.iter().enumerate() {
        let col = &pts.axis(d)[pos..pos + tile.len()];
        for (o, &c) in tile.iter_mut().zip(col) {
            *o += (qd - c).abs();
        }
    }
}

#[inline]
fn linf_tile(q: &[f64], pts: &SoaPoints, pos: usize, tile: &mut [f64]) {
    tile.fill(0.0);
    for (d, &qd) in q.iter().enumerate() {
        let col = &pts.axis(d)[pos..pos + tile.len()];
        for (o, &c) in tile.iter_mut().zip(col) {
            *o = o.max((qd - c).abs());
        }
    }
}

/// Distances from `q` to the contiguous point range
/// `pts[start .. start + out.len()]`, written into `out`.
pub fn dist_range(kind: DistanceKind, q: &[f64], pts: &SoaPoints, start: usize, out: &mut [f64]) {
    debug_assert_eq!(q.len(), pts.dim(), "points must have equal dimension");
    debug_assert!(start + out.len() <= pts.len(), "range exceeds point count");
    let mut pos = start;
    for tile in out.chunks_mut(TILE) {
        match kind {
            DistanceKind::Euclidean => {
                sq_tile(q, pts, pos, tile);
                for v in tile.iter_mut() {
                    *v = v.sqrt();
                }
            }
            DistanceKind::SquaredEuclidean => sq_tile(q, pts, pos, tile),
            DistanceKind::Manhattan => l1_tile(q, pts, pos, tile),
            DistanceKind::Chebyshev => linf_tile(q, pts, pos, tile),
        }
        pos += tile.len();
    }
}

/// Distances from `q` to the gathered points `pts[idxs[j]]`, written into
/// `out[j]`. The per-dimension inner loop reads through the index slice
/// (a gather), so this is for *small or irregular* candidate sets; for
/// contiguous ranges use [`dist_range`].
pub fn dist_gather<I: SoaIndex>(
    kind: DistanceKind,
    q: &[f64],
    pts: &SoaPoints,
    idxs: &[I],
    out: &mut [f64],
) {
    debug_assert_eq!(q.len(), pts.dim(), "points must have equal dimension");
    debug_assert_eq!(idxs.len(), out.len(), "index/output length mismatch");
    for (chunk, tile) in idxs.chunks(TILE).zip(out.chunks_mut(TILE)) {
        tile.fill(0.0);
        match kind {
            DistanceKind::Euclidean | DistanceKind::SquaredEuclidean => {
                for (d, &qd) in q.iter().enumerate() {
                    let axis = pts.axis(d);
                    for (o, &i) in tile.iter_mut().zip(chunk) {
                        let t = qd - axis[i.index()];
                        *o += t * t;
                    }
                }
                if kind == DistanceKind::Euclidean {
                    for v in tile.iter_mut() {
                        *v = v.sqrt();
                    }
                }
            }
            DistanceKind::Manhattan => {
                for (d, &qd) in q.iter().enumerate() {
                    let axis = pts.axis(d);
                    for (o, &i) in tile.iter_mut().zip(chunk) {
                        *o += (qd - axis[i.index()]).abs();
                    }
                }
            }
            DistanceKind::Chebyshev => {
                for (d, &qd) in q.iter().enumerate() {
                    let axis = pts.axis(d);
                    for (o, &i) in tile.iter_mut().zip(chunk) {
                        *o = o.max((qd - axis[i.index()]).abs());
                    }
                }
            }
        }
    }
}

/// Position and distance of the point closest to `q` in
/// `pts[start .. start + len]`; ties resolve to the **lowest position**
/// (strict `<` over an ascending scan). `None` iff `len == 0`.
pub fn argmin_range(
    kind: DistanceKind,
    q: &[f64],
    pts: &SoaPoints,
    start: usize,
    len: usize,
) -> Option<(usize, f64)> {
    if len == 0 {
        return None;
    }
    let mut buf = [0.0f64; TILE];
    let mut best_pos = start;
    let mut best_d = f64::INFINITY;
    let (mut pos, end) = (start, start + len);
    while pos < end {
        let w = TILE.min(end - pos);
        dist_range(kind, q, pts, pos, &mut buf[..w]);
        for (j, &d) in buf[..w].iter().enumerate() {
            if d < best_d {
                best_d = d;
                best_pos = pos + j;
            }
        }
        pos += w;
    }
    // An all-infinite range never updates: (start, ∞) is then exactly the
    // lexicographic minimum of (distance, position).
    Some((best_pos, best_d))
}

/// Id and distance of the candidate closest to `q`, where slot `j` of the
/// gathered set `sub` holds the point labelled `ids[j]`; ties resolve to the
/// **lowest id** — the lexicographic minimum of `(distance, id)`, matching
/// the scalar `min_by` convention. `None` iff `ids` is empty.
pub fn argmin_ids(
    kind: DistanceKind,
    q: &[f64],
    sub: &SoaPoints,
    ids: &[u32],
) -> Option<(u32, f64)> {
    debug_assert_eq!(sub.len(), ids.len(), "gathered set / id length mismatch");
    if ids.is_empty() {
        return None;
    }
    let mut buf = [0.0f64; TILE];
    let mut best_id = ids[0];
    let mut best_d = f64::INFINITY;
    let (mut pos, end) = (0, ids.len());
    while pos < end {
        let w = TILE.min(end - pos);
        dist_range(kind, q, sub, pos, &mut buf[..w]);
        for (j, &d) in buf[..w].iter().enumerate() {
            let id = ids[pos + j];
            if d < best_d || (d == best_d && id < best_id) {
                best_d = d;
                best_id = id;
            }
        }
        pos += w;
    }
    Some((best_id, best_d))
}

/// Appends (in ascending order) every position in `pts[start .. start + len]`
/// whose distance to `q` is `<= radius`.
pub fn collect_within(
    kind: DistanceKind,
    q: &[f64],
    pts: &SoaPoints,
    start: usize,
    len: usize,
    radius: f64,
    out: &mut Vec<usize>,
) {
    let mut buf = [0.0f64; TILE];
    let (mut pos, end) = (start, start + len);
    while pos < end {
        let w = TILE.min(end - pos);
        dist_range(kind, q, pts, pos, &mut buf[..w]);
        for (j, &d) in buf[..w].iter().enumerate() {
            if d <= radius {
                out.push(pos + j);
            }
        }
        pos += w;
    }
}

/// Largest distance from `q` to `pts[start .. start + len]`
/// (`-∞` for an empty range). `max` is an exact reduction, so the blocked
/// scan equals any scalar fold over the same values.
pub fn max_in_range(
    kind: DistanceKind,
    q: &[f64],
    pts: &SoaPoints,
    start: usize,
    len: usize,
) -> f64 {
    let mut buf = [0.0f64; TILE];
    let mut best = f64::NEG_INFINITY;
    let (mut pos, end) = (start, start + len);
    while pos < end {
        let w = TILE.min(end - pos);
        dist_range(kind, q, pts, pos, &mut buf[..w]);
        for &d in &buf[..w] {
            best = best.max(d);
        }
        pos += w;
    }
    best
}

/// Smallest strictly-positive distance from `q` to
/// `pts[start .. start + len]`, if any.
pub fn min_positive_in_range(
    kind: DistanceKind,
    q: &[f64],
    pts: &SoaPoints,
    start: usize,
    len: usize,
) -> Option<f64> {
    let mut buf = [0.0f64; TILE];
    let mut best = f64::INFINITY;
    let mut found = false;
    let (mut pos, end) = (start, start + len);
    while pos < end {
        let w = TILE.min(end - pos);
        dist_range(kind, q, pts, pos, &mut buf[..w]);
        for &d in &buf[..w] {
            if d > 0.0 && d < best {
                best = d;
                found = true;
            }
        }
        pos += w;
    }
    found.then_some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [DistanceKind; 4] = [
        DistanceKind::Euclidean,
        DistanceKind::SquaredEuclidean,
        DistanceKind::Manhattan,
        DistanceKind::Chebyshev,
    ];

    /// Deterministic pseudo-random coordinates with duplicates sprinkled in
    /// so ties are exercised.
    fn coords(n: usize, dim: usize) -> Vec<f64> {
        (0..n * dim)
            .map(|i| {
                if i % 7 == 3 {
                    2.5
                } else {
                    ((i.wrapping_mul(2654435761)) % 1009) as f64 / 13.0 - 38.0
                }
            })
            .collect()
    }

    fn scalar_dist(kind: DistanceKind, q: &[f64], flat: &[f64], dim: usize, i: usize) -> f64 {
        kind.distance(q, &flat[i * dim..(i + 1) * dim])
    }

    #[test]
    fn dist_range_is_bitwise_scalar_at_tile_boundaries() {
        for dim in [1usize, 2, 3, 10] {
            for n in [TILE - 1, TILE, TILE + 1, 2 * TILE + 3] {
                let flat = coords(n, dim);
                let pts = SoaPoints::from_flat(&flat, dim, n);
                let q: Vec<f64> = (0..dim).map(|d| d as f64 * 1.5 - 2.0).collect();
                for kind in ALL {
                    let mut out = vec![0.0; n];
                    dist_range(kind, &q, &pts, 0, &mut out);
                    for (i, &v) in out.iter().enumerate() {
                        assert_eq!(
                            v.to_bits(),
                            scalar_dist(kind, &q, &flat, dim, i).to_bits(),
                            "{kind:?} dim {dim} n {n} i {i}"
                        );
                    }
                    // Also from an unaligned interior start.
                    let start = 5.min(n - 1);
                    let mut out2 = vec![0.0; n - start];
                    dist_range(kind, &q, &pts, start, &mut out2);
                    assert_eq!(out2[..], out[start..]);
                }
            }
        }
    }

    #[test]
    fn gather_matches_range_on_identity_and_subsets() {
        let n = 2 * TILE + 3;
        let dim = 3;
        let flat = coords(n, dim);
        let pts = SoaPoints::from_flat(&flat, dim, n);
        let q = [0.1, -7.0, 3.5];
        let idxs: Vec<usize> = (0..n).rev().step_by(3).collect();
        for kind in ALL {
            let mut out = vec![0.0; idxs.len()];
            dist_gather(kind, &q, &pts, &idxs, &mut out);
            for (j, &i) in idxs.iter().enumerate() {
                assert_eq!(
                    out[j].to_bits(),
                    scalar_dist(kind, &q, &flat, dim, i).to_bits()
                );
            }
            // u32 indices give the same answers.
            let idxs32: Vec<u32> = idxs.iter().map(|&i| i as u32).collect();
            let mut out32 = vec![0.0; idxs.len()];
            dist_gather(kind, &q, &pts, &idxs32, &mut out32);
            assert_eq!(out, out32);
        }
    }

    #[test]
    fn argmin_prefers_lowest_position_on_exact_ties() {
        // Three copies of the same closest point at positions 10, 40, 90.
        let n = 2 * TILE;
        let dim = 2;
        let mut flat = coords(n, dim);
        for &i in &[10usize, 40, 90] {
            flat[i * dim] = 0.5;
            flat[i * dim + 1] = 0.5;
        }
        let pts = SoaPoints::from_flat(&flat, dim, n);
        let q = [0.5, 0.5];
        for kind in ALL {
            let (pos, d) = argmin_range(kind, &q, &pts, 0, n).unwrap();
            assert_eq!(pos, 10, "{kind:?}");
            assert_eq!(d, 0.0);
            // Starting past the first duplicate finds the second.
            let (pos, _) = argmin_range(kind, &q, &pts, 11, n - 11).unwrap();
            assert_eq!(pos, 40, "{kind:?}");
        }
        assert_eq!(argmin_range(DistanceKind::Euclidean, &q, &pts, 0, 0), None);
    }

    #[test]
    fn argmin_ids_prefers_lowest_id_even_when_scanned_later() {
        let n = TILE + 5;
        let dim = 2;
        let mut flat = coords(n, dim);
        // Two identical points; the one scanned later carries the lower id.
        flat[3 * dim] = 1.0;
        flat[3 * dim + 1] = 1.0;
        flat[66 * dim] = 1.0;
        flat[66 * dim + 1] = 1.0;
        let pts = SoaPoints::from_flat(&flat, dim, n);
        // Candidate set visits position 3 (id 9) before position 66 (id 2).
        let set: Vec<u32> = vec![3, 66];
        let ids: Vec<u32> = vec![9, 2];
        let sub = pts.gather(&set);
        for kind in ALL {
            let (id, d) = argmin_ids(kind, &[1.0, 1.0], &sub, &ids).unwrap();
            assert_eq!(id, 2, "{kind:?}");
            assert_eq!(d, 0.0);
        }
        assert_eq!(
            argmin_ids(DistanceKind::Euclidean, &[1.0, 1.0], &pts.gather(&[]), &[]),
            None
        );
    }

    #[test]
    fn within_scans_match_scalar_filtering() {
        for n in [TILE - 1, TILE, TILE + 1, 2 * TILE + 3] {
            let dim = 2;
            let flat = coords(n, dim);
            let pts = SoaPoints::from_flat(&flat, dim, n);
            let q = [0.0, 0.0];
            for kind in ALL {
                let radius = 25.0;
                let expect: Vec<usize> = (0..n)
                    .filter(|&i| scalar_dist(kind, &q, &flat, dim, i) <= radius)
                    .collect();
                let mut got = Vec::new();
                collect_within(kind, &q, &pts, 0, n, radius, &mut got);
                assert_eq!(got, expect, "{kind:?} n {n}");
            }
        }
    }

    #[test]
    fn range_reductions_match_scalar_folds() {
        let n = 2 * TILE + 3;
        let dim = 3;
        let flat = coords(n, dim);
        let pts = SoaPoints::from_flat(&flat, dim, n);
        let q = [1.0, 2.0, 3.0];
        for kind in ALL {
            let all: Vec<f64> = (0..n)
                .map(|i| scalar_dist(kind, &q, &flat, dim, i))
                .collect();
            let max = all.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            assert_eq!(max_in_range(kind, &q, &pts, 0, n), max);
            let minpos = all
                .iter()
                .copied()
                .filter(|&d| d > 0.0)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(min_positive_in_range(kind, &q, &pts, 0, n), Some(minpos));
        }
        assert_eq!(
            max_in_range(DistanceKind::Euclidean, &q, &pts, 4, 0),
            f64::NEG_INFINITY
        );
        assert_eq!(
            min_positive_in_range(DistanceKind::Euclidean, &q, &pts, 4, 0),
            None
        );
    }

    #[test]
    fn zero_dimensional_ranges_fold_to_zero() {
        let pts = SoaPoints::from_flat(&[], 0, 10);
        for kind in ALL {
            let mut out = vec![7.0; 10];
            dist_range(kind, &[], &pts, 0, &mut out);
            assert!(out.iter().all(|&d| d == 0.0), "{kind:?}");
            assert_eq!(argmin_range(kind, &[], &pts, 0, 10), Some((0, 0.0)));
        }
    }
}

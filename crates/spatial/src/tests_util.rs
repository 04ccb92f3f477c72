//! Brute-force reference implementations and deterministic samplers shared
//! by the index test suites. Compiled only for tests.

use parfaclo_kernel::DistanceKind;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// `n` points of dimension `dim` with coordinates in `[0, 100)`, seeded.
pub fn sample_coords(n: usize, dim: usize, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n * dim).map(|_| rng.gen::<f64>() * 100.0).collect()
}

fn point(coords: &[f64], dim: usize, pos: usize) -> &[f64] {
    &coords[pos * dim..(pos + 1) * dim]
}

/// Reference nearest: scan ascending, strict improvement only — the
/// canonical lowest-id tie-break every index must reproduce.
pub fn brute_nearest(
    coords: &[f64],
    dim: usize,
    metric: DistanceKind,
    q: &[f64],
) -> Option<(usize, f64)> {
    let n = coords.len() / dim.max(1);
    (0..n)
        .map(|pos| (pos, metric.distance(q, point(coords, dim, pos))))
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)))
}

/// Reference range: ascending ids with `d <= radius` (inclusive).
pub fn brute_range(
    coords: &[f64],
    dim: usize,
    metric: DistanceKind,
    q: &[f64],
    radius: f64,
) -> Vec<usize> {
    let n = coords.len() / dim.max(1);
    (0..n)
        .filter(|&pos| metric.distance(q, point(coords, dim, pos)) <= radius)
        .collect()
}

//! The scalar slice kernel: one distance function shared by every layer.
//!
//! Every point-to-point distance in the workspace — the dense matrix
//! materialisation, the implicit oracle, the spatial index scans, the blocked
//! batch kernels — is computed by [`DistanceKind::distance`] (or an exact
//! reordering of its per-coordinate operations, see [`crate::block`]), so the
//! values are bit-identical no matter which layer produced them.
//!
//! The pruning bound [`DistanceKind::box_lower_bound`] is a *computed*
//! lower bound, not just a mathematical one: it is evaluated with the same
//! shape of rounded IEEE operations as the distance itself (per-coordinate
//! displacement → square/abs → left-to-right sum or max → optional sqrt).
//! Because every one of those operations is monotone under rounding, the
//! computed bound of a box never exceeds the computed distance of any point
//! inside it. Searches therefore prune only on a **strict** `bound > best`
//! comparison and remain exact — including ties, which are always resolved
//! towards the lowest point id.

/// Which point-to-point distance function to use.
///
/// `Euclidean`, `Manhattan` and `Chebyshev` are metrics. `SquaredEuclidean` is **not** a
/// metric (it violates the triangle inequality) but is provided because the k-means
/// objective of the paper sums squared distances; the k-means algorithms treat it as a
/// cost function, never as a metric. It is still per-coordinate monotone, which is all
/// the spatial pruning bound needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistanceKind {
    /// Standard L2 distance.
    #[default]
    Euclidean,
    /// Squared L2 distance (k-means cost; not a metric).
    SquaredEuclidean,
    /// L1 distance.
    Manhattan,
    /// L-infinity distance.
    Chebyshev,
}

impl DistanceKind {
    /// Distance between two coordinate slices: per-coordinate displacement,
    /// square/abs, left-to-right fold from `0.0`, optional final sqrt.
    ///
    /// The subtraction direction does not matter: IEEE-754 guarantees
    /// `(a - b)` and `(b - a)` are exact negations (equal operands give
    /// `+0.0`), so after squaring or `abs` the per-coordinate terms are
    /// bitwise symmetric.
    ///
    /// # Panics
    /// Debug-asserts equal dimensions; mismatched slices are a caller bug.
    #[inline]
    pub fn distance(self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "points must have equal dimension");
        match self {
            DistanceKind::Euclidean => Self::squared_l2(a, b).sqrt(),
            DistanceKind::SquaredEuclidean => Self::squared_l2(a, b),
            DistanceKind::Manhattan => a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).sum(),
            DistanceKind::Chebyshev => a
                .iter()
                .zip(b.iter())
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max),
        }
    }

    #[inline]
    fn squared_l2(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| {
                let d = x - y;
                d * d
            })
            .sum()
    }

    /// Computed lower bound on the distance from `q` to any point inside the
    /// axis-aligned box `[lo, hi]`: per-coordinate clamp displacement,
    /// combined exactly like [`DistanceKind::distance`] combines
    /// displacements. Never exceeds the computed distance of a point whose
    /// coordinates lie within the (exact) bounds.
    pub fn box_lower_bound(self, q: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
        // clamp(c) = how far q[c] sits outside [lo[c], hi[c]], as the same
        // rounded subtraction a distance computation would produce.
        let clamp = |c: usize| -> f64 {
            if q[c] < lo[c] {
                lo[c] - q[c]
            } else if q[c] > hi[c] {
                q[c] - hi[c]
            } else {
                0.0
            }
        };
        match self {
            DistanceKind::Euclidean => (0..q.len())
                .map(|c| {
                    let d = clamp(c);
                    d * d
                })
                .sum::<f64>()
                .sqrt(),
            DistanceKind::SquaredEuclidean => (0..q.len())
                .map(|c| {
                    let d = clamp(c);
                    d * d
                })
                .sum(),
            DistanceKind::Manhattan => (0..q.len()).map(clamp).sum(),
            DistanceKind::Chebyshev => (0..q.len()).map(clamp).fold(0.0, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_match_hand_computation() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(DistanceKind::Euclidean.distance(&a, &b), 5.0);
        assert_eq!(DistanceKind::SquaredEuclidean.distance(&a, &b), 25.0);
        assert_eq!(DistanceKind::Manhattan.distance(&a, &b), 7.0);
        assert_eq!(DistanceKind::Chebyshev.distance(&a, &b), 4.0);
    }

    #[test]
    fn subtraction_direction_is_bitwise_irrelevant() {
        let a = [1.0e-17, -3.5, 0.1, 7.25];
        let b = [2.0e-17, 3.5, 0.1, -0.3];
        for kind in [
            DistanceKind::Euclidean,
            DistanceKind::SquaredEuclidean,
            DistanceKind::Manhattan,
            DistanceKind::Chebyshev,
        ] {
            assert_eq!(
                kind.distance(&a, &b).to_bits(),
                kind.distance(&b, &a).to_bits(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn box_bound_is_zero_inside_and_tight_on_faces() {
        let lo = [0.0, 0.0];
        let hi = [1.0, 2.0];
        for m in [
            DistanceKind::Euclidean,
            DistanceKind::SquaredEuclidean,
            DistanceKind::Manhattan,
            DistanceKind::Chebyshev,
        ] {
            assert_eq!(m.box_lower_bound(&[0.5, 1.0], &lo, &hi), 0.0);
            // Directly left of the box: the bound equals the face distance.
            let d = m.box_lower_bound(&[-2.0, 1.0], &lo, &hi);
            let expect = m.distance(&[-2.0, 1.0], &[0.0, 1.0]);
            assert_eq!(d, expect);
        }
    }

    #[test]
    fn box_bound_never_exceeds_any_contained_point_distance() {
        // Deterministic pseudo-grid of queries/points; the computed-bound
        // property must hold exactly (<=, not approximately).
        let lo = [-1.25, 0.5, 3.0];
        let hi = [0.75, 2.5, 3.0];
        let inside = [
            [-1.25, 0.5, 3.0],
            [0.75, 2.5, 3.0],
            [0.0, 1.75, 3.0],
            [-0.5, 2.5, 3.0],
        ];
        let queries = [
            [5.0, -2.0, 3.5],
            [-3.0, 1.0, 3.0],
            [0.1, 0.9, 2.0],
            [0.75, 2.5, 3.0],
        ];
        for m in [
            DistanceKind::Euclidean,
            DistanceKind::SquaredEuclidean,
            DistanceKind::Manhattan,
            DistanceKind::Chebyshev,
        ] {
            for q in &queries {
                let bound = m.box_lower_bound(q, &lo, &hi);
                for p in &inside {
                    assert!(
                        bound <= m.distance(q, p),
                        "{m:?}: bound {bound} exceeds distance to {p:?}"
                    );
                }
            }
        }
    }
}

//! The unified index: structure selection (the "query planner" for builds)
//! and a flat-scan fallback.
//!
//! [`SpatialIndex::build`] picks the structure from the input shape alone —
//! a pure function of `(n, dim)`, so the choice is deterministic:
//!
//! * tiny sets (or zero-dimensional points) → [`Flat`] linear scan: below
//!   ~64 points a scan beats any structure's constant factor;
//! * dimensions 1–3 → [`UniformGrid`]: O(1)-ish bucket lookup, the common
//!   case for the workspace's geometric generators;
//! * higher dimensions → [`KdTree`]: median-split, still exact.
//!
//! All three answer every query identically (exact, lowest-id ties), so the
//! planner is a pure performance decision — asserted by the conformance
//! tests in this crate.

use crate::grid::{UniformGrid, GRID_MAX_DIM};
use crate::kdtree::KdTree;
use crate::metric::SpatialMetric;
use crate::query::{collect_slots, scan_slots, Accumulator, Best, KBest};
use parfaclo_kernel::SoaPoints;

/// Point sets at or below this size are served by a flat scan.
const FLAT_MAX: usize = 64;

/// Validates a flat coordinate array against `dim` (and an optional id map)
/// and returns the point count.
pub(crate) fn checked_point_count(coords: &[f64], dim: usize, ids: Option<&[u32]>) -> usize {
    let n = if dim == 0 {
        assert!(
            coords.is_empty(),
            "zero-dimensional points carry no coordinates"
        );
        ids.map_or(0, <[u32]>::len)
    } else {
        assert_eq!(
            coords.len() % dim,
            0,
            "coordinate count {} is not a multiple of dim {dim}",
            coords.len()
        );
        coords.len() / dim
    };
    assert!(
        coords.iter().all(|c| c.is_finite()),
        "index coordinates must be finite"
    );
    if let Some(ids) = ids {
        assert_eq!(ids.len(), n, "id map length must equal the point count");
    }
    assert!(n <= u32::MAX as usize, "index supports at most 2^32 points");
    n
}

/// Linear-scan fallback for tiny point sets (and dimension 0, where every
/// distance is 0 and structure is meaningless). The whole set is one
/// contiguous slot run through the blocked kernels — a flat index *is* a
/// cache tile.
#[derive(Debug, Clone)]
pub struct Flat {
    dim: usize,
    metric: SpatialMetric,
    /// Slot-ordered coordinates; slot == original position.
    soa: SoaPoints,
    /// Caller id per slot (identity when no map was supplied).
    slot_ids: Vec<u32>,
}

impl Flat {
    /// Builds the flat index (see [`SpatialIndex::build`] for the contract).
    pub fn build(
        coords: Vec<f64>,
        dim: usize,
        metric: SpatialMetric,
        ids: Option<Vec<u32>>,
    ) -> Self {
        let n = checked_point_count(&coords, dim, ids.as_deref());
        Flat {
            dim,
            metric,
            soa: SoaPoints::from_flat(&coords, dim, n),
            slot_ids: ids.unwrap_or_else(|| (0..n as u32).collect()),
        }
    }

    fn len(&self) -> usize {
        self.slot_ids.len()
    }

    /// The one scan behind both nearest and k-nearest.
    fn scan_into<A: Accumulator>(&self, q: &[f64], acc: &mut A) {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        scan_slots(
            self.metric,
            q,
            &self.soa,
            0,
            self.len(),
            &self.slot_ids,
            acc,
        );
    }

    fn nearest(&self, q: &[f64]) -> Option<(usize, f64)> {
        let mut best = Best::new();
        self.scan_into(q, &mut best);
        best.into_result()
    }

    fn k_nearest(&self, q: &[f64], k: usize) -> Vec<(usize, f64)> {
        let mut best = KBest::new(k);
        if k > 0 {
            self.scan_into(q, &mut best);
        }
        best.into_sorted()
    }

    fn range(&self, q: &[f64], radius: f64) -> Vec<usize> {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        let mut out = Vec::new();
        collect_slots(
            self.metric,
            q,
            &self.soa,
            0,
            self.len(),
            &self.slot_ids,
            radius,
            &mut out,
        );
        crate::query::sort_ids_ascending(&mut out, self.len());
        out
    }

    fn memory_bytes(&self) -> u64 {
        (self.soa.memory_bytes() + self.slot_ids.len() * std::mem::size_of::<u32>()) as u64
    }
}

/// A deterministic exact spatial index over a flat coordinate array:
/// one of the three concrete structures behind one query surface.
#[derive(Debug, Clone)]
pub enum SpatialIndex {
    /// Linear scan (tiny sets, dimension 0).
    Flat(Flat),
    /// Uniform bucket grid (dimensions 1–3).
    Grid(UniformGrid),
    /// Median-split kd-tree (higher dimensions).
    Kd(KdTree),
}

impl SpatialIndex {
    /// Builds the index, choosing the structure from `(n, dim)` — a pure
    /// function of the input, never of thread count or timing.
    ///
    /// # Panics
    /// Panics if the coordinate count is not a multiple of `dim` or a
    /// coordinate is non-finite.
    pub fn build(coords: Vec<f64>, dim: usize, metric: SpatialMetric) -> Self {
        Self::build_with_ids(coords, dim, metric, None)
    }

    /// Builds the index over a point *subset*: `ids[pos]` is the caller id
    /// reported for the point at position `pos`, and all tie-breaking uses
    /// those ids (lowest id wins), so a subset index answers exactly like a
    /// scan over the subset in ascending-id order.
    pub fn build_with_ids(
        coords: Vec<f64>,
        dim: usize,
        metric: SpatialMetric,
        ids: Option<Vec<u32>>,
    ) -> Self {
        let n = checked_point_count(&coords, dim, ids.as_deref());
        if n <= FLAT_MAX || dim == 0 {
            SpatialIndex::Flat(Flat::build(coords, dim, metric, ids))
        } else if dim <= GRID_MAX_DIM {
            SpatialIndex::Grid(UniformGrid::build(coords, dim, metric, ids))
        } else {
            SpatialIndex::Kd(KdTree::build(coords, dim, metric, ids))
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        match self {
            SpatialIndex::Flat(f) => f.len(),
            SpatialIndex::Grid(g) => g.len(),
            SpatialIndex::Kd(t) => t.len(),
        }
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Which structure the planner chose (stable label for diagnostics).
    pub fn structure(&self) -> &'static str {
        match self {
            SpatialIndex::Flat(_) => "flat",
            SpatialIndex::Grid(_) => "grid",
            SpatialIndex::Kd(_) => "kd",
        }
    }

    /// The nearest indexed point to `q` (caller id and distance), ties
    /// towards the lowest id; `None` when empty.
    pub fn nearest(&self, q: &[f64]) -> Option<(usize, f64)> {
        match self {
            SpatialIndex::Flat(f) => f.nearest(q),
            SpatialIndex::Grid(g) => g.nearest(q),
            SpatialIndex::Kd(t) => t.nearest(q),
        }
    }

    /// The `k` nearest indexed points in ascending `(distance, id)` order
    /// (fewer when the index holds fewer than `k`).
    pub fn k_nearest(&self, q: &[f64], k: usize) -> Vec<(usize, f64)> {
        match self {
            SpatialIndex::Flat(f) => f.k_nearest(q, k),
            SpatialIndex::Grid(g) => g.k_nearest(q, k),
            SpatialIndex::Kd(t) => t.k_nearest(q, k),
        }
    }

    /// Caller ids of every indexed point within `radius` of `q`
    /// (inclusive), ascending.
    pub fn range(&self, q: &[f64], radius: f64) -> Vec<usize> {
        match self {
            SpatialIndex::Flat(f) => f.range(q, radius),
            SpatialIndex::Grid(g) => g.range(q, radius),
            SpatialIndex::Kd(t) => t.range(q, radius),
        }
    }

    /// [`SpatialIndex::range`], or `None` when the grid's query window
    /// holds more than `max_points` points, counted before any distance is
    /// computed. The flat index and the kd-tree always answer.
    pub fn range_capped(&self, q: &[f64], radius: f64, max_points: usize) -> Option<Vec<usize>> {
        match self {
            SpatialIndex::Grid(g) => g.range_capped(q, radius, max_points),
            _ => Some(self.range(q, radius)),
        }
    }

    /// Estimated resident bytes of the index structure (its own coordinate
    /// copy included).
    pub fn memory_bytes(&self) -> u64 {
        match self {
            SpatialIndex::Flat(f) => f.memory_bytes(),
            SpatialIndex::Grid(g) => g.memory_bytes(),
            SpatialIndex::Kd(t) => t.memory_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_util::sample_coords;

    #[test]
    fn planner_picks_by_size_and_dimension() {
        let tiny = SpatialIndex::build(sample_coords(10, 2, 1), 2, SpatialMetric::Euclidean);
        assert_eq!(tiny.structure(), "flat");
        let low = SpatialIndex::build(sample_coords(500, 2, 1), 2, SpatialMetric::Euclidean);
        assert_eq!(low.structure(), "grid");
        let high = SpatialIndex::build(sample_coords(500, 10, 1), 10, SpatialMetric::Euclidean);
        assert_eq!(high.structure(), "kd");
        let zero_dim = SpatialIndex::build(Vec::new(), 0, SpatialMetric::Euclidean);
        assert_eq!(zero_dim.structure(), "flat");
        assert!(zero_dim.is_empty());
    }

    #[test]
    fn structures_answer_identically() {
        // Same point set through all three structures: every query agrees.
        let dim = 2;
        let coords = sample_coords(300, dim, 99);
        let metric = SpatialMetric::Euclidean;
        let flat = Flat::build(coords.clone(), dim, metric, None);
        let grid = UniformGrid::build(coords.clone(), dim, metric, None);
        let kd = KdTree::build(coords.clone(), dim, metric, None);
        for q in sample_coords(25, dim, 7).chunks(dim) {
            let f = flat.nearest(q);
            assert_eq!(f, grid.nearest(q));
            assert_eq!(f, kd.nearest(q));
            let fk = flat.k_nearest(q, 5);
            assert_eq!(fk, grid.k_nearest(q, 5));
            assert_eq!(fk, kd.k_nearest(q, 5));
            let r = 12.5;
            let fr = flat.range(q, r);
            assert_eq!(fr, grid.range(q, r));
            assert_eq!(fr, kd.range(q, r));
        }
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(std::panic::catch_unwind(|| {
            SpatialIndex::build(vec![1.0, 2.0, 3.0], 2, SpatialMetric::Euclidean)
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            SpatialIndex::build(vec![1.0, f64::NAN], 2, SpatialMetric::Euclidean)
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            SpatialIndex::build_with_ids(
                vec![1.0, 2.0],
                2,
                SpatialMetric::Euclidean,
                Some(vec![1, 2]),
            )
        })
        .is_err());
    }

    #[test]
    fn memory_bytes_counts_the_structure() {
        let idx = SpatialIndex::build(sample_coords(200, 2, 3), 2, SpatialMetric::Euclidean);
        // At least the coordinate copy itself.
        assert!(idx.memory_bytes() >= (200 * 2 * 8) as u64);
    }
}

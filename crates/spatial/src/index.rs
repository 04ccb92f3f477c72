//! The unified index: structure selection (the "query planner" for builds)
//! and the flat scan.
//!
//! [`SpatialIndex::build`] picks the structure from the input shape alone —
//! a pure function of `(n, dim)`, so the choice is deterministic:
//!
//! * dimensions 1–3 with more than 64 points → [`UniformGrid`]: O(1)-ish
//!   bucket lookup, the case every geometric generator in the workspace
//!   produces;
//! * everything else → [`Flat`] linear scan: below ~64 points a scan beats
//!   the grid's constant factor, zero-dimensional points have no structure,
//!   and no workload builds points above three dimensions.
//!
//! Both answer every query identically (exact, lowest-id ties), so the
//! planner is a pure performance decision — asserted by the conformance
//! tests in this crate.

use crate::grid::{UniformGrid, GRID_MAX_DIM};
use crate::query::{sort_ids_ascending, Best};
use parfaclo_kernel::{block, DistanceKind, SoaPoints};

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

/// Linear scan for tiny point sets, dimension 0 (where every distance is 0
/// and structure is meaningless) and dimensions above 3. The whole set is
/// one contiguous slot run through the blocked kernels — a flat index *is*
/// a cache tile. The grid keeps its bucket-ordered points as one, each
/// bucket a slot range of it.
#[derive(Debug, Clone)]
pub struct Flat {
    pub(crate) metric: DistanceKind,
    /// Coordinates in slot order, one contiguous vector per axis.
    soa: SoaPoints,
    /// Caller id per slot.
    slot_ids: Vec<u32>,
}

impl Flat {
    /// Builds the flat index (see [`SpatialIndex::build`] for the contract);
    /// slot == original position.
    pub fn build(
        coords: Vec<f64>,
        dim: usize,
        metric: DistanceKind,
        ids: Option<Vec<u32>>,
    ) -> Self {
        let n = checked_point_count(&coords, dim, ids.as_deref());
        Flat {
            metric,
            soa: SoaPoints::from_flat(&coords, dim, n),
            slot_ids: ids.unwrap_or_else(|| (0..n as u32).collect()),
        }
    }

    /// The flat index of checked `coords` stored in slot order: slot `s`
    /// holds position `order[s]` and that position's caller id.
    pub(crate) fn permuted(
        coords: &[f64],
        dim: usize,
        metric: DistanceKind,
        order: &[u32],
        ids: Option<&[u32]>,
    ) -> Self {
        Flat {
            metric,
            soa: SoaPoints::from_flat_permuted(coords, dim, order),
            slot_ids: order
                .iter()
                .map(|&pos| ids.map_or(pos, |v| v[pos as usize]))
                .collect(),
        }
    }

    pub(crate) fn dim(&self) -> usize {
        self.soa.dim()
    }

    pub(crate) fn len(&self) -> usize {
        self.slot_ids.len()
    }

    /// Streams the slot range `[start, end)` through the blocked distance
    /// kernel — one stack tile at a time, no allocation — calling
    /// `visit(distance, caller id)` in ascending slot order. Distances are
    /// bit-identical to the scalar `DistanceKind::distance` per point, and
    /// [`Best`]'s `(distance, id)` order is insensitive to visit order, so
    /// the slot order a structure stores changes no answer.
    #[inline]
    pub(crate) fn scan_slots(
        &self,
        q: &[f64],
        start: usize,
        end: usize,
        mut visit: impl FnMut(f64, usize),
    ) {
        let mut buf = [0.0f64; block::TILE];
        let mut s = start;
        while s < end {
            let len = block::TILE.min(end - s);
            block::dist_range(self.metric, q, &self.soa, s, &mut buf[..len]);
            for (o, &d) in buf[..len].iter().enumerate() {
                visit(d, self.slot_ids[s + o] as usize);
            }
            s += len;
        }
    }

    fn nearest(&self, q: &[f64]) -> Option<(usize, f64)> {
        assert_eq!(q.len(), self.dim(), "query dimension mismatch");
        let mut best = Best::new();
        self.scan_slots(q, 0, self.len(), |d, id| best.consider(d, id));
        best.into_result()
    }

    fn range(&self, q: &[f64], radius: f64) -> Vec<usize> {
        assert_eq!(q.len(), self.dim(), "query dimension mismatch");
        let mut out = Vec::new();
        self.scan_slots(q, 0, self.len(), |d, id| {
            if d <= radius {
                out.push(id);
            }
        });
        sort_ids_ascending(&mut out);
        out
    }

    pub(crate) fn memory_bytes(&self) -> u64 {
        (self.soa.memory_bytes() + self.slot_ids.len() * std::mem::size_of::<u32>()) as u64
    }
}

/// A deterministic exact spatial index over a flat coordinate array:
/// one of the two concrete structures behind one query surface.
#[derive(Debug, Clone)]
pub enum SpatialIndex {
    /// Linear scan (tiny sets, dimension 0, dimensions above 3).
    Flat(Flat),
    /// Uniform bucket grid (dimensions 1–3).
    Grid(UniformGrid),
}

impl SpatialIndex {
    /// Builds the index, choosing the structure from `(n, dim)` — a pure
    /// function of the input, never of thread count or timing.
    ///
    /// # Panics
    /// Panics if the coordinate count is not a multiple of `dim` or a
    /// coordinate is non-finite.
    pub fn build(coords: Vec<f64>, dim: usize, metric: DistanceKind) -> Self {
        Self::build_with_ids(coords, dim, metric, None)
    }

    /// Builds the index over a point *subset*: `ids[pos]` is the caller id
    /// reported for the point at position `pos`, and all tie-breaking uses
    /// those ids (lowest id wins), so a subset index answers exactly like a
    /// scan over the subset in ascending-id order.
    pub fn build_with_ids(
        coords: Vec<f64>,
        dim: usize,
        metric: DistanceKind,
        ids: Option<Vec<u32>>,
    ) -> Self {
        let n = checked_point_count(&coords, dim, ids.as_deref());
        if n <= FLAT_MAX || dim == 0 || dim > GRID_MAX_DIM {
            SpatialIndex::Flat(Flat::build(coords, dim, metric, ids))
        } else {
            SpatialIndex::Grid(UniformGrid::build(coords, dim, metric, ids))
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        match self {
            SpatialIndex::Flat(f) => f.len(),
            SpatialIndex::Grid(g) => g.len(),
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
        }
    }

    /// The nearest indexed point to `q` (caller id and distance), ties
    /// towards the lowest id; `None` when empty.
    pub fn nearest(&self, q: &[f64]) -> Option<(usize, f64)> {
        match self {
            SpatialIndex::Flat(f) => f.nearest(q),
            SpatialIndex::Grid(g) => g.nearest(q),
        }
    }

    /// Caller ids of every indexed point within `radius` of `q`
    /// (inclusive), ascending.
    pub fn range(&self, q: &[f64], radius: f64) -> Vec<usize> {
        match self {
            SpatialIndex::Flat(f) => f.range(q, radius),
            SpatialIndex::Grid(g) => g.range(q, radius),
        }
    }

    /// [`SpatialIndex::range`], or `None` when the grid's query window
    /// holds more than `max_points` points, counted before any distance is
    /// computed. The flat index always answers.
    pub fn range_capped(&self, q: &[f64], radius: f64, max_points: usize) -> Option<Vec<usize>> {
        match self {
            SpatialIndex::Flat(f) => Some(f.range(q, radius)),
            SpatialIndex::Grid(g) => g.range_capped(q, radius, max_points),
        }
    }

    /// Estimated resident bytes of the index structure (its own coordinate
    /// copy included).
    pub fn memory_bytes(&self) -> u64 {
        match self {
            SpatialIndex::Flat(f) => f.memory_bytes(),
            SpatialIndex::Grid(g) => g.memory_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_util::sample_coords;

    #[test]
    fn planner_picks_by_size_and_dimension() {
        let tiny = SpatialIndex::build(sample_coords(10, 2, 1), 2, DistanceKind::Euclidean);
        assert_eq!(tiny.structure(), "flat");
        let low = SpatialIndex::build(sample_coords(500, 2, 1), 2, DistanceKind::Euclidean);
        assert_eq!(low.structure(), "grid");
        let high = SpatialIndex::build(sample_coords(500, 10, 1), 10, DistanceKind::Euclidean);
        assert_eq!(high.structure(), "flat");
        let zero_dim = SpatialIndex::build(Vec::new(), 0, DistanceKind::Euclidean);
        assert_eq!(zero_dim.structure(), "flat");
        assert!(zero_dim.is_empty());
    }

    #[test]
    fn structures_answer_identically() {
        // Same point set through both structures: every query agrees.
        let dim = 2;
        let coords = sample_coords(300, dim, 99);
        let metric = DistanceKind::Euclidean;
        let flat = Flat::build(coords.clone(), dim, metric, None);
        let grid = UniformGrid::build(coords.clone(), dim, metric, None);
        for q in sample_coords(25, dim, 7).chunks(dim) {
            assert_eq!(flat.nearest(q), grid.nearest(q));
            let r = 12.5;
            assert_eq!(flat.range(q, r), grid.range(q, r));
        }
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(std::panic::catch_unwind(|| {
            SpatialIndex::build(vec![1.0, 2.0, 3.0], 2, DistanceKind::Euclidean)
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            SpatialIndex::build(vec![1.0, f64::NAN], 2, DistanceKind::Euclidean)
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            SpatialIndex::build_with_ids(
                vec![1.0, 2.0],
                2,
                DistanceKind::Euclidean,
                Some(vec![1, 2]),
            )
        })
        .is_err());
    }

    #[test]
    fn memory_bytes_counts_the_structure() {
        let idx = SpatialIndex::build(sample_coords(200, 2, 3), 2, DistanceKind::Euclidean);
        // At least the coordinate copy itself.
        assert!(idx.memory_bytes() >= (200 * 2 * 8) as u64);
    }
}

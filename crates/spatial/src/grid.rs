//! A deterministic uniform bucket grid for low dimensions (1–3).
//!
//! Points are bucketed into cubic cells of one global side length; buckets
//! are stored CSR-style grouped by linearised cell id with positions
//! ascending inside each bucket, so the whole structure is a pure function
//! of the input point set. Coordinates are re-materialised in bucket order
//! as structure-of-arrays, so every cell scan is one contiguous pass of the
//! blocked distance kernels in `parfaclo-kernel`. Pruning never trusts the *nominal* cell geometry
//! (a point can land an ulp outside its nominal cell box): every non-empty
//! cell stores the **exact** bounding box of the points it actually holds,
//! and [`SpatialMetric::box_lower_bound`] against that box is a computed
//! lower bound on every contained point's computed distance. Ring expansion
//! stops against a deliberately slackened ring bound (factor 0.99), which
//! costs at most one extra ring and removes any dependence on rounding
//! details — queries are exact with lowest-id tie-breaking, matching a
//! brute-force scan byte for byte.

use crate::metric::SpatialMetric;
use crate::query::{collect_slots, scan_slots, Accumulator, Best, KBest};
use parfaclo_kernel::SoaPoints;

/// The maximum dimension the grid supports (ring enumeration is written for
/// up to three axes; higher dimensions go to the kd-tree).
pub const GRID_MAX_DIM: usize = 3;

/// Safety slack for the ring-termination bound: rings are only abandoned
/// when even `0.99 ×` their geometric separation exceeds the current best,
/// absorbing every rounding concern at the cost of (at most) one extra ring.
const RING_SLACK: f64 = 0.99;

/// The clamped cell coordinate of scalar `x` on one axis — **the** bucket
/// formula, shared by build-time point assignment and query-time
/// center/window location. Ring and window pruning arguments assume both
/// sides compute cells with exactly these rounded operations, so the two
/// must never drift apart.
#[inline]
fn axis_cell(x: f64, lo: f64, cell: f64, count: usize) -> usize {
    let f = ((x - lo) / cell).floor();
    if f < 0.0 {
        0
    } else {
        (f as usize).min(count - 1)
    }
}

/// A uniform bucket grid over a flat coordinate array.
#[derive(Debug, Clone)]
pub struct UniformGrid {
    dim: usize,
    metric: SpatialMetric,
    /// Point coordinates in bucket (slot) order, one contiguous vector per
    /// axis — each cell's points are a contiguous slot run, so a cell scan
    /// is exactly one blocked-kernel tile pass.
    soa: SoaPoints,
    /// Caller id per slot (identity permutation composed with the optional
    /// caller map), ascending position order within each cell.
    slot_ids: Vec<u32>,
    /// Bounding box of the whole point set.
    lo: Vec<f64>,
    /// Cell side length (equal on every axis); 1.0 for degenerate extents.
    cell: f64,
    /// Cells per axis.
    counts: Vec<usize>,
    /// CSR offsets per linearised cell (`counts` product + 1 entries).
    starts: Vec<u32>,
    /// Exact per-cell point bounding boxes (`ncells * dim` each); empty
    /// cells hold an inverted box (`+inf / -inf`) that every bound rejects.
    cell_lo: Vec<f64>,
    cell_hi: Vec<f64>,
}

impl UniformGrid {
    /// Builds the grid. `coords` holds `dim` coordinates per point; `ids`
    /// maps positions to caller ids (`None` for the identity).
    ///
    /// # Panics
    /// Panics if `dim` is 0 or exceeds [`GRID_MAX_DIM`], if the coordinate
    /// count is not a multiple of `dim`, or if an ids vector of the wrong
    /// length is supplied.
    pub fn build(
        coords: Vec<f64>,
        dim: usize,
        metric: SpatialMetric,
        ids: Option<Vec<u32>>,
    ) -> Self {
        assert!(
            (1..=GRID_MAX_DIM).contains(&dim),
            "uniform grid supports dimensions 1..={GRID_MAX_DIM}, got {dim}"
        );
        let n = crate::index::checked_point_count(&coords, dim, ids.as_deref());
        // Whole-set bounding box.
        let mut lo = vec![f64::INFINITY; dim];
        let mut hi = vec![f64::NEG_INFINITY; dim];
        for p in coords.chunks_exact(dim) {
            for a in 0..dim {
                lo[a] = lo[a].min(p[a]);
                hi[a] = hi[a].max(p[a]);
            }
        }
        // One cubic cell size targeting ~1 point per cell: the widest extent
        // divided into ~n^(1/dim) slabs. Degenerate extents (all points
        // equal, or an empty grid) fall back to a single cell per axis.
        let widest = (0..dim).fold(0.0_f64, |w, a| w.max(hi[a] - lo[a]));
        let per_axis = if n == 0 {
            1.0
        } else {
            (n as f64).powf(1.0 / dim as f64).ceil().max(1.0)
        };
        let cell = if widest > 0.0 { widest / per_axis } else { 1.0 };
        let counts: Vec<usize> = (0..dim)
            .map(|a| {
                if n == 0 {
                    1
                } else {
                    let span = (hi[a] - lo[a]) / cell;
                    (span.floor() as usize).saturating_add(1)
                }
            })
            .collect();
        let ncells: usize = counts.iter().product();

        // CSR bucket layout: counting sort by linearised cell id keeps
        // positions ascending within each bucket.
        let cell_of = |p: &[f64]| -> usize {
            let mut id = 0usize;
            for a in 0..dim {
                id = id * counts[a] + axis_cell(p[a], lo[a], cell, counts[a]);
            }
            id
        };
        let cells: Vec<usize> = coords.chunks_exact(dim).map(cell_of).collect();
        let mut starts = vec![0u32; ncells + 1];
        for &c in &cells {
            starts[c + 1] += 1;
        }
        for i in 0..ncells {
            starts[i + 1] += starts[i];
        }
        let mut cursor = starts.clone();
        let mut order = vec![0u32; n];
        for (pos, &c) in cells.iter().enumerate() {
            order[cursor[c] as usize] = pos as u32;
            cursor[c] += 1;
        }

        // Exact per-cell bounding boxes from the points actually held.
        let mut cell_lo = vec![f64::INFINITY; ncells * dim];
        let mut cell_hi = vec![f64::NEG_INFINITY; ncells * dim];
        for (pos, &c) in cells.iter().enumerate() {
            let p = &coords[pos * dim..(pos + 1) * dim];
            for (a, &coord) in p.iter().enumerate() {
                let slot = c * dim + a;
                cell_lo[slot] = cell_lo[slot].min(coord);
                cell_hi[slot] = cell_hi[slot].max(coord);
            }
        }

        // Re-materialise the points in bucket order: slot `s` holds point
        // `order[s]`, so every cell is a contiguous slot run for the
        // blocked kernels, and `slot_ids` carries the caller ids along.
        let soa = SoaPoints::from_flat_permuted(&coords, dim, &order);
        let slot_ids: Vec<u32> = order
            .iter()
            .map(|&pos| ids.as_ref().map_or(pos, |v| v[pos as usize]))
            .collect();

        UniformGrid {
            dim,
            metric,
            soa,
            slot_ids,
            lo,
            cell,
            counts,
            starts,
            cell_lo,
            cell_hi,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.slot_ids.len()
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.slot_ids.is_empty()
    }

    /// The (clamped) per-axis cell coordinates of a query point.
    fn query_cell(&self, q: &[f64]) -> Vec<usize> {
        (0..self.dim)
            .map(|a| axis_cell(q[a], self.lo[a], self.cell, self.counts[a]))
            .collect()
    }

    #[inline]
    fn linear(&self, cell: &[usize]) -> usize {
        let mut id = 0usize;
        for (&count, &c) in self.counts.iter().zip(cell.iter()) {
            id = id * count + c;
        }
        id
    }

    /// Runs `visit(first, last)` over every row of the axis-aligned window
    /// `[win_lo, win_hi]` (inclusive, already clamped to the grid) along the
    /// last axis: the linear cell ids `first..=last`, whose points are the
    /// one slot run `starts[first]..starts[last + 1]`. Stops when `visit`
    /// returns `false`.
    fn for_rows_in_window(
        &self,
        win_lo: &[usize],
        win_hi: &[usize],
        mut visit: impl FnMut(usize, usize) -> bool,
    ) {
        let last_axis = self.dim - 1;
        let width = win_hi[last_axis] - win_lo[last_axis];
        let mut cell = win_lo.to_vec();
        loop {
            let first = self.linear(&cell);
            if !visit(first, first + width) {
                return;
            }
            // Odometer increment over the other axes.
            let mut a = last_axis;
            loop {
                if a == 0 {
                    return;
                }
                a -= 1;
                if cell[a] < win_hi[a] {
                    cell[a] += 1;
                    break;
                }
                cell[a] = win_lo[a];
            }
        }
    }

    /// Runs `visit` over every in-grid cell whose Chebyshev cell-offset
    /// from `center` is **exactly** `ring`, each cell once — only the
    /// shell, O(ring^(dim-1)) cells, never the filled window (summed over
    /// all rings of a query this is at most the whole grid, so even a
    /// never-terminating far-field search stays O(#cells)).
    ///
    /// Partition: a shell cell is visited under the *first* axis on which
    /// it attains offset ±ring — earlier axes are restricted strictly
    /// inside the ring, later axes anywhere within it.
    fn for_ring_cells(&self, center: &[usize], ring: usize, mut visit: impl FnMut(usize)) {
        if ring == 0 {
            visit(self.linear(center));
            return;
        }
        let mut cell = vec![0usize; self.dim];
        for face_axis in 0..self.dim {
            for negative_side in [true, false] {
                let face_coord = if negative_side {
                    match center[face_axis].checked_sub(ring) {
                        Some(v) => v,
                        None => continue,
                    }
                } else {
                    let v = center[face_axis] + ring;
                    if v >= self.counts[face_axis] {
                        continue;
                    }
                    v
                };
                // Clamped iteration bounds for the non-face axes.
                let bound = |a: usize| -> (usize, usize) {
                    let slack = if a < face_axis { ring - 1 } else { ring };
                    (
                        center[a].saturating_sub(slack),
                        (center[a] + slack).min(self.counts[a] - 1),
                    )
                };
                for (a, c) in cell.iter_mut().enumerate() {
                    *c = if a == face_axis {
                        face_coord
                    } else {
                        bound(a).0
                    };
                }
                loop {
                    visit(self.linear(&cell));
                    // Odometer over the non-face axes.
                    let mut a = self.dim;
                    let mut done = true;
                    loop {
                        if a == 0 {
                            break;
                        }
                        a -= 1;
                        if a == face_axis {
                            continue;
                        }
                        if cell[a] < bound(a).1 {
                            cell[a] += 1;
                            done = false;
                            break;
                        }
                        cell[a] = bound(a).0;
                    }
                    if done {
                        break;
                    }
                }
            }
        }
    }

    /// Conservative lower bound on the distance from the query to any point
    /// in a cell at Chebyshev cell-offset `ring`: separated by at least
    /// `ring - 1` whole cells along some axis, slackened by [`RING_SLACK`].
    fn ring_bound(&self, ring: usize) -> f64 {
        if ring < 2 {
            return 0.0;
        }
        let sep = RING_SLACK * self.cell * (ring - 1) as f64;
        match self.metric {
            SpatialMetric::SquaredEuclidean => sep * sep,
            _ => sep,
        }
    }

    /// Largest ring that still intersects the grid from `center`.
    fn max_ring(&self, center: &[usize]) -> usize {
        (0..self.dim)
            .map(|a| center[a].max(self.counts[a] - 1 - center[a]))
            .max()
            .unwrap_or(0)
    }

    #[inline]
    fn cell_box(&self, c: usize) -> (&[f64], &[f64]) {
        let s = c * self.dim;
        (
            &self.cell_lo[s..s + self.dim],
            &self.cell_hi[s..s + self.dim],
        )
    }

    /// The contiguous slot range holding cell `c`'s points.
    #[inline]
    fn cell_slots(&self, c: usize) -> (usize, usize) {
        (self.starts[c] as usize, self.starts[c + 1] as usize)
    }

    /// The nearest indexed point to `q` (its caller id and distance), ties
    /// towards the lowest id; `None` when empty.
    pub fn nearest(&self, q: &[f64]) -> Option<(usize, f64)> {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        let mut best = Best::new();
        if !self.is_empty() {
            self.search_rings(q, &mut best);
        }
        best.into_result()
    }

    /// The `k` nearest indexed points to `q` in ascending `(distance, id)`
    /// order (fewer when the index holds fewer than `k` points).
    pub fn k_nearest(&self, q: &[f64], k: usize) -> Vec<(usize, f64)> {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        let mut best = KBest::new(k);
        if k > 0 && !self.is_empty() {
            self.search_rings(q, &mut best);
        }
        best.into_sorted()
    }

    /// The one ring expansion behind both nearest and k-nearest: shells of
    /// increasing Chebyshev cell-offset around the query's cell, per-cell
    /// exact-bbox pruning, until the conservative ring bound beats the
    /// accumulator's distance to beat (or the grid is exhausted).
    fn search_rings<A: Accumulator>(&self, q: &[f64], acc: &mut A) {
        let center = self.query_cell(q);
        let max_ring = self.max_ring(&center);
        for ring in 0..=max_ring {
            if acc
                .bound_to_beat()
                .is_some_and(|d| self.ring_bound(ring) > d)
            {
                break;
            }
            self.for_ring_cells(&center, ring, |c| {
                let (s0, s1) = self.cell_slots(c);
                if s0 == s1 {
                    return;
                }
                let (blo, bhi) = self.cell_box(c);
                if acc.prunes(self.metric.box_lower_bound(q, blo, bhi)) {
                    return;
                }
                scan_slots(self.metric, q, &self.soa, s0, s1, &self.slot_ids, acc);
            });
        }
    }

    /// Caller ids of every indexed point within `radius` of `q`
    /// (inclusive, `d <= radius`), ascending.
    pub fn range(&self, q: &[f64], radius: f64) -> Vec<usize> {
        self.range_capped(q, radius, usize::MAX)
            .expect("an uncapped range query always answers")
    }

    /// [`UniformGrid::range`], or `None` when the query window holds more
    /// than `max_points` points. The window's rows are contiguous slot runs,
    /// so the count reads two bucket offsets per row, visits no cell and
    /// computes no distance; the rows it gathers are the ones the query
    /// then scans.
    pub(crate) fn range_capped(
        &self,
        q: &[f64],
        radius: f64,
        max_points: usize,
    ) -> Option<Vec<usize>> {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        let mut out = Vec::new();
        if self.is_empty() || radius < 0.0 {
            return Some(out);
        }
        // Per-axis displacement of an in-range point: `radius` for the
        // distance metrics, `sqrt(radius)` for squared Euclidean. One extra
        // cell of margin absorbs bucket-assignment rounding.
        let reach = match self.metric {
            SpatialMetric::SquaredEuclidean => radius.sqrt(),
            _ => radius,
        };
        let win_lo: Vec<usize> = (0..self.dim)
            .map(|a| {
                axis_cell(q[a] - reach, self.lo[a], self.cell, self.counts[a]).saturating_sub(1)
            })
            .collect();
        let win_hi: Vec<usize> = (0..self.dim)
            .map(|a| {
                (axis_cell(q[a] + reach, self.lo[a], self.cell, self.counts[a]) + 1)
                    .min(self.counts[a] - 1)
            })
            .collect();
        let mut rows = Vec::new();
        let mut held = 0usize;
        self.for_rows_in_window(&win_lo, &win_hi, |first, last| {
            held += (self.starts[last + 1] - self.starts[first]) as usize;
            rows.push((first, last));
            held <= max_points
        });
        if held > max_points {
            return None;
        }
        for (first, last) in rows {
            for c in first..=last {
                let (s0, s1) = self.cell_slots(c);
                if s0 == s1 {
                    continue;
                }
                let (blo, bhi) = self.cell_box(c);
                if self.metric.box_lower_bound(q, blo, bhi) > radius {
                    continue;
                }
                collect_slots(
                    self.metric,
                    q,
                    &self.soa,
                    s0,
                    s1,
                    &self.slot_ids,
                    radius,
                    &mut out,
                );
            }
        }
        crate::query::sort_ids_ascending(&mut out, self.slot_ids.len());
        Some(out)
    }

    /// Estimated resident bytes of the index structure (slot-ordered
    /// coordinates, buckets, per-cell boxes, id map).
    pub fn memory_bytes(&self) -> u64 {
        (self.soa.memory_bytes()
            + (self.cell_lo.len() + self.cell_hi.len()) * std::mem::size_of::<f64>()
            + (self.starts.len() + self.slot_ids.len()) * std::mem::size_of::<u32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_util::{brute_k_nearest, brute_nearest, brute_range, sample_coords};

    #[test]
    fn matches_brute_force_across_dims_and_metrics() {
        for &dim in &[1usize, 2, 3] {
            for metric in [
                SpatialMetric::Euclidean,
                SpatialMetric::SquaredEuclidean,
                SpatialMetric::Manhattan,
                SpatialMetric::Chebyshev,
            ] {
                let coords = sample_coords(301, dim, 0x9A1D + dim as u64);
                let grid = UniformGrid::build(coords.clone(), dim, metric, None);
                let queries = sample_coords(20, dim, 0x5EED);
                for q in queries.chunks(dim) {
                    assert_eq!(
                        grid.nearest(q),
                        brute_nearest(&coords, dim, metric, q),
                        "dim {dim} {metric:?}"
                    );
                    assert_eq!(
                        grid.k_nearest(q, 9),
                        brute_k_nearest(&coords, dim, metric, q, 9),
                        "dim {dim} {metric:?}"
                    );
                    let r = metric.distance(q, &coords[..dim]);
                    assert_eq!(
                        grid.range(q, r),
                        brute_range(&coords, dim, metric, q, r),
                        "dim {dim} {metric:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_points_identical_is_one_degenerate_cell() {
        let coords = [3.5, -1.0].repeat(40);
        let grid = UniformGrid::build(coords, 2, SpatialMetric::Euclidean, None);
        assert_eq!(grid.nearest(&[3.5, -1.0]), Some((0, 0.0)));
        assert_eq!(grid.nearest(&[100.0, 100.0]).map(|(id, _)| id), Some(0));
        assert_eq!(grid.range(&[3.5, -1.0], 0.0).len(), 40);
        assert_eq!(
            grid.k_nearest(&[0.0, 0.0], 3)
                .iter()
                .map(|&(id, _)| id)
                .collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn queries_far_outside_the_bounding_box() {
        let coords = sample_coords(120, 2, 7);
        let grid = UniformGrid::build(coords.clone(), 2, SpatialMetric::Manhattan, None);
        for q in [[-1e4, -1e4], [1e4, 0.0], [0.5, 1e6]] {
            assert_eq!(
                grid.nearest(&q),
                brute_nearest(&coords, 2, SpatialMetric::Manhattan, &q)
            );
            assert_eq!(
                grid.range(&q, 2e4),
                brute_range(&coords, 2, SpatialMetric::Manhattan, &q, 2e4)
            );
        }
    }

    #[test]
    fn empty_grid_and_custom_ids() {
        let empty = UniformGrid::build(Vec::new(), 2, SpatialMetric::Euclidean, None);
        assert!(empty.is_empty());
        assert_eq!(empty.nearest(&[0.0, 0.0]), None);
        assert!(empty.range(&[0.0, 0.0], 1e9).is_empty());

        let grid = UniformGrid::build(
            vec![0.0, 5.0, 9.0],
            1,
            SpatialMetric::Euclidean,
            Some(vec![30, 20, 10]),
        );
        assert_eq!(grid.nearest(&[8.0]), Some((10, 1.0)));
        assert_eq!(grid.range(&[5.0], 4.0), vec![10, 20]);
    }

    #[test]
    fn rejects_unsupported_dimensions() {
        let r = std::panic::catch_unwind(|| {
            UniformGrid::build(vec![0.0; 8], 4, SpatialMetric::Euclidean, None)
        });
        assert!(r.is_err(), "dim 4 must be rejected");
        let r = std::panic::catch_unwind(|| {
            UniformGrid::build(Vec::new(), 0, SpatialMetric::Euclidean, None)
        });
        assert!(r.is_err(), "dim 0 must be rejected");
    }
}

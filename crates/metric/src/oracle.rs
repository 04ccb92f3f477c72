//! Distance oracles: uniform access to distances — dense, implicit or
//! index-accelerated.
//!
//! The paper's algorithms only ever *read* distances — `d(j, i)` lookups,
//! row/column scans, nearest-in-set queries — so nothing forces the
//! `|C| × |F|` matrix to exist in memory. Following the move of Dhulipala,
//! Blelloch & Shun (swap concrete containers for an implicit access
//! interface and keep the algorithms unchanged), this module abstracts the
//! distance source behind the [`DistanceOracle`] trait with three backends:
//!
//! * [`Oracle::Dense`] wraps the existing [`DistanceMatrix`] — `O(|C|·|F|)`
//!   memory, `O(1)` lookups; the right choice up to a few thousand nodes.
//! * [`Oracle::Implicit`] ([`ImplicitMetric`]) stores only the geometric
//!   [`Point`]s and computes distances on demand — `O(|C| + |F|)` memory,
//!   `O(dim)` lookups; feasible at 100k–1M clients, but every structured
//!   query (`nearest_in_set`, `row_min`, threshold neighbourhoods) is still
//!   a full O(n) sweep.
//! * [`Oracle::Spatial`] ([`SpatialOracle`]) wraps the same
//!   [`ImplicitMetric`] **plus** deterministic exact spatial indexes from
//!   `parfaclo-spatial` over each point side, answering the structured
//!   queries sublinearly — the path that makes the 10M-point `xxlarge`
//!   preset practical.
//!
//! All backends produce **bit-identical** distances for instances built
//! from the same point set (the dense matrix stores exactly the values
//! `Point::distance` computes, and the spatial indexes evaluate the same
//! arithmetic), and every query resolves ties by the same canonical rule
//! (lowest index wins), so every solver in the workspace emits
//! byte-identical canonical Run JSON under any backend. Whole-oracle sweeps
//! (`max_entry`, `min_positive_entry`, `sorted_distinct_values`) run as
//! deterministic blocked sweeps chunked by
//! [`rayon::deterministic_chunk_len`] — boundaries are a pure function of
//! the element count, never the thread count — with partials combined
//! left-to-right, preserving the workspace-wide determinism contract.

use crate::distmat::DistanceMatrix;
use crate::point::{DistanceKind, Point};
use parfaclo_kernel::{block, SoaPoints};
use parfaclo_spatial::SpatialIndex;
use rayon::prelude::*;
use std::sync::Arc;

/// Which distance backend an instance carries. Stable string forms
/// (`"dense"` / `"implicit"` / `"spatial"`) are used by the CLI, Run JSON
/// timing metadata and the BENCH artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Distances materialised in a row-major [`DistanceMatrix`].
    #[default]
    Dense,
    /// Distances computed on demand from stored [`Point`]s.
    Implicit,
    /// Implicit distances plus exact spatial indexes serving the
    /// structured queries sublinearly.
    Spatial,
}

impl Backend {
    /// Stable string form (`"dense"` / `"implicit"` / `"spatial"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Dense => "dense",
            Backend::Implicit => "implicit",
            Backend::Spatial => "spatial",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_lowercase().as_str() {
            "dense" => Ok(Backend::Dense),
            "implicit" => Ok(Backend::Implicit),
            "spatial" => Ok(Backend::Spatial),
            other => Err(format!(
                "unknown backend '{other}' (expected dense|implicit|spatial)"
            )),
        }
    }
}

/// Flattens points into the coordinate array a [`SpatialIndex`] (or an
/// [`SoaPoints`]) consumes.
fn flatten(points: &[Point]) -> (Vec<f64>, usize) {
    let dim = points.first().map_or(0, Point::dim);
    let mut coords = Vec::with_capacity(points.len() * dim);
    for p in points {
        coords.extend_from_slice(p.coords());
    }
    (coords, dim)
}

/// Read-only access to a (rectangular) matrix of distances.
///
/// `rows` index clients / query points, `cols` index facilities / centers;
/// for clustering instances the oracle is square and symmetric. Every
/// method must be deterministic — in particular independent of thread
/// count — because solver output is compared byte-for-byte across
/// backends and pool sizes.
pub trait DistanceOracle {
    /// Number of rows (clients / nodes).
    fn rows(&self) -> usize;

    /// Number of columns (facilities / nodes).
    fn cols(&self) -> usize;

    /// Total number of logical entries `rows * cols` (the paper's `m`).
    fn len(&self) -> usize {
        self.rows() * self.cols()
    }

    /// Whether the oracle has no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The distance `d(row, col)`.
    fn dist(&self, row: usize, col: usize) -> f64;

    /// Writes `d(row, col_start + j)` into `out[j]` for the contiguous
    /// column range `col_start .. col_start + out.len()`. The batch entry
    /// point the point-backed backends serve with one blocked SoA kernel
    /// call; the default is the equivalent scalar loop, so values are
    /// bit-identical either way.
    fn row_range_into(&self, row: usize, col_start: usize, out: &mut [f64]) {
        for (j, o) in out.iter_mut().enumerate() {
            *o = self.dist(row, col_start + j);
        }
    }

    /// Writes `d(row_start + j, col)` into `out[j]` for the contiguous row
    /// range `row_start .. row_start + out.len()` (the column-direction
    /// counterpart of [`DistanceOracle::row_range_into`]).
    fn col_range_into(&self, col: usize, row_start: usize, out: &mut [f64]) {
        for (j, o) in out.iter_mut().enumerate() {
            *o = self.dist(row_start + j, col);
        }
    }

    /// Writes `d(row, cols[j])` into `out[j]` — the irregular-subset batch
    /// form (candidate scans over a sorted order, pruning sums over the
    /// live set). Bit-identical to the scalar loop at any subset.
    fn row_gather(&self, row: usize, cols: &[usize], out: &mut [f64]) {
        for (o, &c) in out.iter_mut().zip(cols) {
            *o = self.dist(row, c);
        }
    }

    /// Writes `d(rows[j], col)` into `out[j]` (the column-direction
    /// counterpart of [`DistanceOracle::row_gather`]).
    fn col_gather(&self, col: usize, rows: &[usize], out: &mut [f64]) {
        for (o, &r) in out.iter_mut().zip(rows) {
            *o = self.dist(r, col);
        }
    }

    /// Row `row` collected into a vector (`O(cols)` work; one blocked
    /// kernel call on the point-backed backends via
    /// [`DistanceOracle::row_range_into`]).
    fn row_to_vec(&self, row: usize) -> Vec<f64> {
        let mut v = vec![0.0; self.cols()];
        self.row_range_into(row, 0, &mut v);
        v
    }

    /// `min_{c in set} d(row, c)` with the argmin. `None` if `set` is empty.
    ///
    /// **Tie-breaking is part of the contract**: among equidistant columns
    /// the *lowest column index* wins, regardless of the order the indices
    /// appear in `set`. Every backend — scan-based or index-served — must
    /// return the same `(index, distance)` pair bit for bit; this is the
    /// specification the spatial backend's index queries are held to (and
    /// what the equidistant-point regression tests assert).
    fn nearest_in_set(&self, row: usize, set: &[usize]) -> Option<(usize, f64)> {
        set.iter()
            .map(|&c| (c, self.dist(row, c)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)))
    }

    /// [`DistanceOracle::nearest_in_set`] for **every row at once** against
    /// one fixed set — the batched form the index-accelerated backend turns
    /// into one subset-index build plus a sublinear query per row. Answers
    /// are positionally identical to calling `nearest_in_set` per row.
    fn nearest_in_set_all(&self, set: &[usize]) -> Vec<Option<(usize, f64)>> {
        (0..self.rows())
            .map(|r| self.nearest_in_set(r, set))
            .collect()
    }

    /// Minimum entry of a row together with the column index attaining it
    /// (ties towards the *smaller index* — same canonical rule as
    /// [`DistanceOracle::nearest_in_set`]); `None` for zero columns.
    fn row_min(&self, row: usize) -> Option<(usize, f64)> {
        (0..self.cols())
            .map(|c| (c, self.dist(row, c)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)))
    }

    /// Row indices `r` with `d(r, col) <= radius` (inclusive), ascending —
    /// the threshold-neighbourhood query behind the bipartite graph `H` of
    /// Algorithm 4.1 and the dual-feasibility sums. O(rows) by scan here;
    /// the spatial backend answers small radii sublinearly.
    fn rows_within(&self, col: usize, radius: f64) -> Vec<usize> {
        (0..self.rows())
            .filter(|&r| self.dist(r, col) <= radius)
            .collect()
    }

    /// Column indices `c` with `d(row, c) <= radius` (inclusive), ascending
    /// — the threshold-graph neighbourhood (`H_α` of Section 6.1) of a node
    /// on square oracles. O(cols) by scan here; the spatial backend answers
    /// small radii sublinearly.
    ///
    /// **Contract (all backends):** the returned indices are strictly
    /// ascending with no duplicates, and the radius comparison is inclusive
    /// (`<=`, bit-exact on the same distance arithmetic as [`dist`]). The
    /// CSR threshold-graph builder relies on this ordering to produce
    /// byte-identical adjacency arrays from every backend without a sort —
    /// an implementation returning the same set in a different order would
    /// silently break cross-backend conformance. Regression-tested per
    /// backend in `cols_within_contract_holds_per_backend`.
    ///
    /// [`dist`]: DistanceOracle::dist
    fn cols_within(&self, row: usize, radius: f64) -> Vec<usize> {
        (0..self.cols())
            .filter(|&c| self.dist(row, c) <= radius)
            .collect()
    }

    /// Maximum entry over the whole oracle (0.0 when empty).
    fn max_entry(&self) -> f64;

    /// Minimum strictly positive entry, if any (`None` when every entry is
    /// zero or the oracle is empty).
    ///
    /// # Contract
    ///
    /// The returned value anchors the primal-dual dual-level ladder when
    /// preprocessing is disabled (`α₀ = min_pos/m²`), and through it the
    /// dual-ascent event loop's geometric bucket keys, so it must be:
    ///
    /// * **exact** — the bit-exact smallest entry satisfying `d > 0.0`, not
    ///   an approximation (`-0.0` and `+0.0` are both excluded; denormals
    ///   are positive and therefore *included*);
    /// * **backend-invariant** — dense, implicit and spatial oracles over
    ///   the same instance return the same bits (the blocked kernels
    ///   evaluate the same arithmetic as the scalar path); and
    /// * **thread-invariant** — parallel sweeps chunk by
    ///   `deterministic_chunk_len` and combine partials with the exact
    ///   `f64::min` (associative and commutative on non-NaN values), so the
    ///   result is a pure function of the entries.
    fn min_positive_entry(&self) -> Option<f64>;

    /// All distinct entry values, sorted ascending (the k-center binary
    /// search's distance set `D`). `O(rows·cols)` time *and* transient
    /// memory under every backend (half of it on a point-backed square
    /// oracle, which sorts only the upper triangle) — callers that need
    /// bounded memory must ask [`DistanceOracle::check_distance_sort_cap`]
    /// first.
    fn sorted_distinct_values(&self) -> Vec<f64>;

    /// Refuses, with the reason, a sort of all `rows·cols` entries whose
    /// `8·rows·cols`-byte key buffer would exceed
    /// [`crate::SCRATCH_BYTES_CAP`] (n ≈ 23,170 on a square oracle) — the
    /// same 4 GiB ceiling as the dense adjacency matrix. Every caller that
    /// derives candidate radii or a threshold from the full distance set
    /// asks here before [`DistanceOracle::sorted_distinct_values`], so this
    /// is the one place that knows the cap.
    fn check_distance_sort_cap(&self) -> Result<(), String> {
        let bytes = (self.len() as u64).saturating_mul(8);
        if bytes > crate::SCRATCH_BYTES_CAP {
            return Err(format!(
                "sorting all {}×{} pairwise distances needs {:.1} GiB of scratch, \
                 past the 4 GiB cap",
                self.rows(),
                self.cols(),
                bytes as f64 / (1u64 << 30) as f64,
            ));
        }
        Ok(())
    }

    /// Estimated resident bytes of the backend's distance storage:
    /// `8·rows·cols` for dense, `O((rows + cols)·dim)` for implicit.
    fn memory_bytes(&self) -> u64;

    /// Which backend answers the queries.
    fn backend(&self) -> Backend;
}

/// Runs `f` over `0..len` in deterministic blocks and combines the per-block
/// results left-to-right with `combine`. Block boundaries come from
/// [`rayon::deterministic_chunk_len`] — a pure function of `len` — so the
/// combine tree (and therefore any floating-point result) is identical at
/// every thread count.
fn blocked_sweep<T: Send>(
    len: usize,
    init: T,
    f: impl Fn(std::ops::Range<usize>) -> T + Sync,
    combine: impl Fn(T, T) -> T,
) -> T {
    if len == 0 {
        return init;
    }
    let chunk = rayon::deterministic_chunk_len(len, 1024);
    let starts: Vec<usize> = (0..len).step_by(chunk).collect();
    let partials: Vec<T> = starts
        .par_iter()
        .map(|&s| f(s..(s + chunk).min(len)))
        .collect();
    partials.into_iter().fold(init, combine)
}

/// The implicit geometric backend: two point sets and a distance function.
///
/// Entry `(r, c)` is `from[r].distance(to[c], kind)`, computed on every
/// access. Each side is stored twice: as the [`Point`]s the per-pair
/// lookups read, and as a structure-of-arrays [`SoaPoints`] copy the
/// blocked batch kernels stream — built once at construction,
/// `O((rows + cols)·dim)` extra memory, bit-identical values. For symmetric
/// (clustering) oracles `from` and `to` share one allocation on both
/// representations ([`ImplicitMetric::symmetric`]), which [`memory_bytes`]
/// counts once.
///
/// [`memory_bytes`]: DistanceOracle::memory_bytes
#[derive(Debug, Clone)]
pub struct ImplicitMetric {
    from: Arc<[Point]>,
    to: Arc<[Point]>,
    from_soa: Arc<SoaPoints>,
    to_soa: Arc<SoaPoints>,
    kind: DistanceKind,
}

impl PartialEq for ImplicitMetric {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind && self.from[..] == other.from[..] && self.to[..] == other.to[..]
    }
}

impl ImplicitMetric {
    /// Validates one side's points (`O(points · dim)` — the same class of
    /// up-front cost the dense backend pays to assert its entries are finite
    /// and non-negative): every coordinate finite, every point of one
    /// dimension. Returns that dimension (0 for an empty side).
    fn checked_dim(points: &[Point], side: &str) -> usize {
        let dim = points.first().map_or(0, Point::dim);
        for p in points {
            assert_eq!(p.dim(), dim, "{side} points must have equal dimension");
            assert!(
                p.coords().iter().all(|c| c.is_finite()),
                "{side} point coordinates must be finite"
            );
        }
        dim
    }

    /// Creates a rectangular implicit oracle between two point sets.
    ///
    /// # Panics
    /// Panics if any coordinate is non-finite or the points do not all share
    /// one dimension — the same invariant the dense backend enforces on its
    /// entries at construction, checked here in `O(|from| + |to|)`.
    pub fn between(from: Vec<Point>, to: Vec<Point>, kind: DistanceKind) -> Self {
        let from_dim = Self::checked_dim(&from, "row-side");
        let to_dim = Self::checked_dim(&to, "column-side");
        assert!(
            from.is_empty() || to.is_empty() || from_dim == to_dim,
            "row-side and column-side points must have equal dimension \
             ({from_dim} vs {to_dim})"
        );
        let from_soa = Arc::new(Self::soa_of(&from));
        let to_soa = Arc::new(Self::soa_of(&to));
        ImplicitMetric {
            from: from.into(),
            to: to.into(),
            from_soa,
            to_soa,
            kind,
        }
    }

    /// Creates a square symmetric implicit oracle over one point set (the
    /// points are stored once and shared between the row and column sides).
    ///
    /// # Panics
    /// Panics if any coordinate is non-finite or the points do not all share
    /// one dimension (see [`ImplicitMetric::between`]).
    pub fn symmetric(points: Vec<Point>, kind: DistanceKind) -> Self {
        Self::checked_dim(&points, "node");
        let soa: Arc<SoaPoints> = Arc::new(Self::soa_of(&points));
        let shared: Arc<[Point]> = points.into();
        ImplicitMetric {
            from: Arc::clone(&shared),
            to: shared,
            from_soa: Arc::clone(&soa),
            to_soa: soa,
            kind,
        }
    }

    /// The structure-of-arrays copy of one point side.
    fn soa_of(points: &[Point]) -> SoaPoints {
        let (coords, dim) = flatten(points);
        SoaPoints::from_flat(&coords, dim, points.len())
    }

    /// The row-side (client) points.
    pub fn from_points(&self) -> &[Point] {
        &self.from
    }

    /// The column-side (facility) points.
    pub fn to_points(&self) -> &[Point] {
        &self.to
    }

    /// The distance function entries are computed with.
    pub fn kind(&self) -> DistanceKind {
        self.kind
    }

    /// Whether the row and column sides share one point allocation (true
    /// for oracles built with [`ImplicitMetric::symmetric`]).
    pub fn sides_shared(&self) -> bool {
        Arc::ptr_eq(&self.from, &self.to)
    }

    fn point_bytes(points: &[Point]) -> u64 {
        points
            .iter()
            .map(|p| (std::mem::size_of::<Point>() + p.dim() * std::mem::size_of::<f64>()) as u64)
            .sum()
    }

    /// Decomposes a flat entry range (row-major `idx = row·cols + col`) into
    /// per-row contiguous column segments, in ascending order — the shape
    /// the blocked sweeps hand to the range kernels.
    fn for_row_segments(
        &self,
        range: std::ops::Range<usize>,
        mut f: impl FnMut(usize, usize, usize),
    ) {
        let cols = self.cols();
        let mut idx = range.start;
        while idx < range.end {
            let row = idx / cols;
            let col = idx % cols;
            let len = (cols - col).min(range.end - idx);
            f(row, col, len);
            idx += len;
        }
    }
}

impl DistanceOracle for ImplicitMetric {
    fn rows(&self) -> usize {
        self.from.len()
    }

    fn cols(&self) -> usize {
        self.to.len()
    }

    #[inline]
    fn dist(&self, row: usize, col: usize) -> f64 {
        self.from[row].distance(&self.to[col], self.kind)
    }

    fn row_range_into(&self, row: usize, col_start: usize, out: &mut [f64]) {
        block::dist_range(
            self.kind,
            self.from[row].coords(),
            &self.to_soa,
            col_start,
            out,
        );
    }

    fn col_range_into(&self, col: usize, row_start: usize, out: &mut [f64]) {
        // The kernel computes (facility − client) displacements where the
        // scalar path computes (client − facility): IEEE negation symmetry
        // (see `DistanceKind::distance`) makes the values bit-identical.
        block::dist_range(
            self.kind,
            self.to[col].coords(),
            &self.from_soa,
            row_start,
            out,
        );
    }

    fn row_gather(&self, row: usize, cols: &[usize], out: &mut [f64]) {
        block::dist_gather(self.kind, self.from[row].coords(), &self.to_soa, cols, out);
    }

    fn col_gather(&self, col: usize, rows: &[usize], out: &mut [f64]) {
        block::dist_gather(self.kind, self.to[col].coords(), &self.from_soa, rows, out);
    }

    fn nearest_in_set(&self, row: usize, set: &[usize]) -> Option<(usize, f64)> {
        let q = self.from[row].coords();
        let mut buf = [0.0f64; block::TILE];
        let mut best: Option<(usize, f64)> = None;
        for chunk in set.chunks(block::TILE) {
            block::dist_gather(self.kind, q, &self.to_soa, chunk, &mut buf[..chunk.len()]);
            for (&c, &d) in chunk.iter().zip(&buf[..chunk.len()]) {
                // Lexicographic minimum of (distance, column index) — the
                // documented tie-breaking contract.
                if best.map_or(true, |(bc, bd)| d < bd || (d == bd && c < bc)) {
                    best = Some((c, d));
                }
            }
        }
        best
    }

    fn nearest_in_set_all(&self, set: &[usize]) -> Vec<Option<(usize, f64)>> {
        if set.is_empty() {
            return vec![None; self.rows()];
        }
        // Gather the candidate side once into a compact SoA tile the scan
        // streams per row; ids ride along so ties keep resolving to the
        // lowest column index.
        let ids: Vec<u32> = set
            .iter()
            .map(|&c| u32::try_from(c).expect("column index fits u32"))
            .collect();
        let sub = self.to_soa.gather(&ids);
        let chunk = rayon::deterministic_chunk_len(self.rows(), 256);
        self.from
            .par_iter()
            .with_min_len(chunk)
            .map(|p| {
                block::argmin_ids(self.kind, p.coords(), &sub, &ids).map(|(id, d)| (id as usize, d))
            })
            .collect()
    }

    fn row_min(&self, row: usize) -> Option<(usize, f64)> {
        block::argmin_range(
            self.kind,
            self.from[row].coords(),
            &self.to_soa,
            0,
            self.cols(),
        )
    }

    fn rows_within(&self, col: usize, radius: f64) -> Vec<usize> {
        if self.rows() == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        block::collect_within(
            self.kind,
            self.to[col].coords(),
            &self.from_soa,
            0,
            self.rows(),
            radius,
            &mut out,
        );
        out
    }

    fn cols_within(&self, row: usize, radius: f64) -> Vec<usize> {
        if self.cols() == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        block::collect_within(
            self.kind,
            self.from[row].coords(),
            &self.to_soa,
            0,
            self.cols(),
            radius,
            &mut out,
        );
        out
    }

    fn max_entry(&self) -> f64 {
        if self.cols() == 0 {
            return 0.0;
        }
        // Same blocked-sweep chunking as before the kernels; each chunk is
        // decomposed into row segments served by the range kernel. `max` is
        // an exact reduction, so the value is identical to the scalar fold.
        blocked_sweep(
            self.len(),
            0.0,
            |range| {
                let mut best = 0.0f64;
                self.for_row_segments(range, |row, col_start, len| {
                    best = best.max(block::max_in_range(
                        self.kind,
                        self.from[row].coords(),
                        &self.to_soa,
                        col_start,
                        len,
                    ));
                });
                best
            },
            f64::max,
        )
    }

    fn min_positive_entry(&self) -> Option<f64> {
        if self.cols() == 0 {
            return None;
        }
        blocked_sweep(
            self.len(),
            None,
            |range| {
                let mut best: Option<f64> = None;
                self.for_row_segments(range, |row, col_start, len| {
                    if let Some(d) = block::min_positive_in_range(
                        self.kind,
                        self.from[row].coords(),
                        &self.to_soa,
                        col_start,
                        len,
                    ) {
                        best = Some(best.map_or(d, |b| b.min(d)));
                    }
                });
                best
            },
            |a: Option<f64>, b| match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            },
        )
    }

    fn sorted_distinct_values(&self) -> Vec<f64> {
        let (rows, cols) = (self.rows(), self.cols());
        if rows == 0 || cols == 0 {
            return Vec::new();
        }
        // Sort `f64::to_bits` keys. Kernel distances are `+0.0`, positive
        // finite or `+∞` (never `−0.0` or NaN), and on those the `u64` order
        // of the bit patterns is the `f64` order, so sorting and deduping
        // the keys equals sorting and deduping the values.
        //
        // When both sides are one point set, `d(i, j)` and `d(j, i)` are the
        // same bits (`(a − b)` and `(b − a)` are exact negations) and every
        // `d(i, i)` is `+0.0`, so the strict upper triangle plus one `+0.0`
        // has the full matrix's distinct values: half the keys to fill and
        // sort.
        let mut keys: Vec<u64>;
        let mut row_slices: Vec<(usize, &mut [u64])> = Vec::with_capacity(rows);
        if self.sides_shared() {
            keys = vec![0; rows * (rows - 1) / 2 + 1];
            // keys[0] stays the diagonal's `+0.0`; row `r` fills `d(r, r + 1..)`.
            let mut rest = &mut keys[1..];
            for r in 0..rows {
                let (row, tail) = std::mem::take(&mut rest).split_at_mut(rows - 1 - r);
                row_slices.push((r + 1, row));
                rest = tail;
            }
        } else {
            keys = vec![0; rows * cols];
            row_slices.extend(keys.chunks_mut(cols).map(|row| (0, row)));
        }
        row_slices
            .par_iter_mut()
            .enumerate()
            .with_min_len(64)
            .for_each(|(r, (col_start, out))| {
                let mut buf = [0.0f64; block::TILE];
                for (k, keys) in out.chunks_mut(block::TILE).enumerate() {
                    let tile = &mut buf[..keys.len()];
                    self.row_range_into(r, *col_start + k * block::TILE, tile);
                    for (key, d) in keys.iter_mut().zip(tile.iter()) {
                        *key = d.to_bits();
                    }
                }
            });
        keys.par_sort_unstable();
        keys.dedup();
        keys.into_iter().map(f64::from_bits).collect()
    }

    fn memory_bytes(&self) -> u64 {
        let shared = Arc::ptr_eq(&self.from, &self.to);
        let points = if shared {
            Self::point_bytes(&self.from)
        } else {
            Self::point_bytes(&self.from) + Self::point_bytes(&self.to)
        };
        let soa = if Arc::ptr_eq(&self.from_soa, &self.to_soa) {
            self.from_soa.memory_bytes() as u64
        } else {
            (self.from_soa.memory_bytes() + self.to_soa.memory_bytes()) as u64
        };
        points + soa
    }

    fn backend(&self) -> Backend {
        Backend::Implicit
    }
}

/// The one rule that picks between an index range query and a blocked
/// kernel sweep for [`SpatialOracle`]'s `rows_within` / `cols_within`: when
/// the grid's query window holds more than `1/SWEEP_SHARE` of the indexed
/// side, the wrapped [`ImplicitMetric`]'s sweep answers. The sweep
/// evaluates every point but emits ids already ascending; the grid
/// evaluates only the window's points but pays per cell and sorts its hits.
/// Timed query by query at one thread on uniform, road-network and
/// Gaussian-cluster points (n = 2,000 and 20,000), the two break even when
/// the window holds 7–9% of the points (uniform, road) or 12–13%
/// (clusters); of the shares 1/6 to 1/16, 1/8 kept every pick within 1.42×
/// of the faster path and the mean within 3%.
///
/// The rule reads only the query and the index, never the thread count, and
/// both sides honour the `cols_within` contract, so the answer is the same
/// bits either way. The kd-tree and the flat index always query.
const SWEEP_SHARE: usize = 8;

/// The index-accelerated backend: an [`ImplicitMetric`] plus one exact
/// [`SpatialIndex`] per point side.
///
/// Plain entry access and the whole-oracle sweeps delegate to the wrapped
/// implicit metric unchanged (bit-identical values, identical blocked-sweep
/// chunking). The structured queries are routed through the indexes:
///
/// * [`row_min`] — nearest-facility query against the column-side index;
/// * [`nearest_in_set_all`] — one deterministic subset-index build over the
///   set, then a sublinear nearest query per row;
/// * [`rows_within`] / [`cols_within`] — a range query against the
///   row/column-side index, unless the grid's query window holds more than
///   `1/SWEEP_SHARE` of that side: then the implicit metric's blocked sweep
///   answers.
///
/// Every answer is bit-identical to the implicit backend's linear sweep,
/// including the canonical lowest-index tie-breaking — `parfaclo-spatial`'s
/// indexes compute the same distance arithmetic and never prune an
/// equal-bound subtree. Index construction is itself deterministic (a pure
/// function of the point set, at any thread count).
///
/// For symmetric (clustering) oracles the two sides share one index, which
/// [`memory_bytes`] counts once.
///
/// [`row_min`]: DistanceOracle::row_min
/// [`nearest_in_set_all`]: DistanceOracle::nearest_in_set_all
/// [`rows_within`]: DistanceOracle::rows_within
/// [`cols_within`]: DistanceOracle::cols_within
/// [`memory_bytes`]: DistanceOracle::memory_bytes
#[derive(Debug, Clone)]
pub struct SpatialOracle {
    metric: ImplicitMetric,
    /// Index over the row-side (client) points.
    row_index: Arc<SpatialIndex>,
    /// Index over the column-side (facility) points; shares the row index
    /// for symmetric oracles.
    col_index: Arc<SpatialIndex>,
}

impl PartialEq for SpatialOracle {
    fn eq(&self, other: &Self) -> bool {
        // The indexes are a pure function of the points, so metric equality
        // is oracle equality.
        self.metric == other.metric
    }
}

impl SpatialOracle {
    /// Builds the indexes around an existing implicit metric.
    pub fn from_implicit(metric: ImplicitMetric) -> Self {
        // Index construction is the dominant cost of the spatial backend's
        // build path, so it gets its own phase under an installed tracer.
        let _span = parfaclo_trace::timing_span("spatial-index");
        // `SpatialMetric` *is* `DistanceKind` (one shared kernel type), so
        // the kind flows straight into the index.
        let kind = metric.kind();
        let (from_coords, from_dim) = flatten(metric.from_points());
        let row_index = Arc::new(SpatialIndex::build(from_coords, from_dim, kind));
        let col_index = if metric.sides_shared() {
            Arc::clone(&row_index)
        } else {
            let (to_coords, to_dim) = flatten(metric.to_points());
            Arc::new(SpatialIndex::build(to_coords, to_dim, kind))
        };
        SpatialOracle {
            metric,
            row_index,
            col_index,
        }
    }

    /// Creates a rectangular index-accelerated oracle between two point
    /// sets (same validation as [`ImplicitMetric::between`]).
    pub fn between(from: Vec<Point>, to: Vec<Point>, kind: DistanceKind) -> Self {
        Self::from_implicit(ImplicitMetric::between(from, to, kind))
    }

    /// Creates a square symmetric index-accelerated oracle over one point
    /// set; both sides share one index.
    pub fn symmetric(points: Vec<Point>, kind: DistanceKind) -> Self {
        Self::from_implicit(ImplicitMetric::symmetric(points, kind))
    }

    /// The wrapped implicit metric.
    pub fn implicit(&self) -> &ImplicitMetric {
        &self.metric
    }

    /// The index over the row-side points.
    pub fn row_index(&self) -> &SpatialIndex {
        &self.row_index
    }

    /// The index over the column-side points.
    pub fn col_index(&self) -> &SpatialIndex {
        &self.col_index
    }
}

impl DistanceOracle for SpatialOracle {
    fn rows(&self) -> usize {
        self.metric.rows()
    }

    fn cols(&self) -> usize {
        self.metric.cols()
    }

    #[inline]
    fn dist(&self, row: usize, col: usize) -> f64 {
        self.metric.dist(row, col)
    }

    fn row_range_into(&self, row: usize, col_start: usize, out: &mut [f64]) {
        self.metric.row_range_into(row, col_start, out);
    }

    fn col_range_into(&self, col: usize, row_start: usize, out: &mut [f64]) {
        self.metric.col_range_into(col, row_start, out);
    }

    fn row_gather(&self, row: usize, cols: &[usize], out: &mut [f64]) {
        self.metric.row_gather(row, cols, out);
    }

    fn col_gather(&self, col: usize, rows: &[usize], out: &mut [f64]) {
        self.metric.col_gather(col, rows, out);
    }

    fn nearest_in_set(&self, row: usize, set: &[usize]) -> Option<(usize, f64)> {
        self.metric.nearest_in_set(row, set)
    }

    fn row_min(&self, row: usize) -> Option<(usize, f64)> {
        if self.cols() == 0 {
            return None;
        }
        self.col_index
            .nearest(self.metric.from_points()[row].coords())
    }

    fn nearest_in_set_all(&self, set: &[usize]) -> Vec<Option<(usize, f64)>> {
        if set.is_empty() {
            return vec![None; self.rows()];
        }
        // One deterministic subset-index build over the set's points, ids
        // mapped back to the caller's column indices so tie-breaking matches
        // the scan rule (lowest column index wins)...
        let to = self.metric.to_points();
        let dim = to.first().map_or(0, Point::dim);
        let mut coords = Vec::with_capacity(set.len() * dim);
        let mut ids = Vec::with_capacity(set.len());
        for &c in set {
            coords.extend_from_slice(to[c].coords());
            ids.push(u32::try_from(c).expect("column index fits u32"));
        }
        let index = SpatialIndex::build_with_ids(coords, dim, self.metric.kind(), Some(ids));
        // ...then a sublinear query per row, in deterministic row order.
        let from = self.metric.from_points();
        let chunk = rayon::deterministic_chunk_len(from.len(), 256);
        from.par_iter()
            .with_min_len(chunk)
            .map(|p| index.nearest(p.coords()))
            .collect()
    }

    fn rows_within(&self, col: usize, radius: f64) -> Vec<usize> {
        if self.rows() == 0 {
            return Vec::new();
        }
        let q = self.metric.to_points()[col].coords();
        self.row_index
            .range_capped(q, radius, self.rows() / SWEEP_SHARE)
            .unwrap_or_else(|| self.metric.rows_within(col, radius))
    }

    fn cols_within(&self, row: usize, radius: f64) -> Vec<usize> {
        if self.cols() == 0 {
            return Vec::new();
        }
        let q = self.metric.from_points()[row].coords();
        self.col_index
            .range_capped(q, radius, self.cols() / SWEEP_SHARE)
            .unwrap_or_else(|| self.metric.cols_within(row, radius))
    }

    fn max_entry(&self) -> f64 {
        self.metric.max_entry()
    }

    fn min_positive_entry(&self) -> Option<f64> {
        self.metric.min_positive_entry()
    }

    fn sorted_distinct_values(&self) -> Vec<f64> {
        self.metric.sorted_distinct_values()
    }

    fn memory_bytes(&self) -> u64 {
        let indexes = if Arc::ptr_eq(&self.row_index, &self.col_index) {
            self.row_index.memory_bytes()
        } else {
            self.row_index.memory_bytes() + self.col_index.memory_bytes()
        };
        self.metric.memory_bytes() + indexes
    }

    fn backend(&self) -> Backend {
        Backend::Spatial
    }
}

impl DistanceOracle for DistanceMatrix {
    fn rows(&self) -> usize {
        DistanceMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        DistanceMatrix::cols(self)
    }

    fn len(&self) -> usize {
        DistanceMatrix::len(self)
    }

    #[inline]
    fn dist(&self, row: usize, col: usize) -> f64 {
        self.get(row, col)
    }

    fn row_to_vec(&self, row: usize) -> Vec<f64> {
        self.row(row).to_vec()
    }

    fn row_range_into(&self, row: usize, col_start: usize, out: &mut [f64]) {
        out.copy_from_slice(&self.row(row)[col_start..col_start + out.len()]);
    }

    fn row_gather(&self, row: usize, cols: &[usize], out: &mut [f64]) {
        let r = self.row(row);
        for (o, &c) in out.iter_mut().zip(cols) {
            *o = r[c];
        }
    }

    fn row_min(&self, row: usize) -> Option<(usize, f64)> {
        DistanceMatrix::row_min(self, row)
    }

    fn max_entry(&self) -> f64 {
        DistanceMatrix::max_entry(self)
    }

    fn min_positive_entry(&self) -> Option<f64> {
        DistanceMatrix::min_positive_entry(self)
    }

    fn sorted_distinct_values(&self) -> Vec<f64> {
        DistanceMatrix::sorted_distinct_values(self)
    }

    fn memory_bytes(&self) -> u64 {
        (DistanceMatrix::len(self) * std::mem::size_of::<f64>()) as u64
    }

    fn backend(&self) -> Backend {
        Backend::Dense
    }
}

/// The concrete oracle stored inside every instance: one of the three
/// backends, dispatched statically per call.
#[derive(Debug, Clone, PartialEq)]
pub enum Oracle {
    /// Distances materialised in a [`DistanceMatrix`].
    Dense(DistanceMatrix),
    /// Distances computed on demand from stored points.
    Implicit(ImplicitMetric),
    /// Implicit distances plus exact spatial indexes.
    Spatial(SpatialOracle),
}

impl Oracle {
    /// The implicit metric behind the oracle: the wrapped one for the
    /// implicit backend, the inner one for the spatial backend, `None` for
    /// dense.
    pub fn as_implicit(&self) -> Option<&ImplicitMetric> {
        match self {
            Oracle::Dense(_) => None,
            Oracle::Implicit(im) => Some(im),
            Oracle::Spatial(s) => Some(s.implicit()),
        }
    }

    /// The wrapped spatial oracle, if this is the spatial backend.
    pub fn as_spatial(&self) -> Option<&SpatialOracle> {
        match self {
            Oracle::Spatial(s) => Some(s),
            _ => None,
        }
    }

    /// Streams column `col` in ascending row order, one stack tile at a
    /// time: `f(start, tile)` gets `d(start + k, col)` in `tile[k]`. The
    /// kernel column is bit-identical to [`DistanceOracle::dist`], so a fold
    /// over the tiles equals the scalar fold over `0..rows`.
    pub fn for_each_column_tile(&self, col: usize, mut f: impl FnMut(usize, &[f64])) {
        const TILE: usize = 256;
        let rows = self.rows();
        let mut buf = [0.0f64; TILE];
        for start in (0..rows).step_by(TILE) {
            let tile = &mut buf[..TILE.min(rows - start)];
            self.col_range_into(col, start, tile);
            f(start, tile);
        }
    }

    /// Checks symmetry of a square oracle up to `tol` (O(n²) queries).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows() != self.cols() {
            return false;
        }
        for r in 0..self.rows() {
            for c in (r + 1)..self.cols() {
                if (self.dist(r, c) - self.dist(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

macro_rules! delegate {
    ($self:ident, $m:ident ( $($arg:expr),* )) => {
        match $self {
            Oracle::Dense(inner) => DistanceOracle::$m(inner $(, $arg)*),
            Oracle::Implicit(inner) => DistanceOracle::$m(inner $(, $arg)*),
            Oracle::Spatial(inner) => DistanceOracle::$m(inner $(, $arg)*),
        }
    };
}

impl DistanceOracle for Oracle {
    fn rows(&self) -> usize {
        delegate!(self, rows())
    }

    fn cols(&self) -> usize {
        delegate!(self, cols())
    }

    fn len(&self) -> usize {
        delegate!(self, len())
    }

    #[inline]
    fn dist(&self, row: usize, col: usize) -> f64 {
        delegate!(self, dist(row, col))
    }

    fn row_to_vec(&self, row: usize) -> Vec<f64> {
        delegate!(self, row_to_vec(row))
    }

    fn row_range_into(&self, row: usize, col_start: usize, out: &mut [f64]) {
        delegate!(self, row_range_into(row, col_start, out))
    }

    fn col_range_into(&self, col: usize, row_start: usize, out: &mut [f64]) {
        delegate!(self, col_range_into(col, row_start, out))
    }

    fn row_gather(&self, row: usize, cols: &[usize], out: &mut [f64]) {
        delegate!(self, row_gather(row, cols, out))
    }

    fn col_gather(&self, col: usize, rows: &[usize], out: &mut [f64]) {
        delegate!(self, col_gather(col, rows, out))
    }

    fn nearest_in_set(&self, row: usize, set: &[usize]) -> Option<(usize, f64)> {
        delegate!(self, nearest_in_set(row, set))
    }

    fn nearest_in_set_all(&self, set: &[usize]) -> Vec<Option<(usize, f64)>> {
        delegate!(self, nearest_in_set_all(set))
    }

    fn row_min(&self, row: usize) -> Option<(usize, f64)> {
        delegate!(self, row_min(row))
    }

    fn rows_within(&self, col: usize, radius: f64) -> Vec<usize> {
        delegate!(self, rows_within(col, radius))
    }

    fn cols_within(&self, row: usize, radius: f64) -> Vec<usize> {
        delegate!(self, cols_within(row, radius))
    }

    fn max_entry(&self) -> f64 {
        delegate!(self, max_entry())
    }

    fn min_positive_entry(&self) -> Option<f64> {
        delegate!(self, min_positive_entry())
    }

    fn sorted_distinct_values(&self) -> Vec<f64> {
        delegate!(self, sorted_distinct_values())
    }

    fn memory_bytes(&self) -> u64 {
        delegate!(self, memory_bytes())
    }

    fn backend(&self) -> Backend {
        delegate!(self, backend())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points() -> (Vec<Point>, Vec<Point>) {
        let clients: Vec<Point> = (0..13)
            .map(|i| Point::xy(i as f64 * 1.5, ((i * i) % 7) as f64))
            .collect();
        let facilities: Vec<Point> = (0..5).map(|i| Point::xy(i as f64 * 4.0, 2.0)).collect();
        (clients, facilities)
    }

    fn pair() -> (Oracle, Oracle) {
        let (clients, facilities) = points();
        let dense = Oracle::Dense(DistanceMatrix::between(
            &clients,
            &facilities,
            DistanceKind::Euclidean,
        ));
        let implicit = Oracle::Implicit(ImplicitMetric::between(
            clients,
            facilities,
            DistanceKind::Euclidean,
        ));
        (dense, implicit)
    }

    fn triple() -> (Oracle, Oracle, Oracle) {
        let (dense, implicit) = pair();
        let (clients, facilities) = points();
        let spatial = Oracle::Spatial(SpatialOracle::between(
            clients,
            facilities,
            DistanceKind::Euclidean,
        ));
        (dense, implicit, spatial)
    }

    #[test]
    fn backends_agree_entrywise_bit_for_bit() {
        let (dense, implicit) = pair();
        assert_eq!(dense.rows(), implicit.rows());
        assert_eq!(dense.cols(), implicit.cols());
        for r in 0..dense.rows() {
            for c in 0..dense.cols() {
                assert_eq!(dense.dist(r, c).to_bits(), implicit.dist(r, c).to_bits());
            }
        }
    }

    #[test]
    fn backends_agree_on_scans_and_queries() {
        let (dense, implicit) = pair();
        assert_eq!(dense.max_entry(), implicit.max_entry());
        assert_eq!(dense.min_positive_entry(), implicit.min_positive_entry());
        assert_eq!(
            dense.sorted_distinct_values(),
            implicit.sorted_distinct_values()
        );
        for r in 0..dense.rows() {
            assert_eq!(dense.row_to_vec(r), implicit.row_to_vec(r));
            assert_eq!(dense.row_min(r), implicit.row_min(r));
            assert_eq!(
                dense.nearest_in_set(r, &[4, 1, 2]),
                implicit.nearest_in_set(r, &[4, 1, 2])
            );
        }
        let column = |oracle: &Oracle, c: usize| {
            let mut col = vec![0.0; oracle.rows()];
            oracle.col_range_into(c, 0, &mut col);
            col
        };
        for c in 0..dense.cols() {
            assert_eq!(column(&dense, c), column(&implicit, c));
        }
    }

    #[test]
    fn min_positive_entry_agrees_bit_for_bit_across_all_backends() {
        // The primal-dual dual-level ladder (and through it the event loop's
        // bucket keys) anchors on this value, so the three backends must
        // return identical bits, not just approximately equal values.
        let (dense, implicit, spatial) = triple();
        let d = dense.min_positive_entry().expect("positive entries exist");
        let i = implicit
            .min_positive_entry()
            .expect("positive entries exist");
        let s = spatial
            .min_positive_entry()
            .expect("positive entries exist");
        assert_eq!(d.to_bits(), i.to_bits());
        assert_eq!(d.to_bits(), s.to_bits());
        // And it is exactly the scalar-scan answer.
        let mut expect = f64::INFINITY;
        for r in 0..dense.rows() {
            for c in 0..dense.cols() {
                let v = dense.dist(r, c);
                if v > 0.0 {
                    expect = expect.min(v);
                }
            }
        }
        assert_eq!(d.to_bits(), expect.to_bits());
    }

    #[test]
    fn min_positive_entry_is_exact_about_zero_and_denormals() {
        // Strictly positive: +0.0 and -0.0 are excluded, denormals included
        // (they are positive numbers, and the geometric bucket mapping
        // handles them).
        let tiny = f64::from_bits(1);
        let m = DistanceMatrix::from_rows(2, 2, vec![0.0, -0.0, tiny, 3.0]);
        let oracle = Oracle::Dense(m);
        assert_eq!(
            oracle.min_positive_entry().map(f64::to_bits),
            Some(tiny.to_bits())
        );
        let zeros = Oracle::Dense(DistanceMatrix::from_rows(2, 2, vec![0.0; 4]));
        assert_eq!(zeros.min_positive_entry(), None);
    }

    #[test]
    fn memory_is_matrix_sized_vs_point_sized() {
        let (dense, implicit) = pair();
        assert_eq!(dense.memory_bytes(), (13 * 5 * 8) as u64);
        // Implicit: 18 points, 2 coords each, stored as Points (headers +
        // coordinates) plus the SoA copy the kernels stream (coordinates
        // only) — still O(rows + cols), far less than the matrix once
        // dimensions grow.
        let per_point = (std::mem::size_of::<Point>() + 2 * 8) as u64;
        let soa_per_point = (2 * 8) as u64;
        assert_eq!(implicit.memory_bytes(), 18 * (per_point + soa_per_point));
        assert_eq!(dense.backend(), Backend::Dense);
        assert_eq!(implicit.backend(), Backend::Implicit);
    }

    #[test]
    fn symmetric_points_counted_once() {
        let pts: Vec<Point> = (0..10).map(|i| Point::scalar(i as f64)).collect();
        let shared = ImplicitMetric::symmetric(pts.clone(), DistanceKind::Euclidean);
        let split = ImplicitMetric::between(pts.clone(), pts, DistanceKind::Euclidean);
        assert_eq!(shared.memory_bytes() * 2, split.memory_bytes());
        assert_eq!(DistanceOracle::rows(&shared), 10);
        assert_eq!(DistanceOracle::cols(&shared), 10);
        assert_eq!(shared.dist(3, 7), 4.0);
        assert_eq!(shared.dist(7, 3), 4.0);
    }

    #[test]
    fn oracle_symmetry_check() {
        let pts: Vec<Point> = (0..6).map(|i| Point::xy(i as f64, 1.0)).collect();
        let o = Oracle::Implicit(ImplicitMetric::symmetric(pts, DistanceKind::Euclidean));
        assert!(o.is_symmetric(1e-12));
        let (rect, _) = pair();
        assert!(
            !rect.is_symmetric(1e-12),
            "rectangular oracle is not symmetric"
        );
    }

    #[test]
    fn blocked_sweeps_are_chunk_exact() {
        // The sweep must see every index exactly once regardless of len.
        for len in [0usize, 1, 5, 1023, 1024, 1025, 5000] {
            let count = blocked_sweep(len, 0usize, |r| r.len(), |a, b| a + b);
            assert_eq!(count, len);
        }
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn implicit_rejects_non_finite_coordinates() {
        let _ = ImplicitMetric::between(
            vec![Point::xy(0.0, f64::NAN)],
            vec![Point::xy(1.0, 1.0)],
            DistanceKind::Euclidean,
        );
    }

    #[test]
    #[should_panic(expected = "equal dimension")]
    fn implicit_rejects_mixed_dimensions() {
        let _ = ImplicitMetric::symmetric(
            vec![Point::scalar(1.0), Point::xy(1.0, 2.0)],
            DistanceKind::Euclidean,
        );
    }

    #[test]
    #[should_panic(expected = "equal dimension")]
    fn implicit_rejects_cross_side_dimension_mismatch() {
        let _ = ImplicitMetric::between(
            vec![Point::scalar(1.0)],
            vec![Point::xy(1.0, 2.0)],
            DistanceKind::Euclidean,
        );
    }

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("dense".parse::<Backend>().unwrap(), Backend::Dense);
        assert_eq!("Implicit".parse::<Backend>().unwrap(), Backend::Implicit);
        assert_eq!("spatial".parse::<Backend>().unwrap(), Backend::Spatial);
        assert!("sparse".parse::<Backend>().is_err());
        assert_eq!(Backend::Implicit.to_string(), "implicit");
        assert_eq!(Backend::Spatial.to_string(), "spatial");
        assert_eq!(Backend::default(), Backend::Dense);
    }

    /// Regression for the documented tie-breaking contract: among
    /// equidistant columns the lowest index wins, on every backend,
    /// regardless of the order the indices appear in the query set.
    #[test]
    fn equidistant_ties_resolve_to_lowest_index_on_every_backend() {
        // Four facilities at distance exactly 5 from both clients, plus a
        // far decoy; every column pair is an exact tie.
        let clients = vec![Point::xy(0.0, 0.0), Point::xy(0.0, 0.0)];
        let facilities = vec![
            Point::xy(3.0, 4.0),
            Point::xy(4.0, 3.0),
            Point::xy(-3.0, 4.0),
            Point::xy(0.0, 5.0),
            Point::xy(90.0, 90.0),
        ];
        let backends = [
            Oracle::Dense(DistanceMatrix::between(
                &clients,
                &facilities,
                DistanceKind::Euclidean,
            )),
            Oracle::Implicit(ImplicitMetric::between(
                clients.clone(),
                facilities.clone(),
                DistanceKind::Euclidean,
            )),
            Oracle::Spatial(SpatialOracle::between(
                clients,
                facilities,
                DistanceKind::Euclidean,
            )),
        ];
        for o in &backends {
            // Set order must not matter: {3, 1} ties at 5.0 → index 1 wins.
            assert_eq!(
                o.nearest_in_set(0, &[3, 1]),
                Some((1, 5.0)),
                "{:?}",
                o.backend()
            );
            assert_eq!(
                o.nearest_in_set(0, &[1, 3]),
                Some((1, 5.0)),
                "{:?}",
                o.backend()
            );
            // Full-row minimum: all of 0..4 tie at 5.0 → index 0 wins.
            assert_eq!(o.row_min(1), Some((0, 5.0)), "{:?}", o.backend());
            // Batched form agrees positionally with the per-row query.
            assert_eq!(
                o.nearest_in_set_all(&[4, 2, 3]),
                vec![Some((2, 5.0)), Some((2, 5.0))],
                "{:?}",
                o.backend()
            );
        }
    }

    #[test]
    fn cols_within_contract_holds_per_backend() {
        // The documented contract: strictly ascending indices, no
        // duplicates, inclusive radius — on every backend. The CSR
        // threshold-graph builder consumes these lists verbatim.
        let (dense, implicit, spatial) = triple();
        for oracle in [&dense, &implicit, &spatial] {
            let max = oracle.max_entry();
            for row in 0..oracle.rows() {
                for radius in [0.0, max * 0.3, max * 0.7, max] {
                    let cols = oracle.cols_within(row, radius);
                    assert!(
                        cols.windows(2).all(|w| w[0] < w[1]),
                        "{:?} row {row} radius {radius}: not strictly ascending: {cols:?}",
                        oracle.backend()
                    );
                    // Membership is exactly the inclusive comparison on the
                    // oracle's own distance arithmetic.
                    for c in 0..oracle.cols() {
                        assert_eq!(
                            cols.binary_search(&c).is_ok(),
                            oracle.dist(row, c) <= radius,
                            "{:?} row {row} col {c} radius {radius}",
                            oracle.backend()
                        );
                    }
                }
                // The inclusive boundary: a radius equal to an exact entry
                // distance must include that column.
                let boundary = oracle.dist(row, 0);
                assert!(
                    oracle.cols_within(row, boundary).contains(&0),
                    "{:?} row {row}: boundary radius excluded its own column",
                    oracle.backend()
                );
            }
        }
    }

    #[test]
    fn spatial_backend_agrees_with_dense_and_implicit_on_every_query() {
        let (dense, implicit, spatial) = triple();
        assert_eq!(spatial.rows(), dense.rows());
        assert_eq!(spatial.cols(), dense.cols());
        assert_eq!(spatial.backend(), Backend::Spatial);
        assert_eq!(spatial.max_entry(), dense.max_entry());
        assert_eq!(spatial.min_positive_entry(), dense.min_positive_entry());
        assert_eq!(
            spatial.sorted_distinct_values(),
            dense.sorted_distinct_values()
        );
        let radius = spatial.max_entry() * 0.4;
        for r in 0..dense.rows() {
            assert_eq!(spatial.row_to_vec(r), dense.row_to_vec(r));
            assert_eq!(spatial.row_min(r), dense.row_min(r), "row {r}");
            assert_eq!(
                spatial.nearest_in_set(r, &[4, 1, 2]),
                dense.nearest_in_set(r, &[4, 1, 2])
            );
            assert_eq!(
                spatial.cols_within(r, radius),
                dense.cols_within(r, radius),
                "row {r}"
            );
        }
        for c in 0..dense.cols() {
            assert_eq!(
                spatial.rows_within(c, radius),
                implicit.rows_within(c, radius),
                "col {c}"
            );
        }
        for set in [vec![0usize], vec![2, 0, 4], vec![1, 2, 3, 4, 0]] {
            assert_eq!(
                spatial.nearest_in_set_all(&set),
                dense.nearest_in_set_all(&set),
                "set {set:?}"
            );
        }
        assert_eq!(spatial.nearest_in_set_all(&[]), vec![None; spatial.rows()]);
    }

    #[test]
    fn spatial_symmetric_shares_one_index() {
        let pts: Vec<Point> = (0..40)
            .map(|i| Point::xy(i as f64, (i % 5) as f64))
            .collect();
        let sym = SpatialOracle::symmetric(pts.clone(), DistanceKind::Euclidean);
        assert!(Arc::ptr_eq(&sym.row_index, &sym.col_index));
        let split = SpatialOracle::between(pts.clone(), pts, DistanceKind::Euclidean);
        assert!(!Arc::ptr_eq(&split.row_index, &split.col_index));
        // Shared sides: points and index each counted once.
        assert!(sym.memory_bytes() < split.memory_bytes());
        // Both answer identically.
        for row in [0usize, 7, 39] {
            assert_eq!(
                DistanceOracle::row_min(&sym, row),
                DistanceOracle::row_min(&split, row)
            );
        }
    }

    #[test]
    fn spatial_memory_includes_index_but_stays_point_sized() {
        let (dense, implicit, spatial) = triple();
        assert!(spatial.memory_bytes() > implicit.memory_bytes());
        // Index overhead is O(points), far under the dense matrix for any
        // instance where the matrix dominates.
        assert!(spatial.memory_bytes() < dense.memory_bytes() + implicit.memory_bytes() * 8);
    }

    /// The full-matrix sort the half-matrix keys replaced: every entry,
    /// sorted with `partial_cmp`, then deduped.
    fn full_matrix_sorted_distinct(oracle: &Oracle) -> Vec<f64> {
        let cols = oracle.cols();
        let mut v = vec![0.0; oracle.len()];
        for (r, row) in v.chunks_mut(cols.max(1)).enumerate() {
            oracle.row_range_into(r, 0, row);
        }
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v.dedup();
        v
    }

    fn at_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool")
            .install(f)
    }

    /// Point sets for the distinct-value references: n = 0, 1 and 2, a small
    /// set with duplicate points, 200 points in 3-d (19,901 half-matrix
    /// keys, above the sort's 16,384-element sequential cutoff), and
    /// coordinates near 1e300 and 1.7e308 whose distances overflow to `+∞`.
    fn distinct_value_point_sets() -> Vec<(&'static str, Vec<Point>)> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let mut dupes: Vec<Point> = (0..9)
            .map(|i| Point::xy((i % 4) as f64, (i % 3) as f64 * 0.5))
            .collect();
        dupes.push(dupes[2].clone());
        let large: Vec<Point> = (0..200)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(-50.0..50.0)).collect()))
            .collect();
        let huge: Vec<Point> = [1e300, -1e300, 1.7e308, -1.7e308, 0.0, 3.0, 1e300]
            .iter()
            .map(|&x| Point::xy(x, -x * 0.5))
            .collect();
        vec![
            ("empty", Vec::new()),
            ("one", vec![Point::xy(1.0, 2.0)]),
            ("two", vec![Point::xy(0.0, 0.0), Point::xy(3.0, 4.0)]),
            ("duplicates", dupes),
            ("above-cutoff", large),
            ("overflow", huge),
        ]
    }

    #[test]
    fn half_matrix_keys_match_the_full_matrix_sort() {
        let kinds = [
            DistanceKind::Euclidean,
            DistanceKind::SquaredEuclidean,
            DistanceKind::Manhattan,
            DistanceKind::Chebyshev,
        ];
        for (name, points) in distinct_value_point_sets() {
            for kind in kinds {
                let oracles = [
                    Oracle::Dense(DistanceMatrix::pairwise(&points, kind)),
                    Oracle::Implicit(ImplicitMetric::symmetric(points.clone(), kind)),
                    Oracle::Spatial(SpatialOracle::symmetric(points.clone(), kind)),
                ];
                let want: Vec<u64> = full_matrix_sorted_distinct(&oracles[0])
                    .iter()
                    .map(|d| d.to_bits())
                    .collect();
                if name == "overflow" {
                    assert_eq!(want.last(), Some(&f64::INFINITY.to_bits()), "{kind:?}");
                }
                for oracle in &oracles {
                    let n = oracle.rows();
                    // The two facts the half-matrix keys rest on.
                    let mut row = vec![0.0; n];
                    for i in 0..n {
                        oracle.row_range_into(i, 0, &mut row);
                        assert_eq!(row[i].to_bits(), 0, "{name} {kind:?}: d({i}, {i})");
                        for (j, d) in row.iter().enumerate() {
                            assert_eq!(d.to_bits(), oracle.dist(j, i).to_bits());
                            assert!(d.to_bits() == 0 || *d > 0.0, "{name} {kind:?}");
                        }
                    }
                    for threads in [1, 4] {
                        let got: Vec<u64> = at_threads(threads, || oracle.sorted_distinct_values())
                            .iter()
                            .map(|d| d.to_bits())
                            .collect();
                        assert_eq!(
                            got,
                            want,
                            "{name} {kind:?} {:?} at {threads} threads",
                            oracle.backend()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rectangular_implicit_oracles_still_sort_every_entry() {
        let (dense, implicit, spatial) = triple();
        let want = full_matrix_sorted_distinct(&dense);
        assert!(!want.contains(&0.0), "no shared points, so no zero entry");
        for oracle in [&dense, &implicit, &spatial] {
            for threads in [1, 4] {
                assert_eq!(
                    at_threads(threads, || oracle.sorted_distinct_values()),
                    want
                );
            }
        }
    }

    #[test]
    fn distance_sort_cap_refuses_past_4_gib() {
        // 23,170² · 8 bytes is just under 4 GiB and 23,171² · 8 just over;
        // the check reads only the shape, so nothing n² is allocated.
        let line = |n: usize| {
            let points: Vec<Point> = (0..n).map(|i| Point::xy(i as f64, 0.0)).collect();
            ImplicitMetric::symmetric(points, DistanceKind::Euclidean)
        };
        assert!(line(23_170).check_distance_sort_cap().is_ok());
        let err = line(23_171).check_distance_sort_cap().unwrap_err();
        assert!(err.contains("23171×23171") && err.contains("GiB"), "{err}");
    }
}

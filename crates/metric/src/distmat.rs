//! Dense distance matrices.
//!
//! Section 2 of the paper represents the input as a dense `n x n` matrix of distances
//! and expresses every algorithm in terms of row/column operations over it. We provide a
//! simple row-major dense matrix with parallel construction from point sets.

use crate::point::{DistanceKind, Point};
use rayon::prelude::*;

/// A requested dense matrix shape whose entry count (or byte size) does not fit in
/// memory arithmetic: `rows * cols` overflows `usize`, or the `8 * rows * cols` bytes
/// of storage would. Returned by the checked constructors instead of letting a
/// capacity-overflow abort take the process down when a caller asks for a
/// matrix-backed instance at implicit-only scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeOverflowError {
    /// Requested number of rows.
    pub rows: usize,
    /// Requested number of columns.
    pub cols: usize,
}

impl std::fmt::Display for SizeOverflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dense {} x {} distance matrix does not fit in memory arithmetic \
             (rows * cols overflows); use the implicit backend for instances this large",
            self.rows, self.cols
        )
    }
}

impl std::error::Error for SizeOverflowError {}

/// Checked entry count of a `rows x cols` dense matrix: errors when `rows * cols`
/// (or its byte size `8 * rows * cols`) overflows `usize`.
pub fn checked_matrix_len(rows: usize, cols: usize) -> Result<usize, SizeOverflowError> {
    rows.checked_mul(cols)
        .and_then(|len| len.checked_mul(std::mem::size_of::<f64>()).map(|_| len))
        .ok_or(SizeOverflowError { rows, cols })
}

/// A dense row-major matrix of pairwise distances (or, more generally, non-negative
/// costs) with `rows x cols` entries.
///
/// For facility-location instances the convention throughout the workspace is
/// **rows = clients, columns = facilities**, i.e. `get(j, i) = d(client j, facility i)`,
/// matching the paper's `d(j, i)` notation. For clustering instances the matrix is
/// square and symmetric.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols` (including when `rows * cols` overflows)
    /// or any entry is negative or non-finite.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        Self::try_from_rows(rows, cols, data).expect("data length must equal rows*cols")
    }

    /// Checked variant of [`DistanceMatrix::from_rows`]: errors (instead of
    /// panicking/aborting) when the requested `rows * cols` shape overflows.
    ///
    /// # Panics
    /// Still panics if `data.len()` disagrees with a *representable* `rows * cols`,
    /// or if any entry is negative or non-finite — those are caller bugs, not
    /// instance-scale problems.
    pub fn try_from_rows(
        rows: usize,
        cols: usize,
        data: Vec<f64>,
    ) -> Result<Self, SizeOverflowError> {
        let len = checked_matrix_len(rows, cols)?;
        assert_eq!(data.len(), len, "data length must equal rows*cols");
        assert!(
            data.iter().all(|d| d.is_finite() && *d >= 0.0),
            "distances must be finite and non-negative"
        );
        Ok(DistanceMatrix { rows, cols, data })
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        assert!(value.is_finite() && value >= 0.0);
        let len = checked_matrix_len(rows, cols).expect("matrix shape overflows");
        DistanceMatrix {
            rows,
            cols,
            data: vec![value; len],
        }
    }

    /// Builds the rectangular distance matrix between two point sets in parallel:
    /// entry `(j, i)` is the distance from `from[j]` to `to[i]`.
    ///
    /// # Panics
    /// Panics if `from.len() * to.len()` overflows; see
    /// [`DistanceMatrix::try_between`] for the checked variant.
    pub fn between(from: &[Point], to: &[Point], kind: DistanceKind) -> Self {
        Self::try_between(from, to, kind).expect("matrix shape overflows")
    }

    /// Checked variant of [`DistanceMatrix::between`]: errors when the resulting
    /// `from.len() x to.len()` shape overflows instead of aborting on allocation.
    pub fn try_between(
        from: &[Point],
        to: &[Point],
        kind: DistanceKind,
    ) -> Result<Self, SizeOverflowError> {
        let rows = from.len();
        let cols = to.len();
        checked_matrix_len(rows, cols)?;
        let data: Vec<f64> = from
            .par_iter()
            .flat_map_iter(|p| to.iter().map(move |q| p.distance(q, kind)))
            .collect();
        Ok(DistanceMatrix { rows, cols, data })
    }

    /// Builds the symmetric pairwise distance matrix of a single point set in parallel.
    pub fn pairwise(points: &[Point], kind: DistanceKind) -> Self {
        Self::between(points, points, kind)
    }

    /// Number of rows (clients / nodes).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (facilities / nodes).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of entries `rows * cols` (the paper's `m` for facility location).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The entry at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Sets the entry at `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// A view of one row as a slice.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        debug_assert!(row < self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// The underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The transpose of the matrix, built in parallel over the output rows.
    pub fn transpose(&self) -> DistanceMatrix {
        let rows = self.cols;
        let cols = self.rows;
        let data: Vec<f64> = (0..rows)
            .into_par_iter()
            .flat_map_iter(|r| (0..cols).map(move |c| self.get(c, r)))
            .collect();
        DistanceMatrix { rows, cols, data }
    }

    /// Minimum entry of a row together with the column index attaining it.
    ///
    /// Ties are broken towards the smaller column index. Returns `None` for a matrix
    /// with zero columns.
    pub fn row_min(&self, row: usize) -> Option<(usize, f64)> {
        self.row(row)
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)))
    }

    /// Maximum entry of the whole matrix (0.0 for an empty matrix).
    pub fn max_entry(&self) -> f64 {
        self.data.iter().copied().fold(0.0, f64::max)
    }

    /// Minimum *strictly positive* entry of the matrix, if any.
    pub fn min_positive_entry(&self) -> Option<f64> {
        self.data
            .iter()
            .copied()
            .filter(|d| *d > 0.0)
            .min_by(|a, b| a.partial_cmp(b).unwrap())
    }

    /// Checks symmetry of a square matrix up to `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                if (self.get(r, c) - self.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// All distinct entry values, sorted ascending (used by the k-center binary search
    /// over the distance set `D` in Section 6.1).
    pub fn sorted_distinct_values(&self) -> Vec<f64> {
        let mut v = self.data.clone();
        v.par_sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DistanceMatrix {
        DistanceMatrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn indexing_and_rows() {
        let m = small();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.len(), 6);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = small();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 0), 3.0);
        assert_eq!(t.get(1, 1), 5.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn between_points_matches_direct_distance() {
        let a = vec![Point::xy(0.0, 0.0), Point::xy(1.0, 1.0)];
        let b = vec![Point::xy(3.0, 4.0)];
        let m = DistanceMatrix::between(&a, &b, DistanceKind::Euclidean);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 1);
        assert!((m.get(0, 0) - 5.0).abs() < 1e-12);
        assert!((m.get(1, 0) - a[1].euclidean(&b[0])).abs() < 1e-12);
    }

    #[test]
    fn pairwise_is_symmetric_with_zero_diagonal() {
        let pts: Vec<Point> = (0..10)
            .map(|i| Point::xy(i as f64, (i * i % 7) as f64))
            .collect();
        let m = DistanceMatrix::pairwise(&pts, DistanceKind::Euclidean);
        assert!(m.is_symmetric(1e-12));
        for i in 0..10 {
            assert_eq!(m.get(i, i), 0.0);
        }
    }

    #[test]
    fn row_min_and_extremes() {
        let m = small();
        assert_eq!(m.row_min(0), Some((0, 1.0)));
        assert_eq!(m.row_min(1), Some((0, 4.0)));
        assert_eq!(m.max_entry(), 6.0);
        assert_eq!(m.min_positive_entry(), Some(1.0));
    }

    #[test]
    fn min_positive_skips_zeros() {
        let m = DistanceMatrix::from_rows(1, 3, vec![0.0, 0.5, 2.0]);
        assert_eq!(m.min_positive_entry(), Some(0.5));
        let z = DistanceMatrix::filled(2, 2, 0.0);
        assert_eq!(z.min_positive_entry(), None);
    }

    #[test]
    fn sorted_distinct_values_dedups() {
        let m = DistanceMatrix::from_rows(2, 2, vec![3.0, 1.0, 3.0, 2.0]);
        assert_eq!(m.sorted_distinct_values(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn bad_length_panics() {
        let _ = DistanceMatrix::from_rows(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_entry_panics() {
        let _ = DistanceMatrix::from_rows(1, 2, vec![1.0, -2.0]);
    }

    #[test]
    fn overflowing_shapes_are_rejected_with_typed_error() {
        // rows * cols overflows usize outright.
        let err = checked_matrix_len(usize::MAX, 2).unwrap_err();
        assert_eq!(
            err,
            SizeOverflowError {
                rows: usize::MAX,
                cols: 2
            }
        );
        assert!(err.to_string().contains("implicit backend"));
        // rows * cols fits, but the byte size 8 * rows * cols does not.
        assert!(checked_matrix_len(usize::MAX / 4, 2).is_err());
        // Sane shapes pass through.
        assert_eq!(checked_matrix_len(3, 4), Ok(12));
        assert_eq!(checked_matrix_len(0, 7), Ok(0));
        // The checked constructor surfaces the same error instead of aborting.
        assert!(DistanceMatrix::try_from_rows(usize::MAX, 2, Vec::new()).is_err());
        let ok = DistanceMatrix::try_from_rows(1, 2, vec![1.0, 2.0]).unwrap();
        assert_eq!(ok.get(0, 1), 2.0);
    }
}

//! Structure-of-arrays point storage.
//!
//! [`SoaPoints`] stores `n` points in `R^d` as `d` contiguous coordinate
//! vectors (one per dimension) instead of `n` per-point heap allocations.
//! The blocked kernels in [`crate::block`] stream one coordinate axis at a
//! time through a cache tile of points, which is the layout LLVM needs to
//! autovectorize the inner loops. Built once from flat row-major
//! coordinates and shared (`Arc`) wherever the matching AoS points are.

/// `n` points stored as one contiguous `Vec<f64>` per dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct SoaPoints {
    n: usize,
    dims: Vec<Vec<f64>>,
}

impl SoaPoints {
    /// Builds from flat row-major coordinates (`coords[i * dim + d]` is
    /// coordinate `d` of point `i`). `dim == 0` stores `n` zero-dimensional
    /// points (all distances are the empty fold: `0.0`).
    ///
    /// # Panics
    /// Panics if `coords.len() != n * dim`.
    pub fn from_flat(coords: &[f64], dim: usize, n: usize) -> Self {
        assert_eq!(
            coords.len(),
            n * dim,
            "flat coordinate buffer has wrong length"
        );
        let mut dims = vec![vec![0.0; n]; dim];
        for (d, axis) in dims.iter_mut().enumerate() {
            for (i, slot) in axis.iter_mut().enumerate() {
                *slot = coords[i * dim + d];
            }
        }
        SoaPoints { n, dims }
    }

    /// Builds from flat row-major coordinates with a slot permutation: slot
    /// `s` of the result holds point `perm[s]` of `coords`. Used by the
    /// spatial structures, whose scan order is a build-time permutation of
    /// the input points.
    ///
    /// # Panics
    /// Panics if any `perm[s] * dim + dim` exceeds `coords.len()`.
    pub fn from_flat_permuted(coords: &[f64], dim: usize, perm: &[u32]) -> Self {
        let n = perm.len();
        let mut dims = vec![vec![0.0; n]; dim];
        for (d, axis) in dims.iter_mut().enumerate() {
            for (s, slot) in axis.iter_mut().enumerate() {
                *slot = coords[perm[s] as usize * dim + d];
            }
        }
        SoaPoints { n, dims }
    }

    /// Gathers a subset: slot `s` of the result holds point `ids[s]` of
    /// `self`. Used to build the candidate-set side of `nearest_in_set`.
    pub fn gather(&self, ids: &[u32]) -> Self {
        let mut dims = vec![vec![0.0; ids.len()]; self.dims.len()];
        for (d, axis) in dims.iter_mut().enumerate() {
            let src = &self.dims[d];
            for (s, slot) in axis.iter_mut().enumerate() {
                *slot = src[ids[s] as usize];
            }
        }
        SoaPoints { n: ids.len(), dims }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dims.len()
    }

    /// Coordinate `d` of point `i`.
    #[inline]
    pub fn coord(&self, d: usize, i: usize) -> f64 {
        self.dims[d][i]
    }

    /// The contiguous coordinate vector of axis `d`.
    #[inline]
    pub fn axis(&self, d: usize) -> &[f64] {
        &self.dims[d]
    }

    /// Heap bytes held by the coordinate vectors.
    pub fn memory_bytes(&self) -> usize {
        self.dims
            .iter()
            .map(|axis| axis.len() * std::mem::size_of::<f64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(n: usize, dim: usize) -> Vec<f64> {
        (0..n * dim)
            .map(|i| ((i * 2654435761) % 1000) as f64 / 7.0 - 60.0)
            .collect()
    }

    #[test]
    fn from_flat_round_trips_coordinates() {
        let coords = flat(10, 3);
        let soa = SoaPoints::from_flat(&coords, 3, 10);
        assert_eq!(soa.len(), 10);
        assert_eq!(soa.dim(), 3);
        for i in 0..10 {
            for d in 0..3 {
                assert_eq!(soa.coord(d, i), coords[i * 3 + d]);
            }
        }
    }

    #[test]
    fn permuted_and_gather_pick_the_right_points() {
        let coords = flat(8, 2);
        let perm: Vec<u32> = vec![5, 0, 7, 2];
        let soa = SoaPoints::from_flat_permuted(&coords, 2, &perm);
        assert_eq!(soa.len(), 4);
        for (s, &p) in perm.iter().enumerate() {
            assert_eq!(soa.coord(0, s), coords[p as usize * 2]);
            assert_eq!(soa.coord(1, s), coords[p as usize * 2 + 1]);
        }
        let sub = SoaPoints::from_flat(&coords, 2, 8).gather(&perm);
        assert_eq!(sub, soa);
    }

    #[test]
    fn zero_dimensional_points_are_allowed() {
        let soa = SoaPoints::from_flat(&[], 0, 5);
        assert_eq!(soa.len(), 5);
        assert_eq!(soa.dim(), 0);
    }

    #[test]
    fn memory_bytes_counts_every_axis() {
        let soa = SoaPoints::from_flat(&flat(6, 3), 3, 6);
        assert_eq!(soa.memory_bytes(), 3 * 6 * 8);
    }
}

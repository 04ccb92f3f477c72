//! Deterministic ε-coresets over the uniform grid, and the unified
//! instance-construction error type.
//!
//! The clustering local searches evaluate `k · (n − k)` candidate swaps per
//! round, each an `O(n)` sweep — an `O(k · n²)` transient that no distance
//! backend can hide. The coreset path sidesteps it with the classic
//! solve-small-then-map-back shape: snap every point to a uniform grid with
//! `ceil(1/ε)` cells per axis over the bounding box, keep one **lowest-id
//! medoid** per occupied cell weighted by the cell's population, run the
//! solver on that weighted sub-instance (its size is bounded by the grid
//! resolution, independent of `n`), and finish with a single
//! `nearest_in_set_all` sweep assigning every original point to the chosen
//! centers.
//!
//! Determinism comes for free from three choices:
//!
//! * the representative is a *medoid* (an actual input point, the smallest
//!   index in its cell), not a centroid — so coreset distances are ordinary
//!   oracle distances, bit-identical under every backend;
//! * weights are cell populations — integers stored exactly in `f64`;
//! * the single pass over the points is sequential and the occupied cells
//!   are sorted by representative id afterwards, so hash-map iteration
//!   order is unobservable and thread count cannot matter.

use crate::distmat::{DistanceMatrix, SizeOverflowError};
use crate::instance::ClusterInstance;
use crate::oracle::DistanceOracle;
use crate::point::Point;
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// Coreset knob threaded from the CLI / `RunConfig` into the clustering
/// solvers: `Off` solves on the full instance, `Eps(ε)` solves on the grid
/// coreset and maps the centers back.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Coreset {
    /// Solve on the full instance (the historical path).
    #[default]
    Off,
    /// Solve on the ε-grid coreset (`ceil(1/ε)` cells per axis), then do one
    /// full-set assignment sweep.
    Eps(f64),
}

impl Coreset {
    /// Canonical spelling, the inverse of [`Coreset::from_str`].
    pub fn as_string(&self) -> String {
        match self {
            Coreset::Off => "off".to_string(),
            Coreset::Eps(e) => format!("eps:{e}"),
        }
    }
}

impl fmt::Display for Coreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_string())
    }
}

impl FromStr for Coreset {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim().to_lowercase();
        if s == "off" {
            return Ok(Coreset::Off);
        }
        if let Some(rest) = s.strip_prefix("eps:") {
            let eps: f64 = rest
                .parse()
                .map_err(|_| format!("invalid coreset epsilon '{rest}'"))?;
            if !eps.is_finite() || eps <= 0.0 {
                return Err(format!(
                    "coreset epsilon must be finite and positive, got '{rest}'"
                ));
            }
            return Ok(Coreset::Eps(eps));
        }
        Err(format!(
            "unknown coreset spec '{s}' (expected off or eps:<f64>)"
        ))
    }
}

/// A weighted grid coreset of a point set: one lowest-id medoid per occupied
/// grid cell, weighted by the cell's population.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCoreset {
    /// Indices of the representative points, strictly ascending.
    representatives: Vec<usize>,
    /// `weights[i]` = number of input points in `representatives[i]`'s cell
    /// (an integer stored exactly in `f64`).
    weights: Vec<f64>,
    /// The ε the grid was built for.
    eps: f64,
    /// Grid resolution: `ceil(1/ε)` cells per axis.
    cells_per_axis: usize,
}

impl GridCoreset {
    /// Representative point indices into the original point set, strictly
    /// ascending.
    pub fn representatives(&self) -> &[usize] {
        &self.representatives
    }

    /// Cell populations, aligned with [`GridCoreset::representatives`].
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The ε the grid was built for.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Grid resolution per axis (`ceil(1/ε)`).
    pub fn cells_per_axis(&self) -> usize {
        self.cells_per_axis
    }

    /// Number of representatives (occupied cells).
    pub fn len(&self) -> usize {
        self.representatives.len()
    }

    /// Whether the coreset is empty (only for an empty input).
    pub fn is_empty(&self) -> bool {
        self.representatives.is_empty()
    }
}

/// Builds the deterministic ε-grid coreset of a point set.
///
/// The bounding box is split into `ceil(1/ε)` cells per axis; each occupied
/// cell contributes its lowest-index point as representative, weighted by
/// the cell's population. The output size is at most
/// `min(n, ceil(1/ε)^dim)` — independent of `n` once the grid saturates.
/// The pass is sequential (`O(n · dim)`), so the result is identical at any
/// thread count; representatives come back sorted ascending.
///
/// # Panics
/// Panics if `eps` is not finite and positive, or if the points disagree on
/// dimension.
pub fn build_coreset(points: &[Point], eps: f64) -> GridCoreset {
    assert!(
        eps.is_finite() && eps > 0.0,
        "coreset epsilon must be finite and positive"
    );
    let cells_per_axis = ((1.0 / eps).ceil() as usize).max(1);
    if points.is_empty() {
        return GridCoreset {
            representatives: Vec::new(),
            weights: Vec::new(),
            eps,
            cells_per_axis,
        };
    }
    let dim = points[0].dim();
    let mut lo = points[0].coords().to_vec();
    let mut hi = lo.clone();
    for p in points {
        assert_eq!(p.dim(), dim, "points must share a dimension");
        for (a, &c) in p.coords().iter().enumerate() {
            lo[a] = lo[a].min(c);
            hi[a] = hi[a].max(c);
        }
    }
    // Per-axis cell side; a degenerate axis (all points equal) collapses to
    // a single cell on that axis.
    let side: Vec<f64> = lo
        .iter()
        .zip(&hi)
        .map(|(&l, &h)| (h - l) / cells_per_axis as f64)
        .collect();
    let mut cells: HashMap<Vec<usize>, (usize, f64)> = HashMap::new();
    let mut key = vec![0usize; dim];
    for (idx, p) in points.iter().enumerate() {
        for (a, k) in key.iter_mut().enumerate() {
            let s = side[a];
            *k = if s > 0.0 {
                // The top edge belongs to the last cell.
                (((p.coords()[a] - lo[a]) / s) as usize).min(cells_per_axis - 1)
            } else {
                0
            };
        }
        let entry = cells.entry(key.clone()).or_insert((idx, 0.0));
        entry.1 += 1.0;
    }
    // Sorting by representative id makes hash-map iteration order
    // unobservable; the first point seen in a cell is its lowest index, so
    // the stored id is already the medoid.
    let mut reps: Vec<(usize, f64)> = cells.into_values().collect();
    reps.sort_unstable_by_key(|&(id, _)| id);
    let (representatives, weights) = reps.into_iter().unzip();
    GridCoreset {
        representatives,
        weights,
        eps,
        cells_per_axis,
    }
}

/// Materialises the weighted dense sub-instance induced by a coreset.
///
/// Each representative row is gathered through the parent oracle's blocked
/// kernels ([`DistanceOracle::row_gather`]), so the sub-matrix is
/// bit-identical under every parent backend, and the cell populations ride
/// along as per-node weights.
pub fn coreset_instance(inst: &ClusterInstance, coreset: &GridCoreset) -> ClusterInstance {
    let k = coreset.len();
    let mut data = vec![0.0; k * k];
    let oracle = inst.distances();
    for (r, &rep) in coreset.representatives().iter().enumerate() {
        oracle.row_gather(
            rep,
            coreset.representatives(),
            &mut data[r * k..(r + 1) * k],
        );
    }
    ClusterInstance::new(DistanceMatrix::from_rows(k, k, data))
        .with_weights(coreset.weights().to_vec())
}

/// Unified error type for instance construction, returned by the
/// backend-parameterized builders (`gen::build_facility_location`,
/// `FlInstance::build`, …) and mapped into `SolveError` at the registry
/// boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildError {
    /// The dense `rows x cols` shape overflows memory arithmetic.
    SizeOverflow(SizeOverflowError),
    /// The dense matrix is representable but larger than a caller-imposed
    /// byte cap (the CLI refuses >4 GiB allocations this way).
    DenseBytesExceedCap {
        /// Requested rows.
        rows: usize,
        /// Requested columns.
        cols: usize,
        /// The cap that was exceeded, in bytes.
        cap_bytes: u64,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::SizeOverflow(e) => e.fmt(f),
            BuildError::DenseBytesExceedCap {
                rows,
                cols,
                cap_bytes,
            } => {
                let bytes = (*rows as u128) * (*cols as u128) * 8;
                write!(
                    f,
                    "the dense backend would materialise a {:.1} GiB distance matrix \
                     ({rows} x {cols}), past the {:.1} GiB cap; use --backend implicit or \
                     --backend spatial, which stay O(points) at any size \
                     (e.g. `--gen xxlarge --backend spatial`)",
                    bytes as f64 / (1u64 << 30) as f64,
                    *cap_bytes as f64 / (1u64 << 30) as f64,
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<SizeOverflowError> for BuildError {
    fn from(e: SizeOverflowError) -> Self {
        BuildError::SizeOverflow(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, GenParams};
    use crate::oracle::Backend;

    #[test]
    fn coreset_spec_round_trips() {
        assert_eq!("off".parse::<Coreset>().unwrap(), Coreset::Off);
        assert_eq!("OFF ".parse::<Coreset>().unwrap(), Coreset::Off);
        assert_eq!("eps:0.25".parse::<Coreset>().unwrap(), Coreset::Eps(0.25));
        for cs in [Coreset::Off, Coreset::Eps(0.1), Coreset::Eps(0.25)] {
            assert_eq!(cs.to_string().parse::<Coreset>().unwrap(), cs);
        }
        assert!("eps:0".parse::<Coreset>().is_err());
        assert!("eps:-1".parse::<Coreset>().is_err());
        assert!("eps:nan".parse::<Coreset>().is_err());
        assert!("grid".parse::<Coreset>().is_err());
    }

    #[test]
    fn grid_coreset_covers_and_bounds_size() {
        let inst = gen::build_clustering(
            GenParams::uniform_square(500, 500).with_seed(7),
            Backend::Implicit,
        )
        .unwrap();
        let pts = inst.points().unwrap();
        let cs = build_coreset(pts, 0.1);
        assert_eq!(cs.cells_per_axis(), 10);
        assert!(cs.len() <= 100, "at most 10x10 occupied cells");
        assert!(cs.len() > 10, "uniform points occupy many cells");
        // Representatives are strictly ascending valid indices; weights are
        // positive integers summing to n.
        assert!(cs.representatives().windows(2).all(|w| w[0] < w[1]));
        assert!(cs.representatives().iter().all(|&r| r < pts.len()));
        assert!(cs.weights().iter().all(|&w| w >= 1.0 && w.fract() == 0.0));
        let total: f64 = cs.weights().iter().sum();
        assert_eq!(total, pts.len() as f64);
        // Every point is within the cell diagonal of some representative:
        // side = extent/10, diagonal = sqrt(2) * side ≈ 14.2 per 100-side box.
        let reps: Vec<&Point> = cs.representatives().iter().map(|&r| &pts[r]).collect();
        let diag = 2.0_f64.sqrt() * 100.0 / 10.0 + 1e-9;
        for p in pts {
            let d = reps
                .iter()
                .map(|r| p.euclidean(r))
                .fold(f64::INFINITY, f64::min);
            assert!(d <= diag, "point {d} beyond cell diagonal {diag}");
        }
    }

    #[test]
    fn coreset_is_backend_and_thread_invariant() {
        let params = GenParams::gaussian_clusters(300, 300, 6).with_seed(3);
        let mut built = Vec::new();
        for backend in [Backend::Dense, Backend::Implicit, Backend::Spatial] {
            let inst = gen::build_clustering(params, backend).unwrap();
            let cs = build_coreset(inst.points().unwrap(), 0.2);
            let sub = coreset_instance(&inst, &cs);
            built.push((cs, sub));
        }
        for (cs, sub) in &built[1..] {
            assert_eq!(cs, &built[0].0);
            assert_eq!(sub.distances(), built[0].1.distances());
            assert_eq!(sub.weights(), built[0].1.weights());
        }
    }

    #[test]
    fn degenerate_inputs() {
        // Empty input -> empty coreset.
        let cs = build_coreset(&[], 0.5);
        assert!(cs.is_empty());
        // All-coincident points collapse to one cell.
        let pts = vec![Point::xy(3.0, 4.0); 20];
        let cs = build_coreset(&pts, 0.1);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs.representatives(), &[0]);
        assert_eq!(cs.weights(), &[20.0]);
        // eps >= 1 -> a single cell per axis.
        let pts = vec![Point::xy(0.0, 0.0), Point::xy(1.0, 1.0)];
        let cs = build_coreset(&pts, 2.0);
        assert_eq!(cs.cells_per_axis(), 1);
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn coreset_instance_carries_parent_distances() {
        let inst = gen::build_clustering(
            GenParams::uniform_square(64, 64).with_seed(1),
            Backend::Spatial,
        )
        .unwrap();
        let cs = build_coreset(inst.points().unwrap(), 0.3);
        let sub = coreset_instance(&inst, &cs);
        assert_eq!(sub.n(), cs.len());
        for (a, &ra) in cs.representatives().iter().enumerate() {
            for (b, &rb) in cs.representatives().iter().enumerate() {
                assert_eq!(sub.dist(a, b).to_bits(), inst.dist(ra, rb).to_bits());
            }
        }
        assert_eq!(sub.weights().unwrap(), cs.weights());
    }

    #[test]
    fn build_error_display_points_at_backends() {
        let overflow = BuildError::from(SizeOverflowError {
            rows: usize::MAX,
            cols: 2,
        });
        assert!(overflow.to_string().contains("implicit backend"));
        let cap = BuildError::DenseBytesExceedCap {
            rows: 10_000_000,
            cols: 100,
            cap_bytes: crate::SCRATCH_BYTES_CAP,
        };
        let msg = cap.to_string();
        assert!(msg.contains("GiB"), "{msg}");
        assert!(msg.contains("spatial"), "{msg}");
    }
}

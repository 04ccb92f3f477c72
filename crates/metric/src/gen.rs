//! Synthetic instance generators.
//!
//! The paper evaluates nothing empirically and ships no datasets, so the benchmark
//! harness needs synthetic workloads. The generators here cover the regimes the paper's
//! analyses care about:
//!
//! * **Uniform random** points in a square — the "typical" unstructured workload.
//! * **Gaussian clusters** — well-separated cluster structure, the easy case for all
//!   algorithms and the motivating case for k-median/k-means.
//! * **Grid** — highly regular instance with massive cost ties, which stresses the
//!   `(1 + ε)`-slack selection steps (many elements fall inside the slack window at
//!   once).
//! * **Line** — a 1-dimensional metric; the adversarial shape for greedy/local-search
//!   style algorithms because clusters are ambiguous at every scale.
//! * **Planted clusters** — `k` well-separated blobs of equal size, for which tight
//!   lower bounds on the optimal k-center/k-median cost are easy to compute.
//!
//! Facility opening costs come from a [`FacilityCostModel`], and everything is seeded so
//! experiments are reproducible.

use crate::coreset::BuildError;
use crate::distmat::{DistanceMatrix, SizeOverflowError};
use crate::instance::{ClusterInstance, FlInstance};
use crate::oracle::{Backend, DistanceOracle, ImplicitMetric, Oracle, SpatialOracle};
use crate::point::{DistanceKind, Point};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// How client / facility / node positions are laid out in space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpatialModel {
    /// Points drawn uniformly at random from an axis-aligned square `[0, side]^2`.
    UniformSquare {
        /// Side length of the square.
        side: f64,
    },
    /// `clusters` Gaussian blobs with centres drawn uniformly from `[0, side]^2` and
    /// per-coordinate standard deviation `std`.
    GaussianClusters {
        /// Number of blobs.
        clusters: usize,
        /// Standard deviation of each blob.
        std: f64,
        /// Side length of the square containing the blob centres.
        side: f64,
    },
    /// Points on the integer grid `{0, .., w-1} x {0, .., h-1}`, scaled by `spacing`.
    /// Extra points (beyond `w*h`) wrap around with a small deterministic jitter so the
    /// generator still produces the requested count.
    Grid {
        /// Grid width (number of columns).
        width: usize,
        /// Distance between adjacent grid points.
        spacing: f64,
    },
    /// Points on a line with unit spacing — a 1-dimensional metric.
    Line {
        /// Distance between consecutive points.
        spacing: f64,
    },
    /// `clusters` tightly packed blobs of radius `radius` whose centres are at mutual
    /// distance at least `separation`; used when a known cluster structure (and hence an
    /// easy lower bound) is wanted.
    PlantedClusters {
        /// Number of blobs (the intended `k`).
        clusters: usize,
        /// Maximum distance of a point from its blob centre.
        radius: f64,
        /// Minimum distance between blob centres.
        separation: f64,
    },
    /// Clusters whose sizes decay as a power law: cluster `h` holds
    /// `max(1, floor(sqrt(count) / (h+1)^exponent))` points inside a disk of
    /// radius `radius`, centres laid out on a coarse grid at pitch
    /// `separation`. With a threshold between `2·radius` and
    /// `separation - 2·radius` the threshold graph is a disjoint union of
    /// cliques whose sizes follow the power law — a handful of heavy hubs, a
    /// long tail of singletons, and (for `exponent > 1`) only `O(count)`
    /// edges in total, no matter how large `count` grows. This is the sparse
    /// regime only a sparse (CSR) threshold graph reaches at scale.
    PowerLawClusters {
        /// Decay exponent of the cluster sizes (`> 1` keeps total edges
        /// linear in the point count).
        exponent: f64,
        /// Maximum distance of a point from its cluster centre.
        radius: f64,
        /// Pitch of the grid the cluster centres sit on.
        separation: f64,
    },
    /// A road-network-like metric: points sit on the lines of a `g × g`
    /// grid of "roads" at pitch `block` (with `g ≈ sqrt(count)`), uniformly
    /// positioned along a random road with a small perpendicular `jitter`.
    /// Linear density along a road is about `1/(2·block)` per unit length,
    /// so with a threshold `t` the threshold graph has expected degree
    /// `≈ t/block` — a bounded-degree, locally linear metric like a road
    /// map, again with `O(count)` edges at any fixed threshold.
    RoadNetwork {
        /// Distance between adjacent parallel roads.
        block: f64,
        /// Maximum perpendicular deviation of a point from its road.
        jitter: f64,
    },
}

/// How facility opening costs are generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FacilityCostModel {
    /// Every facility costs the same fixed amount.
    Uniform(f64),
    /// Costs drawn uniformly at random from `[lo, hi]`.
    UniformRange {
        /// Lower bound of the cost range.
        lo: f64,
        /// Upper bound of the cost range.
        hi: f64,
    },
    /// Every facility cost is `factor` times the spatial extent (maximum pairwise
    /// distance scale) of the instance; keeps facility and connection costs comparable
    /// regardless of the spatial model.
    ProportionalToSpread(f64),
    /// All facilities are free; the optimum then opens everything and the problem
    /// degenerates to nearest-facility assignment (useful as an edge case in tests).
    Zero,
}

/// Full parameter set for the generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenParams {
    /// Number of clients (or nodes, for clustering instances).
    pub num_clients: usize,
    /// Number of facilities (ignored by clustering instances).
    pub num_facilities: usize,
    /// Spatial layout of the points.
    pub spatial: SpatialModel,
    /// Facility opening-cost model.
    pub cost_model: FacilityCostModel,
    /// Distance function used to materialise matrices.
    pub distance: DistanceKind,
    /// RNG seed; the same parameters and seed always produce the same instance.
    pub seed: u64,
}

impl GenParams {
    /// Uniform-square layout with proportional facility costs — the workhorse workload.
    pub fn uniform_square(num_clients: usize, num_facilities: usize) -> Self {
        GenParams {
            num_clients,
            num_facilities,
            spatial: SpatialModel::UniformSquare { side: 100.0 },
            cost_model: FacilityCostModel::ProportionalToSpread(0.25),
            distance: DistanceKind::Euclidean,
            seed: 0x0FAC_110C,
        }
    }

    /// Gaussian-cluster layout with `clusters` blobs.
    pub fn gaussian_clusters(num_clients: usize, num_facilities: usize, clusters: usize) -> Self {
        GenParams {
            spatial: SpatialModel::GaussianClusters {
                clusters,
                std: 2.0,
                side: 100.0,
            },
            ..GenParams::uniform_square(num_clients, num_facilities)
        }
    }

    /// Regular grid layout (many distance ties).
    pub fn grid(num_clients: usize, num_facilities: usize) -> Self {
        let width = (num_clients.max(num_facilities) as f64).sqrt().ceil() as usize;
        GenParams {
            spatial: SpatialModel::Grid {
                width: width.max(2),
                spacing: 1.0,
            },
            ..GenParams::uniform_square(num_clients, num_facilities)
        }
    }

    /// Line-metric layout (1-dimensional adversarial instance).
    pub fn line(num_clients: usize, num_facilities: usize) -> Self {
        GenParams {
            spatial: SpatialModel::Line { spacing: 1.0 },
            ..GenParams::uniform_square(num_clients, num_facilities)
        }
    }

    /// Planted-cluster layout with `clusters` well-separated blobs.
    pub fn planted(num_clients: usize, num_facilities: usize, clusters: usize) -> Self {
        GenParams {
            spatial: SpatialModel::PlantedClusters {
                clusters,
                radius: 1.0,
                separation: 50.0,
            },
            ..GenParams::uniform_square(num_clients, num_facilities)
        }
    }

    /// Power-law-cluster layout: clique sizes decay as a power law, total
    /// threshold-graph edges stay `O(n)` (see
    /// [`SpatialModel::PowerLawClusters`]). Thresholds in `(2, 48)` keep
    /// clusters disconnected from each other.
    pub fn power_law(num_clients: usize, num_facilities: usize) -> Self {
        GenParams {
            spatial: SpatialModel::PowerLawClusters {
                exponent: 1.5,
                radius: 1.0,
                separation: 50.0,
            },
            ..GenParams::uniform_square(num_clients, num_facilities)
        }
    }

    /// Road-network layout: bounded-degree locally linear metric (see
    /// [`SpatialModel::RoadNetwork`]). A threshold `t` gives expected
    /// threshold-graph degree `≈ t` (block pitch 1).
    pub fn road(num_clients: usize, num_facilities: usize) -> Self {
        GenParams {
            spatial: SpatialModel::RoadNetwork {
                block: 1.0,
                jitter: 0.05,
            },
            ..GenParams::uniform_square(num_clients, num_facilities)
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the facility cost model.
    pub fn with_cost_model(mut self, cost_model: FacilityCostModel) -> Self {
        self.cost_model = cost_model;
        self
    }
}

/// A named generator configuration, used by the experiment harness to sweep over a
/// standard suite of workloads.
#[derive(Debug, Clone)]
pub struct NamedWorkload {
    /// Short human-readable name (appears in experiment tables).
    pub name: &'static str,
    /// The generator parameters.
    pub params: GenParams,
}

/// The standard workload suite used by the experiments in `EXPERIMENTS.md`.
pub fn standard_suite(num_clients: usize, num_facilities: usize, seed: u64) -> Vec<NamedWorkload> {
    vec![
        NamedWorkload {
            name: "uniform",
            params: GenParams::uniform_square(num_clients, num_facilities).with_seed(seed),
        },
        NamedWorkload {
            name: "clustered",
            params: GenParams::gaussian_clusters(num_clients, num_facilities, 8).with_seed(seed),
        },
        NamedWorkload {
            name: "grid",
            params: GenParams::grid(num_clients, num_facilities).with_seed(seed),
        },
        NamedWorkload {
            name: "line",
            params: GenParams::line(num_clients, num_facilities).with_seed(seed),
        },
        NamedWorkload {
            name: "planted",
            params: GenParams::planted(num_clients, num_facilities, 8).with_seed(seed),
        },
    ]
}

/// Deterministic, seedable instance generator.
pub struct InstanceGenerator {
    params: GenParams,
    rng: ChaCha8Rng,
}

impl InstanceGenerator {
    /// Creates a generator for the given parameters.
    pub fn new(params: GenParams) -> Self {
        InstanceGenerator {
            rng: ChaCha8Rng::seed_from_u64(params.seed),
            params,
        }
    }

    /// The parameters this generator was constructed with.
    pub fn params(&self) -> &GenParams {
        &self.params
    }

    fn sample_points(&mut self, count: usize) -> Vec<Point> {
        match self.params.spatial {
            SpatialModel::UniformSquare { side } => (0..count)
                .map(|_| Point::xy(self.rng.gen::<f64>() * side, self.rng.gen::<f64>() * side))
                .collect(),
            SpatialModel::GaussianClusters {
                clusters,
                std,
                side,
            } => {
                let clusters = clusters.max(1);
                let centers: Vec<(f64, f64)> = (0..clusters)
                    .map(|_| (self.rng.gen::<f64>() * side, self.rng.gen::<f64>() * side))
                    .collect();
                (0..count)
                    .map(|idx| {
                        let (cx, cy) = centers[idx % clusters];
                        // Box–Muller transform for Gaussian offsets.
                        let (u1, u2) = (
                            self.rng.gen::<f64>().max(f64::MIN_POSITIVE),
                            self.rng.gen::<f64>(),
                        );
                        let r = (-2.0 * u1.ln()).sqrt();
                        let (dx, dy) = (
                            r * (2.0 * std::f64::consts::PI * u2).cos(),
                            r * (2.0 * std::f64::consts::PI * u2).sin(),
                        );
                        Point::xy(cx + std * dx, cy + std * dy)
                    })
                    .collect()
            }
            SpatialModel::Grid { width, spacing } => (0..count)
                .map(|idx| {
                    let x = (idx % width) as f64 * spacing;
                    let y = (idx / width) as f64 * spacing;
                    Point::xy(x, y)
                })
                .collect(),
            SpatialModel::Line { spacing } => (0..count)
                .map(|idx| Point::scalar(idx as f64 * spacing))
                .collect(),
            SpatialModel::PlantedClusters {
                clusters,
                radius,
                separation,
            } => {
                let clusters = clusters.max(1);
                // Place blob centres on a coarse line so mutual distances are exactly
                // multiples of `separation`.
                let centers: Vec<(f64, f64)> = (0..clusters)
                    .map(|c| (c as f64 * separation, 0.0))
                    .collect();
                (0..count)
                    .map(|idx| {
                        let (cx, cy) = centers[idx % clusters];
                        let angle = self.rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
                        let r = self.rng.gen::<f64>() * radius;
                        Point::xy(cx + r * angle.cos(), cy + r * angle.sin())
                    })
                    .collect()
            }
            SpatialModel::PowerLawClusters {
                exponent,
                radius,
                separation,
            } => {
                // Cluster `h` holds `max(1, floor(sqrt(count)/(h+1)^exponent))`
                // points; with exponent > 1 the big clusters hold O(sqrt(count))
                // points each, so the per-cluster cliques of the threshold graph
                // contribute O(count) edges in total. Centres sit on a coarse
                // grid at pitch `separation`, one cluster per cell.
                let base = (count as f64).sqrt().ceil().max(1.0);
                let grid_w = (base as usize).max(1);
                let mut pts = Vec::with_capacity(count);
                let mut cluster = 0usize;
                while pts.len() < count {
                    let size = (base / ((cluster + 1) as f64).powf(exponent)).floor() as usize;
                    let size = size.max(1).min(count - pts.len());
                    let cx = (cluster % grid_w) as f64 * separation;
                    let cy = (cluster / grid_w) as f64 * separation;
                    for _ in 0..size {
                        let angle = self.rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
                        let r = self.rng.gen::<f64>() * radius;
                        pts.push(Point::xy(cx + r * angle.cos(), cy + r * angle.sin()));
                    }
                    cluster += 1;
                }
                pts
            }
            SpatialModel::RoadNetwork { block, jitter } => {
                // A g × g grid of roads, g ≈ sqrt(count): each point picks an
                // orientation and a road uniformly, a uniform position along
                // it, and a small perpendicular jitter. About count/(2g)
                // points share a road of length g·block, so linear density —
                // and with it threshold-graph degree — is independent of
                // count.
                let g = ((count as f64).sqrt().ceil() as usize).max(2);
                let extent = g as f64 * block;
                (0..count)
                    .map(|_| {
                        let vertical = self.rng.gen::<f64>() < 0.5;
                        let line = ((self.rng.gen::<f64>() * g as f64) as usize).min(g - 1);
                        let along = self.rng.gen::<f64>() * extent;
                        let perp = line as f64 * block + jitter * (self.rng.gen::<f64>() - 0.5);
                        if vertical {
                            Point::xy(perp, along)
                        } else {
                            Point::xy(along, perp)
                        }
                    })
                    .collect()
            }
        }
    }

    fn facility_costs(&mut self, count: usize, spread: f64) -> Vec<f64> {
        match self.params.cost_model {
            FacilityCostModel::Uniform(c) => vec![c; count],
            FacilityCostModel::UniformRange { lo, hi } => {
                assert!(lo <= hi && lo >= 0.0, "invalid facility cost range");
                (0..count).map(|_| self.rng.gen_range(lo..=hi)).collect()
            }
            FacilityCostModel::ProportionalToSpread(factor) => vec![factor * spread; count],
            FacilityCostModel::Zero => vec![0.0; count],
        }
    }

    /// Generates a dense-backend facility-location instance.
    ///
    /// # Panics
    /// Panics (with the [`SizeOverflowError`] message) if the dense
    /// `num_clients x num_facilities` matrix shape overflows; use
    /// [`InstanceGenerator::build_facility_location`] with a point-backed
    /// backend at such sizes.
    pub fn facility_location(&mut self) -> FlInstance {
        self.try_facility_location()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked dense generation: rejects overflowing matrix shapes with a typed
    /// error instead of a capacity abort — before sampling a single point.
    pub fn try_facility_location(&mut self) -> Result<FlInstance, SizeOverflowError> {
        crate::distmat::checked_matrix_len(self.params.num_clients, self.params.num_facilities)?;
        let clients = self.sample_points(self.params.num_clients);
        let facilities = self.sample_points(self.params.num_facilities);
        let dist = DistanceMatrix::try_between(&clients, &facilities, self.params.distance)?;
        let spread = dist.max_entry().max(1.0);
        let costs = self.facility_costs(self.params.num_facilities, spread);
        Ok(FlInstance::new(costs, dist).with_points(clients, facilities))
    }

    /// The backend-parameterized generator: produces the facility-location
    /// instance under the requested [`Backend`]. Every backend draws the
    /// same RNG stream, so points, spread and costs — and therefore every
    /// distance — are bit-identical across the three.
    ///
    /// The dense path reports overflowing matrix shapes as a typed
    /// [`BuildError`] **before sampling a single point**; the point-backed
    /// backends have no shape limit and stay `O(|C| + |F|)` in memory
    /// (spatial being the one that makes the 10M-point `xxlarge` preset
    /// practical).
    pub fn build_facility_location(&mut self, backend: Backend) -> Result<FlInstance, BuildError> {
        match backend {
            Backend::Dense => self.try_facility_location().map_err(BuildError::from),
            Backend::Implicit | Backend::Spatial => {
                let clients = self.sample_points(self.params.num_clients);
                let facilities = self.sample_points(self.params.num_facilities);
                let oracle = ImplicitMetric::between(clients, facilities, self.params.distance);
                let spread = oracle.max_entry().max(1.0);
                let costs = self.facility_costs(self.params.num_facilities, spread);
                let oracle = if backend == Backend::Implicit {
                    Oracle::Implicit(oracle)
                } else {
                    Oracle::Spatial(SpatialOracle::from_implicit(oracle))
                };
                Ok(FlInstance::with_oracle(costs, oracle))
            }
        }
    }

    /// Generates a dense-backend clustering instance over `num_clients` nodes (the
    /// `num_facilities` parameter is ignored: every node is a potential center).
    ///
    /// # Panics
    /// Panics (with the [`SizeOverflowError`] message) if the dense `n x n` shape
    /// overflows; use [`InstanceGenerator::build_clustering`] with a
    /// point-backed backend at such sizes.
    pub fn clustering(&mut self) -> ClusterInstance {
        self.try_clustering().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked dense generation: rejects overflowing matrix shapes with a typed
    /// error instead of a capacity abort — before sampling a single point.
    pub fn try_clustering(&mut self) -> Result<ClusterInstance, SizeOverflowError> {
        crate::distmat::checked_matrix_len(self.params.num_clients, self.params.num_clients)?;
        let points = self.sample_points(self.params.num_clients);
        let dist = DistanceMatrix::try_between(&points, &points, self.params.distance)?;
        Ok(ClusterInstance::new(dist).with_points(points))
    }

    /// The backend-parameterized generator for clustering instances: same
    /// points as [`InstanceGenerator::clustering`] for the same parameters
    /// and seed (same RNG stream, bit-identical distances) under any
    /// [`Backend`]. The point-backed backends store the points once
    /// (`O(n)` memory); the dense path reports overflowing `n x n` shapes
    /// as a typed [`BuildError`] before sampling.
    pub fn build_clustering(&mut self, backend: Backend) -> Result<ClusterInstance, BuildError> {
        match backend {
            Backend::Dense => self.try_clustering().map_err(BuildError::from),
            Backend::Implicit | Backend::Spatial => {
                let points = self.sample_points(self.params.num_clients);
                ClusterInstance::build(points, self.params.distance, backend)
            }
        }
    }
}

/// Convenience: generate a dense facility-location instance directly from parameters.
///
/// # Panics
/// Panics on overflowing dense shapes; use [`build_facility_location`] for
/// the checked, backend-parameterized path.
pub fn facility_location(params: GenParams) -> FlInstance {
    InstanceGenerator::new(params).facility_location()
}

/// Generate a facility-location instance under the given backend — the one
/// construction entry point for every backend. The dense path reports
/// overflowing shapes as a typed [`BuildError`]; the point-backed paths
/// have no shape limit.
pub fn build_facility_location(
    params: GenParams,
    backend: Backend,
) -> Result<FlInstance, BuildError> {
    InstanceGenerator::new(params).build_facility_location(backend)
}

/// Convenience: generate a dense clustering instance directly from parameters.
///
/// # Panics
/// Panics on overflowing dense shapes; use [`build_clustering`] for the
/// checked, backend-parameterized path.
pub fn clustering(params: GenParams) -> ClusterInstance {
    InstanceGenerator::new(params).clustering()
}

/// Generate a clustering instance under the given backend (see
/// [`build_facility_location`]).
pub fn build_clustering(
    params: GenParams,
    backend: Backend,
) -> Result<ClusterInstance, BuildError> {
    InstanceGenerator::new(params).build_clustering(backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate;

    #[test]
    fn uniform_square_dimensions() {
        let inst = facility_location(GenParams::uniform_square(20, 10).with_seed(1));
        assert_eq!(inst.num_clients(), 20);
        assert_eq!(inst.num_facilities(), 10);
        assert_eq!(inst.m(), 200);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = facility_location(GenParams::uniform_square(16, 8).with_seed(42));
        let b = facility_location(GenParams::uniform_square(16, 8).with_seed(42));
        let c = facility_location(GenParams::uniform_square(16, 8).with_seed(43));
        assert_eq!(a.distances(), b.distances());
        assert_eq!(a.facility_costs(), b.facility_costs());
        assert_ne!(a.distances(), c.distances());
    }

    #[test]
    fn all_spatial_models_produce_valid_metrics() {
        for wl in standard_suite(24, 12, 5) {
            let inst = facility_location(wl.params);
            assert!(
                validate::check_fl_metric(&inst, 1e-6).is_ok(),
                "workload {} violated metric axioms",
                wl.name
            );
        }
    }

    #[test]
    fn clustering_instances_are_symmetric() {
        for wl in standard_suite(20, 20, 9) {
            let inst = clustering(wl.params);
            assert_eq!(inst.n(), 20);
            assert!(inst.distances().is_symmetric(1e-9), "workload {}", wl.name);
        }
    }

    #[test]
    fn cost_models() {
        let base = GenParams::uniform_square(8, 8).with_seed(3);
        let uniform = facility_location(base.with_cost_model(FacilityCostModel::Uniform(7.0)));
        assert!(uniform.facility_costs().iter().all(|&c| c == 7.0));

        let zero = facility_location(base.with_cost_model(FacilityCostModel::Zero));
        assert!(zero.facility_costs().iter().all(|&c| c == 0.0));

        let ranged = facility_location(
            base.with_cost_model(FacilityCostModel::UniformRange { lo: 1.0, hi: 2.0 }),
        );
        assert!(ranged
            .facility_costs()
            .iter()
            .all(|&c| (1.0..=2.0).contains(&c)));
    }

    #[test]
    fn planted_clusters_are_separated() {
        let inst = clustering(GenParams::planted(40, 40, 4).with_seed(11));
        // Any two points in the same blob are within 2*radius = 2.0; points in different
        // blobs are at least separation - 2*radius = 48 apart.
        let mut near = 0usize;
        let mut far = 0usize;
        for a in 0..inst.n() {
            for b in (a + 1)..inst.n() {
                let d = inst.dist(a, b);
                if d <= 2.0 + 1e-9 {
                    near += 1;
                } else if d >= 48.0 - 1e-9 {
                    far += 1;
                } else {
                    panic!("unexpected intermediate distance {d}");
                }
            }
        }
        assert!(near > 0 && far > 0);
    }

    #[test]
    fn grid_and_line_are_deterministic_layouts() {
        let g = facility_location(GenParams::grid(9, 9).with_seed(0));
        let g2 = facility_location(GenParams::grid(9, 9).with_seed(999));
        // Grid ignores randomness for positions; only cost model could differ but it is
        // proportional, so instances coincide.
        assert_eq!(g.distances(), g2.distances());

        let l = clustering(GenParams::line(5, 5));
        assert_eq!(l.dist(0, 4), 4.0);
        assert_eq!(l.dist(1, 3), 2.0);
    }

    #[test]
    fn implicit_generation_matches_dense_bit_for_bit() {
        for wl in standard_suite(18, 9, 4) {
            let dense = facility_location(wl.params);
            let implicit = build_facility_location(wl.params, Backend::Implicit).unwrap();
            assert_eq!(dense.backend(), Backend::Dense);
            assert_eq!(implicit.backend(), Backend::Implicit);
            assert_eq!(
                dense.facility_costs(),
                implicit.facility_costs(),
                "{}",
                wl.name
            );
            for j in 0..dense.num_clients() {
                for i in 0..dense.num_facilities() {
                    assert_eq!(
                        dense.dist(j, i).to_bits(),
                        implicit.dist(j, i).to_bits(),
                        "workload {} entry ({j},{i})",
                        wl.name
                    );
                }
            }
            let cd = clustering(wl.params);
            let ci = build_clustering(wl.params, Backend::Implicit).unwrap();
            for a in 0..cd.n() {
                for b in 0..cd.n() {
                    assert_eq!(cd.dist(a, b).to_bits(), ci.dist(a, b).to_bits());
                }
            }
        }
    }

    #[test]
    fn implicit_memory_is_point_sized() {
        // Implicit storage (Points plus the SoA copy the batch kernels
        // stream) is O(rows + cols); the dense matrix is O(rows * cols),
        // so the gap widens with instance size.
        let params = GenParams::uniform_square(128, 64).with_seed(2);
        let dense = facility_location(params);
        let implicit = build_facility_location(params, Backend::Implicit).unwrap();
        assert_eq!(dense.memory_bytes(), 128 * 64 * 8);
        assert!(
            implicit.memory_bytes() < dense.memory_bytes() / 4,
            "implicit {} vs dense {}",
            implicit.memory_bytes(),
            dense.memory_bytes()
        );
        assert!(implicit.client_points().is_some());
        assert!(implicit.facility_points().is_some());
    }

    #[test]
    fn backend_dispatching_constructors() {
        let params = GenParams::grid(10, 5).with_seed(0);
        let d = build_facility_location(params, Backend::Dense).unwrap();
        let i = build_facility_location(params, Backend::Implicit).unwrap();
        let s = build_facility_location(params, Backend::Spatial).unwrap();
        assert_eq!(d.dist(3, 2), i.dist(3, 2));
        assert_eq!(d.dist(3, 2), s.dist(3, 2));
        assert_eq!(s.backend(), Backend::Spatial);
        let cd = build_clustering(params, Backend::Dense).unwrap();
        let ci = build_clustering(params, Backend::Implicit).unwrap();
        let cs = build_clustering(params, Backend::Spatial).unwrap();
        assert_eq!(cd.dist(1, 4), ci.dist(1, 4));
        assert_eq!(cd.dist(1, 4), cs.dist(1, 4));
    }

    #[test]
    fn spatial_generation_matches_dense_bit_for_bit() {
        // Same RNG stream as the other constructors ⇒ identical points,
        // spread, costs and distances — on every workload shape.
        for wl in standard_suite(18, 9, 4) {
            let dense = facility_location(wl.params);
            let spatial = build_facility_location(wl.params, Backend::Spatial).unwrap();
            assert_eq!(spatial.backend(), Backend::Spatial, "{}", wl.name);
            assert_eq!(
                dense.facility_costs(),
                spatial.facility_costs(),
                "{}",
                wl.name
            );
            for j in 0..dense.num_clients() {
                for i in 0..dense.num_facilities() {
                    assert_eq!(
                        dense.dist(j, i).to_bits(),
                        spatial.dist(j, i).to_bits(),
                        "workload {} entry ({j},{i})",
                        wl.name
                    );
                }
            }
            let cd = clustering(wl.params);
            let cs = build_clustering(wl.params, Backend::Spatial).unwrap();
            for a in 0..cd.n() {
                for b in 0..cd.n() {
                    assert_eq!(cd.dist(a, b).to_bits(), cs.dist(a, b).to_bits());
                }
            }
        }
    }

    #[test]
    fn overflowing_dense_generation_is_a_typed_error() {
        // A shape whose rows * cols overflows usize must be rejected before any
        // allocation is attempted — and only on the dense path.
        let params = GenParams {
            num_clients: usize::MAX / 2,
            num_facilities: 4,
            spatial: SpatialModel::Line { spacing: 1.0 },
            cost_model: FacilityCostModel::Zero,
            distance: DistanceKind::Euclidean,
            seed: 0,
        };
        let err = build_facility_location(params, Backend::Dense).unwrap_err();
        assert!(
            err.to_string().contains("implicit backend"),
            "unexpected error: {err}"
        );
        // (The implicit path would accept the shape but sampling usize::MAX/2
        // points is itself absurd — not exercised here.)
    }

    #[test]
    fn power_law_threshold_graph_is_sparse_with_heavy_hubs() {
        let inst = build_clustering(
            GenParams::power_law(400, 400).with_seed(6),
            Backend::Implicit,
        )
        .unwrap();
        let n = inst.n();
        // With threshold 3 (> 2·radius, < separation − 2·radius) the edges
        // are exactly the intra-cluster cliques.
        let mut edges = 0usize;
        let mut degree = vec![0usize; n];
        for a in 0..n {
            for b in (a + 1)..n {
                if inst.dist(a, b) <= 3.0 {
                    edges += 1;
                    degree[a] += 1;
                    degree[b] += 1;
                }
            }
        }
        let max_degree = degree.iter().copied().max().unwrap();
        let singletons = degree.iter().filter(|&&d| d == 0).count();
        assert!(edges > 0);
        assert!(edges <= 4 * n, "edges {edges} not linear in n = {n}");
        // Power-law shape: one hub of ~sqrt(n) nodes and a long singleton tail.
        assert!(max_degree >= 10, "no heavy hub (max degree {max_degree})");
        assert!(singletons > n / 2, "tail missing ({singletons} singletons)");
    }

    #[test]
    fn road_network_threshold_graph_has_bounded_density() {
        let inst =
            build_clustering(GenParams::road(300, 300).with_seed(2), Backend::Implicit).unwrap();
        let n = inst.n();
        let mut edges = 0usize;
        for a in 0..n {
            for b in (a + 1)..n {
                if inst.dist(a, b) <= 2.0 {
                    edges += 1;
                }
            }
        }
        assert!(edges > 0);
        // Linear density along roads is count-independent, so edges stay
        // O(n) — far below the ~n²/2 of a dense metric at median threshold.
        assert!(edges <= 8 * n, "edges {edges} not linear in n = {n}");
    }

    #[test]
    fn sparse_models_generate_across_backends_bit_for_bit() {
        for params in [
            GenParams::power_law(60, 60).with_seed(3),
            GenParams::road(60, 60).with_seed(3),
        ] {
            let dense = clustering(params);
            let implicit = build_clustering(params, Backend::Implicit).unwrap();
            let spatial = build_clustering(params, Backend::Spatial).unwrap();
            for a in 0..dense.n() {
                for b in 0..dense.n() {
                    assert_eq!(dense.dist(a, b).to_bits(), implicit.dist(a, b).to_bits());
                    assert_eq!(dense.dist(a, b).to_bits(), spatial.dist(a, b).to_bits());
                }
            }
        }
    }

    #[test]
    fn standard_suite_has_expected_workloads() {
        let suite = standard_suite(10, 10, 1);
        let names: Vec<_> = suite.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec!["uniform", "clustered", "grid", "line", "planted"]
        );
    }
}

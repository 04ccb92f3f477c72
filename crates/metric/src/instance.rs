//! Problem instances: facility location and k-clustering.

use crate::coreset::BuildError;
use crate::distmat::DistanceMatrix;
use crate::oracle::{Backend, DistanceOracle, ImplicitMetric, Oracle, SpatialOracle};
use crate::point::{DistanceKind, Point};
use crate::{ClientId, FacilityId, NodeId};

/// An instance of (metric, uncapacitated) facility location.
///
/// Matches the setup of Section 2 of the paper: a facility set `F` with opening costs
/// `f_i`, a client set `C`, and distances `d(j, i)` between clients and facilities,
/// with rows indexed by clients and columns by facilities. The instance size in the
/// paper's work bounds is `m = |C| * |F|` ([`FlInstance::m`]).
///
/// Distances are served by a [`DistanceOracle`] with three interchangeable
/// backends behind one backend-parameterized constructor
/// ([`FlInstance::build`]): the classic dense `|C| x |F|` matrix, an
/// implicit geometric backend computing distances on demand from stored
/// [`Point`]s in `O(|C| + |F|)` memory, or the index-accelerated spatial
/// backend answering nearest/range queries sublinearly at the same memory
/// order. All produce bit-identical distances for the same point set, so
/// solvers behave identically under any of them.
///
/// Instances built by the generators also carry the underlying [`Point`]s, which is
/// convenient for examples and for validating the metric axioms; instances built
/// directly from a matrix may omit them.
#[derive(Debug, Clone)]
pub struct FlInstance {
    facility_costs: Vec<f64>,
    oracle: Oracle,
    client_points: Option<Vec<Point>>,
    facility_points: Option<Vec<Point>>,
}

impl FlInstance {
    /// Creates a dense-backend instance from facility opening costs and a client x
    /// facility distance matrix.
    ///
    /// # Panics
    /// Panics if the number of facility costs does not match the number of columns of
    /// `dist`, or if any facility cost is negative or non-finite.
    pub fn new(facility_costs: Vec<f64>, dist: DistanceMatrix) -> Self {
        Self::with_oracle(facility_costs, Oracle::Dense(dist))
    }

    /// Creates an instance around an explicit [`Oracle`] backend.
    ///
    /// # Panics
    /// Panics if the number of facility costs does not match the oracle's column
    /// count, or if any facility cost is negative or non-finite.
    pub fn with_oracle(facility_costs: Vec<f64>, oracle: Oracle) -> Self {
        assert_eq!(
            facility_costs.len(),
            oracle.cols(),
            "facility cost vector length must equal number of matrix columns"
        );
        assert!(
            facility_costs.iter().all(|f| f.is_finite() && *f >= 0.0),
            "facility costs must be finite and non-negative"
        );
        FlInstance {
            facility_costs,
            oracle,
            client_points: None,
            facility_points: None,
        }
    }

    /// The backend-parameterized constructor: builds an instance from point
    /// sets under the requested [`Backend`].
    ///
    /// * [`Backend::Dense`] materialises the `|C| x |F|` matrix (`O(m)`
    ///   memory; overflowing shapes come back as a typed [`BuildError`])
    ///   and keeps the points attached for provenance.
    /// * [`Backend::Implicit`] stores only the points and computes every
    ///   `d(j, i)` on demand — `O(|C| + |F|)` memory.
    /// * [`Backend::Spatial`] adds deterministic exact spatial indexes over
    ///   both sides, so nearest/range queries run sublinearly at the same
    ///   memory order.
    ///
    /// All three serve bit-identical distances for the same point set.
    ///
    /// # Panics
    /// Panics if the number of facility costs does not match the number of
    /// facility points, or if any facility cost is negative or non-finite.
    pub fn build(
        facility_costs: Vec<f64>,
        client_points: Vec<Point>,
        facility_points: Vec<Point>,
        kind: DistanceKind,
        backend: Backend,
    ) -> Result<Self, BuildError> {
        match backend {
            Backend::Dense => {
                let dist = DistanceMatrix::try_between(&client_points, &facility_points, kind)?;
                Ok(FlInstance::new(facility_costs, dist)
                    .with_points(client_points, facility_points))
            }
            Backend::Implicit => Ok(Self::with_oracle(
                facility_costs,
                Oracle::Implicit(ImplicitMetric::between(
                    client_points,
                    facility_points,
                    kind,
                )),
            )),
            Backend::Spatial => Ok(Self::with_oracle(
                facility_costs,
                Oracle::Spatial(SpatialOracle::between(client_points, facility_points, kind)),
            )),
        }
    }

    /// Creates an instance from explicit client and facility point sets, Euclidean
    /// distances, and facility opening costs, materialising the dense matrix. Use
    /// [`FlInstance::build`] with [`Backend::Implicit`] to keep memory at
    /// `O(|C| + |F|)` instead.
    pub fn from_points(
        facility_costs: Vec<f64>,
        client_points: Vec<Point>,
        facility_points: Vec<Point>,
    ) -> Self {
        let dist = DistanceMatrix::between(
            &client_points,
            &facility_points,
            crate::point::DistanceKind::Euclidean,
        );
        let mut inst = FlInstance::new(facility_costs, dist);
        inst.client_points = Some(client_points);
        inst.facility_points = Some(facility_points);
        inst
    }

    /// Attaches provenance points to an instance built from a matrix.
    pub fn with_points(mut self, client_points: Vec<Point>, facility_points: Vec<Point>) -> Self {
        assert_eq!(client_points.len(), self.num_clients());
        assert_eq!(facility_points.len(), self.num_facilities());
        self.client_points = Some(client_points);
        self.facility_points = Some(facility_points);
        self
    }

    /// Number of clients `|C|` (`nc` in the paper).
    #[inline]
    pub fn num_clients(&self) -> usize {
        self.oracle.rows()
    }

    /// Number of facilities `|F|` (`nf` in the paper).
    #[inline]
    pub fn num_facilities(&self) -> usize {
        self.oracle.cols()
    }

    /// The paper's input-size parameter `m = nc * nf`.
    #[inline]
    pub fn m(&self) -> usize {
        self.num_clients() * self.num_facilities()
    }

    /// Opening cost of facility `i`.
    #[inline]
    pub fn facility_cost(&self, i: FacilityId) -> f64 {
        self.facility_costs[i]
    }

    /// All facility opening costs.
    #[inline]
    pub fn facility_costs(&self) -> &[f64] {
        &self.facility_costs
    }

    /// The distance `d(j, i)` from client `j` to facility `i`.
    #[inline]
    pub fn dist(&self, j: ClientId, i: FacilityId) -> f64 {
        self.oracle.dist(j, i)
    }

    /// The distance oracle serving `d(j, i)` queries (dense or implicit).
    #[inline]
    pub fn distances(&self) -> &Oracle {
        &self.oracle
    }

    /// Which backend serves the distances.
    #[inline]
    pub fn backend(&self) -> Backend {
        self.oracle.backend()
    }

    /// Estimated resident bytes of the distance storage (see
    /// [`DistanceOracle::memory_bytes`]).
    pub fn memory_bytes(&self) -> u64 {
        self.oracle.memory_bytes()
    }

    /// The client points, if the instance carries geometry (always for the
    /// implicit and spatial backends).
    pub fn client_points(&self) -> Option<&[Point]> {
        match &self.oracle {
            Oracle::Dense(_) => self.client_points.as_deref(),
            other => other.as_implicit().map(ImplicitMetric::from_points),
        }
    }

    /// The facility points, if the instance carries geometry (always for the
    /// implicit and spatial backends).
    pub fn facility_points(&self) -> Option<&[Point]> {
        match &self.oracle {
            Oracle::Dense(_) => self.facility_points.as_deref(),
            other => other.as_implicit().map(ImplicitMetric::to_points),
        }
    }

    /// `d(j, S) = min_{i in S} d(j, i)` — distance from client `j` to the closest open
    /// facility in `open`, together with the argmin facility (equidistant ties towards
    /// the lowest facility index, per the oracle contract).
    ///
    /// Returns `None` if `open` is empty.
    pub fn closest_open(&self, j: ClientId, open: &[FacilityId]) -> Option<(FacilityId, f64)> {
        self.oracle.nearest_in_set(j, open)
    }

    /// [`FlInstance::closest_open`] for every client at once — one batched oracle
    /// query, which the spatial backend serves with a single subset-index build plus
    /// a sublinear lookup per client instead of `|C| × |open|` distance evaluations.
    pub fn closest_open_all(&self, open: &[FacilityId]) -> Vec<Option<(FacilityId, f64)>> {
        self.oracle.nearest_in_set_all(open)
    }

    /// Total cost (Equation (1) of the paper) of opening exactly the facilities in
    /// `open`: sum of opening costs plus each client's distance to its closest open
    /// facility.
    ///
    /// # Panics
    /// Panics if `open` is empty but there is at least one client, or if an index is out
    /// of range.
    pub fn solution_cost(&self, open: &[FacilityId]) -> f64 {
        let facility: f64 = open.iter().map(|&i| self.facility_cost(i)).sum();
        facility + self.connection_cost(open)
    }

    /// Facility-opening part of the cost of `open`.
    pub fn opening_cost(&self, open: &[FacilityId]) -> f64 {
        open.iter().map(|&i| self.facility_cost(i)).sum()
    }

    /// Connection part of the cost of `open`.
    pub fn connection_cost(&self, open: &[FacilityId]) -> f64 {
        self.closest_open_all(open)
            .into_iter()
            .map(|c| c.expect("solution must open at least one facility").1)
            .sum()
    }

    /// The greedy client-to-facility assignment induced by an open set: every client is
    /// assigned to its closest open facility.
    pub fn closest_assignment(&self, open: &[FacilityId]) -> Vec<FacilityId> {
        self.closest_open_all(open)
            .into_iter()
            .map(|c| c.expect("solution must open at least one facility").0)
            .collect()
    }

    /// `γ_j = min_i (f_i + d(j, i))` for each client, from Equation (2) of the paper.
    ///
    /// Each client's facility row is filled whole through the oracle's
    /// blocked distance kernels, then folded with `f64::min` in ascending
    /// facility order — the same per-element values and fold as a scalar
    /// double loop (min is an exact reduction), parallelised over
    /// deterministic client chunks.
    pub fn gamma_per_client(&self) -> Vec<f64> {
        use rayon::prelude::*;
        let nc = self.num_clients();
        let nf = self.num_facilities();
        if nc == 0 {
            return Vec::new();
        }
        let mut out = vec![0.0; nc];
        let chunk = rayon::deterministic_chunk_len(nc, 256);
        out.par_chunks_mut(chunk).enumerate().for_each(|(ci, seg)| {
            let mut row = vec![0.0; nf];
            for (o, slot) in seg.iter_mut().enumerate() {
                let j = ci * chunk + o;
                self.oracle.row_range_into(j, 0, &mut row);
                *slot = row
                    .iter()
                    .zip(self.facility_costs.iter())
                    .map(|(&d, &f)| f + d)
                    .fold(f64::INFINITY, f64::min);
            }
        });
        out
    }

    /// `γ = max_j γ_j` — the lower bound on `opt` from Equation (2).
    pub fn gamma(&self) -> f64 {
        self.gamma_per_client().into_iter().fold(0.0, f64::max)
    }

    /// Upper bound `Σ_j γ_j >= opt` from Equation (2).
    pub fn gamma_sum(&self) -> f64 {
        self.gamma_per_client().into_iter().sum()
    }
}

/// An instance of a k-clustering problem (k-median, k-means or k-center).
///
/// Every node is simultaneously a client and a potential center, as in Section 2 of the
/// paper; distances form a symmetric `n x n` oracle — dense
/// ([`ClusterInstance::new`]) or point-backed (implicit / spatial,
/// [`ClusterInstance::build`], `O(n)` memory).
///
/// Nodes may carry optional positive **weights** (coreset cell populations;
/// see [`crate::coreset`]): the k-median and k-means objectives multiply
/// each node's term by its weight, defaulting to `1.0` everywhere — and
/// since `1.0 * x` is bitwise `x`, unweighted instances are byte-for-byte
/// unaffected.
#[derive(Debug, Clone)]
pub struct ClusterInstance {
    oracle: Oracle,
    points: Option<Vec<Point>>,
    weights: Option<Vec<f64>>,
}

impl ClusterInstance {
    /// Creates a dense clustering instance from a symmetric distance matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn new(dist: DistanceMatrix) -> Self {
        Self::with_oracle(Oracle::Dense(dist))
    }

    /// Creates a clustering instance around an explicit [`Oracle`] backend.
    ///
    /// # Panics
    /// Panics if the oracle is not square.
    pub fn with_oracle(oracle: Oracle) -> Self {
        assert_eq!(
            oracle.rows(),
            oracle.cols(),
            "clustering instances need a square distance matrix"
        );
        ClusterInstance {
            oracle,
            points: None,
            weights: None,
        }
    }

    /// The backend-parameterized constructor: builds a clustering instance
    /// from a point set under the requested [`Backend`].
    ///
    /// * [`Backend::Dense`] materialises the symmetric `n x n` matrix
    ///   (overflowing shapes come back as a typed [`BuildError`]) and keeps
    ///   the points attached.
    /// * [`Backend::Implicit`] stores the `n` points once (shared between
    ///   the row and column sides) and computes every `d(a, b)` on demand —
    ///   `O(n)` memory instead of the `O(n²)` matrix.
    /// * [`Backend::Spatial`] adds one shared deterministic spatial index
    ///   serving nearest/range queries sublinearly, at the same memory
    ///   order.
    ///
    /// All three serve bit-identical distances for the same point set.
    pub fn build(
        points: Vec<Point>,
        kind: DistanceKind,
        backend: Backend,
    ) -> Result<Self, BuildError> {
        match backend {
            Backend::Dense => {
                let dist = DistanceMatrix::try_between(&points, &points, kind)?;
                Ok(ClusterInstance::new(dist).with_points(points))
            }
            Backend::Implicit => Ok(Self::with_oracle(Oracle::Implicit(
                ImplicitMetric::symmetric(points, kind),
            ))),
            Backend::Spatial => Ok(Self::with_oracle(Oracle::Spatial(
                SpatialOracle::symmetric(points, kind),
            ))),
        }
    }

    /// Creates a clustering instance from a point set under Euclidean distance,
    /// materialising the dense matrix. Use [`ClusterInstance::build`] with
    /// [`Backend::Implicit`] to keep memory at `O(n)` instead.
    pub fn from_points(points: Vec<Point>) -> Self {
        let dist = DistanceMatrix::pairwise(&points, crate::point::DistanceKind::Euclidean);
        ClusterInstance {
            oracle: Oracle::Dense(dist),
            points: Some(points),
            weights: None,
        }
    }

    /// Attaches provenance points to an instance built from a matrix.
    ///
    /// # Panics
    /// Panics if the number of points does not match the matrix dimension.
    pub fn with_points(mut self, points: Vec<Point>) -> Self {
        assert_eq!(points.len(), self.n(), "points must match matrix dimension");
        self.points = Some(points);
        self
    }

    /// Attaches per-node weights (e.g. coreset cell populations). The
    /// k-median / k-means objectives multiply each node's term by its
    /// weight; k-center (a max, not a sum) ignores them.
    ///
    /// # Panics
    /// Panics if the weight count does not match `n` or any weight is not
    /// finite and positive.
    pub fn with_weights(mut self, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), self.n(), "weights must match node count");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "weights must be finite and positive"
        );
        self.weights = Some(weights);
        self
    }

    /// The per-node weights, if any were attached.
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// Weight of node `j` (`1.0` when the instance is unweighted).
    #[inline]
    pub fn weight(&self, j: NodeId) -> f64 {
        match &self.weights {
            Some(w) => w[j],
            None => 1.0,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.oracle.rows()
    }

    /// Distance between nodes `a` and `b`.
    #[inline]
    pub fn dist(&self, a: NodeId, b: NodeId) -> f64 {
        self.oracle.dist(a, b)
    }

    /// The distance oracle serving `d(a, b)` queries (dense or implicit).
    #[inline]
    pub fn distances(&self) -> &Oracle {
        &self.oracle
    }

    /// Which backend serves the distances.
    #[inline]
    pub fn backend(&self) -> Backend {
        self.oracle.backend()
    }

    /// Estimated resident bytes of the distance storage (see
    /// [`DistanceOracle::memory_bytes`]).
    pub fn memory_bytes(&self) -> u64 {
        self.oracle.memory_bytes()
    }

    /// The node points, if the instance carries geometry (always for the implicit
    /// and spatial backends).
    pub fn points(&self) -> Option<&[Point]> {
        match &self.oracle {
            Oracle::Dense(_) => self.points.as_deref(),
            other => other.as_implicit().map(ImplicitMetric::from_points),
        }
    }

    /// `d(j, S)` and the closest center for node `j` under center set `centers`
    /// (equidistant ties towards the lowest center index, per the oracle contract).
    pub fn closest_center(&self, j: NodeId, centers: &[NodeId]) -> Option<(NodeId, f64)> {
        self.oracle.nearest_in_set(j, centers)
    }

    /// [`ClusterInstance::closest_center`] for every node at once — one batched
    /// oracle query (a single subset-index build on the spatial backend).
    pub fn closest_center_all(&self, centers: &[NodeId]) -> Vec<Option<(NodeId, f64)>> {
        self.oracle.nearest_in_set_all(centers)
    }

    /// k-median objective: weighted sum over nodes of the distance to the
    /// closest center (all weights `1.0` on an unweighted instance —
    /// bitwise identical to the plain sum).
    pub fn kmedian_cost(&self, centers: &[NodeId]) -> f64 {
        self.closest_center_all(centers)
            .into_iter()
            .enumerate()
            .map(|(j, c)| self.weight(j) * c.expect("centers empty").1)
            .sum()
    }

    /// k-means objective: weighted sum over nodes of the **squared** distance to the
    /// closest center.
    pub fn kmeans_cost(&self, centers: &[NodeId]) -> f64 {
        self.closest_center_all(centers)
            .into_iter()
            .enumerate()
            .map(|(j, c)| {
                let d = c.expect("centers empty").1;
                self.weight(j) * (d * d)
            })
            .sum()
    }

    /// k-center objective: maximum over nodes of the distance to the closest center.
    /// Weights do not enter a max objective.
    pub fn kcenter_cost(&self, centers: &[NodeId]) -> f64 {
        self.closest_center_all(centers)
            .into_iter()
            .map(|c| c.expect("centers empty").1)
            .fold(0.0, f64::max)
    }

    /// Gonzalez's farthest-first traversal: start at node 0 and repeatedly
    /// add the node farthest from the centers chosen so far (the last of
    /// equally far nodes, as `Iterator::max_by` picks), until `min(k, n)`
    /// centers are chosen or the farthest node is at distance 0 (every node
    /// coincides with a center). Returns the centers, the node farthest from
    /// them (the one the traversal would add next) and its distance `r` to
    /// its nearest center, which is the centers'
    /// [`ClusterInstance::kcenter_cost`].
    ///
    /// A node `j`'s distance to a center `c` is `d(j, c)`, as in
    /// [`ClusterInstance::kcenter_cost`], so each new center's distances
    /// come from one kernel column ([`DistanceOracle::col_range_into`], the
    /// row on a symmetric oracle) and the traversal evaluates `n` distances
    /// per center. On a metric `opt ≤ r ≤ 2·opt`: each center was at least
    /// `r` from the earlier ones when it was added, so the centers and the
    /// farthest node are `k + 1` points pairwise at least `r` apart, two of
    /// which share an optimal cluster.
    ///
    /// # Panics
    /// Panics if `k == 0` or the instance is empty.
    pub fn farthest_first(&self, k: usize) -> (Vec<NodeId>, NodeId, f64) {
        let n = self.n();
        assert!(k >= 1, "k must be at least 1");
        assert!(n >= 1, "instance must be non-empty");
        let mut dist_to_centers = vec![0.0f64; n];
        self.oracle.col_range_into(0, 0, &mut dist_to_centers);
        let mut centers = vec![0usize];
        let mut col = vec![0.0f64; n];
        loop {
            let (farthest, &r) = dist_to_centers
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap();
            if centers.len() == k.min(n) || r == 0.0 {
                return (centers, farthest, r);
            }
            centers.push(farthest);
            self.oracle.col_range_into(farthest, 0, &mut col);
            for (d, &e) in dist_to_centers.iter_mut().zip(&col) {
                *d = d.min(e);
            }
        }
    }

    /// Node-to-center assignment mapping each node to its closest center.
    pub fn center_assignment(&self, centers: &[NodeId]) -> Vec<NodeId> {
        self.closest_center_all(centers)
            .into_iter()
            .map(|c| c.expect("centers empty").0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::DistanceKind;

    fn tiny_fl() -> FlInstance {
        // 3 clients, 2 facilities.
        // d = [[1, 4], [2, 3], [5, 1]]
        let dist = DistanceMatrix::from_rows(3, 2, vec![1.0, 4.0, 2.0, 3.0, 5.0, 1.0]);
        FlInstance::new(vec![10.0, 20.0], dist)
    }

    #[test]
    fn fl_dimensions_and_m() {
        let inst = tiny_fl();
        assert_eq!(inst.num_clients(), 3);
        assert_eq!(inst.num_facilities(), 2);
        assert_eq!(inst.m(), 6);
    }

    #[test]
    fn fl_solution_costs() {
        let inst = tiny_fl();
        // Open only facility 0: cost 10 + 1 + 2 + 5 = 18
        assert_eq!(inst.solution_cost(&[0]), 18.0);
        // Open only facility 1: cost 20 + 4 + 3 + 1 = 28
        assert_eq!(inst.solution_cost(&[1]), 28.0);
        // Open both: 30 + 1 + 2 + 1 = 34
        assert_eq!(inst.solution_cost(&[0, 1]), 34.0);
        assert_eq!(inst.opening_cost(&[0, 1]), 30.0);
        assert_eq!(inst.connection_cost(&[0, 1]), 4.0);
    }

    #[test]
    fn fl_closest_assignment() {
        let inst = tiny_fl();
        assert_eq!(inst.closest_assignment(&[0, 1]), vec![0, 0, 1]);
        assert_eq!(inst.closest_open(2, &[0, 1]), Some((1, 1.0)));
        assert_eq!(inst.closest_open(0, &[]), None);
    }

    #[test]
    fn fl_gamma_bounds() {
        let inst = tiny_fl();
        // gamma_j = min(f_i + d(j,i)): client0 min(11,24)=11, client1 min(12,23)=12,
        // client2 min(15,21)=15
        assert_eq!(inst.gamma_per_client(), vec![11.0, 12.0, 15.0]);
        assert_eq!(inst.gamma(), 15.0);
        assert_eq!(inst.gamma_sum(), 38.0);
        // Equation (2): gamma <= opt <= gamma_sum
        let opt = inst.solution_cost(&[0]).min(inst.solution_cost(&[1]));
        assert!(inst.gamma() <= opt);
        assert!(opt <= inst.gamma_sum());
    }

    #[test]
    fn fl_from_points_matches_euclidean() {
        let clients = vec![Point::xy(0.0, 0.0), Point::xy(1.0, 0.0)];
        let facilities = vec![Point::xy(0.0, 3.0)];
        let inst = FlInstance::from_points(vec![2.0], clients.clone(), facilities.clone());
        assert_eq!(inst.dist(0, 0), 3.0);
        assert!((inst.dist(1, 0) - (10.0_f64).sqrt()).abs() < 1e-12);
        assert!(inst.client_points().is_some());
        assert!(inst.facility_points().is_some());
    }

    #[test]
    #[should_panic(expected = "facility cost vector length")]
    fn fl_bad_cost_length_panics() {
        let dist = DistanceMatrix::filled(2, 2, 1.0);
        let _ = FlInstance::new(vec![1.0], dist);
    }

    fn tiny_cluster() -> ClusterInstance {
        // 4 points on a line: 0, 1, 5, 6
        let pts = vec![
            Point::scalar(0.0),
            Point::scalar(1.0),
            Point::scalar(5.0),
            Point::scalar(6.0),
        ];
        ClusterInstance::from_points(pts)
    }

    #[test]
    fn cluster_objectives() {
        let inst = tiny_cluster();
        assert_eq!(inst.n(), 4);
        // centers {0, 3}: distances 0,1,1,0
        assert_eq!(inst.kmedian_cost(&[0, 3]), 2.0);
        assert_eq!(inst.kmeans_cost(&[0, 3]), 2.0);
        assert_eq!(inst.kcenter_cost(&[0, 3]), 1.0);
        // single center 1: distances 1,0,4,5
        assert_eq!(inst.kmedian_cost(&[1]), 10.0);
        assert_eq!(inst.kmeans_cost(&[1]), 42.0);
        assert_eq!(inst.kcenter_cost(&[1]), 5.0);
        assert_eq!(inst.center_assignment(&[0, 3]), vec![0, 0, 3, 3]);
    }

    #[test]
    fn cluster_from_matrix_requires_square() {
        let m = DistanceMatrix::pairwise(
            &[Point::scalar(0.0), Point::scalar(2.0)],
            DistanceKind::Euclidean,
        );
        let inst = ClusterInstance::new(m);
        assert_eq!(inst.n(), 2);
        assert_eq!(inst.dist(0, 1), 2.0);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn cluster_non_square_panics() {
        let _ = ClusterInstance::new(DistanceMatrix::filled(2, 3, 1.0));
    }

    #[test]
    fn weighted_objectives_scale_per_node_terms() {
        let inst = tiny_cluster().with_weights(vec![2.0, 1.0, 3.0, 1.0]);
        // centers {0, 3}: distances 0,1,1,0 -> weighted kmedian 0+1+3+0.
        assert_eq!(inst.kmedian_cost(&[0, 3]), 4.0);
        assert_eq!(inst.kmeans_cost(&[0, 3]), 4.0);
        // k-center is a max; weights do not enter.
        assert_eq!(inst.kcenter_cost(&[0, 3]), 1.0);
        assert_eq!(inst.weight(2), 3.0);
        assert_eq!(inst.weights().unwrap().len(), 4);
        // Unweighted default is 1.0 everywhere.
        assert_eq!(tiny_cluster().weight(2), 1.0);
        assert!(tiny_cluster().weights().is_none());
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn non_positive_weights_panic() {
        let _ = tiny_cluster().with_weights(vec![1.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn build_constructors_are_backend_invariant() {
        let pts = vec![
            Point::xy(0.0, 0.0),
            Point::xy(3.0, 4.0),
            Point::xy(1.0, 1.0),
        ];
        let d =
            ClusterInstance::build(pts.clone(), DistanceKind::Euclidean, Backend::Dense).unwrap();
        let i = ClusterInstance::build(pts.clone(), DistanceKind::Euclidean, Backend::Implicit)
            .unwrap();
        let s =
            ClusterInstance::build(pts.clone(), DistanceKind::Euclidean, Backend::Spatial).unwrap();
        assert_eq!(d.backend(), Backend::Dense);
        assert_eq!(i.backend(), Backend::Implicit);
        assert_eq!(s.backend(), Backend::Spatial);
        for a in 0..3 {
            for b in 0..3 {
                assert_eq!(d.dist(a, b).to_bits(), i.dist(a, b).to_bits());
                assert_eq!(d.dist(a, b).to_bits(), s.dist(a, b).to_bits());
            }
        }
        // Every backend keeps the points reachable.
        assert!(d.points().is_some() && i.points().is_some() && s.points().is_some());

        let costs = vec![1.0, 2.0];
        let fac = vec![Point::xy(0.0, 1.0), Point::xy(2.0, 0.0)];
        let fd = FlInstance::build(
            costs.clone(),
            pts.clone(),
            fac.clone(),
            DistanceKind::Euclidean,
            Backend::Dense,
        )
        .unwrap();
        let fs =
            FlInstance::build(costs, pts, fac, DistanceKind::Euclidean, Backend::Spatial).unwrap();
        assert_eq!(fd.dist(1, 0).to_bits(), fs.dist(1, 0).to_bits());
        assert!(fd.client_points().is_some() && fs.facility_points().is_some());
    }

    #[test]
    fn farthest_first_takes_the_last_farthest_node_and_stops_at_zero() {
        let line: Vec<Point> = (0..6).map(|i| Point::xy(i as f64, 0.0)).collect();
        for backend in [Backend::Dense, Backend::Implicit, Backend::Spatial] {
            let inst =
                ClusterInstance::build(line.clone(), DistanceKind::Euclidean, backend).unwrap();
            // Nodes 2 and 3 are both 2 from {0, 5}; the last one wins.
            assert_eq!(inst.farthest_first(2), (vec![0, 5], 3, 2.0), "{backend}");
            assert_eq!(inst.farthest_first(3), (vec![0, 5, 3], 4, 1.0), "{backend}");
            let every = (vec![0, 5, 3, 4, 2, 1], 5, 0.0);
            assert_eq!(inst.farthest_first(9), every, "{backend}");
            let same = vec![Point::xy(1.0, 1.0); 4];
            let inst = ClusterInstance::build(same, DistanceKind::Euclidean, backend).unwrap();
            assert_eq!(inst.farthest_first(3), (vec![0], 3, 0.0), "{backend}");
        }
        // On an asymmetric matrix a node's distance to a center is d(j, c),
        // column c: column 0 is [0, 9, 3], so node 1 comes next, and node 2
        // is then d(2, 1) = 2 from its nearest center, the centers' cost.
        let m = DistanceMatrix::from_rows(3, 3, vec![0.0, 9.0, 10.0, 9.0, 0.0, 8.0, 3.0, 2.0, 0.0]);
        let inst = ClusterInstance::new(m);
        assert_eq!(inst.farthest_first(2), (vec![0, 1], 2, 2.0));
        assert_eq!(inst.kcenter_cost(&[0, 1]), 2.0);
    }
}

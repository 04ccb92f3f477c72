//! Stars and maximal-star computation (Definition 4.1, Fact 4.2).
//!
//! A *star* `S = (i, C')` is a facility together with a set of clients; its price is
//! `(f_i + Σ_{j∈C'} d(j,i)) / |C'|`. The greedy algorithms (sequential and parallel)
//! repeatedly need, for every facility, the **cheapest maximal star** over the remaining
//! clients. By Fact 4.2 this star consists of the `κ` closest remaining clients for some
//! `κ`, so each round only needs a prefix sum along every facility's sorted client order —
//! which is exactly how Algorithm 4.1 implements its step 1. The order is served lazily:
//! each facility's clients are bucketed by distance once, and a bucket is sorted only
//! when a star scan reaches it.

use parfaclo_bucket::BucketMapping;
use parfaclo_matrixops::{CostMeter, PAR_THRESHOLD};
use parfaclo_metric::{ClientId, DistanceOracle, FacilityId, FlInstance};
use rayon::prelude::*;

/// A maximal cheapest star: facility, price, and the clients it contains.
#[derive(Debug, Clone, PartialEq)]
pub struct Star {
    /// The facility at the centre of the star.
    pub facility: FacilityId,
    /// The star's price `(f_i + Σ d(j,i)) / |C'|`.
    pub price: f64,
    /// The clients of the star (the `|C'|` closest remaining clients).
    pub clients: Vec<ClientId>,
}

/// Number of distinct bucket keys under the default geometric mapping
/// (4 refinement bits: 12 exponent+mantissa bits survive the shift, and the
/// sign bit of a non-negative finite `f64` is always 0).
const LAZY_KEYS: usize = 1 << 16;

/// Per-facility lazily-sorted client order, bucketed by distance.
///
/// The clients are partitioned once into geometric distance buckets
/// (ascending bucket key, ascending client id within a bucket — a counting
/// pass, no comparison sort). `sorted` is the materialised prefix: whole
/// buckets, sorted on demand by packed `(distance_bits << 32) | id` (ties
/// in distance break by ascending client id), appended in bucket order.
/// Because the geometric mapping is monotone and its buckets bracket
/// disjoint value intervals, the concatenation of per-bucket sorted runs
/// is the facility's full sorted client order — materialised only as far
/// as the star scans actually consume it.
#[derive(Debug, Clone)]
pub struct LazyFacilityOrder {
    /// Ascending keys of the non-empty buckets.
    bucket_keys: Vec<u32>,
    /// CSR offsets into `bucket_ids`, one per non-empty bucket plus the
    /// terminating total.
    bucket_offsets: Vec<u32>,
    /// Client ids grouped by bucket (ascending id within each bucket).
    bucket_ids: Vec<u32>,
    /// The sorted prefix: every expanded bucket's clients in full sorted
    /// order.
    sorted: Vec<u32>,
    /// Index of the first unexpanded bucket.
    next_bucket: usize,
}

impl LazyFacilityOrder {
    /// Buckets facility `i`'s client distances. One oracle column fill plus
    /// a counting pass — `O(|C| + K)` work, no sort.
    fn build(inst: &FlInstance, i: FacilityId, mapping: BucketMapping) -> Self {
        let nc = inst.num_clients();
        let mut row = vec![0.0f64; nc];
        inst.distances().col_range_into(i, 0, &mut row);
        let mut starts = vec![0u32; LAZY_KEYS];
        for &d in &row {
            let key = mapping.bucket_of(d) as usize;
            debug_assert!(key < LAZY_KEYS);
            starts[key] += 1;
        }
        let mut bucket_keys = Vec::new();
        let mut bucket_offsets = Vec::new();
        let mut total = 0u32;
        for (key, slot) in starts.iter_mut().enumerate() {
            let count = *slot;
            if count > 0 {
                bucket_keys.push(key as u32);
                bucket_offsets.push(total);
            }
            *slot = total;
            total += count;
        }
        bucket_offsets.push(total);
        let mut bucket_ids = vec![0u32; nc];
        for (j, &d) in row.iter().enumerate() {
            let key = mapping.bucket_of(d) as usize;
            bucket_ids[starts[key] as usize] = j as u32;
            starts[key] += 1;
        }
        LazyFacilityOrder {
            bucket_keys,
            bucket_offsets,
            bucket_ids,
            sorted: Vec::new(),
            next_bucket: 0,
        }
    }

    /// Key of the first unexpanded bucket, or `None` when fully expanded.
    fn next_bucket_key(&self) -> Option<u32> {
        self.bucket_keys.get(self.next_bucket).copied()
    }

    /// Sorts the next bucket's clients by `(distance_bits, id)` and appends
    /// them to the sorted prefix. Charges one sort of the bucket's size.
    fn expand_next_bucket(&mut self, inst: &FlInstance, i: FacilityId, meter: &CostMeter) {
        let b = self.next_bucket;
        debug_assert!(b < self.bucket_keys.len());
        let start = self.bucket_offsets[b] as usize;
        let end = self.bucket_offsets[b + 1] as usize;
        let ids = &self.bucket_ids[start..end];
        let clients: Vec<usize> = ids.iter().map(|&j| j as usize).collect();
        let mut dists = vec![0.0f64; clients.len()];
        inst.distances().col_gather(i, &clients, &mut dists);
        // Ties in distance break by ascending client id, so the appended
        // run continues the exact global sorted order.
        let mut packed: Vec<u128> = ids
            .iter()
            .zip(dists.iter())
            .map(|(&j, &d)| (u128::from(d.to_bits()) << 32) | u128::from(j))
            .collect();
        packed.sort_unstable();
        self.sorted
            .extend(packed.iter().map(|&p| (p & 0xFFFF_FFFF) as u32));
        meter.add_sort(clients.len() as u64);
        self.next_bucket += 1;
    }
}

/// Lazily-sorted client orders for every facility.
#[derive(Debug, Clone)]
pub struct LazyOrders {
    mapping: BucketMapping,
    facilities: Vec<LazyFacilityOrder>,
}

impl LazyOrders {
    /// Buckets every facility's client distances: one primitive pass over
    /// `m`, no sort. Sorting is deferred to
    /// [`cheapest_maximal_star_bucketed`]'s on-demand bucket expansions.
    pub fn build(inst: &FlInstance, meter: &CostMeter) -> Self {
        let nc = inst.num_clients();
        let nf = inst.num_facilities();
        meter.add_primitive((nc * nf) as u64);
        let mapping = BucketMapping::geometric_default();
        let build_one = |i: usize| LazyFacilityOrder::build(inst, i, mapping);
        let facilities: Vec<LazyFacilityOrder> = if inst.m() >= PAR_THRESHOLD {
            (0..nf).into_par_iter().map(build_one).collect()
        } else {
            (0..nf).map(build_one).collect()
        };
        LazyOrders {
            mapping,
            facilities,
        }
    }

    /// Number of facilities covered.
    pub fn num_facilities(&self) -> usize {
        self.facilities.len()
    }

    /// Total clients materialised into sorted prefixes so far (diagnostic).
    pub fn expanded_clients(&self) -> usize {
        self.facilities.iter().map(|f| f.sorted.len()).sum()
    }
}

/// Computes the cheapest maximal star of facility `i` over the clients for
/// which `remaining` is `true`, with the (possibly zeroed) facility cost
/// `fcost`. Returns `None` if no clients remain.
///
/// Remaining clients are walked in sorted order from the facility's lazily
/// expanded bucket prefix, one distance tile at a time: a tile of surviving
/// clients is gathered through the oracle's blocked column kernel, then
/// walked scalar with an early break. When the prefix runs out, the next
/// bucket's exact lower bound decides between stopping (every later
/// distance already exceeds the best price) and sorting one more bucket.
pub fn cheapest_maximal_star_bucketed(
    inst: &FlInstance,
    i: FacilityId,
    fcost: f64,
    mapping: BucketMapping,
    state: &mut LazyFacilityOrder,
    remaining: &[bool],
    meter: &CostMeter,
) -> Option<Star> {
    const TILE: usize = 64;
    let oracle = inst.distances();
    let mut best_price = f64::INFINITY;
    let mut best_k = 0usize;
    let mut dist_sum = 0.0;
    let mut k = 0usize;
    let mut clients_in_order: Vec<ClientId> = Vec::new();
    let mut batch: Vec<usize> = Vec::with_capacity(TILE);
    let mut dists = [0.0f64; TILE];
    let mut cursor = 0usize;
    'outer: loop {
        while cursor < state.sorted.len() {
            batch.clear();
            while cursor < state.sorted.len() && batch.len() < TILE {
                let j = state.sorted[cursor] as usize;
                cursor += 1;
                if remaining[j] {
                    batch.push(j);
                }
            }
            if batch.is_empty() {
                continue;
            }
            oracle.col_gather(i, &batch, &mut dists[..batch.len()]);
            for (&j, &d) in batch.iter().zip(dists.iter()) {
                // Early termination: distances arrive in non-decreasing
                // order, so once `d > best_price` every later prefix price
                // exceeds `best_price` in real arithmetic (price_{k+1} is
                // the k-weighted average of price_k and d_{k+1}, and all
                // later distances are >= d — the unimodality behind Fact
                // 4.2), turning the scan into O(|star|) distance
                // evaluations instead of O(|C|), on every backend. Strictly
                // greater only: a distance *equal* to the best price still
                // extends the maximal star at the same price. Defined
                // behaviour on sub-ulp edges: a full scan's rounded price
                // can dip back to == best_price even though the real price
                // is larger; this scan resolves such artificial ties by the
                // real-arithmetic semantics (the star is not extended).
                if d > best_price {
                    break 'outer;
                }
                dist_sum += d;
                k += 1;
                clients_in_order.push(j);
                let price = (fcost + dist_sum) / k as f64;
                // Prefer smaller prices; on ties prefer the larger star
                // (maximality), which `k` rising through the scan gives.
                if price <= best_price {
                    best_price = price;
                    best_k = k;
                }
            }
        }
        // Prefix exhausted. Geometric buckets bracket disjoint intervals,
        // so `lower_bound(next key)` under-approximates every not-yet-
        // materialised distance: above the best price, the scan would break
        // on its first remaining client too.
        match state.next_bucket_key() {
            None => break,
            Some(key) => {
                if mapping.lower_bound(key) > best_price {
                    break;
                }
                state.expand_next_bucket(inst, i, meter);
            }
        }
    }
    if k == 0 {
        return None;
    }
    clients_in_order.truncate(best_k);
    Some(Star {
        facility: i,
        price: best_price,
        clients: clients_in_order,
    })
}

/// Computes the cheapest maximal star of every facility, in parallel over
/// the independent lazy states. `fcosts` carries the *current* facility
/// costs (zeroed for already-open facilities, per the paper).
pub fn all_cheapest_stars_lazy(
    inst: &FlInstance,
    fcosts: &[f64],
    orders: &mut LazyOrders,
    remaining: &[bool],
    meter: &CostMeter,
) -> Vec<Option<Star>> {
    let nf = inst.num_facilities();
    meter.add_primitive((inst.num_clients() * nf) as u64);
    let mapping = orders.mapping;
    let one = |(i, state): (usize, &mut LazyFacilityOrder)| {
        cheapest_maximal_star_bucketed(inst, i, fcosts[i], mapping, state, remaining, meter)
    };
    if inst.m() >= PAR_THRESHOLD {
        orders
            .facilities
            .par_iter_mut()
            .enumerate()
            .map(one)
            .collect()
    } else {
        orders.facilities.iter_mut().enumerate().map(one).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfaclo_metric::gen::{self, GenParams};
    use parfaclo_metric::DistanceMatrix;

    /// Reference: every facility's clients fully presorted by distance up
    /// front (ties towards the smaller client id), which the lazy bucket
    /// prefixes must reproduce star for star.
    struct FacilityOrders {
        orders: Vec<Vec<u32>>,
    }

    impl FacilityOrders {
        fn presort(inst: &FlInstance) -> Self {
            let nc = inst.num_clients();
            let mut row = vec![0.0f64; nc];
            let orders = (0..inst.num_facilities())
                .map(|i| {
                    inst.distances().col_range_into(i, 0, &mut row);
                    let mut order: Vec<u32> = (0..nc as u32).collect();
                    order.sort_by(|&a, &b| {
                        row[a as usize]
                            .partial_cmp(&row[b as usize])
                            .unwrap()
                            .then(a.cmp(&b))
                    });
                    order
                })
                .collect();
            FacilityOrders { orders }
        }

        fn order(&self, i: FacilityId) -> &[u32] {
            &self.orders[i]
        }
    }

    /// Reference scan over a presorted order, with the production scan's
    /// early-termination semantics.
    fn cheapest_maximal_star(
        inst: &FlInstance,
        i: FacilityId,
        fcost: f64,
        order: &[u32],
        remaining: &[bool],
    ) -> Option<Star> {
        let (mut best_price, mut best_k, mut dist_sum) = (f64::INFINITY, 0usize, 0.0);
        let mut clients: Vec<ClientId> = Vec::new();
        for j in order.iter().map(|&j| j as usize).filter(|&j| remaining[j]) {
            let d = inst.dist(j, i);
            if d > best_price {
                break;
            }
            dist_sum += d;
            clients.push(j);
            let price = (fcost + dist_sum) / clients.len() as f64;
            if price <= best_price {
                best_price = price;
                best_k = clients.len();
            }
        }
        clients.truncate(best_k);
        (best_k > 0).then_some(Star {
            facility: i,
            price: best_price,
            clients,
        })
    }

    fn all_cheapest_stars(
        inst: &FlInstance,
        fcosts: &[f64],
        orders: &FacilityOrders,
        remaining: &[bool],
    ) -> Vec<Option<Star>> {
        (0..inst.num_facilities())
            .map(|i| cheapest_maximal_star(inst, i, fcosts[i], orders.order(i), remaining))
            .collect()
    }

    /// Every facility's star through the production lazy path, from fresh
    /// orders.
    fn lazy_stars(inst: &FlInstance, fcosts: &[f64], remaining: &[bool]) -> Vec<Option<Star>> {
        let meter = CostMeter::new();
        let mut orders = LazyOrders::build(inst, &meter);
        all_cheapest_stars_lazy(inst, fcosts, &mut orders, remaining, &meter)
    }

    fn inst_one_facility() -> FlInstance {
        // Facility cost 3, clients at distances 1, 2, 100, 200.
        FlInstance::new(
            vec![3.0],
            DistanceMatrix::from_rows(4, 1, vec![1.0, 2.0, 100.0, 200.0]),
        )
    }

    #[test]
    fn cheapest_star_known_answer() {
        let inst = inst_one_facility();
        let star = lazy_stars(&inst, &[3.0], &[true; 4]).remove(0).unwrap();
        // Prices: k=1: 4, k=2: 3, k=3: 35.33, k=4: 76.5 → best is k=2, price 3.
        assert_eq!(star.clients, vec![0, 1]);
        assert!((star.price - 3.0).abs() < 1e-12);
    }

    #[test]
    fn removed_clients_are_skipped() {
        let inst = inst_one_facility();
        let remaining = [false, true, true, false];
        let star = lazy_stars(&inst, &[3.0], &remaining).remove(0).unwrap();
        // Only clients 1 and 2 remain: k=1 → (3+2)/1 = 5; k=2 → (3+102)/2 = 52.5.
        assert_eq!(star.clients, vec![1]);
        assert!((star.price - 5.0).abs() < 1e-12);
        assert!(lazy_stars(&inst, &[3.0], &[false; 4])[0].is_none());
    }

    /// Pins the defined behaviour of the early-terminated scan on sub-ulp
    /// near-ties: a distance strictly above the best price never extends
    /// the star, even where a full scan's *rounded* next price would have
    /// dipped back to exactly the best price (real arithmetic says it is
    /// strictly larger). Deterministic and backend/thread-invariant
    /// either way; this test documents which semantics is canonical.
    #[test]
    fn sub_ulp_near_ties_resolve_by_real_arithmetic() {
        let eps = f64::EPSILON;
        let inst = FlInstance::new(
            vec![0.0],
            DistanceMatrix::from_rows(2, 1, vec![1.0, 1.0 + eps]),
        );
        let star = lazy_stars(&inst, &[0.0], &[true, true]).remove(0).unwrap();
        // (1.0 + (1.0 + eps)) / 2 rounds to exactly 1.0, but the real value
        // exceeds 1.0 — the scan stops at the 1-client star of price 1.
        assert_eq!(star.clients, vec![0]);
        assert_eq!(star.price, 1.0);
        // An *exact* tie still extends the star (maximality).
        let tied = FlInstance::new(vec![0.0], DistanceMatrix::from_rows(2, 1, vec![1.0, 1.0]));
        let star = lazy_stars(&tied, &[0.0], &[true, true]).remove(0).unwrap();
        assert_eq!(star.clients, vec![0, 1]);
        assert_eq!(star.price, 1.0);
    }

    #[test]
    fn star_clients_are_within_price_distance() {
        // Fact 4.2(1): j is in the cheapest maximal star iff d(j,i) <= price.
        let inst = gen::facility_location(GenParams::gaussian_clusters(20, 6, 3).with_seed(5));
        let fcosts: Vec<f64> = (0..6).map(|i| inst.facility_cost(i)).collect();
        let stars = lazy_stars(&inst, &fcosts, &[true; 20]);
        for star in stars.into_iter().flatten() {
            for &j in &star.clients {
                assert!(inst.dist(j, star.facility) <= star.price + 1e-9);
            }
            for j in 0..20 {
                if !star.clients.contains(&j) {
                    assert!(inst.dist(j, star.facility) >= star.price - 1e-9);
                }
            }
        }
    }

    #[test]
    fn fact_42_second_part_holds() {
        // Fact 4.2(2): if t = price(S_i) then Σ_j max(0, t − d(j,i)) = f_i.
        let inst = gen::facility_location(GenParams::uniform_square(15, 4).with_seed(8));
        let fcosts: Vec<f64> = (0..4).map(|i| inst.facility_cost(i)).collect();
        let stars = lazy_stars(&inst, &fcosts, &[true; 15]);
        for (i, star) in stars.into_iter().enumerate() {
            let star = star.unwrap();
            let lhs: f64 = (0..15)
                .map(|j| (star.price - inst.dist(j, i)).max(0.0))
                .sum();
            assert!(
                (lhs - inst.facility_cost(i)).abs() < 1e-6,
                "facility {i}: {lhs} vs {}",
                inst.facility_cost(i)
            );
        }
    }

    #[test]
    fn lazy_orders_match_presort_star_for_star() {
        // Drive the lazy orders and the presort reference through a
        // sequence of rounds with shrinking remaining sets and zeroed
        // facility costs — the exact access pattern of the greedy loop —
        // and demand identical stars (prices bit-equal, client lists
        // element-equal) at every step.
        let inst = gen::facility_location(GenParams::gaussian_clusters(60, 9, 4).with_seed(11));
        let meter = CostMeter::new();
        let presort = FacilityOrders::presort(&inst);
        let mut lazy = LazyOrders::build(&inst, &meter);
        let mut remaining = vec![true; 60];
        let mut fcosts: Vec<f64> = (0..9).map(|i| inst.facility_cost(i)).collect();
        for round in 0..6 {
            let eager = all_cheapest_stars(&inst, &fcosts, &presort, &remaining);
            let bucketed = all_cheapest_stars_lazy(&inst, &fcosts, &mut lazy, &remaining, &meter);
            assert_eq!(eager, bucketed, "round {round}");
            // Mimic a greedy round: open the cheapest star, zero its cost,
            // remove its clients.
            let best = eager
                .iter()
                .flatten()
                .min_by(|a, b| a.price.partial_cmp(&b.price).unwrap())
                .cloned();
            let Some(star) = best else { break };
            fcosts[star.facility] = 0.0;
            for &j in &star.clients {
                remaining[j] = false;
            }
            if !remaining.iter().any(|&r| r) {
                break;
            }
        }
    }

    #[test]
    fn lazy_orders_are_thread_count_invariant() {
        // m = 100 x 30 reaches the parallel grain, so both runs take the
        // parallel path: once on a 1-thread pool, once on a 4-thread pool.
        let inst = gen::facility_location(GenParams::uniform_square(100, 30).with_seed(4));
        assert!(inst.m() >= PAR_THRESHOLD);
        let remaining = vec![true; 100];
        let fcosts: Vec<f64> = (0..30).map(|i| inst.facility_cost(i)).collect();
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let meter = CostMeter::new();
                let mut orders = LazyOrders::build(&inst, &meter);
                let stars =
                    all_cheapest_stars_lazy(&inst, &fcosts, &mut orders, &remaining, &meter);
                (stars, orders.expanded_clients(), meter.report())
            })
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn lazy_expansion_stops_early() {
        // One facility, a tight cluster of cheap clients and a far-away
        // crowd: the scan must stop at the bucket boundary without ever
        // sorting the expensive tail.
        let mut dists = vec![1.0, 1.5, 1.25, 2.0];
        dists.extend((0..60).map(|t| 1e6 + t as f64));
        let nc = dists.len();
        let inst = FlInstance::new(vec![2.0], DistanceMatrix::from_rows(nc, 1, dists));
        let meter = CostMeter::new();
        let mut lazy = LazyOrders::build(&inst, &meter);
        let remaining = vec![true; nc];
        let star = all_cheapest_stars_lazy(&inst, &[2.0], &mut lazy, &remaining, &meter)
            .remove(0)
            .expect("star exists");
        // Presort reference: the same star, computed eagerly.
        let presort = FacilityOrders::presort(&inst);
        let eager = cheapest_maximal_star(&inst, 0, 2.0, presort.order(0), &remaining).unwrap();
        assert_eq!(star, eager);
        assert!(
            lazy.expanded_clients() < nc,
            "the 1e6-distance tail must stay unsorted (expanded {} of {nc})",
            lazy.expanded_clients()
        );
    }

    #[test]
    fn lazy_build_records_no_sort_but_expansion_does() {
        let inst = gen::facility_location(GenParams::uniform_square(20, 4).with_seed(2));
        let build_meter = CostMeter::new();
        let mut lazy = LazyOrders::build(&inst, &build_meter);
        assert_eq!(
            build_meter.report().sort_calls,
            0,
            "bucketing is a counting pass, not a sort"
        );
        assert!(build_meter.report().primitive_calls > 0);
        let remaining = vec![true; 20];
        let fcosts: Vec<f64> = (0..4).map(|i| inst.facility_cost(i)).collect();
        let scan_meter = CostMeter::new();
        let stars = all_cheapest_stars_lazy(&inst, &fcosts, &mut lazy, &remaining, &scan_meter);
        assert!(stars.iter().any(|s| s.is_some()));
        assert!(
            scan_meter.report().sort_calls >= 1,
            "expanded prefixes are charged as sorts"
        );
    }
}

//! # parfaclo-bucket
//!
//! Deterministic bucket queues in the style of Julienne (Dhulipala, Blelloch
//! & Shun) and the SPAA'21 stepping-algorithm framework.
//!
//! The event-driven solvers — greedy's round loop, primal-dual's dual
//! ascent, k-center's radius search — all share one access pattern: "give me
//! every element whose value lies below a moving threshold". A comparison
//! sort answers it with `O(m log m)` up-front work even when only a prefix
//! is ever consumed; a rescan answers it with `O(rounds · n)`. A bucket
//! queue answers it with near-linear total work by hashing each element into
//! a bucket that is a **pure function of its value**, so the structure's
//! shape depends only on the data — never on thread count, timing, or
//! insertion interleaving across workers.
//!
//! ## Determinism contract
//!
//! Every consumer in the workspace relies on three properties, pinned here
//! and regression-tested in this crate:
//!
//! 1. **Value-pure bucket ids.** [`BucketMapping::bucket_of`] is a pure
//!    function of the value (and the mapping's fixed parameters). Two equal
//!    values land in the same bucket in every run and at every thread count.
//! 2. **Monotone.** `a <= b` implies `bucket_of(a) <= bucket_of(b)` for
//!    non-negative finite inputs. This is what lets [`BucketQueue::extract_ready`]
//!    stop scanning at `bucket_of(threshold)` without missing a ready entry,
//!    and what makes concatenating per-bucket sorted runs reproduce a global
//!    sort.
//! 3. **Canonical intra-bucket order.** Entries within a bucket keep
//!    left-to-right insertion order. Callers that insert in a canonical
//!    order (ascending id, say) therefore extract in a canonical order.
//!
//! Bucket *boundaries* ([`BucketMapping::lower_bound`]) are exact for the
//! geometric mapping; for the linear mapping they are within rounding of the
//! ideal boundary, which is why the queue's readiness test always compares
//! **exact keys**, never boundaries — buckets only locate candidates.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::BTreeMap;

/// How values map to bucket ids.
///
/// Both variants are pure functions of the value and the mapping's own
/// parameters: no state, no thread-count dependence, no insertion-order
/// dependence. Both are monotone over the non-negative finite range the
/// solvers feed them (distances, prices, dual levels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BucketMapping {
    /// Geometric (base-2) mapping via IEEE-754 bit extraction: the bucket id
    /// is the biased exponent of the value refined by its top
    /// `mantissa_bits` mantissa bits, i.e. `v.to_bits() >> (52 - mantissa_bits)`.
    ///
    /// For non-negative finite `f64` the bit pattern is order-isomorphic to
    /// the value, so any right-shift of it is monotone. Zero and denormals
    /// shift into the lowest buckets (bucket 0 for `+0.0`), ties share a
    /// bucket exactly, and with `mantissa_bits = 4` each octave splits into
    /// 16 sub-buckets — fine enough that a bucket rarely holds more than a
    /// small slice of the value range, coarse enough that bucket counts stay
    /// bounded by the exponent range.
    Geometric {
        /// How many leading mantissa bits refine the exponent buckets
        /// (0 ⇒ one bucket per power of two). At most 32.
        mantissa_bits: u8,
    },
    /// Fixed-width (Δ-stepping) mapping: bucket `floor((v - origin) / width)`,
    /// clamped below at bucket 0.
    ///
    /// Floating-point division may place a boundary value one bucket off the
    /// ideal real-arithmetic boundary, but the mapping stays value-pure and
    /// monotone, which is all the determinism contract requires.
    Linear {
        /// Value mapped to the left edge of bucket 0.
        origin: f64,
        /// Bucket width Δ; must be positive and finite.
        width: f64,
    },
}

impl BucketMapping {
    /// The default geometric refinement: 16 sub-buckets per octave.
    pub const DEFAULT_MANTISSA_BITS: u8 = 4;

    /// The workspace-default mapping used by the solvers.
    pub fn geometric_default() -> Self {
        BucketMapping::Geometric {
            mantissa_bits: Self::DEFAULT_MANTISSA_BITS,
        }
    }

    /// Maps a non-negative finite value to its bucket id.
    ///
    /// Pure and monotone: see the crate-level determinism contract.
    ///
    /// # Panics
    /// Panics (debug assertions) on negative, NaN or infinite input.
    #[inline]
    pub fn bucket_of(&self, v: f64) -> u32 {
        debug_assert!(
            v.is_finite() && v >= 0.0,
            "bucket mapping requires non-negative finite values, got {v}"
        );
        match *self {
            BucketMapping::Geometric { mantissa_bits } => {
                debug_assert!(mantissa_bits <= 32);
                // `v + 0.0` canonicalises -0.0 (which passes the `>= 0.0`
                // check above) to +0.0 so its sign bit cannot leak into the
                // key; it is the identity on every other non-negative value.
                ((v + 0.0).to_bits() >> (52 - mantissa_bits as u64)) as u32
            }
            BucketMapping::Linear { origin, width } => {
                debug_assert!(width > 0.0 && width.is_finite());
                let b = ((v - origin) / width).floor();
                if b <= 0.0 {
                    0
                } else if b >= u32::MAX as f64 {
                    u32::MAX
                } else {
                    b as u32
                }
            }
        }
    }

    /// A value at (geometric: exactly; linear: within rounding of) the left
    /// edge of the bucket. Monotone in the bucket id.
    ///
    /// For the geometric mapping this is a true lower bound: every value in
    /// bucket `b` satisfies `lower_bound(b) <= v < lower_bound(b + 1)`. For
    /// the linear mapping it can overshoot a boundary value by one ulp-scale
    /// rounding, so readiness tests must compare exact keys (the queue does).
    #[inline]
    pub fn lower_bound(&self, bucket: u32) -> f64 {
        match *self {
            BucketMapping::Geometric { mantissa_bits } => {
                f64::from_bits((bucket as u64) << (52 - mantissa_bits as u64))
            }
            BucketMapping::Linear { origin, width } => origin + bucket as f64 * width,
        }
    }
}

/// One queued entry: an element id and its exact key.
pub type Entry = (u32, f64);

/// A deterministic monotone bucket queue.
///
/// Elements are `(id, key)` pairs; the key decides the bucket via the fixed
/// [`BucketMapping`], and entries inside a bucket keep insertion order.
/// Extraction walks buckets in ascending id and compares **exact keys**
/// against the caller's threshold, so floating-point bucket boundaries can
/// never change what is extracted — only how many buckets are touched while
/// finding it.
///
/// The queue does not deduplicate: callers that re-key elements insert
/// fresh entries and drop stale ones on extraction (lazy deletion) by
/// checking a `current_key` array on their side.
#[derive(Debug, Clone)]
pub struct BucketQueue {
    mapping: BucketMapping,
    buckets: BTreeMap<u32, Vec<Entry>>,
    len: usize,
}

impl BucketQueue {
    /// Creates an empty queue over the given mapping.
    pub fn new(mapping: BucketMapping) -> Self {
        BucketQueue {
            mapping,
            buckets: BTreeMap::new(),
            len: 0,
        }
    }

    /// The mapping this queue buckets by.
    pub fn mapping(&self) -> BucketMapping {
        self.mapping
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an entry at the right edge of its bucket.
    pub fn insert(&mut self, id: u32, key: f64) {
        let b = self.mapping.bucket_of(key);
        self.buckets.entry(b).or_default().push((id, key));
        self.len += 1;
    }

    /// The smallest non-empty bucket id, or `None` when empty.
    pub fn next_bucket(&self) -> Option<u32> {
        self.buckets.keys().next().copied()
    }

    /// Extracts every entry with exact key `<= threshold`, in canonical
    /// order: ascending bucket id, then left-to-right insertion order within
    /// each bucket. Entries above the threshold stay queued in order.
    ///
    /// Monotonicity of the mapping means only buckets with id
    /// `<= bucket_of(threshold)` can hold ready entries, so a call touches
    /// just the low end of the structure.
    pub fn extract_ready(&mut self, threshold: f64) -> Vec<Entry> {
        let mut out = Vec::new();
        if self.len == 0 {
            return out;
        }
        let last = self.mapping.bucket_of(threshold);
        let mut emptied = Vec::new();
        for (&b, bucket) in self.buckets.range_mut(..=last) {
            // Stable partition: ready entries move out in order, the rest
            // keep their relative order.
            let mut kept = Vec::new();
            for &(id, key) in bucket.iter() {
                if key <= threshold {
                    out.push((id, key));
                } else {
                    kept.push((id, key));
                }
            }
            if kept.len() != bucket.len() {
                *bucket = kept;
                if bucket.is_empty() {
                    emptied.push(b);
                }
            }
        }
        for b in emptied {
            self.buckets.remove(&b);
        }
        self.len -= out.len();
        out
    }
}

/// How k-center derives its candidate radii.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RadiusDeriver {
    /// The paper's derivation: sort all `O(n²)` distinct pairwise distances
    /// and binary-search them. Exact 2-approximation certificate, refused
    /// past the oracle's scratch cap. Preserves today's bytes.
    #[default]
    Exact,
    /// Sampling/quantile-sketch derivation: candidate radii come from a
    /// deterministic seeded sample of pairwise distances, probed
    /// coarse-to-fine through geometric buckets. `O(s²)` transient for a
    /// fixed sample size `s`, so it runs at the sparse/xlarge presets where
    /// the exact path refuses. May probe different radii than the exact
    /// path (still a valid `2·threshold` certificate for the radii it does
    /// certify).
    Sketch,
}

impl RadiusDeriver {
    /// Stable string form used by the CLI and bench artifacts.
    pub fn as_str(self) -> &'static str {
        match self {
            RadiusDeriver::Exact => "exact",
            RadiusDeriver::Sketch => "sketch",
        }
    }
}

impl std::fmt::Display for RadiusDeriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for RadiusDeriver {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(RadiusDeriver::Exact),
            "sketch" => Ok(RadiusDeriver::Sketch),
            other => Err(format!(
                "unknown radius deriver '{other}' (expected 'exact' or 'sketch')"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> BucketMapping {
        BucketMapping::geometric_default()
    }

    #[test]
    fn geometric_mapping_is_monotone_including_denormals() {
        // A gauntlet spanning zero, denormals, normals, and large values,
        // already sorted ascending.
        let values = [
            0.0,
            f64::from_bits(1),       // smallest positive denormal
            f64::from_bits(12345),   // another denormal
            f64::MIN_POSITIVE / 2.0, // denormal near the normal boundary
            f64::MIN_POSITIVE,       // smallest normal
            1e-300,
            1e-9,
            0.5,
            1.0 - f64::EPSILON,
            1.0,
            1.0 + f64::EPSILON,
            2.0,
            3.75,
            1e9,
            f64::MAX,
        ];
        for mb in [0u8, 1, 4, 8] {
            let m = BucketMapping::Geometric { mantissa_bits: mb };
            for w in values.windows(2) {
                assert!(
                    m.bucket_of(w[0]) <= m.bucket_of(w[1]),
                    "mb={mb}: bucket_of({}) > bucket_of({})",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn geometric_lower_bound_brackets_every_bucket() {
        let m = geo();
        for &v in &[0.0, f64::from_bits(7), f64::MIN_POSITIVE, 0.3, 1.0, 1e12] {
            let b = m.bucket_of(v);
            assert!(m.lower_bound(b) <= v, "lower_bound({b}) > {v}");
            assert!(v < m.lower_bound(b + 1), "{v} >= lower_bound({})", b + 1);
        }
        assert_eq!(m.lower_bound(0), 0.0);
    }

    #[test]
    fn ties_share_a_bucket_exactly() {
        let m = geo();
        let l = BucketMapping::Linear {
            origin: 0.0,
            width: 0.37,
        };
        for &v in &[0.0, 1e-310, 0.125, 1.0, 97.25] {
            let copy = v * 1.0;
            assert_eq!(m.bucket_of(v), m.bucket_of(copy));
            assert_eq!(l.bucket_of(v), l.bucket_of(copy));
        }
    }

    #[test]
    fn zero_and_denormals_land_in_bucket_zero_at_default_refinement() {
        let m = geo();
        assert_eq!(m.bucket_of(0.0), 0);
        // -0.0 compares >= 0.0 but carries a sign bit; it must land in the
        // same bucket as +0.0, not a sign-bit-polluted one.
        assert_eq!(m.bucket_of(-0.0), 0);
        // The default 4 refinement bits keep the tiniest denormals in
        // bucket 0 (their top mantissa bits are zero).
        assert_eq!(m.bucket_of(f64::from_bits(1)), 0);
    }

    #[test]
    fn linear_mapping_is_monotone_and_clamps_below_origin() {
        let m = BucketMapping::Linear {
            origin: 10.0,
            width: 2.5,
        };
        assert_eq!(m.bucket_of(0.0), 0, "below-origin clamps to bucket 0");
        assert_eq!(m.bucket_of(9.99), 0);
        assert_eq!(m.bucket_of(10.0), 0);
        assert_eq!(m.bucket_of(12.5), 1);
        assert_eq!(m.bucket_of(100.0), 36);
        let values = [0.0, 9.0, 10.0, 11.0, 12.49, 12.5, 13.0, 99.0, 1e6];
        for w in values.windows(2) {
            assert!(m.bucket_of(w[0]) <= m.bucket_of(w[1]));
        }
    }

    #[test]
    fn degenerate_single_bucket_range_still_extracts_exactly() {
        // A width so large every key collapses into bucket 0 — the queue
        // degenerates to one insertion-ordered list but readiness stays
        // exact because it compares keys, not boundaries.
        let m = BucketMapping::Linear {
            origin: 0.0,
            width: f64::MAX,
        };
        let mut q = BucketQueue::new(m);
        q.insert(0, 5.0);
        q.insert(1, 1.0);
        q.insert(2, 3.0);
        assert_eq!(q.next_bucket(), Some(0));
        let ready = q.extract_ready(3.0);
        assert_eq!(ready, vec![(1, 1.0), (2, 3.0)], "exact keys, queue order");
        assert_eq!(q.len(), 1);
        assert_eq!(q.extract_ready(f64::MAX), vec![(0, 5.0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn extraction_order_is_ascending_bucket_then_insertion() {
        let mut q = BucketQueue::new(geo());
        // Insert out of value order; ids record insertion order.
        q.insert(10, 8.0);
        q.insert(11, 1.0);
        q.insert(12, 1.0); // tie with 11 — same bucket, after it
        q.insert(13, 2.0);
        q.insert(14, 0.0);
        let all = q.extract_ready(f64::MAX);
        assert_eq!(
            all,
            vec![(14, 0.0), (11, 1.0), (12, 1.0), (13, 2.0), (10, 8.0)]
        );
    }

    #[test]
    fn extract_ready_respects_exact_threshold_within_a_bucket() {
        let mut q = BucketQueue::new(geo());
        // 1.0 and 1.05 share the mb=4 bucket [1.0, 1.0625); threshold 1.0
        // must take only the first.
        q.insert(0, 1.05);
        q.insert(1, 1.0);
        assert_eq!(q.extract_ready(1.0), vec![(1, 1.0)]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.extract_ready(1.05), vec![(0, 1.05)]);
    }

    #[test]
    fn mapping_is_value_pure_across_queue_instances() {
        // The same keys inserted in different interleavings produce the same
        // bucket shape (ids and per-bucket multisets): bucket id depends on
        // value alone.
        let keys = [3.0, 0.1, 7.5, 0.1, 2.25];
        let mut a = BucketQueue::new(geo());
        let mut b = BucketQueue::new(geo());
        for (i, &k) in keys.iter().enumerate() {
            a.insert(i as u32, k);
        }
        for (i, &k) in keys.iter().enumerate().rev() {
            b.insert(i as u32, k);
        }
        let mut from_a = a.extract_ready(f64::MAX);
        let mut from_b = b.extract_ready(f64::MAX);
        from_a.sort_by_key(|&(id, _)| id);
        from_b.sort_by_key(|&(id, _)| id);
        assert_eq!(from_a, from_b);
    }

    #[test]
    fn radius_deriver_parses_round_trip() {
        assert_eq!(
            "exact".parse::<RadiusDeriver>().unwrap(),
            RadiusDeriver::Exact
        );
        assert_eq!(
            "sketch".parse::<RadiusDeriver>().unwrap(),
            RadiusDeriver::Sketch
        );
        assert!("quantile".parse::<RadiusDeriver>().is_err());
        assert_eq!(RadiusDeriver::default(), RadiusDeriver::Exact);
        for d in [RadiusDeriver::Exact, RadiusDeriver::Sketch] {
            assert_eq!(d.as_str().parse::<RadiusDeriver>().unwrap(), d);
        }
    }
}

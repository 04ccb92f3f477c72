//! Shared query state: the running nearest candidate with the canonical
//! `(distance, id)` tie-breaking every index must honour, and the sort
//! every range query's hits go through. The one blocked scan both
//! structures' contiguous point runs (flat set, grid bucket) funnel through
//! is [`Flat`](crate::Flat)'s.

use std::cmp::Ordering;

/// Sorts a set of distinct ids into ascending order. Dense results (a
/// range query whose hits fill at least 1/8 of `0..=max id`) get a bitmask
/// sweep over that span — O(span) instead of O(m log m) — which matters at
/// the million-point presets where late solver rounds collect nearly every
/// id. The span comes from the hits, so a subset index whose caller ids run
/// past its point count sorts them too.
pub(crate) fn sort_ids_ascending(out: &mut Vec<usize>) {
    let span = if out.len() < 4096 {
        usize::MAX
    } else {
        out.iter().max().map_or(0, |&id| id + 1)
    };
    if out.len() < span / 8 {
        out.sort_unstable();
        return;
    }
    let mut mask = vec![0u64; span / 64 + 1];
    for &id in out.iter() {
        mask[id / 64] |= 1u64 << (id % 64);
    }
    out.clear();
    for (w, &bits) in mask.iter().enumerate() {
        let mut bits = bits;
        while bits != 0 {
            out.push(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Running nearest candidate: minimal `(distance, id)`, `None` until the
/// first candidate.
///
/// The pruning rule lives here once: a cell may be skipped only when its
/// computed lower bound **strictly** exceeds the distance to beat — an
/// equal bound may still hide an equal-distance point with a lower id.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Best(Option<(f64, usize)>);

impl Best {
    pub(crate) fn new() -> Self {
        Best(None)
    }

    pub(crate) fn into_result(self) -> Option<(usize, f64)> {
        self.0.map(|(d, id)| (id, d))
    }

    /// Offers a candidate point, kept if it is lower in `(distance, id)`
    /// order. Finite coordinates give distances that are never NaN, so the
    /// `partial_cmp` never fails on well-formed inputs.
    #[inline]
    pub(crate) fn consider(&mut self, d: f64, id: usize) {
        let better = self.0.map_or(true, |(best_d, best_id)| {
            d.partial_cmp(&best_d)
                .expect("index distances are never NaN")
                .then(id.cmp(&best_id))
                == Ordering::Less
        });
        if better {
            self.0 = Some((d, id));
        }
    }

    /// The distance a new candidate must beat (`None` ⇒ never prune yet).
    #[inline]
    pub(crate) fn bound_to_beat(&self) -> Option<f64> {
        self.0.map(|(d, _)| d)
    }

    /// Whether a region with computed lower bound `bound` can be skipped.
    #[inline]
    pub(crate) fn prunes(&self, bound: f64) -> bool {
        self.bound_to_beat().is_some_and(|d| bound > d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_prefers_lower_distance_then_lower_id() {
        let mut b = Best::new();
        assert!(!b.prunes(0.0));
        b.consider(2.0, 5);
        b.consider(2.0, 3);
        b.consider(2.0, 9);
        assert_eq!(b.into_result(), Some((3, 2.0)));

        let mut b = Best::new();
        b.consider(1.0, 7);
        assert!(b.prunes(1.5));
        assert!(!b.prunes(1.0), "equal bound must not prune (tie safety)");
    }
}

//! `VertexSubset` — the Ligra frontier representation.
//!
//! A frontier is a subset of a graph's vertices, held either as a sorted
//! sparse id list or as a dense bitmap. Which representation a subset uses is
//! a pure function of how it was constructed and of frontier density — never
//! of thread count — and every query on it is representation-independent, so
//! algorithms built on frontiers produce byte-identical output whichever form
//! their subsets happen to take.

/// A subset of the vertices `0..n`, in sparse (sorted id list) or dense
/// (bitmap) form.
#[derive(Debug, Clone)]
pub struct VertexSubset {
    n: usize,
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    /// Strictly ascending vertex ids.
    Sparse(Vec<u32>),
    /// One bit per vertex plus a cached population count.
    Dense { bits: Vec<bool>, count: usize },
}

impl VertexSubset {
    /// The empty subset of `0..n` (sparse).
    pub fn empty(n: usize) -> Self {
        VertexSubset {
            n,
            repr: Repr::Sparse(Vec::new()),
        }
    }

    /// The full subset `0..n` (dense).
    pub fn full(n: usize) -> Self {
        VertexSubset {
            n,
            repr: Repr::Dense {
                bits: vec![true; n],
                count: n,
            },
        }
    }

    /// A dense subset copied from a membership mask.
    pub fn from_mask(mask: &[bool]) -> Self {
        Self::from_mask_owned(mask.to_vec())
    }

    /// A dense subset taking ownership of a membership mask.
    pub fn from_mask_owned(bits: Vec<bool>) -> Self {
        let count = bits.iter().filter(|&&b| b).count();
        VertexSubset {
            n: bits.len(),
            repr: Repr::Dense { bits, count },
        }
    }

    /// A sparse subset from strictly ascending vertex ids.
    ///
    /// # Panics
    /// Debug builds panic if `ids` is not strictly ascending or exceeds `n`.
    pub fn from_sorted_ids(n: usize, ids: Vec<u32>) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids must be strictly ascending"
        );
        debug_assert!(ids.last().map_or(true, |&v| (v as usize) < n));
        VertexSubset {
            n,
            repr: Repr::Sparse(ids),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Sparse(ids) => ids.len(),
            Repr::Dense { count, .. } => *count,
        }
    }

    /// Whether the subset has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the subset is held in sparse (id list) form.
    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, Repr::Sparse(_))
    }

    /// Membership test (`O(log len)` sparse, `O(1)` dense).
    pub fn contains(&self, v: usize) -> bool {
        match &self.repr {
            Repr::Sparse(ids) => ids.binary_search(&(v as u32)).is_ok(),
            Repr::Dense { bits, .. } => bits[v],
        }
    }

    /// The member ids, strictly ascending.
    pub fn ids(&self) -> Vec<u32> {
        match &self.repr {
            Repr::Sparse(ids) => ids.clone(),
            Repr::Dense { bits, .. } => bits
                .iter()
                .enumerate()
                .filter_map(|(v, &b)| if b { Some(v as u32) } else { None })
                .collect(),
        }
    }

    /// The membership mask, length `n`.
    pub fn to_mask(&self) -> Vec<bool> {
        match &self.repr {
            Repr::Sparse(ids) => {
                let mut mask = vec![false; self.n];
                for &v in ids {
                    mask[v as usize] = true;
                }
                mask
            }
            Repr::Dense { bits, .. } => bits.clone(),
        }
    }

    /// Calls `f` on every member in ascending order.
    pub fn for_each(&self, mut f: impl FnMut(usize)) {
        match &self.repr {
            Repr::Sparse(ids) => {
                for &v in ids {
                    f(v as usize);
                }
            }
            Repr::Dense { bits, .. } => {
                for (v, &b) in bits.iter().enumerate() {
                    if b {
                        f(v);
                    }
                }
            }
        }
    }

    /// Set union. Sparse when both operands are sparse, dense otherwise —
    /// a pure function of the operand representations.
    ///
    /// # Panics
    /// Panics if the universes differ.
    pub fn union(&self, other: &VertexSubset) -> VertexSubset {
        assert_eq!(self.n, other.n, "universe mismatch");
        match (&self.repr, &other.repr) {
            (Repr::Sparse(a), Repr::Sparse(b)) => {
                let mut out = Vec::with_capacity(a.len() + b.len());
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => {
                            out.push(a[i]);
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            out.push(b[j]);
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            out.push(a[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                out.extend_from_slice(&a[i..]);
                out.extend_from_slice(&b[j..]);
                VertexSubset::from_sorted_ids(self.n, out)
            }
            _ => {
                let mut bits = self.to_mask();
                other.for_each(|v| bits[v] = true);
                VertexSubset::from_mask_owned(bits)
            }
        }
    }
}

impl PartialEq for VertexSubset {
    /// Semantic (membership) equality — representation does not matter.
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.len() == other.len() && self.ids() == other.ids()
    }
}

impl Eq for VertexSubset {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = VertexSubset::empty(5);
        let f = VertexSubset::full(5);
        assert!(e.is_empty() && e.is_sparse());
        assert_eq!(f.len(), 5);
        assert!(!f.is_sparse());
        assert_eq!(f.ids(), vec![0, 1, 2, 3, 4]);
        assert!(f.contains(4) && !e.contains(4));
    }

    #[test]
    fn representations_compare_equal_by_membership() {
        let sparse = VertexSubset::from_sorted_ids(6, vec![1, 3, 4]);
        let dense = VertexSubset::from_mask(&[false, true, false, true, true, false]);
        assert_eq!(sparse, dense);
        assert_eq!(sparse.to_mask(), dense.to_mask());
        assert_eq!(sparse.len(), 3);
        let mut seen = Vec::new();
        dense.for_each(|v| seen.push(v));
        assert_eq!(seen, vec![1, 3, 4]);
    }

    #[test]
    fn union_covers_all_representation_pairs() {
        let a = VertexSubset::from_sorted_ids(6, vec![0, 2]);
        let b = VertexSubset::from_sorted_ids(6, vec![2, 5]);
        let c = VertexSubset::from_mask(&[false, true, true, false, false, false]);
        let ab = a.union(&b);
        assert!(ab.is_sparse());
        assert_eq!(ab.ids(), vec![0, 2, 5]);
        let ac = a.union(&c);
        assert!(!ac.is_sparse());
        assert_eq!(ac.ids(), vec![0, 1, 2]);
        assert_eq!(c.union(&a), ac);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn union_rejects_universe_mismatch() {
        let _ = VertexSubset::empty(3).union(&VertexSubset::empty(4));
    }
}

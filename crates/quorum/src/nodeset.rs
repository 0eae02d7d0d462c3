//! Bitmask node sets for quorum predicates.

use core::fmt;

/// Maximum number of logical nodes a [`NodeSet`] can describe.
pub const MAX_NODES: usize = 128;

/// A set of node indices `0..MAX_NODES` backed by a `u128` bitmask.
///
/// Quorum predicates are pure functions `NodeSet → bool`; keeping the set
/// in one word makes exhaustive 2^N enumeration allocation-free.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NodeSet(u128);

impl NodeSet {
    /// The empty set.
    pub const EMPTY: NodeSet = NodeSet(0);

    /// Set containing nodes `0..n`.
    ///
    /// # Panics
    /// Panics if `n > MAX_NODES`.
    pub fn full(n: usize) -> NodeSet {
        assert!(n <= MAX_NODES, "NodeSet supports at most {MAX_NODES} nodes");
        if n == MAX_NODES {
            NodeSet(u128::MAX)
        } else {
            NodeSet((1u128 << n) - 1)
        }
    }

    /// Builds a set from an iterator of node indices.
    ///
    /// # Panics
    /// Panics if any index is `≥ MAX_NODES`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(indices: I) -> NodeSet {
        let mut s = NodeSet::EMPTY;
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// Builds a set from a raw bitmask.
    pub const fn from_bits(bits: u128) -> NodeSet {
        NodeSet(bits)
    }

    /// The raw bitmask.
    pub const fn bits(self) -> u128 {
        self.0
    }

    /// Inserts node `i`.
    ///
    /// # Panics
    /// Panics if `i ≥ MAX_NODES`.
    pub fn insert(&mut self, i: usize) {
        assert!(i < MAX_NODES, "node index {i} out of range");
        self.0 |= 1u128 << i;
    }

    /// Removes node `i` if present.
    pub fn remove(&mut self, i: usize) {
        if i < MAX_NODES {
            self.0 &= !(1u128 << i);
        }
    }

    /// Membership test.
    pub const fn contains(self, i: usize) -> bool {
        i < MAX_NODES && self.0 & (1u128 << i) != 0
    }

    /// Number of nodes in the set.
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` iff empty.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set intersection.
    pub const fn intersection(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 & other.0)
    }

    /// Set union.
    pub const fn union(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 | other.0)
    }

    /// Set difference `self \ other`.
    pub const fn difference(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 & !other.0)
    }

    /// `true` iff the two sets share at least one node — the quorum
    /// intersection property (eqs. 2 and 3 of the paper).
    pub const fn intersects(self, other: NodeSet) -> bool {
        self.0 & other.0 != 0
    }

    /// `true` iff `self ⊆ other`.
    pub const fn is_subset_of(self, other: NodeSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Number of members within index range `lo..hi` — used to count live
    /// nodes inside one trapezoid level stored as a contiguous range.
    pub fn count_in_range(self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi && hi <= MAX_NODES);
        if lo >= hi {
            return 0;
        }
        let width = hi - lo;
        let mask = if width == MAX_NODES {
            u128::MAX
        } else {
            ((1u128 << width) - 1) << lo
        };
        (self.0 & mask).count_ones() as usize
    }

    /// Iterates over member indices in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        core::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(i)
            }
        })
    }
}

impl FromIterator<usize> for NodeSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        NodeSet::from_indices(iter)
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeSet{{")?;
        let mut first = true;
        for i in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_set_operations() {
        let mut s = NodeSet::EMPTY;
        assert!(s.is_empty());
        s.insert(0);
        s.insert(5);
        s.insert(127);
        assert_eq!(s.len(), 3);
        assert!(s.contains(0) && s.contains(5) && s.contains(127));
        assert!(!s.contains(1));
        s.remove(5);
        assert_eq!(s.len(), 2);
        assert!(!s.contains(5));
    }

    #[test]
    fn full_set() {
        assert_eq!(NodeSet::full(0), NodeSet::EMPTY);
        assert_eq!(NodeSet::full(3).len(), 3);
        assert_eq!(NodeSet::full(128).len(), 128);
    }

    #[test]
    fn set_algebra() {
        let a = NodeSet::from_indices([0, 1, 2]);
        let b = NodeSet::from_indices([2, 3]);
        assert_eq!(a.intersection(b), NodeSet::from_indices([2]));
        assert_eq!(a.union(b), NodeSet::from_indices([0, 1, 2, 3]));
        assert_eq!(a.difference(b), NodeSet::from_indices([0, 1]));
        assert!(a.intersects(b));
        assert!(!a.intersects(NodeSet::from_indices([4, 5])));
        assert!(NodeSet::from_indices([1]).is_subset_of(a));
        assert!(!a.is_subset_of(b));
    }

    #[test]
    fn count_in_range() {
        let s = NodeSet::from_indices([0, 2, 3, 9, 10]);
        assert_eq!(s.count_in_range(0, 4), 3);
        assert_eq!(s.count_in_range(4, 9), 0);
        assert_eq!(s.count_in_range(9, 11), 2);
        assert_eq!(s.count_in_range(3, 3), 0);
        assert_eq!(s.count_in_range(0, 128), 5);
    }

    #[test]
    fn iteration_order() {
        let s = NodeSet::from_indices([7, 1, 100]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 7, 100]);
    }

    #[test]
    fn debug_format() {
        let s = NodeSet::from_indices([1, 3]);
        assert_eq!(format!("{s:?}"), "NodeSet{1, 3}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut s = NodeSet::EMPTY;
        s.insert(128);
    }
}

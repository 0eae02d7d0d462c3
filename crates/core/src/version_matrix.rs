//! The version matrix V of Algorithm 1/2.
//!
//! The paper defines `V` as a `k × (n − k)` matrix where `V(i, j − k)` is
//! the version of the contribution `α_{j,i}·b_i` currently folded into
//! parity node `j`. Each parity node owns one *column*; protocol
//! operations gather columns from live nodes into this client-side
//! structure, find the latest version of the target block, and pick
//! mutually-consistent node sets for decode.

use core::fmt;

/// Client-side assembly of version information gathered during one
/// operation. Columns are `Option` — a down node's column stays `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct VersionMatrix {
    k: usize,
    parity_count: usize,
    /// `columns[j - k]` = version vector of parity node `j`.
    columns: Vec<Option<Vec<u64>>>,
    /// Versions of the data nodes (`data[i]` = version of `N_i`'s block),
    /// where known.
    data: Vec<Option<u64>>,
}

impl VersionMatrix {
    /// An empty matrix for a `(n, k)` stripe.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k >= 1 && k <= n, "invalid (n, k) = ({n}, {k})");
        VersionMatrix {
            k,
            parity_count: n - k,
            columns: vec![None; n - k],
            data: vec![None; k],
        }
    }

    /// Records the column of parity node `j` (stripe index `k ≤ j < n`).
    ///
    /// # Panics
    /// Panics if `j` is not a parity index or the column length ≠ k.
    pub(crate) fn set_column(&mut self, j: usize, column: Vec<u64>) {
        assert!(
            j >= self.k && j < self.k + self.parity_count,
            "{j} is not a parity index"
        );
        assert_eq!(column.len(), self.k, "column length must be k");
        self.columns[j - self.k] = Some(column);
    }

    /// Records the version of data node `i`.
    ///
    /// # Panics
    /// Panics if `i ≥ k`.
    pub(crate) fn set_data_version(&mut self, i: usize, version: u64) {
        self.data[i] = Some(version);
    }

    /// `V(i, j − k)` if node `j`'s column was collected.
    pub fn get(&self, i: usize, j: usize) -> Option<u64> {
        self.columns[j - self.k].as_ref().map(|c| c[i])
    }

    /// Version of data node `i`, if collected.
    pub(crate) fn data_version(&self, i: usize) -> Option<u64> {
        self.data[i]
    }

    /// The largest version observed for block `i` across the data node
    /// and every collected parity column — Algorithm 2's "latest version"
    /// after a completed check.
    pub(crate) fn latest_version(&self, i: usize) -> Option<u64> {
        let from_parity = self.columns.iter().flatten().map(|c| c[i]).max();
        match (self.data[i], from_parity) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }

    /// Groups collected parity columns by exact value, keeping only
    /// groups whose entry for block `i` equals `version`. Decode safety
    /// requires the k chosen blocks to reflect *one* stripe state;
    /// identical columns guarantee that for the parity part. Every group
    /// is a valid basis for decoding block `i` at `version` (the other
    /// components of an older stripe state do not change `b_i`'s bytes),
    /// so callers should pick the group that maximises usable nodes.
    pub(crate) fn consistent_parity_groups(
        &self,
        i: usize,
        version: u64,
    ) -> Vec<(Vec<usize>, Vec<u64>)> {
        let mut groups: Vec<(Vec<usize>, Vec<u64>)> = Vec::new();
        for (c, col) in self.columns.iter().enumerate() {
            let Some(col) = col else { continue };
            if col[i] != version {
                continue;
            }
            match groups.iter_mut().find(|(_, g)| g == col) {
                Some((members, _)) => members.push(self.k + c),
                None => groups.push((vec![self.k + c], col.clone())),
            }
        }
        groups
    }
}

impl fmt::Display for VersionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "V ({} data x {} parity):", self.k, self.parity_count)?;
        for i in 0..self.k {
            write!(f, "  b_{i} [data: ")?;
            match self.data[i] {
                Some(v) => write!(f, "{v}")?,
                None => write!(f, "?")?,
            }
            write!(f, "] ")?;
            for col in &self.columns {
                match col {
                    Some(c) => write!(f, "{:>3}", c[i])?,
                    None => write!(f, "  ?")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_and_query() {
        let mut v = VersionMatrix::new(6, 4); // 4 data, 2 parity (j = 4, 5)
        assert_eq!(v.latest_version(0), None);
        v.set_column(4, vec![1, 0, 2, 0]);
        v.set_column(5, vec![1, 0, 3, 0]);
        v.set_data_version(2, 3);
        assert_eq!(v.get(2, 4), Some(2));
        assert_eq!(v.get(2, 5), Some(3));
        assert_eq!(v.data_version(2), Some(3));
        assert_eq!(v.latest_version(2), Some(3));
        assert_eq!(v.latest_version(0), Some(1));
        assert_eq!(v.latest_version(1), Some(0));
    }

    #[test]
    fn consistent_group_selection() {
        // Parity 4..8: two nodes agree on one stripe state, one diverges
        // on another block's version, one is stale for block 0.
        let mut v = VersionMatrix::new(8, 4);
        v.set_column(4, vec![7, 1, 2, 0]);
        v.set_column(5, vec![7, 1, 2, 0]);
        v.set_column(6, vec![7, 9, 2, 0]);
        v.set_column(7, vec![6, 1, 2, 0]);
        // At block 0's version 7, columns 4 and 5 form one group and
        // column 6 its own; the stale column 7 forms the only group at 6.
        assert_eq!(
            v.consistent_parity_groups(0, 7),
            vec![(vec![4, 5], vec![7, 1, 2, 0]), (vec![6], vec![7, 9, 2, 0])]
        );
        assert_eq!(
            v.consistent_parity_groups(0, 6),
            vec![(vec![7], vec![6, 1, 2, 0])]
        );
        // No group at an unseen version.
        assert!(v.consistent_parity_groups(0, 42).is_empty());
    }

    #[test]
    fn display_renders() {
        let mut v = VersionMatrix::new(5, 3);
        v.set_column(3, vec![1, 2, 3]);
        v.set_data_version(0, 1);
        let s = v.to_string();
        assert!(s.contains("b_0"));
        assert!(s.contains('?'), "missing column shown as ?");
    }

    #[test]
    #[should_panic(expected = "not a parity index")]
    fn set_column_rejects_data_index() {
        let mut v = VersionMatrix::new(5, 3);
        v.set_column(1, vec![0, 0, 0]);
    }
}

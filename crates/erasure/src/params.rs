//! Validated (n, k) code parameters.

use core::fmt;

/// The parameters of an (n, k) MDS code: k data blocks, n−k parity blocks,
/// any k of the n total reconstruct everything.
///
/// Invariants enforced at construction:
/// * `1 ≤ k ≤ n` — at least one data block, parity count non-negative;
/// * `n ≤ 255` — every block needs a distinct non-zero evaluation point in
///   GF(2⁸) (the paper works "over some finite field, usually GF(2^h)";
///   we fix h = 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodeParams {
    n: usize,
    k: usize,
}

/// Parameter validation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamError {
    /// k was zero.
    ZeroDataBlocks,
    /// k exceeded n.
    KExceedsN {
        /// Requested n.
        n: usize,
        /// Requested k.
        k: usize,
    },
    /// n exceeded the GF(256) limit of 255 blocks.
    TooManyBlocks {
        /// Requested n.
        n: usize,
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::ZeroDataBlocks => write!(f, "k must be at least 1"),
            ParamError::KExceedsN { n, k } => {
                write!(f, "k = {k} exceeds n = {n}")
            }
            ParamError::TooManyBlocks { n } => {
                write!(f, "n = {n} exceeds the GF(256) limit of 255 blocks")
            }
        }
    }
}

impl std::error::Error for ParamError {}

impl CodeParams {
    /// Validates and constructs an (n, k) parameter pair.
    ///
    /// # Errors
    /// See [`ParamError`].
    pub fn new(n: usize, k: usize) -> Result<Self, ParamError> {
        if k == 0 {
            return Err(ParamError::ZeroDataBlocks);
        }
        if k > n {
            return Err(ParamError::KExceedsN { n, k });
        }
        if n > 255 {
            return Err(ParamError::TooManyBlocks { n });
        }
        Ok(CodeParams { n, k })
    }

    /// Total number of blocks in a stripe (data + parity).
    #[inline]
    pub const fn n(&self) -> usize {
        self.n
    }

    /// Number of data blocks.
    #[inline]
    pub const fn k(&self) -> usize {
        self.k
    }

    /// Number of parity (redundant) blocks, `n − k`.
    #[inline]
    pub const fn parity_count(&self) -> usize {
        self.n - self.k
    }

    /// `true` if index `i` (0-based) refers to a data block.
    #[inline]
    pub const fn is_data_index(&self, i: usize) -> bool {
        i < self.k
    }

    /// `true` if index `i` (0-based) refers to a parity block.
    #[inline]
    pub const fn is_parity_index(&self, i: usize) -> bool {
        i >= self.k && i < self.n
    }

    /// Iterator over parity block indices `k..n`.
    pub fn parity_indices(&self) -> impl Iterator<Item = usize> + use<> {
        self.k..self.n
    }
}

impl fmt::Display for CodeParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})-MDS", self.n, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_params() {
        let p = CodeParams::new(9, 6).unwrap();
        assert_eq!(p.n(), 9);
        assert_eq!(p.k(), 6);
        assert_eq!(p.parity_count(), 3);
    }

    #[test]
    fn degenerate_k_equals_n() {
        let p = CodeParams::new(4, 4).unwrap();
        assert_eq!(p.parity_count(), 0);
        assert_eq!(p.parity_indices().count(), 0);
    }

    #[test]
    fn k_one_is_replication() {
        // (n, 1) MDS is n-way replication of a single block.
        let p = CodeParams::new(5, 1).unwrap();
        assert_eq!(p.parity_count(), 4);
        assert_eq!(p.parity_indices().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn rejects_bad_params() {
        assert_eq!(CodeParams::new(5, 0), Err(ParamError::ZeroDataBlocks));
        assert_eq!(
            CodeParams::new(3, 5),
            Err(ParamError::KExceedsN { n: 3, k: 5 })
        );
        assert_eq!(
            CodeParams::new(256, 10),
            Err(ParamError::TooManyBlocks { n: 256 })
        );
    }

    #[test]
    fn index_classification() {
        let p = CodeParams::new(6, 4).unwrap();
        assert!(p.is_data_index(0));
        assert!(p.is_data_index(3));
        assert!(!p.is_data_index(4));
        assert!(p.is_parity_index(4));
        assert!(p.is_parity_index(5));
        assert!(!p.is_parity_index(6));
        assert_eq!(p.parity_indices().collect::<Vec<_>>(), vec![4, 5]);
    }

    #[test]
    fn display() {
        assert_eq!(CodeParams::new(15, 8).unwrap().to_string(), "(15, 8)-MDS");
    }
}

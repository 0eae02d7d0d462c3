//! # tq-erasure — systematic (n, k) MDS erasure codes with delta updates
//!
//! This crate implements the storage scheme the TRAP-ERC paper (Relaza et
//! al., IPDPSW 2015) assumes in §III-A:
//!
//! > An (n, k) MDS erasure code stores the original k data blocks into k
//! > nodes out of n and generates n−k redundant blocks such that any k
//! > nodes out of n can reconstruct the original data.
//! > For k+1 ≤ j ≤ n:  b_j = Σ_{i=1..k} α_{j,i}·b_i   (eq. 1)
//!
//! The pieces:
//!
//! * [`CodeParams`] — validated (n, k) pair.
//! * [`ReedSolomon`] — the codec. Systematic generator derived from a
//!   Vandermonde matrix; exposes the coefficients `α_{j,i}` that
//!   Algorithm 1 of the paper multiplies deltas by, encodes parity blocks,
//!   reconstructs any subset of lost blocks from any k survivors, and
//!   recovers a single data block without decoding the whole stripe.
//! * [`delta`] — the in-place update path: the raw delta `x − c` a client
//!   sends once, which each parity node scales by its `α_{j,i}` while
//!   folding it in — the GF-commutativity trick the paper's write
//!   algorithm relies on (Algorithm 1 line 27).
//! * [`check`] — stripe cross-checksum vectors: per-data-block GF-linear
//!   checksums from which a reader derives the expected checksum of *any*
//!   shard (data or parity) and verifies it before decoding — the
//!   integrity mode's defense against silently corrupt shards.
//!
//! ## Quickstart
//!
//! ```
//! use tq_erasure::{CodeParams, ReedSolomon};
//!
//! // A (9, 6) MDS code — the paper's §I example.
//! let rs = ReedSolomon::new(CodeParams::new(9, 6).unwrap());
//! let data: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 64]).collect();
//! let data_refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
//! let parity = rs.encode(&data_refs);
//!
//! // Lose any 3 blocks (= n - k), still decode.
//! let mut shards: Vec<Option<Vec<u8>>> =
//!     data.iter().cloned().map(Some).chain(parity.into_iter().map(Some)).collect();
//! shards[0] = None;
//! shards[4] = None;
//! shards[7] = None;
//! rs.reconstruct(&mut shards).unwrap();
//! assert_eq!(shards[0].as_deref(), Some(&data[0][..]));
//! ```

// unsafe_code is forbidden workspace-wide (see [workspace.lints] in the
// root Cargo.toml), so no module of this crate can re-allow it.
#![warn(missing_docs)]

pub mod check;
pub mod code;
pub mod delta;
pub mod params;

pub use check::{data_checks, expected_block_check, expected_parity_check, verify_block};
pub use code::ReedSolomon;
pub use params::{CodeParams, ParamError};

/// Errors produced by encode/decode operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeError {
    /// Fewer than k shards were present; reconstruction is impossible.
    TooFewShards {
        /// Number of shards available.
        present: usize,
        /// Number of shards required (k).
        needed: usize,
    },
    /// Shard lengths disagree within one call.
    ShardSizeMismatch,
    /// A shard index was outside `0..n`.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Total number of blocks n.
        n: usize,
    },
    /// The shard vector handed to reconstruct had the wrong length.
    WrongShardCount {
        /// Length of the vector supplied.
        got: usize,
        /// Expected length (n).
        expected: usize,
    },
}

impl core::fmt::Display for CodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodeError::TooFewShards { present, needed } => write!(
                f,
                "only {present} shards present, need at least {needed} to decode"
            ),
            CodeError::ShardSizeMismatch => write!(f, "shards have differing lengths"),
            CodeError::IndexOutOfRange { index, n } => {
                write!(f, "shard index {index} out of range for n = {n}")
            }
            CodeError::WrongShardCount { got, expected } => {
                write!(f, "expected {expected} shard slots, got {got}")
            }
        }
    }
}

impl std::error::Error for CodeError {}

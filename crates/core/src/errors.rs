//! Protocol-level errors.

use core::fmt;

use tq_cluster::NodeError;
use tq_erasure::{CodeError, ParamError};
use tq_quorum::trapezoid::ShapeError;

/// Failure of a TRAP-ERC / TRAP-FR protocol operation.
///
/// The variants mirror the paper's failure points: Algorithm 1 returns
/// FAIL when a level validates fewer than `w_l` writes; Algorithm 2
/// returns ∅ when no level completes its version check or when fewer than
/// `k` consistent nodes exist for a decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Algorithm 1 lines 35–37: level `level` validated only `achieved`
    /// of the required `w_l = needed` writes.
    WriteQuorumNotMet {
        /// Level that failed.
        level: usize,
        /// Required `w_l`.
        needed: usize,
        /// Writes actually validated.
        achieved: usize,
    },
    /// Algorithm 1 line 15: the embedded READBLOCK for the old chunk
    /// failed, so the parity deltas cannot be computed.
    OldValueUnreadable(Box<ProtocolError>),
    /// Algorithm 2 line 39: no level assembled `r_l` live members, so the
    /// latest version cannot be established.
    VersionCheckFailed,
    /// Algorithm 2 Case 2: fewer than `k` mutually-consistent live nodes
    /// hold the latest version — the decode cannot proceed.
    NotEnoughForDecode {
        /// `k`, the number required.
        needed: usize,
        /// Consistent live nodes found.
        found: usize,
    },
    /// Integrity mode: corrupt shards were detected (checksum mismatch
    /// against the stripe's cross-checksum vector, or a node-side
    /// self-check failure) and routing around them left fewer than `k`
    /// clean shards. Unlike [`NotEnoughForDecode`](Self::NotEnoughForDecode)
    /// this is a *detected corruption* verdict: the read refused to
    /// return bytes it could not vouch for, rather than decoding garbage.
    Integrity {
        /// `k`, the number of clean shards required.
        needed: usize,
        /// Clean, mutually-consistent shards that remained.
        clean: usize,
        /// Stripe indices of nodes that served provably corrupt bytes
        /// (client-side checksum mismatch or a node-reported
        /// [`NodeError::Corrupt`]).
        corrupt: Vec<usize>,
    },
    /// Integrity mode: Case 2 decoded `block` from shards that each
    /// matched the stripe's cross-checksum vector, yet the result did
    /// not. The check is linear, so a correct codec cannot do that: the
    /// fault is the decoder's, not a node's, and the read returns no
    /// bytes rather than retry.
    DecoderFault {
        /// The data block decoded.
        block: usize,
        /// The nodes whose shards fed the decode.
        nodes: Vec<usize>,
    },
    /// The object was never created on the contacted nodes.
    StripeMissing,
    /// Block length differed from the stripe's.
    SizeMismatch,
    /// Parameter validation failure (construction time).
    Params(ParamError),
    /// Shape/threshold validation failure (construction time).
    Shape(ShapeError),
    /// Codec failure bubbled up from `tq-erasure`.
    Code(CodeError),
    /// A node/transport error that was fatal for the operation (most
    /// node errors are absorbed by quorum logic; this surfaces the ones
    /// that are not, e.g. `TransportClosed` during stripe creation).
    Node(NodeError),
    /// The store API was used inconsistently (builder protocol mismatch,
    /// duplicate batch addresses, out-of-range block index).
    Misconfigured(&'static str),
    /// Volume geometry validation failure (construction time).
    Volume(VolumeError),
}

/// Invalid [`crate::volume::VolumeConfig`] geometry (caught before any
/// stripe is provisioned) or a maintenance operation the volume's
/// backend does not support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VolumeError {
    /// `block_size` was zero.
    ZeroBlockSize,
    /// `logical_blocks` was zero.
    ZeroBlocks,
    /// `blocks_per_stripe` was zero.
    ZeroStripeWidth,
    /// The backend stripes data at a fixed width and the configured
    /// `blocks_per_stripe` differs from it.
    WidthMismatch {
        /// The configured `blocks_per_stripe`.
        configured: usize,
        /// The backend's fixed stripe width.
        backend: usize,
    },
    /// The backend is width-free (replication) and no explicit
    /// `blocks_per_stripe` was supplied — there is no width to derive.
    WidthUnknown,
    /// `blocks_per_stripe` exceeds the replicated object namespace
    /// ([`crate::store::OBJECTS_PER_STRIPE`] slots per stripe id).
    WidthOutOfRange {
        /// The configured `blocks_per_stripe`.
        configured: usize,
        /// The largest representable width.
        max: usize,
    },
}

impl fmt::Display for VolumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VolumeError::ZeroBlockSize => write!(f, "block_size must be positive"),
            VolumeError::ZeroBlocks => write!(f, "volume needs at least one logical block"),
            VolumeError::ZeroStripeWidth => write!(f, "blocks_per_stripe must be positive"),
            VolumeError::WidthMismatch {
                configured,
                backend,
            } => write!(
                f,
                "blocks_per_stripe {configured} differs from the backend's fixed stripe width {backend}"
            ),
            VolumeError::WidthUnknown => write!(
                f,
                "backend has no fixed stripe width; blocks_per_stripe must be configured explicitly"
            ),
            VolumeError::WidthOutOfRange { configured, max } => write!(
                f,
                "blocks_per_stripe {configured} exceeds the {max}-slot object namespace"
            ),
        }
    }
}

impl std::error::Error for VolumeError {}

impl From<VolumeError> for ProtocolError {
    fn from(e: VolumeError) -> Self {
        ProtocolError::Volume(e)
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::WriteQuorumNotMet {
                level,
                needed,
                achieved,
            } => write!(
                f,
                "write failed: level {level} validated {achieved}/{needed} nodes"
            ),
            ProtocolError::OldValueUnreadable(inner) => {
                write!(f, "write failed: old value unreadable ({inner})")
            }
            ProtocolError::VersionCheckFailed => {
                write!(f, "read failed: no level completed its version check")
            }
            ProtocolError::NotEnoughForDecode { needed, found } => write!(
                f,
                "read failed: {found} consistent nodes, {needed} needed to decode"
            ),
            ProtocolError::Integrity {
                needed,
                clean,
                corrupt,
            } => write!(
                f,
                "read refused: corrupt shards detected on nodes {corrupt:?}, \
                 only {clean} clean shards remain of the {needed} needed"
            ),
            ProtocolError::DecoderFault { block, nodes } => write!(
                f,
                "read refused: block {block} decoded from verified shards on nodes \
                 {nodes:?} fails its cross-check"
            ),
            ProtocolError::StripeMissing => write!(f, "stripe not present on nodes"),
            ProtocolError::SizeMismatch => write!(f, "block length differs from stripe"),
            ProtocolError::Params(e) => write!(f, "invalid code parameters: {e}"),
            ProtocolError::Shape(e) => write!(f, "invalid trapezoid: {e}"),
            ProtocolError::Code(e) => write!(f, "codec error: {e}"),
            ProtocolError::Node(e) => write!(f, "node error: {e}"),
            ProtocolError::Misconfigured(what) => write!(f, "store misuse: {what}"),
            ProtocolError::Volume(e) => write!(f, "invalid volume geometry: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    /// Chains to the wrapped failure so `anyhow`-style error walks (and
    /// the DST failure minimization output) surface the root cause.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::OldValueUnreadable(inner) => Some(inner.as_ref()),
            ProtocolError::Params(e) => Some(e),
            ProtocolError::Shape(e) => Some(e),
            ProtocolError::Code(e) => Some(e),
            ProtocolError::Node(e) => Some(e),
            ProtocolError::Volume(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodeError> for ProtocolError {
    fn from(e: CodeError) -> Self {
        ProtocolError::Code(e)
    }
}

impl From<ParamError> for ProtocolError {
    fn from(e: ParamError) -> Self {
        ProtocolError::Params(e)
    }
}

impl From<ShapeError> for ProtocolError {
    fn from(e: ShapeError) -> Self {
        ProtocolError::Shape(e)
    }
}

impl From<NodeError> for ProtocolError {
    fn from(e: NodeError) -> Self {
        ProtocolError::Node(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = ProtocolError::WriteQuorumNotMet {
            level: 1,
            needed: 2,
            achieved: 1,
        };
        assert_eq!(e.to_string(), "write failed: level 1 validated 1/2 nodes");
        let e = ProtocolError::OldValueUnreadable(Box::new(ProtocolError::VersionCheckFailed));
        assert!(e.to_string().contains("old value unreadable"));
        assert!(ProtocolError::NotEnoughForDecode {
            needed: 6,
            found: 4
        }
        .to_string()
        .contains("4 consistent nodes"));
        let e = ProtocolError::Integrity {
            needed: 6,
            clean: 4,
            corrupt: vec![2, 7],
        };
        assert!(e.to_string().contains("corrupt shards detected"));
        assert!(e.to_string().contains("[2, 7]"));
        let e = ProtocolError::DecoderFault {
            block: 0,
            nodes: vec![1, 2, 3, 4, 5, 6],
        };
        assert!(e.to_string().contains("fails its cross-check"));
    }

    #[test]
    fn code_error_converts() {
        let e: ProtocolError = CodeError::ShardSizeMismatch.into();
        assert!(matches!(
            e,
            ProtocolError::Code(CodeError::ShardSizeMismatch)
        ));
        let e: ProtocolError = NodeError::NotFound.into();
        assert!(matches!(e, ProtocolError::Node(NodeError::NotFound)));
    }

    #[test]
    fn sources_chain_to_the_root_cause() {
        use std::error::Error as _;
        let leaf = ProtocolError::Node(NodeError::TimedOut);
        let wrapped = ProtocolError::OldValueUnreadable(Box::new(leaf));
        let inner = wrapped.source().expect("wrapped error has a source");
        assert!(inner.to_string().contains("node error"));
        let root = inner
            .source()
            .expect("protocol error chains to the node error");
        assert_eq!(root.to_string(), NodeError::TimedOut.to_string());
        assert!(ProtocolError::VersionCheckFailed.source().is_none());
    }
}

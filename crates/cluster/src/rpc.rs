//! The idempotent command vocabulary between protocol and storage nodes.
//!
//! Three layers compose the node-facing API:
//!
//! * [`Request`] / [`Response`] — the *payload* vocabulary: one variant
//!   per primitive the paper's pseudocode invokes on a node, plus
//!   stripe-initialisation and repair calls. Payloads travel as
//!   [`bytes::Bytes`] so the channel transport forwards blocks without
//!   copying.
//! * [`Envelope`] / [`Reply`] — the *delivery* vocabulary: every command
//!   is wrapped in an envelope carrying a globally unique [`OpId`] and
//!   the issuing round's epoch, and every reply echoes both. Fan-out
//!   engines match replies to requests **by identity**, never by arrival
//!   order, so duplicated, reordered and cross-round-stale deliveries
//!   are recognised instead of miscounted.
//! * [`NodeApi`] — the executable surface of a storage node. Transports
//!   dispatch envelopes to a `dyn NodeApi` and never inspect payloads,
//!   which is what lets the same node serve the in-process, threaded and
//!   simulated transports interchangeably.
//!
//! # At-least-once semantics
//!
//! The API is designed for fabrics that may deliver a command **more
//! than once, arbitrarily late**. Every mutation is *monotone
//! conditional* on version state (see each variant's documentation):
//! applying the same command twice, or applying a stale command after a
//! newer one, leaves the node in the state exactly-once delivery would
//! have produced — stale deliveries are acknowledged idempotently
//! instead of clobbering newer state. Nodes additionally remember a
//! window of recently applied [`OpId`]s, so an exact redelivery of a
//! non-idempotent primitive (the parity fold) short-circuits to its
//! recorded acknowledgement rather than re-executing.

use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use core::fmt;

/// Identifier of a stored object (the `id` of the paper's pseudocode).
/// One `BlockId` names one stripe; each node holds its own component of
/// that stripe.
pub type BlockId = u64;

/// Globally unique identity of one logical node command.
///
/// Allocated once per command via [`OpId::fresh`] and carried end to end:
/// the node's idempotency window is keyed by it, and the reply echoes it
/// so the issuing round can match answers by identity. Redelivering an
/// envelope **reuses** its op id (that is the point); two distinct
/// commands never share one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u64);

impl OpId {
    /// Allocates a fresh, process-unique op id.
    pub fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        OpId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op#{}", self.0)
    }
}

/// Allocates the next round epoch. Every fan-out round
/// ([`QuorumRound`](crate::quorum_round::QuorumRound) /
/// [`MultiRound`](crate::quorum_round::MultiRound)) stamps its envelopes
/// with one epoch, so a reply surfacing in a *later* round is
/// recognisable as a straggler at a glance (epoch 0 is reserved for
/// single [`Transport::call`](crate::transport::Transport::call)s).
pub(crate) fn next_round_epoch() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Priority lane a command travels in.
///
/// Foreground is client-visible work, reads' replacement fetches
/// included; Background is maintenance (scrub's salvage gather, residue
/// poll, parity audit and push). Transports and the retry budget use
/// the lane to make maintenance traffic yield to foreground ops:
/// background retries must leave a foreground token reserve (see
/// `NodeHealth::try_spend`). On the wire the lane
/// travels as header flag bit `0x0001`; foreground (the default)
/// encodes as 0, so frames from pre-lane peers decode as foreground and
/// foreground frames are byte-identical to pre-lane encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Lane {
    /// Client-visible request path. The default.
    #[default]
    Foreground,
    /// Maintenance traffic: yields retry budget to foreground.
    Background,
}

/// The self-describing wrapper every node command travels in.
///
/// Redelivering the *same* envelope is always safe; the node absorbs it
/// idempotently:
///
/// ```
/// use tq_cluster::rpc::{Envelope, NodeApi, Request, Response};
/// use tq_cluster::{NodeId, StorageNode};
/// use bytes::Bytes;
///
/// let node = StorageNode::new(NodeId(0));
/// node.execute(Envelope::new(Request::init_data(7, Bytes::from_static(b"v0"))));
/// let write = Envelope::new(Request::write_data(7, Bytes::from_static(b"v1"), 1));
/// let first = node.execute(write.clone());
/// let replay = node.execute(write); // an at-least-once fabric did this
/// assert_eq!(first.result, Ok(Response::Ack));
/// assert_eq!(replay.result, Ok(Response::Ack), "absorbed, not re-applied");
/// assert_eq!(first.op_id, replay.op_id, "replies echo the command identity");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Identity of the logical command (stable across redeliveries).
    pub op_id: OpId,
    /// Epoch of the round that issued the command (0 = no round).
    pub round_epoch: u64,
    /// Priority lane (foreground by default; maintenance traffic marks
    /// itself background so it yields hedge/retry budget).
    pub lane: Lane,
    /// The command itself.
    pub payload: Request,
}

impl Envelope {
    /// Wraps a payload with a fresh op id, outside any round.
    pub fn new(payload: Request) -> Self {
        Envelope::in_epoch(payload, 0)
    }

    /// Wraps a payload with a fresh op id, tagged with a round epoch.
    pub(crate) fn in_epoch(payload: Request, round_epoch: u64) -> Self {
        Envelope {
            op_id: OpId::fresh(),
            round_epoch,
            lane: Lane::Foreground,
            payload,
        }
    }

    /// Marks the command as background/maintenance traffic.
    pub fn background(mut self) -> Self {
        self.lane = Lane::Background;
        self
    }
}

impl fmt::Display for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@e{} {}", self.op_id, self.round_epoch, self.payload)
    }
}

/// A node's answer to one [`Envelope`], echoing the command's identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The command this reply answers.
    pub op_id: OpId,
    /// The round epoch the command carried.
    pub round_epoch: u64,
    /// What the node (or the transport in front of it) answered.
    pub result: Result<Response, NodeError>,
}

impl Reply {
    /// Builds the reply to `env` carrying `result`.
    pub fn to(env: &Envelope, result: Result<Response, NodeError>) -> Self {
        Reply {
            op_id: env.op_id,
            round_epoch: env.round_epoch,
            result,
        }
    }
}

impl fmt::Display for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@e{} -> ", self.op_id, self.round_epoch)?;
        match &self.result {
            Ok(resp) => write!(f, "{resp}"),
            Err(e) => write!(f, "error: {e}"),
        }
    }
}

/// The executable command surface of a storage node.
///
/// Decouples node command handling from transport dispatch: a transport
/// routes [`Envelope`]s to a `dyn NodeApi` and forwards the [`Reply`],
/// with no knowledge of the payload vocabulary. Implementations must be
/// safe under **at-least-once delivery**: executing the same envelope
/// any number of times, interleaved arbitrarily with other commands,
/// must leave state as if it executed exactly once.
///
/// ```
/// use tq_cluster::rpc::{Envelope, NodeApi, Request, Response};
/// use tq_cluster::{NodeId, StorageNode};
///
/// // Transports only ever see the trait: envelope in, reply out.
/// fn probe(node: &dyn NodeApi) -> bool {
///     let env = Envelope::new(Request::Ping);
///     let op = env.op_id;
///     let reply = node.execute(env);
///     reply.op_id == op && reply.result == Ok(Response::Pong)
/// }
///
/// assert!(probe(&StorageNode::new(NodeId(0))));
/// ```
pub trait NodeApi: Send + Sync {
    /// Executes one enveloped command.
    fn execute(&self, env: Envelope) -> Reply;
}

/// A request to a single storage node.
///
/// Every mutating variant is **idempotent by construction** — its
/// effect is conditional on version state, so a duplicated or stale
/// delivery acknowledges without clobbering. See each variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Install a data block (stripe creation) at version 0.
    ///
    /// First-wins: if the node already holds a data block under `id`,
    /// the request acknowledges **without resetting it** — a redelivered
    /// create must not roll a written block back to version 0. Use a
    /// fresh `BlockId` to create a genuinely new object.
    InitData {
        /// Target object.
        id: BlockId,
        /// Initial contents.
        bytes: Bytes,
    },
    /// Install a parity block (stripe creation) tracking `k` data blocks,
    /// all version-vector entries 0. First-wins, like [`Request::InitData`].
    InitParity {
        /// Target object.
        id: BlockId,
        /// Initial parity contents.
        bytes: Bytes,
        /// Number of data blocks the version vector tracks.
        k: usize,
        /// Cross-checksum vector of the stripe's data blocks at creation,
        /// exactly `k` entries (any other length is refused with
        /// [`NodeError::BadBlockIndex`]). Stored alongside the version
        /// vector and served back on reads so clients can verify any
        /// fetched shard before decoding.
        checks: Vec<u64>,
    },
    /// `N_i.read(id)` — full data block with its version.
    ReadData {
        /// Target object.
        id: BlockId,
    },
    /// `u.write(x)` — **compare-and-advance** write of a data block.
    ///
    /// Applies iff `version >= ` the stored version (the node's version
    /// never regresses); a stale delivery (`version <` stored)
    /// acknowledges idempotently without touching the block — the write
    /// it carries was superseded, which linearises it before the newer
    /// one.
    WriteData {
        /// Target object.
        id: BlockId,
        /// New contents.
        bytes: Bytes,
        /// Version stamp the write carries (protocol computed it as
        /// `old version + 1`).
        version: u64,
    },
    /// `u.version(id)` on a data node — current version of the block.
    VersionData {
        /// Target object.
        id: BlockId,
    },
    /// `u.version(id)` on a parity node — the node's column of the
    /// version matrix V: one entry per data block.
    VersionVector {
        /// Target object.
        id: BlockId,
    },
    /// Read a parity block with its version vector (decode path).
    ReadParity {
        /// Target object.
        id: BlockId,
    },
    /// Repair primitive (not in the paper's pseudocode — see the scrub
    /// extension in `tq-trapezoid`): **monotone conditional** replace of
    /// a parity block and its whole version vector with a reconstructed
    /// state.
    ///
    /// Applies iff `versions` dominates-or-equals the stored vector
    /// componentwise (anti-entropy only moves parity state forward). A
    /// strictly dominated (stale) delivery acknowledges idempotently; an
    /// *incomparable* vector — the node folded a delta the
    /// reconstruction missed — is rejected with
    /// [`NodeError::VectorConflict`] rather than silently regressing
    /// entries.
    WriteParity {
        /// Target object.
        id: BlockId,
        /// Recomputed parity contents.
        bytes: Bytes,
        /// Version vector matching the reconstructed stripe state.
        versions: Vec<u64>,
        /// Cross-checksum vector matching the reconstructed stripe state,
        /// one entry per version (any other length is refused with
        /// [`NodeError::BadBlockIndex`]); replaces the stored vector on
        /// apply.
        checks: Vec<u64>,
    },
    /// `u.add(αj,i·(x − chunk))` — fold a delta into the parity block,
    /// guarded: applies only if the node's version for `block_index`
    /// equals `expected_version`, then advances it to `new_version`
    /// (Algorithm 1 lines 26–28). The fold is the one non-idempotent
    /// primitive (XOR twice cancels), so exact redeliveries are absorbed
    /// by the node's applied-op window instead of a version rule.
    AddParity {
        /// Target object.
        id: BlockId,
        /// Which data block this delta belongs to (`0 ≤ i < k`).
        block_index: usize,
        /// The raw delta `(x − c)`; the fold is
        /// `parity ← parity + coeff·delta`.
        delta: Bytes,
        /// The coefficient `α_{j,i}` to scale `delta` by during the fold
        /// (`1` folds the delta as it is).
        coeff: u8,
        /// Version the node must currently hold for `block_index`.
        expected_version: u64,
        /// Version to advance to on success.
        new_version: u64,
        /// The data block's cross-checksum after the write this delta
        /// belongs to, which replaces entry `block_index` of the stored
        /// vector. Always required: `None` is refused with
        /// [`NodeError::BadBlockIndex`] and changes nothing. It is an
        /// `Option` only to keep the variant's shape for existing
        /// callers that build it field by field.
        new_check: Option<u64>,
    },
}

impl Request {
    // Constructors for the mutating variants, so that callers do not
    // depend on each variant's field layout.

    /// [`Request::InitData`]: install `bytes` as data block `id`.
    pub fn init_data(id: BlockId, bytes: Bytes) -> Self {
        Request::InitData { id, bytes }
    }

    /// [`Request::InitParity`]: install `bytes` as a parity block of `k`
    /// data blocks whose cross-checksums are `checks`.
    pub fn init_parity(id: BlockId, bytes: Bytes, k: usize, checks: Vec<u64>) -> Self {
        Request::InitParity {
            id,
            bytes,
            k,
            checks,
        }
    }

    /// [`Request::WriteData`]: write `bytes` to data block `id` at `version`.
    pub fn write_data(id: BlockId, bytes: Bytes, version: u64) -> Self {
        Request::WriteData { id, bytes, version }
    }

    /// [`Request::WriteParity`]: replace parity block `id` with `bytes`,
    /// its version vector with `versions` and its checks with `checks`.
    pub fn write_parity(id: BlockId, bytes: Bytes, versions: Vec<u64>, checks: Vec<u64>) -> Self {
        Request::WriteParity {
            id,
            bytes,
            versions,
            checks,
        }
    }

    /// [`Request::AddParity`]: fold `coeff · delta` into parity block `id`
    /// if it holds `expected_version` for data block `block_index`, then
    /// advance that entry to `new_version` and its check to `new_check`.
    pub fn add_parity(
        id: BlockId,
        block_index: usize,
        delta: Bytes,
        coeff: u8,
        expected_version: u64,
        new_version: u64,
        new_check: u64,
    ) -> Self {
        Request::AddParity {
            id,
            block_index,
            delta,
            coeff,
            expected_version,
            new_version,
            new_check: Some(new_check),
        }
    }

    /// `true` for requests that (conditionally) mutate node state — the
    /// ones the node's applied-op idempotency window tracks.
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            Request::InitData { .. }
                | Request::InitParity { .. }
                | Request::WriteData { .. }
                | Request::WriteParity { .. }
                | Request::AddParity { .. }
        )
    }

    /// Short kind label for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::InitData { .. } => "init-data",
            Request::InitParity { .. } => "init-parity",
            Request::ReadData { .. } => "read-data",
            Request::WriteData { .. } => "write-data",
            Request::VersionData { .. } => "version-data",
            Request::VersionVector { .. } => "version-vector",
            Request::ReadParity { .. } => "read-parity",
            Request::WriteParity { .. } => "write-parity",
            Request::AddParity { .. } => "add-parity",
        }
    }
}

impl fmt::Display for Request {
    /// Compact one-line rendering (ids and versions, never payload
    /// bytes) — what DST failure minimisation prints per message.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::Ping => write!(f, "ping"),
            Request::InitData { id, bytes } => {
                write!(f, "init-data(id={id}, {} bytes)", bytes.len())
            }
            Request::InitParity { id, bytes, k, .. } => {
                write!(f, "init-parity(id={id}, {} bytes, k={k})", bytes.len())
            }
            Request::ReadData { id } => write!(f, "read-data(id={id})"),
            Request::WriteData { id, bytes, version } => {
                write!(f, "write-data(id={id}, v={version}, {} bytes)", bytes.len())
            }
            Request::VersionData { id } => write!(f, "version-data(id={id})"),
            Request::VersionVector { id } => write!(f, "version-vector(id={id})"),
            Request::ReadParity { id } => write!(f, "read-parity(id={id})"),
            Request::WriteParity {
                id,
                bytes,
                versions,
                ..
            } => write!(
                f,
                "write-parity(id={id}, v={versions:?}, {} bytes)",
                bytes.len()
            ),
            Request::AddParity {
                id,
                block_index,
                coeff,
                expected_version,
                new_version,
                ..
            } => write!(
                f,
                "add-parity(id={id}, block={block_index}, coeff={coeff}, v{expected_version}->v{new_version})"
            ),
        }
    }
}

/// A successful response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Generic acknowledgement (init, write, add) — also returned for
    /// idempotently absorbed stale/duplicate mutations, whose effect is
    /// durable at a version at least as new as the one they carried.
    Ack,
    /// Data block contents plus version.
    Data {
        /// Block contents.
        bytes: Bytes,
        /// Block version.
        version: u64,
        /// The self-checksum the node stamped at install time
        /// ([`tq_gf256::check::block_check`] of the installed payload).
        /// A client recomputing the checksum of `bytes` and getting
        /// something else is holding corrupted bytes.
        check: u64,
    },
    /// Parity block contents plus its version vector.
    Parity {
        /// Parity contents.
        bytes: Bytes,
        /// Version per data block.
        versions: Vec<u64>,
        /// The stripe's cross-checksum vector as this replica knows it,
        /// one entry per data block. Lets the client verify `bytes`
        /// against `Σ combine(α_{j,i}, checks[i])` and verify fetched
        /// data shards against their entries; a reply whose vector is
        /// not `k` long is treated as corrupt.
        checks: Vec<u64>,
    },
    /// A single version number.
    Version(u64),
    /// A parity node's version vector (column of V).
    Versions(Vec<u64>),
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Pong => write!(f, "pong"),
            Response::Ack => write!(f, "ack"),
            Response::Data { bytes, version, .. } => {
                write!(f, "data(v={version}, {} bytes)", bytes.len())
            }
            Response::Parity {
                bytes, versions, ..
            } => {
                write!(f, "parity(v={versions:?}, {} bytes)", bytes.len())
            }
            Response::Version(v) => write!(f, "version({v})"),
            Response::Versions(v) => write!(f, "versions({v:?})"),
        }
    }
}

/// Errors a node (or the transport in front of it) can return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeError {
    /// The node is failed (fail-stop): every operation on it errors.
    Down,
    /// No block with that id on this node.
    NotFound,
    /// The request addressed the wrong kind of block (e.g. `AddParity`
    /// on a data node).
    WrongKind,
    /// An `AddParity` guard failed: the stored version for the block did
    /// not match.
    VersionConflict {
        /// Version the request expected.
        expected: u64,
        /// Version actually stored.
        actual: u64,
    },
    /// A `WriteParity` carried a version vector *incomparable* with the
    /// stored one: some entry is newer on the node, some in the request.
    /// Applying either way would regress one side, so the node keeps its
    /// state.
    VectorConflict {
        /// First vector index where the node is strictly newer.
        index: usize,
        /// The request's entry at that index.
        got: u64,
        /// The stored entry at that index.
        stored: u64,
    },
    /// Payload length disagreed with the stored block.
    SizeMismatch {
        /// Stored block length.
        stored: usize,
        /// Request payload length.
        got: usize,
    },
    /// A request does not fit the stripe's `k` data blocks:
    /// `block_index` outside the version vector, a `checks` vector that
    /// is not `k` long (`index` is its length), or an `AddParity`
    /// without its `new_check` (`index` is the block, `k` is 0). The
    /// node changes nothing.
    BadBlockIndex {
        /// Requested index, or the length of a refused vector.
        index: usize,
        /// Vector length (k).
        k: usize,
    },
    /// The node detected that the block it holds (or was served by its
    /// disk) is corrupt — the stored bytes no longer match the
    /// self-checksum stamped at install time. Unlike [`Down`](Self::Down)
    /// the node is alive and its *other* blocks are fine; readers treat
    /// the reply as an erasure of this one shard and scrub targets the
    /// node for repair.
    Corrupt,
    /// The transport lost the node (channel closed).
    TransportClosed,
    /// The transport (or node) shed the request under load: its inflight
    /// cap was exhausted and did not drain within the overload wait.
    /// Unlike [`TimedOut`](Self::TimedOut) the request was **never
    /// sent**, so retrying elsewhere is always safe.
    Overloaded,
    /// The round-trip budget elapsed without an answer (simulated
    /// networks only: the request or its reply was lost, delayed past
    /// the deadline, or stranded behind a partition). The request *may
    /// still have executed* on the node — a timed-out write is a
    /// partial write, not a no-op.
    TimedOut,
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::Down => write!(f, "node is down (fail-stop)"),
            NodeError::NotFound => write!(f, "block not found on node"),
            NodeError::WrongKind => write!(f, "operation does not match stored block kind"),
            NodeError::VersionConflict { expected, actual } => {
                write!(
                    f,
                    "version guard failed: expected {expected}, node holds {actual}"
                )
            }
            NodeError::VectorConflict { index, got, stored } => write!(
                f,
                "version vector incomparable: entry {index} is {got} in the request but {stored} on the node"
            ),
            NodeError::SizeMismatch { stored, got } => {
                write!(f, "payload of {got} bytes against stored block of {stored}")
            }
            NodeError::BadBlockIndex { index, k } => {
                write!(
                    f,
                    "block index {index} outside version vector of length {k}"
                )
            }
            NodeError::Corrupt => {
                write!(f, "node detected a corrupt stored block (checksum mismatch)")
            }
            NodeError::TransportClosed => write!(f, "transport to node closed"),
            NodeError::Overloaded => {
                write!(f, "transport shed the request: inflight cap exhausted")
            }
            NodeError::TimedOut => write!(f, "no reply within the round-trip budget"),
        }
    }
}

impl std::error::Error for NodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert_eq!(NodeError::Down.to_string(), "node is down (fail-stop)");
        assert!(NodeError::VersionConflict {
            expected: 3,
            actual: 5
        }
        .to_string()
        .contains("expected 3"));
        assert!(NodeError::VectorConflict {
            index: 2,
            got: 4,
            stored: 7
        }
        .to_string()
        .contains("entry 2"));
    }

    #[test]
    fn op_ids_are_unique_and_envelopes_echo() {
        let a = Envelope::new(Request::Ping);
        let b = Envelope::new(Request::Ping);
        assert_ne!(a.op_id, b.op_id);
        let reply = Reply::to(&a, Ok(Response::Pong));
        assert_eq!(reply.op_id, a.op_id);
        assert_eq!(reply.round_epoch, 0);
    }

    #[test]
    fn envelope_and_reply_display_compactly() {
        let env = Envelope::in_epoch(
            Request::WriteData {
                id: 5,
                bytes: Bytes::from_static(b"abcd"),
                version: 7,
            },
            3,
        );
        let rendered = env.to_string();
        assert!(rendered.contains("@e3"), "{rendered}");
        assert!(
            rendered.contains("write-data(id=5, v=7, 4 bytes)"),
            "{rendered}"
        );
        let reply = Reply::to(&env, Err(NodeError::NotFound));
        assert!(
            reply.to_string().contains("error: block not found"),
            "{reply}"
        );
        let reply = Reply::to(&env, Ok(Response::Ack));
        assert!(reply.to_string().ends_with("-> ack"), "{reply}");
    }

    #[test]
    fn mutation_classification() {
        assert!(Request::InitData {
            id: 1,
            bytes: Bytes::new()
        }
        .is_mutation());
        assert!(Request::WriteParity {
            id: 1,
            bytes: Bytes::new(),
            versions: vec![],
            checks: vec![]
        }
        .is_mutation());
        assert!(!Request::Ping.is_mutation());
        assert!(!Request::ReadData { id: 1 }.is_mutation());
        assert_eq!(Request::Ping.kind(), "ping");
        assert_eq!(
            Request::WriteParity {
                id: 1,
                bytes: Bytes::new(),
                versions: vec![],
                checks: vec![]
            }
            .kind(),
            "write-parity"
        );
    }

    #[test]
    fn constructors_build_the_named_variant() {
        let b = Bytes::from_static(b"blk");
        assert_eq!(
            Request::init_data(1, b.clone()),
            Request::InitData {
                id: 1,
                bytes: b.clone()
            }
        );
        assert_eq!(
            Request::init_parity(1, b.clone(), 2, vec![3, 4]),
            Request::InitParity {
                id: 1,
                bytes: b.clone(),
                k: 2,
                checks: vec![3, 4]
            }
        );
        assert_eq!(
            Request::write_data(1, b.clone(), 5),
            Request::WriteData {
                id: 1,
                bytes: b.clone(),
                version: 5
            }
        );
        assert_eq!(
            Request::write_parity(1, b.clone(), vec![6, 7], vec![8, 9]),
            Request::WriteParity {
                id: 1,
                bytes: b.clone(),
                versions: vec![6, 7],
                checks: vec![8, 9]
            }
        );
        assert_eq!(
            Request::add_parity(1, 2, b.clone(), 0x57, 10, 11, 12),
            Request::AddParity {
                id: 1,
                block_index: 2,
                delta: b,
                coeff: 0x57,
                expected_version: 10,
                new_version: 11,
                new_check: Some(12),
            }
        );
    }

    #[test]
    fn request_clone_is_cheap_for_payloads() {
        // Bytes clones share the buffer; this is why payloads are Bytes.
        let payload = Bytes::from(vec![7u8; 1024]);
        let r = Request::InitData {
            id: 1,
            bytes: payload.clone(),
        };
        let r2 = r.clone();
        match (&r, &r2) {
            (Request::InitData { bytes: a, .. }, Request::InitData { bytes: b, .. }) => {
                assert_eq!(a.as_ptr(), b.as_ptr(), "buffer must be shared");
            }
            _ => unreachable!(),
        }
    }
}

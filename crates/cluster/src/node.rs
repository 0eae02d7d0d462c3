//! A single storage node: versioned block store, fail-stop switch, and
//! the idempotent [`NodeApi`] command surface.
//!
//! Every mutation the node serves is **monotone**: versions only move
//! forward, stale commands acknowledge without applying, and an exact
//! redelivery of a recently applied command short-circuits through the
//! applied-op window. Together these make the node safe under
//! at-least-once delivery — the property the cross-round redelivery mode
//! of [`crate::sim::SimTransport`] exercises adversarially.
//!
//! The node's *state* lives behind the [`StorageBackend`] seam: the same
//! command semantics run over the striped in-memory map (default), the
//! crash-safe append-only log, or the DST fault-injection wrapper. Pick
//! a backend with [`StorageNode::builder`]; plain [`StorageNode::new`]
//! uses the process default (the `TQ_NODE_BACKEND` environment
//! variable, memory if unset).
//!
//! The serve path is total as the decoder is: a node answers every
//! request with a reply, never a panic. The module denies every clippy
//! lint for a construct that could panic.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::disallowed_macros
    )
)]

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use crate::rpc::{BlockId, Envelope, NodeApi, NodeError, Reply, Request, Response};
use crate::stats::{IoSnapshot, IoStats};
use crate::storage::{self, StorageBackend, StorageError, StoredBlock};
use crate::sync::{Mutex, MutexGuard};

/// Index of a node within its cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

mod applied {
    //! The applied-op window, in a module of its own so that its set is
    //! private: [`AppliedWindow::contains`] and the monotone
    //! [`AppliedWindow::remember`] are the only ways in, and a serve path
    //! that inserted or removed an op id directly would not compile.

    use std::collections::VecDeque;

    use crate::detmap::DetHashSet;
    use crate::rpc::OpId;

    /// How many applied mutation [`OpId`]s a node remembers for exact-
    /// duplicate absorption. Far beyond any redelivery horizon the
    /// simulation (or a sane fabric) produces; beyond the window, the
    /// monotone version guards still keep redeliveries harmless.
    const APPLIED_WINDOW: usize = 4096;

    /// Bounded FIFO set of recently applied mutation op ids.
    #[derive(Debug, Default)]
    pub(super) struct AppliedWindow {
        set: DetHashSet<OpId>,
        order: VecDeque<OpId>,
    }

    impl AppliedWindow {
        pub(super) fn contains(&self, id: OpId) -> bool {
            self.set.contains(&id)
        }

        pub(super) fn remember(&mut self, id: OpId) {
            if self.set.insert(id) {
                self.order.push_back(id);
                if self.order.len() > APPLIED_WINDOW {
                    if let Some(evicted) = self.order.pop_front() {
                        self.set.remove(&evicted);
                    }
                }
            }
        }
    }
}

use applied::AppliedWindow;

/// How many independent per-block serialisation locks the node stripes
/// its request handling over. Each request touches exactly one block, so
/// a request locks exactly one stripe; a hot block never stalls the
/// whole node. Power of two so the hash reduction is a mask.
const OP_LOCK_STRIPES: usize = 16;

/// Builder for a [`StorageNode`] with an explicit storage backend.
///
/// ```
/// use std::sync::Arc;
/// use tq_cluster::storage::MemoryBackend;
/// use tq_cluster::{NodeId, StorageNode};
///
/// let node = StorageNode::builder(NodeId(3))
///     .backend(Arc::new(MemoryBackend::new()))
///     .build();
/// assert_eq!(node.id(), NodeId(3));
/// ```
#[derive(Debug)]
pub struct NodeBuilder {
    id: NodeId,
    backend: Option<Arc<dyn StorageBackend>>,
}

impl NodeBuilder {
    /// Selects the storage backend (default: the process default per
    /// `TQ_NODE_BACKEND`).
    pub fn backend(mut self, backend: Arc<dyn StorageBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Builds the node.
    pub fn build(self) -> StorageNode {
        let backend = self
            .backend
            .unwrap_or_else(|| storage::default_backend(self.id.0));
        StorageNode {
            id: self.id,
            up: AtomicBool::new(true),
            backend,
            op_locks: (0..OP_LOCK_STRIPES).map(|_| Mutex::new(())).collect(),
            applied: Mutex::new(AppliedWindow::default()),
            stats: IoStats::new(),
        }
    }
}

/// One storage server.
///
/// Thread-safe: request handling is serialised *per block* over striped
/// [`Mutex`] locks keyed by block-id hash, the fail-stop
/// switch is an atomic, and the backend is `Sync` — so the same node can
/// serve the direct transport, the channel transport and a TCP listener
/// interchangeably. Each block has exactly one serialisation point,
/// which matches the model (a node is a single failure domain;
/// per-block ordering is what the monotone guards need).
///
/// Every node holds the same integrity and durability posture; neither
/// is configurable. It verifies what it serves: a block whose bytes no
/// longer match the self-check stamped at install is refused with
/// [`NodeError::Corrupt`], never served or folded into new parity. And
/// it syncs what it acks: every mutation reaches the backend's
/// durability barrier before its acknowledgement leaves.
#[derive(Debug)]
pub struct StorageNode {
    id: NodeId,
    up: AtomicBool,
    backend: Arc<dyn StorageBackend>,
    op_locks: Vec<Mutex<()>>,
    applied: Mutex<AppliedWindow>,
    stats: IoStats,
}

impl StorageNode {
    /// Creates an empty, live node on the process-default backend
    /// (`TQ_NODE_BACKEND`; memory if unset).
    pub fn new(id: NodeId) -> Self {
        StorageNode::builder(id).build()
    }

    /// Starts building a node with an explicit backend choice.
    pub fn builder(id: NodeId) -> NodeBuilder {
        NodeBuilder { id, backend: None }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// `true` iff the node is live.
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::Acquire)
    }

    /// Flips the fail-stop switch. A down node rejects every request with
    /// [`NodeError::Down`]; its stored state is *retained* (fail-stop,
    /// not fail-erase) and becomes visible again on revival — which is
    /// exactly how stale replicas arise in the protocol's model.
    pub fn set_up(&self, up: bool) {
        self.up.store(up, Ordering::Release);
    }

    /// Discards every stored block — models replacing the node's disk
    /// with a blank one (the node identity and counters survive; the
    /// applied-op window goes with the disk, as it is part of the same
    /// durability domain). The recovery workflows in `tq-trapezoid`
    /// rebuild wiped nodes from the surviving stripe.
    pub fn wipe(&self) {
        // A backend that cannot even clear is a dead disk; the node
        // keeps running empty either way (fail-stop comes from `up`).
        let _ = self.backend.clear();
        *self.applied.lock() = AppliedWindow::default();
    }

    /// Simulates a crash-restart of the node: the backend recovers
    /// whatever its durability contract preserves (everything for the
    /// memory backend; for the log, a replay of what its disk kept —
    /// everything the OS still holds after a process restart, or the
    /// synced prefix and any unsynced writes that happened to land on a
    /// crashed [`SimFs`](crate::disk::SimFs)), and the volatile applied-op
    /// window is lost. Losing the
    /// window is safe: redeliveries after a restart fall through to the
    /// monotone version guards (an already-applied parity fold carries
    /// a stale `expected_version` and is rejected, not re-applied).
    pub fn crash_restart(&self) {
        self.backend.crash_restart();
        *self.applied.lock() = AppliedWindow::default();
    }

    /// Forces the backend's durability barrier (fsync for the log
    /// backend). After `Ok(())`, every acknowledged mutation survives a
    /// crash.
    pub fn flush(&self) -> Result<(), StorageError> {
        self.backend.flush()
    }

    /// The storage backend this node runs on.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// IO counters snapshot.
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.stats.snapshot()
    }

    /// Total payload bytes currently stored — the `D_used` of eqs. 14/15
    /// measured rather than predicted.
    pub fn stored_bytes(&self) -> usize {
        let mut total = 0;
        let _ = self.backend.scan(&mut |_, b| total += b.payload_len());
        total
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "the stripe is reduced modulo OP_LOCK_STRIPES, the length of `op_locks`"
    )]
    fn op_lock(&self, id: BlockId) -> MutexGuard<'_, ()> {
        self.op_locks[storage::stripe_of(id) % OP_LOCK_STRIPES].lock()
    }

    /// A node whose disk *errors* is indistinguishable from a crashed
    /// node under the paper's fail-stop model — but a node whose disk
    /// served detectably corrupt bytes is something better: it is alive,
    /// knows which block is bad, and says so. Collapsing `Corrupt` into
    /// `Down` (the old behaviour) made readers mistake one rotten block
    /// for a crashed node and denied scrub its repair target.
    fn storage_fail(&self, e: StorageError) -> NodeError {
        self.stats.record_rejected();
        match e {
            StorageError::Corrupt { .. } => NodeError::Corrupt,
            StorageError::Io { .. } => NodeError::Down,
        }
    }

    /// Reads a block for a byte-serving or byte-folding operation: the
    /// payload is re-checked against the self-checksum stamped at
    /// install time, and a mismatch surfaces as [`NodeError::Corrupt`]
    /// instead of handing rotten bytes to the caller (or folding them
    /// into fresh parity, where a new stamp would hide them). Readers
    /// treat the refusal as one erased shard and route around it.
    fn load_verified(&self, id: BlockId) -> Result<Option<StoredBlock>, NodeError> {
        let block = self.backend.get(id).map_err(|e| self.storage_fail(e))?;
        if block.as_ref().is_some_and(|b| !b.self_check_ok()) {
            return Err(self.storage_fail(StorageError::Corrupt {
                detail: "stored block fails its self-checksum",
            }));
        }
        Ok(block)
    }

    /// Installs a mutation and forces the durability barrier before the
    /// caller sees the acknowledgement — so a crash-restart can only
    /// ever lose mutations whose acks were never sent. The quorum layers
    /// count a write committed once a quorum acked it (`r_l + w_l > s_l`
    /// needs the acked copies to still be there); without this barrier
    /// a lazy backend could revert an acked version and hand a read-one
    /// protocol a stale version to build on (the exact violation the
    /// DST storage-fault axis finds).
    fn put_acked(&self, id: BlockId, block: StoredBlock) -> Result<(), NodeError> {
        self.backend
            .put(id, block)
            .map_err(|e| self.storage_fail(e))?;
        self.backend.flush().map_err(|e| self.storage_fail(e))
    }

    /// Handles one bare request, honouring the fail-stop switch.
    ///
    /// This is the payload-level entry point ([`NodeApi::execute`] wraps
    /// it with the applied-op window): all the monotone conditional
    /// semantics live here, so even envelope-less callers get
    /// idempotent, never-regressing mutations.
    pub fn handle(&self, req: Request) -> Result<Response, NodeError> {
        if !self.is_up() {
            self.stats.record_rejected();
            return Err(NodeError::Down);
        }
        match req {
            Request::Ping => Ok(Response::Pong),
            Request::InitData { id, bytes } => {
                let _guard = self.op_lock(id);
                match self.backend.get(id).map_err(|e| self.storage_fail(e))? {
                    // First-wins: a redelivered create must not reset a
                    // block that has been written since.
                    Some(StoredBlock::Data { .. }) => Ok(Response::Ack),
                    Some(StoredBlock::Parity { .. }) => {
                        self.stats.record_rejected();
                        Err(NodeError::WrongKind)
                    }
                    None => {
                        self.stats.record_write(bytes.len());
                        // Zero-copy install: the request payload becomes
                        // the stored block (the self-checksum stamp reads
                        // it once, copies nothing).
                        self.put_acked(id, StoredBlock::new_data(0, bytes))?;
                        Ok(Response::Ack)
                    }
                }
            }
            Request::InitParity {
                id,
                bytes,
                k,
                checks,
            } => {
                // The stored vector covers every data block, always.
                if checks.len() != k {
                    self.stats.record_rejected();
                    return Err(NodeError::BadBlockIndex {
                        index: checks.len(),
                        k,
                    });
                }
                let _guard = self.op_lock(id);
                match self.backend.get(id).map_err(|e| self.storage_fail(e))? {
                    Some(StoredBlock::Parity { .. }) => Ok(Response::Ack),
                    Some(StoredBlock::Data { .. }) => {
                        self.stats.record_rejected();
                        Err(NodeError::WrongKind)
                    }
                    None => {
                        self.stats.record_write(bytes.len());
                        self.put_acked(id, StoredBlock::new_parity(vec![0; k], bytes, checks))?;
                        Ok(Response::Ack)
                    }
                }
            }
            Request::ReadData { id } => {
                let _guard = self.op_lock(id);
                match self.load_verified(id)? {
                    Some(StoredBlock::Data {
                        version,
                        bytes,
                        check,
                    }) => {
                        self.stats.record_read(bytes.len());
                        // Refcounted clone of the stored allocation; the
                        // reply shares the block instead of copying it.
                        Ok(Response::Data {
                            bytes,
                            version,
                            check,
                        })
                    }
                    Some(StoredBlock::Parity { .. }) => {
                        self.stats.record_rejected();
                        Err(NodeError::WrongKind)
                    }
                    None => {
                        self.stats.record_rejected();
                        Err(NodeError::NotFound)
                    }
                }
            }
            Request::WriteData { id, bytes, version } => {
                let _guard = self.op_lock(id);
                match self.backend.get(id).map_err(|e| self.storage_fail(e))? {
                    Some(StoredBlock::Data {
                        version: stored_version,
                        bytes: stored,
                        ..
                    }) => {
                        if stored.len() != bytes.len() {
                            self.stats.record_rejected();
                            return Err(NodeError::SizeMismatch {
                                stored: stored.len(),
                                got: bytes.len(),
                            });
                        }
                        // Compare-and-advance: the version never
                        // regresses. A stale delivery acks idempotently —
                        // its write is durably superseded by what the
                        // node already holds.
                        if version < stored_version {
                            return Ok(Response::Ack);
                        }
                        self.stats.record_write(bytes.len());
                        // Release this handler's clone first: the store
                        // overwrites the resident buffer in place only
                        // while nothing else holds it.
                        drop(stored);
                        self.put_acked(id, StoredBlock::new_data(version, bytes))?;
                        Ok(Response::Ack)
                    }
                    Some(StoredBlock::Parity { .. }) => {
                        self.stats.record_rejected();
                        Err(NodeError::WrongKind)
                    }
                    None => {
                        self.stats.record_rejected();
                        Err(NodeError::NotFound)
                    }
                }
            }
            Request::VersionData { id } => {
                let _guard = self.op_lock(id);
                match self.backend.get(id).map_err(|e| self.storage_fail(e))? {
                    Some(StoredBlock::Data { version, .. }) => {
                        self.stats.record_version_query();
                        Ok(Response::Version(version))
                    }
                    Some(StoredBlock::Parity { .. }) => {
                        self.stats.record_rejected();
                        Err(NodeError::WrongKind)
                    }
                    None => {
                        self.stats.record_rejected();
                        Err(NodeError::NotFound)
                    }
                }
            }
            Request::VersionVector { id } => {
                let _guard = self.op_lock(id);
                match self.backend.get(id).map_err(|e| self.storage_fail(e))? {
                    Some(StoredBlock::Parity { versions, .. }) => {
                        self.stats.record_version_query();
                        Ok(Response::Versions(versions))
                    }
                    Some(StoredBlock::Data { .. }) => {
                        self.stats.record_rejected();
                        Err(NodeError::WrongKind)
                    }
                    None => {
                        self.stats.record_rejected();
                        Err(NodeError::NotFound)
                    }
                }
            }
            Request::ReadParity { id } => {
                let _guard = self.op_lock(id);
                match self.load_verified(id)? {
                    Some(StoredBlock::Parity {
                        versions,
                        bytes,
                        checks,
                        ..
                    }) => {
                        self.stats.record_read(bytes.len());
                        Ok(Response::Parity {
                            bytes,
                            versions,
                            checks,
                        })
                    }
                    Some(StoredBlock::Data { .. }) => {
                        self.stats.record_rejected();
                        Err(NodeError::WrongKind)
                    }
                    None => {
                        self.stats.record_rejected();
                        Err(NodeError::NotFound)
                    }
                }
            }
            Request::WriteParity {
                id,
                bytes,
                versions,
                checks,
            } => {
                if checks.len() != versions.len() {
                    self.stats.record_rejected();
                    return Err(NodeError::BadBlockIndex {
                        index: checks.len(),
                        k: versions.len(),
                    });
                }
                let _guard = self.op_lock(id);
                match self.backend.get(id).map_err(|e| self.storage_fail(e))? {
                    Some(StoredBlock::Parity {
                        versions: stored_versions,
                        bytes: stored,
                        ..
                    }) => {
                        if stored.len() != bytes.len() {
                            self.stats.record_rejected();
                            return Err(NodeError::SizeMismatch {
                                stored: stored.len(),
                                got: bytes.len(),
                            });
                        }
                        if stored_versions.len() != versions.len() {
                            self.stats.record_rejected();
                            return Err(NodeError::BadBlockIndex {
                                index: versions.len(),
                                k: stored_versions.len(),
                            });
                        }
                        // Monotone vector rule: apply iff the request
                        // dominates-or-equals the stored vector. A
                        // strictly dominated (stale) delivery acks
                        // without touching state; an incomparable one is
                        // a conflict — applying it would regress the
                        // entries where the node is newer.
                        let request_newer_somewhere = versions
                            .iter()
                            .zip(stored_versions.iter())
                            .any(|(got, stored)| got > stored);
                        // Capture the conflicting entries during the scan:
                        // the serve path stays free of slice indexing.
                        let node_newer_at = versions
                            .iter()
                            .zip(stored_versions.iter())
                            .enumerate()
                            .find(|(_, (got, stored))| got < stored)
                            .map(|(index, (got, stored))| (index, *got, *stored));
                        match (request_newer_somewhere, node_newer_at) {
                            (true, Some((index, got, stored))) => {
                                self.stats.record_rejected();
                                return Err(NodeError::VectorConflict { index, got, stored });
                            }
                            (false, Some(_)) => return Ok(Response::Ack),
                            // Equal vectors re-apply: the bytes are the
                            // same reconstruction, and re-applying heals
                            // any byte divergence at matching versions.
                            _ => {}
                        }
                        self.stats.record_write(bytes.len());
                        drop(stored); // as for `WriteData`
                        self.put_acked(id, StoredBlock::new_parity(versions, bytes, checks))?;
                        Ok(Response::Ack)
                    }
                    Some(StoredBlock::Data { .. }) => {
                        self.stats.record_rejected();
                        Err(NodeError::WrongKind)
                    }
                    None => {
                        self.stats.record_rejected();
                        Err(NodeError::NotFound)
                    }
                }
            }
            Request::AddParity {
                id,
                block_index,
                delta,
                coeff,
                expected_version,
                new_version,
                new_check,
            } => {
                // A fold without the block's new check would leave the
                // stored vector stale at `block_index`.
                let Some(new_check) = new_check else {
                    self.stats.record_rejected();
                    return Err(NodeError::BadBlockIndex {
                        index: block_index,
                        k: 0,
                    });
                };
                let _guard = self.op_lock(id);
                // Verified load: folding a rotten parity block would
                // launder transient read corruption into durable state.
                match self.load_verified(id)? {
                    Some(StoredBlock::Parity {
                        mut versions,
                        bytes,
                        mut checks,
                        ..
                    }) => {
                        // Bounds check and entry read in one step; the
                        // serve path never indexes.
                        let Some(&current_version) = versions.get(block_index) else {
                            self.stats.record_rejected();
                            return Err(NodeError::BadBlockIndex {
                                index: block_index,
                                k: versions.len(),
                            });
                        };
                        if bytes.len() != delta.len() {
                            self.stats.record_rejected();
                            return Err(NodeError::SizeMismatch {
                                stored: bytes.len(),
                                got: delta.len(),
                            });
                        }
                        // Algorithm 1's guard: fold the delta only if this
                        // node's V entry matches the version the writer
                        // read — otherwise this parity missed an earlier
                        // update of the block (or already folded a
                        // competing one) and must stay put rather than
                        // corrupt. Exact redeliveries never reach this
                        // point: the applied-op window absorbs them.
                        if current_version != expected_version {
                            self.stats.record_rejected();
                            return Err(NodeError::VersionConflict {
                                expected: expected_version,
                                actual: current_version,
                            });
                        }
                        self.stats.record_parity_add(delta.len());
                        // The fold produces a new value, so this is the
                        // one mutation that materialises a fresh block —
                        // exactly one buffer, built by a single pass of
                        // the dispatched kernel: plain XOR for a
                        // pre-scaled delta (coeff 1), fused scale-and-add
                        // otherwise. The writer sends the *raw* delta
                        // once and lets each parity node scale by its own
                        // α_{j,i} in place, instead of materialising a
                        // scaled copy per parity member.
                        let mut folded = bytes.to_vec();
                        // The loaded clone has served; released, the store
                        // can take the fold into the resident buffer.
                        drop(bytes);
                        if coeff == 1 {
                            tq_gf256::slice_ops::add_assign(&mut folded, &delta);
                        } else {
                            tq_gf256::slice_ops::mul_add_slice(
                                tq_gf256::Gf256(coeff),
                                &delta,
                                &mut folded,
                            );
                        }
                        if let Some(slot) = versions.get_mut(block_index) {
                            *slot = new_version;
                        }
                        // Carry the cross-checksum vector forward: the
                        // folded block's entry becomes the writer's
                        // post-write checksum.
                        if let Some(slot) = checks.get_mut(block_index) {
                            *slot = new_check;
                        }
                        self.put_acked(
                            id,
                            StoredBlock::new_parity(versions, Bytes::from(folded), checks),
                        )?;
                        Ok(Response::Ack)
                    }
                    Some(StoredBlock::Data { .. }) => {
                        self.stats.record_rejected();
                        Err(NodeError::WrongKind)
                    }
                    None => {
                        self.stats.record_rejected();
                        Err(NodeError::NotFound)
                    }
                }
            }
        }
    }
}

impl NodeApi for StorageNode {
    /// Executes one enveloped command with exact-duplicate absorption:
    /// a mutation whose [`OpId`](crate::rpc::OpId) was already applied
    /// acknowledges from the window without re-executing (vital for the
    /// non-idempotent parity fold), everything else runs through
    /// [`StorageNode::handle`].
    fn execute(&self, env: Envelope) -> Reply {
        let Envelope {
            op_id,
            round_epoch,
            lane: _,
            payload,
        } = env;
        let reply = |result| Reply {
            op_id,
            round_epoch,
            result,
        };
        if !self.is_up() {
            self.stats.record_rejected();
            return reply(Err(NodeError::Down));
        }
        let mutation = payload.is_mutation();
        if mutation && self.applied.lock().contains(op_id) {
            return reply(Ok(Response::Ack));
        }
        let result = self.handle(payload);
        if mutation && result.is_ok() {
            self.applied.lock().remember(op_id);
        }
        reply(result)
    }
}

#[cfg(test)]
impl StorageNode {
    /// Number of objects stored (diagnostics).
    pub(crate) fn object_count(&self) -> usize {
        let mut n = 0;
        let _ = self.backend.scan(&mut |_, _| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemoryBackend;

    fn node() -> StorageNode {
        // Pin the memory backend: these tests assert exact IO counters
        // and must not vary under TQ_NODE_BACKEND.
        StorageNode::builder(NodeId(0))
            .backend(Arc::new(MemoryBackend::new()))
            .build()
    }

    #[test]
    fn ping_and_fail_stop() {
        let n = node();
        assert_eq!(n.handle(Request::Ping), Ok(Response::Pong));
        n.set_up(false);
        assert_eq!(n.handle(Request::Ping), Err(NodeError::Down));
        n.set_up(true);
        assert_eq!(n.handle(Request::Ping), Ok(Response::Pong));
    }

    #[test]
    fn data_block_lifecycle() {
        let n = node();
        n.handle(Request::InitData {
            id: 7,
            bytes: Bytes::from_static(b"hello world!"),
        })
        .unwrap();
        // Fresh block: version 0.
        assert_eq!(
            n.handle(Request::VersionData { id: 7 }),
            Ok(Response::Version(0))
        );
        // Overwrite with version 1.
        n.handle(Request::WriteData {
            id: 7,
            bytes: Bytes::from_static(b"HELLO WORLD!"),
            version: 1,
        })
        .unwrap();
        match n.handle(Request::ReadData { id: 7 }).unwrap() {
            Response::Data { bytes, version, .. } => {
                assert_eq!(&bytes[..], b"HELLO WORLD!");
                assert_eq!(version, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn init_is_first_wins() {
        let n = node();
        n.handle(Request::InitData {
            id: 1,
            bytes: Bytes::from_static(b"orig"),
        })
        .unwrap();
        n.handle(Request::WriteData {
            id: 1,
            bytes: Bytes::from_static(b"newb"),
            version: 3,
        })
        .unwrap();
        // A redelivered create acks but must not reset the block.
        assert_eq!(
            n.handle(Request::InitData {
                id: 1,
                bytes: Bytes::from_static(b"orig"),
            }),
            Ok(Response::Ack)
        );
        match n.handle(Request::ReadData { id: 1 }).unwrap() {
            Response::Data { bytes, version, .. } => {
                assert_eq!(&bytes[..], b"newb");
                assert_eq!(version, 3, "create must not clobber a written block");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Same for parity.
        n.handle(Request::InitParity {
            id: 2,
            bytes: Bytes::from(vec![0u8; 4]),
            k: 2,
            checks: vec![0; 2],
        })
        .unwrap();
        n.handle(Request::AddParity {
            id: 2,
            block_index: 0,
            delta: Bytes::from(vec![1u8; 4]),
            expected_version: 0,
            new_version: 1,
            coeff: 1,
            new_check: Some(0),
        })
        .unwrap();
        assert_eq!(
            n.handle(Request::InitParity {
                id: 2,
                bytes: Bytes::from(vec![0u8; 4]),
                k: 2,
                checks: vec![0; 2],
            }),
            Ok(Response::Ack)
        );
        match n.handle(Request::ReadParity { id: 2 }).unwrap() {
            Response::Parity { versions, .. } => assert_eq!(versions, vec![1, 0]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stale_write_acks_without_clobbering() {
        let n = node();
        n.handle(Request::InitData {
            id: 1,
            bytes: Bytes::from_static(b"v0.."),
        })
        .unwrap();
        n.handle(Request::WriteData {
            id: 1,
            bytes: Bytes::from_static(b"v5.."),
            version: 5,
        })
        .unwrap();
        // A stale delivery (redelivered old write) acks idempotently.
        assert_eq!(
            n.handle(Request::WriteData {
                id: 1,
                bytes: Bytes::from_static(b"v2.."),
                version: 2,
            }),
            Ok(Response::Ack)
        );
        match n.handle(Request::ReadData { id: 1 }).unwrap() {
            Response::Data { bytes, version, .. } => {
                assert_eq!(&bytes[..], b"v5..", "stale write must not clobber");
                assert_eq!(version, 5);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Equal-version delivery re-applies (a redelivery carries the
        // same bytes, so this is a no-op; a competing same-version write
        // converges on the last applied — and residue makes that legal).
        n.handle(Request::WriteData {
            id: 1,
            bytes: Bytes::from_static(b"V5!."),
            version: 5,
        })
        .unwrap();
        match n.handle(Request::ReadData { id: 1 }).unwrap() {
            Response::Data { bytes, version, .. } => {
                assert_eq!(&bytes[..], b"V5!.");
                assert_eq!(version, 5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn write_rejects_size_change() {
        let n = node();
        n.handle(Request::InitData {
            id: 1,
            bytes: Bytes::from_static(b"abcd"),
        })
        .unwrap();
        assert_eq!(
            n.handle(Request::WriteData {
                id: 1,
                bytes: Bytes::from_static(b"toolong"),
                version: 1
            }),
            Err(NodeError::SizeMismatch { stored: 4, got: 7 })
        );
    }

    #[test]
    fn missing_block_not_found() {
        let n = node();
        assert_eq!(
            n.handle(Request::ReadData { id: 9 }),
            Err(NodeError::NotFound)
        );
        assert_eq!(
            n.handle(Request::VersionData { id: 9 }),
            Err(NodeError::NotFound)
        );
    }

    #[test]
    fn kind_mismatch_rejected() {
        let n = node();
        n.handle(Request::InitData {
            id: 1,
            bytes: Bytes::from_static(b"data"),
        })
        .unwrap();
        n.handle(Request::InitParity {
            id: 2,
            bytes: Bytes::from_static(b"par!"),
            k: 3,
            checks: vec![0; 3],
        })
        .unwrap();
        assert_eq!(
            n.handle(Request::VersionVector { id: 1 }),
            Err(NodeError::WrongKind)
        );
        assert_eq!(
            n.handle(Request::ReadData { id: 2 }),
            Err(NodeError::WrongKind)
        );
        assert_eq!(
            n.handle(Request::WriteData {
                id: 2,
                bytes: Bytes::from_static(b"xxxx"),
                version: 1
            }),
            Err(NodeError::WrongKind)
        );
        assert_eq!(
            n.handle(Request::InitData {
                id: 2,
                bytes: Bytes::from_static(b"data"),
            }),
            Err(NodeError::WrongKind)
        );
        assert_eq!(
            n.handle(Request::InitParity {
                id: 1,
                bytes: Bytes::from_static(b"par!"),
                k: 3,
                checks: vec![0; 3],
            }),
            Err(NodeError::WrongKind)
        );
    }

    #[test]
    fn parity_add_guarded_by_version() {
        let n = node();
        n.handle(Request::InitParity {
            id: 3,
            bytes: Bytes::from(vec![0u8; 4]),
            k: 2,
            checks: vec![0; 2],
        })
        .unwrap();
        // Fold a delta for block 1 at expected version 0.
        n.handle(Request::AddParity {
            id: 3,
            block_index: 1,
            delta: Bytes::from(vec![0xFF, 0x00, 0xFF, 0x00]),
            expected_version: 0,
            new_version: 1,
            coeff: 1,
            new_check: Some(0),
        })
        .unwrap();
        match n.handle(Request::ReadParity { id: 3 }).unwrap() {
            Response::Parity {
                bytes, versions, ..
            } => {
                assert_eq!(&bytes[..], &[0xFF, 0x00, 0xFF, 0x00]);
                assert_eq!(versions, vec![0, 1]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Replaying the same delta through the *bare* payload path must
        // hit the guard (the enveloped path absorbs it — see
        // `execute_absorbs_exact_duplicates`).
        assert_eq!(
            n.handle(Request::AddParity {
                id: 3,
                block_index: 1,
                delta: Bytes::from(vec![0xFF, 0x00, 0xFF, 0x00]),
                expected_version: 0,
                new_version: 1,
                coeff: 1,
                new_check: Some(0),
            }),
            Err(NodeError::VersionConflict {
                expected: 0,
                actual: 1
            })
        );
        // Bad index and bad size.
        assert_eq!(
            n.handle(Request::AddParity {
                id: 3,
                block_index: 5,
                delta: Bytes::from(vec![0; 4]),
                expected_version: 0,
                new_version: 1,
                coeff: 1,
                new_check: Some(0),
            }),
            Err(NodeError::BadBlockIndex { index: 5, k: 2 })
        );
        assert_eq!(
            n.handle(Request::AddParity {
                id: 3,
                block_index: 0,
                delta: Bytes::from(vec![0; 2]),
                expected_version: 0,
                new_version: 1,
                coeff: 1,
                new_check: Some(0),
            }),
            Err(NodeError::SizeMismatch { stored: 4, got: 2 })
        );
    }

    #[test]
    fn mutations_overwrite_the_resident_buffers() {
        // The handlers hold no clone of the stored block across the
        // install, so the store's in-place path is the one taken: the
        // node keeps the allocations it was provisioned with.
        let n = node();
        n.handle(Request::InitData {
            id: 1,
            bytes: Bytes::from(vec![1u8; 64]),
        })
        .unwrap();
        n.handle(Request::InitParity {
            id: 2,
            bytes: Bytes::from(vec![0u8; 64]),
            k: 2,
            checks: vec![0; 2],
        })
        .unwrap();
        let served = |req| match n.handle(req).unwrap() {
            Response::Data { bytes, .. } | Response::Parity { bytes, .. } => bytes,
            other => panic!("unexpected {other:?}"),
        };
        let data_at = served(Request::ReadData { id: 1 }).as_ptr();
        let parity_at = served(Request::ReadParity { id: 2 }).as_ptr();

        n.handle(Request::WriteData {
            id: 1,
            bytes: Bytes::from(vec![2u8; 64]),
            version: 1,
        })
        .unwrap();
        n.handle(Request::AddParity {
            id: 2,
            block_index: 0,
            delta: Bytes::from(vec![3u8; 64]),
            expected_version: 0,
            new_version: 1,
            coeff: 1,
            new_check: Some(0),
        })
        .unwrap();
        n.handle(Request::WriteParity {
            id: 2,
            bytes: Bytes::from(vec![4u8; 64]),
            versions: vec![2, 0],
            checks: vec![0; 2],
        })
        .unwrap();

        let data = served(Request::ReadData { id: 1 });
        assert_eq!(&data[..], &[2u8; 64]);
        assert_eq!(data.as_ptr(), data_at);
        let parity = served(Request::ReadParity { id: 2 });
        assert_eq!(&parity[..], &[4u8; 64]);
        assert_eq!(parity.as_ptr(), parity_at);
    }

    #[test]
    fn write_parity_replaces_state_monotonically() {
        let n = node();
        n.handle(Request::InitParity {
            id: 4,
            bytes: Bytes::from(vec![0u8; 4]),
            k: 3,
            checks: vec![0; 3],
        })
        .unwrap();
        n.handle(Request::WriteParity {
            id: 4,
            bytes: Bytes::from(vec![9u8; 4]),
            versions: vec![5, 6, 7],
            checks: vec![0; 3],
        })
        .unwrap();
        match n.handle(Request::ReadParity { id: 4 }).unwrap() {
            Response::Parity {
                bytes, versions, ..
            } => {
                assert_eq!(&bytes[..], &[9, 9, 9, 9]);
                assert_eq!(versions, vec![5, 6, 7]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A strictly dominated (stale) repair acks without regressing.
        assert_eq!(
            n.handle(Request::WriteParity {
                id: 4,
                bytes: Bytes::from(vec![1u8; 4]),
                versions: vec![4, 6, 7],
                checks: vec![0; 3],
            }),
            Ok(Response::Ack)
        );
        match n.handle(Request::ReadParity { id: 4 }).unwrap() {
            Response::Parity {
                bytes, versions, ..
            } => {
                assert_eq!(&bytes[..], &[9, 9, 9, 9], "stale repair must not apply");
                assert_eq!(versions, vec![5, 6, 7]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // An incomparable vector is a conflict, not a partial regression.
        assert_eq!(
            n.handle(Request::WriteParity {
                id: 4,
                bytes: Bytes::from(vec![2u8; 4]),
                versions: vec![6, 5, 7],
                checks: vec![0; 3],
            }),
            Err(NodeError::VectorConflict {
                index: 1,
                got: 5,
                stored: 6
            })
        );
        // A dominating repair applies.
        n.handle(Request::WriteParity {
            id: 4,
            bytes: Bytes::from(vec![3u8; 4]),
            versions: vec![6, 6, 8],
            checks: vec![0; 3],
        })
        .unwrap();
        match n.handle(Request::ReadParity { id: 4 }).unwrap() {
            Response::Parity {
                bytes, versions, ..
            } => {
                assert_eq!(&bytes[..], &[3, 3, 3, 3]);
                assert_eq!(versions, vec![6, 6, 8]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Size and vector-length guards.
        assert_eq!(
            n.handle(Request::WriteParity {
                id: 4,
                bytes: Bytes::from(vec![0u8; 2]),
                versions: vec![9, 9, 9],
                checks: vec![0; 3],
            }),
            Err(NodeError::SizeMismatch { stored: 4, got: 2 })
        );
        assert_eq!(
            n.handle(Request::WriteParity {
                id: 4,
                bytes: Bytes::from(vec![0u8; 4]),
                versions: vec![9, 9],
                checks: vec![0; 2],
            }),
            Err(NodeError::BadBlockIndex { index: 2, k: 3 })
        );
        // Wrong kind.
        n.handle(Request::InitData {
            id: 5,
            bytes: Bytes::from_static(b"data"),
        })
        .unwrap();
        assert_eq!(
            n.handle(Request::WriteParity {
                id: 5,
                bytes: Bytes::from(vec![0u8; 4]),
                versions: vec![0],
                checks: vec![0; 1],
            }),
            Err(NodeError::WrongKind)
        );
    }

    #[test]
    fn execute_absorbs_exact_duplicates() {
        let n = node();
        n.execute(Envelope::new(Request::InitParity {
            id: 1,
            bytes: Bytes::from(vec![0u8; 4]),
            k: 2,
            checks: vec![0; 2],
        }));
        let fold = Envelope::new(Request::AddParity {
            id: 1,
            block_index: 0,
            delta: Bytes::from(vec![0xFFu8; 4]),
            expected_version: 0,
            new_version: 1,
            coeff: 1,
            new_check: Some(0),
        });
        assert_eq!(n.execute(fold.clone()).result, Ok(Response::Ack));
        // Redelivering the same envelope: recorded ack, no second fold
        // (a second XOR would cancel the first).
        assert_eq!(n.execute(fold.clone()).result, Ok(Response::Ack));
        assert_eq!(n.execute(fold).result, Ok(Response::Ack));
        match n
            .execute(Envelope::new(Request::ReadParity { id: 1 }))
            .result
        {
            Ok(Response::Parity {
                bytes, versions, ..
            }) => {
                assert_eq!(&bytes[..], &[0xFF; 4], "the fold applied exactly once");
                assert_eq!(versions, vec![1, 0]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A *distinct* envelope with the same transition hits the guard.
        let competing = Envelope::new(Request::AddParity {
            id: 1,
            block_index: 0,
            delta: Bytes::from(vec![0x0Fu8; 4]),
            expected_version: 0,
            new_version: 1,
            coeff: 1,
            new_check: Some(0),
        });
        assert_eq!(
            n.execute(competing).result,
            Err(NodeError::VersionConflict {
                expected: 0,
                actual: 1
            })
        );
    }

    #[test]
    fn execute_rejects_when_down_even_for_applied_ops() {
        let n = node();
        n.execute(Envelope::new(Request::InitData {
            id: 1,
            bytes: Bytes::from_static(b"x"),
        }));
        let write = Envelope::new(Request::WriteData {
            id: 1,
            bytes: Bytes::from_static(b"y"),
            version: 1,
        });
        assert_eq!(n.execute(write.clone()).result, Ok(Response::Ack));
        n.set_up(false);
        assert_eq!(n.execute(write).result, Err(NodeError::Down));
    }

    #[test]
    fn wipe_clears_the_applied_window() {
        let n = node();
        let init = Envelope::new(Request::InitData {
            id: 1,
            bytes: Bytes::from_static(b"x"),
        });
        assert_eq!(n.execute(init.clone()).result, Ok(Response::Ack));
        n.wipe();
        // After the disk is gone the op id is forgotten with it: the
        // redelivered create re-installs (first-wins on an empty disk).
        assert_eq!(n.execute(init).result, Ok(Response::Ack));
        assert_eq!(n.object_count(), 1);
    }

    #[test]
    fn down_node_keeps_state() {
        let n = node();
        n.handle(Request::InitData {
            id: 1,
            bytes: Bytes::from_static(b"persist"),
        })
        .unwrap();
        n.set_up(false);
        assert_eq!(n.handle(Request::ReadData { id: 1 }), Err(NodeError::Down));
        n.set_up(true);
        match n.handle(Request::ReadData { id: 1 }).unwrap() {
            Response::Data { bytes, version, .. } => {
                assert_eq!(&bytes[..], b"persist");
                assert_eq!(version, 0, "state survives fail-stop");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stats_and_storage_accounting() {
        let n = node();
        n.handle(Request::InitData {
            id: 1,
            bytes: Bytes::from(vec![0u8; 100]),
        })
        .unwrap();
        n.handle(Request::InitParity {
            id: 2,
            bytes: Bytes::from(vec![0u8; 25]),
            k: 4,
            checks: vec![0; 4],
        })
        .unwrap();
        assert_eq!(n.object_count(), 2);
        assert_eq!(n.stored_bytes(), 125);
        n.handle(Request::ReadData { id: 1 }).unwrap();
        let snap = n.io_snapshot();
        assert_eq!(snap.reads, 1);
        assert_eq!(snap.writes, 2);
        assert_eq!(snap.bytes_out, 100);
    }

    #[test]
    fn acked_writes_survive_crash_reverts() {
        use crate::disk::SimFs;
        use crate::storage::{AppendLogBackend, FsyncPolicy};
        // A `Manual` log syncs only when flushed, on a disk whose crash
        // drops or tears what was never synced: only the node's own
        // flush-before-ack can make the write durable. Each seed crashes
        // the disk a different way.
        for seed in 0..8 {
            let disk = Arc::new(SimFs::new(seed));
            let log = AppendLogBackend::open_on(disk, "node.log", FsyncPolicy::Manual).unwrap();
            let n = StorageNode::builder(NodeId(0))
                .backend(Arc::new(log))
                .build();
            n.handle(Request::InitData {
                id: 1,
                bytes: Bytes::from_static(b"acked"),
            })
            .unwrap();
            n.crash_restart();
            assert!(
                matches!(
                    n.handle(Request::ReadData { id: 1 }),
                    Ok(Response::Data { .. })
                ),
                "seed {seed}: a node must not lose an acknowledged write"
            );
        }
    }

    #[test]
    fn crash_restart_on_memory_backend_keeps_state_but_drops_window() {
        let n = node();
        let fold_setup = Envelope::new(Request::InitParity {
            id: 1,
            bytes: Bytes::from(vec![0u8; 4]),
            k: 1,
            checks: vec![0; 1],
        });
        n.execute(fold_setup);
        let fold = Envelope::new(Request::AddParity {
            id: 1,
            block_index: 0,
            delta: Bytes::from(vec![0xFFu8; 4]),
            expected_version: 0,
            new_version: 1,
            coeff: 1,
            new_check: Some(0),
        });
        assert_eq!(n.execute(fold.clone()).result, Ok(Response::Ack));
        n.crash_restart();
        // The memory backend "recovers" everything; the volatile applied
        // window is gone, so the redelivered fold falls through to the
        // version guard — rejected, not double-applied.
        assert_eq!(
            n.execute(fold).result,
            Err(NodeError::VersionConflict {
                expected: 0,
                actual: 1
            })
        );
    }

    /// Installs a data block whose stored bytes were tampered with after
    /// the self-checksum was stamped, bypassing the node's write path.
    fn tampered_node() -> StorageNode {
        let n = node();
        n.handle(Request::InitData {
            id: 1,
            bytes: Bytes::from_static(b"good bytes"),
        })
        .unwrap();
        let block = match n.backend().get(1).unwrap().unwrap() {
            StoredBlock::Data { version, check, .. } => StoredBlock::Data {
                version,
                bytes: Bytes::from_static(b"evil bytes"),
                check,
            },
            other => panic!("{other:?}"),
        };
        n.backend().put(1, block).unwrap();
        n
    }

    #[test]
    fn verifying_node_reports_tampered_blocks_as_corrupt() {
        let n = tampered_node();
        assert_eq!(
            n.handle(Request::ReadData { id: 1 }),
            Err(NodeError::Corrupt)
        );
        // Version queries don't touch the payload and still serve.
        assert_eq!(
            n.handle(Request::VersionData { id: 1 }),
            Ok(Response::Version(0))
        );
        // A full overwrite re-stamps the checksum and heals the block.
        n.handle(Request::WriteData {
            id: 1,
            bytes: Bytes::from_static(b"laundered!"),
            version: 1,
        })
        .unwrap();
        match n.handle(Request::ReadData { id: 1 }).unwrap() {
            Response::Data { bytes, check, .. } => {
                assert_eq!(&bytes[..], b"laundered!");
                assert_eq!(check, tq_gf256::check::block_check(b"laundered!"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn corrupt_parity_refuses_delta_folds() {
        let n = node();
        n.handle(Request::InitParity {
            id: 2,
            bytes: Bytes::from(vec![0u8; 4]),
            k: 1,
            checks: vec![0; 1],
        })
        .unwrap();
        let block = match n.backend().get(2).unwrap().unwrap() {
            StoredBlock::Parity {
                versions,
                check,
                checks,
                ..
            } => StoredBlock::Parity {
                versions,
                bytes: Bytes::from(vec![9u8; 4]),
                check,
                checks,
            },
            other => panic!("{other:?}"),
        };
        n.backend().put(2, block).unwrap();
        // Folding into rotted parity would persist garbage forever;
        // the verify gate turns it into a typed refusal instead.
        assert_eq!(
            n.handle(Request::AddParity {
                id: 2,
                block_index: 0,
                delta: Bytes::from(vec![1u8; 4]),
                expected_version: 0,
                new_version: 1,
                coeff: 1,
                new_check: Some(0),
            }),
            Err(NodeError::Corrupt)
        );
    }

    #[test]
    fn fused_coefficient_fold_matches_prescaled_fold() {
        let raw = [0x13u8, 0x55, 0x00, 0xFE];
        let coeff = 0x47u8;
        let mut prescaled = vec![0u8; 4];
        tq_gf256::slice_ops::mul_add_slice(tq_gf256::Gf256(coeff), &raw, &mut prescaled);

        let run = |delta: Bytes, coeff: u8| {
            let n = node();
            n.handle(Request::InitParity {
                id: 3,
                bytes: Bytes::from(vec![0u8; 4]),
                k: 2,
                checks: vec![0; 2],
            })
            .unwrap();
            n.handle(Request::AddParity {
                id: 3,
                block_index: 1,
                delta,
                expected_version: 0,
                new_version: 1,
                coeff,
                new_check: Some(0),
            })
            .unwrap();
            match n.handle(Request::ReadParity { id: 3 }).unwrap() {
                Response::Parity { bytes, .. } => bytes,
                other => panic!("{other:?}"),
            }
        };

        let unscaled = run(Bytes::from(prescaled), 1);
        let fused = run(Bytes::copy_from_slice(&raw), coeff);
        assert_eq!(unscaled, fused, "node-side scaling must equal client-side");
    }

    #[test]
    fn add_parity_with_check_maintains_the_stored_vector() {
        let n = node();
        n.handle(Request::InitParity {
            id: 4,
            bytes: Bytes::from(vec![0u8; 4]),
            k: 2,
            checks: vec![11, 22],
        })
        .unwrap();
        n.handle(Request::AddParity {
            id: 4,
            block_index: 1,
            delta: Bytes::from(vec![1u8; 4]),
            expected_version: 0,
            new_version: 1,
            coeff: 1,
            new_check: Some(99),
        })
        .unwrap();
        let stored = || match n.handle(Request::ReadParity { id: 4 }).unwrap() {
            Response::Parity {
                bytes,
                versions,
                checks,
            } => (bytes, versions, checks),
            other => panic!("{other:?}"),
        };
        let after_fold = stored();
        assert_eq!(after_fold.2, vec![11, 99]);
        // A request without a whole vector is refused and changes
        // nothing: the stored vector is always exactly k long.
        let refused = [
            (
                Request::AddParity {
                    id: 4,
                    block_index: 0,
                    delta: Bytes::from(vec![2u8; 4]),
                    expected_version: 0,
                    new_version: 1,
                    coeff: 1,
                    new_check: None,
                },
                NodeError::BadBlockIndex { index: 0, k: 0 },
            ),
            (
                Request::InitParity {
                    id: 4,
                    bytes: Bytes::from(vec![3u8; 4]),
                    k: 2,
                    checks: vec![33],
                },
                NodeError::BadBlockIndex { index: 1, k: 2 },
            ),
            (
                Request::WriteParity {
                    id: 4,
                    bytes: Bytes::from(vec![4u8; 4]),
                    versions: vec![5, 5],
                    checks: vec![44, 55, 66],
                },
                NodeError::BadBlockIndex { index: 3, k: 2 },
            ),
            (
                Request::WriteParity {
                    id: 4,
                    bytes: Bytes::from(vec![4u8; 4]),
                    versions: vec![5, 5],
                    checks: vec![],
                },
                NodeError::BadBlockIndex { index: 0, k: 2 },
            ),
        ];
        for (req, err) in refused {
            let label = req.to_string();
            assert_eq!(n.handle(req), Err(err), "{label}");
            assert_eq!(stored(), after_fold, "{label}");
        }
        // Nor does a refused create install anything.
        assert_eq!(
            n.handle(Request::InitParity {
                id: 5,
                bytes: Bytes::from(vec![0u8; 4]),
                k: 2,
                checks: vec![],
            }),
            Err(NodeError::BadBlockIndex { index: 0, k: 2 })
        );
        assert_eq!(
            n.handle(Request::VersionVector { id: 5 }),
            Err(NodeError::NotFound)
        );
    }
}

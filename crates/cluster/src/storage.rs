//! Pluggable node storage: the [`StorageBackend`] seam under
//! [`StorageNode`](crate::node::StorageNode).
//!
//! The node's command semantics (monotone guards, applied-op window,
//! fail-stop switch) live in `node.rs` and are backend-agnostic; this
//! module supplies what they sit on:
//!
//! * [`MemoryBackend`] — the original 16-way-striped in-memory block
//!   map. Zero durability, maximum speed; the default, and what the
//!   simulation uses.
//! * [`AppendLogBackend`] — a crash-safe append-only log. Every put and
//!   delete is one checksummed record; recovery replays the log and
//!   truncates a torn tail; an [`FsyncPolicy`] knob trades latency for
//!   the durability horizon; compaction rewrites the log once dead
//!   records dominate.
//! * [`FaultingBackend`] — a deterministic fault-injection wrapper for
//!   the DST storage-fault axis: it models the *recovery-visible* state
//!   space of a real disk (an fsync barrier that may silently be
//!   delayed, crash-restart reverting to the last barrier, seeded slow
//!   reads surfacing as virtual-time stall ticks).
//!
//! Backends are selected per node via
//! [`StorageNode::builder`](crate::node::StorageNode::builder); the
//! `TQ_NODE_BACKEND` environment variable switches the *default* for
//! nodes built without an explicit choice (`memory` | `applog`), which
//! is how CI runs the whole integration suite against both.

use std::collections::hash_map::Entry;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::detmap::DetHashMap;
use crate::rpc::BlockId;
use crate::wire::crc32;

/// What one node stores for one object.
///
/// Blocks are held as refcounted [`Bytes`], and a read hands out a clone
/// of the stored allocation (an `Arc` bump). The first install of a
/// block *moves* the request's payload into the store; a later one of
/// the same length ([`install`](StoredBlock::install)) copies
/// the payload once into the buffer already resident, unless a reader
/// still holds a clone of it — then the payload replaces the buffer, and
/// the reader keeps the bytes it was given. A store therefore keeps the
/// allocations it was provisioned with instead of trading each one, on
/// every write, for a buffer from whichever thread served that write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoredBlock {
    /// A full data block `b_i` with its version (the paper's data nodes).
    Data {
        /// Current version of the block.
        version: u64,
        /// Block contents.
        bytes: Bytes,
        /// Node-computed self-checksum of `bytes`
        /// ([`tq_gf256::check::block_check`]), stamped at install time.
        /// A serving-time mismatch means the stored bytes rotted under
        /// the node — surfaced as [`StorageError::Corrupt`].
        check: u64,
    },
    /// A parity block `b_j = Σ α_{j,i}·b_i` with its column of the
    /// version matrix V: `versions[i]` is the version of block `i`'s
    /// contribution currently folded into `bytes`.
    Parity {
        /// Version per tracked data block.
        versions: Vec<u64>,
        /// Parity contents.
        bytes: Bytes,
        /// Node-computed self-checksum of `bytes`, as for `Data`.
        check: u64,
        /// Writer-supplied cross-checksum vector: entry `i` is the
        /// checksum of data block `i`'s contribution currently folded
        /// into `bytes`. Empty means unknown (legacy record or an
        /// uncheckummed delta landed) — readers skip cross-verification
        /// for this replica, the self-`check` still applies.
        checks: Vec<u64>,
    },
}

impl StoredBlock {
    /// Builds a data block, stamping the self-checksum from `bytes`.
    pub fn new_data(version: u64, bytes: Bytes) -> Self {
        let check = tq_gf256::check::block_check(&bytes);
        StoredBlock::Data {
            version,
            bytes,
            check,
        }
    }

    /// Builds a parity block, stamping the self-checksum from `bytes`.
    pub fn new_parity(versions: Vec<u64>, bytes: Bytes, checks: Vec<u64>) -> Self {
        let check = tq_gf256::check::block_check(&bytes);
        StoredBlock::Parity {
            versions,
            bytes,
            check,
            checks,
        }
    }

    /// Payload length in bytes.
    pub fn payload_len(&self) -> usize {
        match self {
            StoredBlock::Data { bytes, .. } | StoredBlock::Parity { bytes, .. } => bytes.len(),
        }
    }

    /// The stamped self-checksum.
    pub fn self_check(&self) -> u64 {
        match self {
            StoredBlock::Data { check, .. } | StoredBlock::Parity { check, .. } => *check,
        }
    }

    /// Makes this stored block equal `new`, keeping its payload buffer
    /// when it can. With equal lengths and the only handle on the
    /// resident allocation, the new bytes are copied into it and the
    /// incoming buffer is dropped here, by the thread that brought it;
    /// otherwise the incoming buffer takes its place and whoever else
    /// holds the old one keeps what they have. Every backend's `put`
    /// installs through here.
    pub(crate) fn install(&mut self, new: StoredBlock) {
        let displaced = std::mem::replace(self, new);
        let (StoredBlock::Data {
            bytes: resident, ..
        }
        | StoredBlock::Parity {
            bytes: resident, ..
        }) = displaced;
        let (StoredBlock::Data { bytes, .. } | StoredBlock::Parity { bytes, .. }) = self;
        if resident.len() != bytes.len() {
            return;
        }
        if let Ok(mut buffer) = resident.try_into_mut() {
            buffer.copy_from_slice(bytes);
            *bytes = buffer.freeze();
        }
    }

    /// Recomputes the payload checksum and compares it to the stamp.
    /// `false` means the bytes no longer match what was installed.
    pub fn self_check_ok(&self) -> bool {
        match self {
            StoredBlock::Data { bytes, check, .. } | StoredBlock::Parity { bytes, check, .. } => {
                tq_gf256::check::block_check(bytes) == *check
            }
        }
    }
}

/// Installs `block` under `id`: over the resident entry if there is one
/// ([`StoredBlock::install`]), as a new entry otherwise.
fn install_into(map: &mut DetHashMap<BlockId, StoredBlock>, id: BlockId, block: StoredBlock) {
    match map.entry(id) {
        Entry::Occupied(mut resident) => resident.get_mut().install(block),
        Entry::Vacant(slot) => {
            slot.insert(block);
        }
    }
}

/// Why a storage operation failed.
///
/// The node maps `Io` failures to fail-stop behaviour
/// ([`NodeError::Down`](crate::rpc::NodeError::Down)): a node whose disk
/// errors is indistinguishable from a crashed node under the paper's
/// model. `Corrupt` is different — the node *knows* it holds rotten
/// bytes, and says so
/// ([`NodeError::Corrupt`](crate::rpc::NodeError::Corrupt)) so readers
/// treat the reply as an erasure and scrub can target the node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An underlying I/O operation failed.
    Io {
        /// Which backend operation was in flight.
        op: &'static str,
        /// The OS error category.
        kind: std::io::ErrorKind,
    },
    /// Stored data failed validation (checksum or structure).
    Corrupt {
        /// What was wrong.
        detail: &'static str,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { op, kind } => write!(f, "storage {op} failed: {kind:?}"),
            StorageError::Corrupt { detail } => write!(f, "storage corrupt: {detail}"),
        }
    }
}

impl std::error::Error for StorageError {}

fn io_err(op: &'static str, e: std::io::Error) -> StorageError {
    StorageError::Io { op, kind: e.kind() }
}

/// The persistence seam under a storage node: a keyed block store with
/// an explicit durability barrier.
///
/// Implementations must be thread-safe; the node serialises operations
/// *per block* above this trait, so concurrent calls only ever target
/// distinct blocks (plus whole-store `scan`/`clear` from maintenance
/// paths).
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// Reads a block. `Ok(None)` means "not stored".
    fn get(&self, id: BlockId) -> Result<Option<StoredBlock>, StorageError>;

    /// Inserts or replaces a block.
    fn put(&self, id: BlockId, block: StoredBlock) -> Result<(), StorageError>;

    /// Removes a block (absent is fine — the delete is idempotent).
    fn delete(&self, id: BlockId) -> Result<(), StorageError>;

    /// Visits every stored block. Iteration order is unspecified.
    fn scan(&self, visit: &mut dyn FnMut(BlockId, &StoredBlock)) -> Result<(), StorageError>;

    /// Durability barrier: on return, every preceding `put`/`delete`
    /// survives crash-restart (for backends that persist at all).
    fn flush(&self) -> Result<(), StorageError>;

    /// Drops every block — models replacing the disk with a blank one.
    fn clear(&self) -> Result<(), StorageError>;

    /// Simulated crash-restart hook: revert to the state a real process
    /// restart would recover. The default is a no-op (an in-memory
    /// backend that survived in-process "recovers" everything; a real
    /// log backend recovers by construction when reopened).
    fn crash_restart(&self) {}

    /// Drains the virtual-time penalty (in abstract ticks) accumulated
    /// by slow operations since the last call. The simulation transport
    /// folds this into reply latency; backends without a slow-IO fault
    /// axis return 0.
    fn take_stall_ticks(&self) -> u64 {
        0
    }

    /// Short backend label for diagnostics.
    fn label(&self) -> &'static str;
}

// ---------------------------------------------------------------------
// Memory backend.
// ---------------------------------------------------------------------

/// How many independent mutex-guarded slices the memory backend splits
/// the block map into. A hot block serialises only its own slice. Power
/// of two so the hash reduction is a mask.
const MEMORY_STRIPES: usize = 16;

/// SplitMix64 finalizer, masked onto a stripe: neighbouring block ids
/// (one stripe's data + parity objects) spread over slices.
pub(crate) fn stripe_of(id: BlockId) -> usize {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z as usize) & (MEMORY_STRIPES - 1)
}

/// The original striped in-memory block map, now behind the
/// [`StorageBackend`] seam. Never fails and never persists.
#[derive(Debug)]
pub struct MemoryBackend {
    stripes: Vec<Mutex<DetHashMap<BlockId, StoredBlock>>>,
}

impl MemoryBackend {
    /// Creates an empty backend.
    pub fn new() -> Self {
        MemoryBackend {
            stripes: (0..MEMORY_STRIPES)
                .map(|_| Mutex::new(DetHashMap::default()))
                .collect(),
        }
    }
}

impl Default for MemoryBackend {
    fn default() -> Self {
        MemoryBackend::new()
    }
}

impl StorageBackend for MemoryBackend {
    fn get(&self, id: BlockId) -> Result<Option<StoredBlock>, StorageError> {
        Ok(self.stripes[stripe_of(id)].lock().get(&id).cloned())
    }

    fn put(&self, id: BlockId, block: StoredBlock) -> Result<(), StorageError> {
        install_into(&mut self.stripes[stripe_of(id)].lock(), id, block);
        Ok(())
    }

    fn delete(&self, id: BlockId) -> Result<(), StorageError> {
        self.stripes[stripe_of(id)].lock().remove(&id);
        Ok(())
    }

    fn scan(&self, visit: &mut dyn FnMut(BlockId, &StoredBlock)) -> Result<(), StorageError> {
        for stripe in &self.stripes {
            for (id, block) in stripe.lock().iter() {
                visit(*id, block);
            }
        }
        Ok(())
    }

    fn flush(&self) -> Result<(), StorageError> {
        Ok(())
    }

    fn clear(&self) -> Result<(), StorageError> {
        for stripe in &self.stripes {
            stripe.lock().clear();
        }
        Ok(())
    }

    fn label(&self) -> &'static str {
        "memory"
    }
}

// ---------------------------------------------------------------------
// Append-only log backend.
// ---------------------------------------------------------------------

/// When the append-only log forces data to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record — every acknowledged mutation is
    /// durable before the ack (slowest, tightest horizon).
    Always,
    /// `fsync` once per `n` records — bounded loss horizon of at most
    /// `n − 1` acknowledged mutations on crash.
    EveryN(u64),
    /// Only [`StorageBackend::flush`] syncs — the OS decides otherwise.
    Manual,
}

/// Record kinds in the log. `REC_PUT_PARITY` is the legacy parity
/// layout without a cross-checksum vector; new appends write
/// `REC_PUT_PARITY_V2`, old records still replay (with `checks` empty,
/// meaning "vector unknown"). Self-checksums are never persisted — they
/// are recomputed from the payload at parse time, under the same CRC
/// that guards the payload itself.
const REC_PUT_DATA: u8 = 1;
const REC_PUT_PARITY: u8 = 2;
const REC_DELETE: u8 = 3;
const REC_PUT_PARITY_V2: u8 = 4;

/// Per-record framing overhead: body length (u32) + body CRC-32 (u32).
const REC_HEADER: usize = 8;

/// Compaction triggers when the log exceeds this many bytes *and* is
/// mostly dead records (see `COMPACT_RATIO`).
const COMPACT_MIN_BYTES: u64 = 64 * 1024;

/// Compaction triggers when the log is this many times the live size.
const COMPACT_RATIO: u64 = 3;

fn encode_record(id: BlockId, block: Option<&StoredBlock>) -> Vec<u8> {
    let mut body = Vec::new();
    match block {
        None => {
            body.push(REC_DELETE);
            body.extend_from_slice(&id.to_le_bytes());
        }
        Some(StoredBlock::Data { version, bytes, .. }) => {
            body.push(REC_PUT_DATA);
            body.extend_from_slice(&id.to_le_bytes());
            body.extend_from_slice(&version.to_le_bytes());
            body.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            body.extend_from_slice(bytes);
        }
        Some(StoredBlock::Parity {
            versions,
            bytes,
            checks,
            ..
        }) => {
            body.push(REC_PUT_PARITY_V2);
            body.extend_from_slice(&id.to_le_bytes());
            body.extend_from_slice(&(versions.len() as u32).to_le_bytes());
            for v in versions {
                body.extend_from_slice(&v.to_le_bytes());
            }
            body.extend_from_slice(&(checks.len() as u32).to_le_bytes());
            for c in checks {
                body.extend_from_slice(&c.to_le_bytes());
            }
            body.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            body.extend_from_slice(bytes);
        }
    }
    let mut rec = Vec::with_capacity(REC_HEADER + body.len());
    rec.extend_from_slice(&(body.len() as u32).to_le_bytes());
    rec.extend_from_slice(&crc32(&body).to_le_bytes());
    rec.extend_from_slice(&body);
    rec
}

/// `encode_record(id, Some(block)).len()` without encoding anything: what
/// the live-size accounting adds for an installed block and subtracts
/// for a displaced or deleted one.
fn record_len(block: &StoredBlock) -> u64 {
    // Header, kind byte, block id.
    let fixed = REC_HEADER + 1 + 8;
    let body = match block {
        StoredBlock::Data { bytes, .. } => 8 + 4 + bytes.len(),
        StoredBlock::Parity {
            versions,
            bytes,
            checks,
            ..
        } => 4 + 8 * versions.len() + 4 + 8 * checks.len() + 4 + bytes.len(),
    };
    (fixed + body) as u64
}

/// Parses one record body. Returns `None` on any structural problem —
/// recovery treats that exactly like a checksum failure (truncate here).
fn parse_record(body: &[u8]) -> Option<(BlockId, Option<StoredBlock>)> {
    let (&kind, rest) = body.split_first()?;
    if rest.len() < 8 {
        return None;
    }
    let id = u64::from_le_bytes(rest[0..8].try_into().ok()?);
    let rest = &rest[8..];
    match kind {
        REC_DELETE => rest.is_empty().then_some((id, None)),
        REC_PUT_DATA => {
            if rest.len() < 12 {
                return None;
            }
            let version = u64::from_le_bytes(rest[0..8].try_into().ok()?);
            let len = u32::from_le_bytes(rest[8..12].try_into().ok()?) as usize;
            let payload = &rest[12..];
            (payload.len() == len).then(|| {
                (
                    id,
                    Some(StoredBlock::new_data(
                        version,
                        Bytes::copy_from_slice(payload),
                    )),
                )
            })
        }
        REC_PUT_PARITY | REC_PUT_PARITY_V2 => {
            if rest.len() < 4 {
                return None;
            }
            let count = u32::from_le_bytes(rest[0..4].try_into().ok()?) as usize;
            let mut rest = &rest[4..];
            if rest.len() < count.checked_mul(8)? {
                return None;
            }
            let versions: Vec<u64> = (0..count)
                .map(|i| u64::from_le_bytes(rest[i * 8..i * 8 + 8].try_into().unwrap()))
                .collect();
            rest = &rest[count * 8..];
            // V2 carries the cross-checksum vector; V1 replays with it
            // empty (= unknown).
            let checks: Vec<u64> = if kind == REC_PUT_PARITY_V2 {
                if rest.len() < 4 {
                    return None;
                }
                let ccount = u32::from_le_bytes(rest[0..4].try_into().ok()?) as usize;
                rest = &rest[4..];
                if rest.len() < ccount.checked_mul(8)? {
                    return None;
                }
                let checks = (0..ccount)
                    .map(|i| u64::from_le_bytes(rest[i * 8..i * 8 + 8].try_into().unwrap()))
                    .collect();
                rest = &rest[ccount * 8..];
                checks
            } else {
                Vec::new()
            };
            if rest.len() < 4 {
                return None;
            }
            let len = u32::from_le_bytes(rest[0..4].try_into().ok()?) as usize;
            let payload = &rest[4..];
            (payload.len() == len).then(|| {
                (
                    id,
                    Some(StoredBlock::new_parity(
                        versions,
                        Bytes::copy_from_slice(payload),
                        checks,
                    )),
                )
            })
        }
        _ => None,
    }
}

#[derive(Debug)]
struct LogInner {
    file: File,
    index: DetHashMap<BlockId, StoredBlock>,
    /// Current log file length.
    log_bytes: u64,
    /// Encoded size of the live records (what compaction would shrink to).
    live_bytes: u64,
    /// Records appended since the last fsync.
    dirty: u64,
    /// Log length at the last successful fsync — everything before this
    /// offset survives a crash.
    synced_len: u64,
}

/// Crash-safe append-only log storage.
///
/// Layout: back-to-back records, each `body_len(u32) · crc32(u32) ·
/// body`; the body is a tagged put (data or parity, full payload) or
/// delete. Every mutation appends; the in-memory index holds the fold
/// of the log. On open, the log is replayed and the first torn or
/// corrupt record truncates the tail — recovered state is exactly the
/// longest valid prefix, which the [`FsyncPolicy`] bounds below by the
/// last barrier. When dead records dominate
/// (log > 3× live and > 64 KiB), the log is compacted by atomically
/// replacing it with a snapshot.
pub struct AppendLogBackend {
    path: PathBuf,
    policy: FsyncPolicy,
    inner: Mutex<LogInner>,
    /// Delete the log file on drop (used by the `TQ_NODE_BACKEND`
    /// ephemeral default so test runs don't litter the temp dir).
    ephemeral: bool,
}

impl fmt::Debug for AppendLogBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AppendLogBackend")
            .field("path", &self.path)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl AppendLogBackend {
    /// Opens (or creates) the log at `path`, replaying it into memory
    /// and truncating any torn tail.
    pub fn open(path: impl Into<PathBuf>, policy: FsyncPolicy) -> Result<Self, StorageError> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| io_err("create-dir", e))?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open", e))?;

        // Replay. A torn or corrupt record ends the valid prefix; the
        // file is truncated there so the next append starts clean.
        let mut raw = Vec::new();
        file.read_to_end(&mut raw).map_err(|e| io_err("read", e))?;
        let mut index = DetHashMap::default();
        let mut live_bytes = 0u64;
        let mut valid = 0usize;
        while raw.len() - valid >= REC_HEADER {
            let body_len =
                u32::from_le_bytes(raw[valid..valid + 4].try_into().expect("4 bytes")) as usize;
            let Some(total) = body_len.checked_add(REC_HEADER) else {
                break;
            };
            if raw.len() - valid < total {
                break; // torn tail: the final append did not land fully
            }
            let stored_crc =
                u32::from_le_bytes(raw[valid + 4..valid + 8].try_into().expect("4 bytes"));
            let body = &raw[valid + REC_HEADER..valid + total];
            if crc32(body) != stored_crc {
                break; // corrupt record: nothing after it can be trusted
            }
            let Some((id, block)) = parse_record(body) else {
                break;
            };
            // Account the *canonical* (current-layout) record length, not
            // the on-disk one: a legacy V1 record is shorter than its
            // re-encoding, and live_bytes must match what later
            // overwrites subtract (and what compaction would write).
            live_bytes -= index.get(&id).map_or(0, record_len);
            match block {
                Some(b) => {
                    live_bytes += record_len(&b);
                    index.insert(id, b);
                }
                None => {
                    index.remove(&id);
                }
            }
            valid += total;
        }
        if valid < raw.len() {
            file.set_len(valid as u64)
                .map_err(|e| io_err("truncate", e))?;
            file.sync_data().map_err(|e| io_err("fsync", e))?;
        }
        file.seek(SeekFrom::End(0)).map_err(|e| io_err("seek", e))?;

        Ok(AppendLogBackend {
            path,
            policy,
            inner: Mutex::new(LogInner {
                file,
                index,
                log_bytes: valid as u64,
                live_bytes,
                dirty: 0,
                synced_len: valid as u64,
            }),
            ephemeral: false,
        })
    }

    /// Like [`open`](Self::open), but the log file is deleted when the
    /// backend drops — for env-selected throwaway backends in tests.
    pub fn open_ephemeral(
        path: impl Into<PathBuf>,
        policy: FsyncPolicy,
    ) -> Result<Self, StorageError> {
        let mut backend = Self::open(path, policy)?;
        backend.ephemeral = true;
        Ok(backend)
    }

    /// The log file path.
    pub fn log_path(&self) -> &Path {
        &self.path
    }

    /// Bytes of log guaranteed durable (length at the last fsync).
    /// Crash-restart tests truncate the file to this offset to model
    /// the worst legal crash.
    pub fn synced_len(&self) -> u64 {
        self.inner.lock().synced_len
    }

    /// Current log file length (diagnostics; compaction shrinks it).
    pub fn log_len(&self) -> u64 {
        self.inner.lock().log_bytes
    }

    fn append_locked(
        &self,
        inner: &mut LogInner,
        id: BlockId,
        block: Option<StoredBlock>,
    ) -> Result<(), StorageError> {
        let rec = encode_record(id, block.as_ref());
        inner
            .file
            .write_all(&rec)
            .map_err(|e| io_err("append", e))?;
        inner.log_bytes += rec.len() as u64;
        inner.dirty += 1;

        // Index + live-size accounting.
        inner.live_bytes -= inner.index.get(&id).map_or(0, record_len);
        match block {
            Some(b) => {
                inner.live_bytes += rec.len() as u64;
                install_into(&mut inner.index, id, b);
            }
            None => {
                inner.index.remove(&id);
            }
        }

        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => inner.dirty >= n.max(1),
            FsyncPolicy::Manual => false,
        };
        if due {
            self.sync_locked(inner)?;
        }
        if inner.log_bytes > COMPACT_MIN_BYTES
            && inner.log_bytes > COMPACT_RATIO * inner.live_bytes.max(1)
        {
            self.compact_locked(inner)?;
        }
        Ok(())
    }

    fn sync_locked(&self, inner: &mut LogInner) -> Result<(), StorageError> {
        inner.file.sync_data().map_err(|e| io_err("fsync", e))?;
        inner.dirty = 0;
        inner.synced_len = inner.log_bytes;
        Ok(())
    }

    /// Rewrites the log as a snapshot of the live index, atomically
    /// replacing the old file (write temp → fsync → rename → fsync dir).
    fn compact_locked(&self, inner: &mut LogInner) -> Result<(), StorageError> {
        let tmp_path = self.path.with_extension("compact");
        let mut tmp = File::create(&tmp_path).map_err(|e| io_err("compact-create", e))?;
        let mut new_len = 0u64;
        for (id, block) in &inner.index {
            let rec = encode_record(*id, Some(block));
            tmp.write_all(&rec)
                .map_err(|e| io_err("compact-write", e))?;
            new_len += rec.len() as u64;
        }
        tmp.sync_data().map_err(|e| io_err("compact-fsync", e))?;
        std::fs::rename(&tmp_path, &self.path).map_err(|e| io_err("compact-rename", e))?;
        // Make the rename itself durable. Swallowing this error would
        // let an acknowledged-durable log vanish with the directory
        // entry on power loss, so it propagates like any other fsync.
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                let dir = File::open(parent).map_err(|e| io_err("compact-dir-open", e))?;
                dir.sync_all().map_err(|e| io_err("compact-dir-fsync", e))?;
            }
        }
        tmp.seek(SeekFrom::End(0)).map_err(|e| io_err("seek", e))?;
        inner.file = tmp;
        inner.log_bytes = new_len;
        inner.live_bytes = new_len;
        inner.dirty = 0;
        inner.synced_len = new_len;
        Ok(())
    }
}

impl Drop for AppendLogBackend {
    fn drop(&mut self) {
        if self.ephemeral {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl StorageBackend for AppendLogBackend {
    fn get(&self, id: BlockId) -> Result<Option<StoredBlock>, StorageError> {
        Ok(self.inner.lock().index.get(&id).cloned())
    }

    fn put(&self, id: BlockId, block: StoredBlock) -> Result<(), StorageError> {
        let mut inner = self.inner.lock();
        self.append_locked(&mut inner, id, Some(block))
    }

    fn delete(&self, id: BlockId) -> Result<(), StorageError> {
        let mut inner = self.inner.lock();
        if !inner.index.contains_key(&id) {
            return Ok(()); // idempotent: no tombstone for a never-stored id
        }
        self.append_locked(&mut inner, id, None)
    }

    fn scan(&self, visit: &mut dyn FnMut(BlockId, &StoredBlock)) -> Result<(), StorageError> {
        for (id, block) in &self.inner.lock().index {
            visit(*id, block);
        }
        Ok(())
    }

    fn flush(&self) -> Result<(), StorageError> {
        let mut inner = self.inner.lock();
        // Nothing appended since the last successful fsync (the
        // acknowledged `put` of an `Always` log just paid it): the
        // barrier already holds, and a second fsync would only add its
        // latency to the ack.
        if inner.synced_len == inner.log_bytes {
            return Ok(());
        }
        self.sync_locked(&mut inner)
    }

    fn clear(&self) -> Result<(), StorageError> {
        let mut inner = self.inner.lock();
        inner.file.set_len(0).map_err(|e| io_err("truncate", e))?;
        inner
            .file
            .seek(SeekFrom::Start(0))
            .map_err(|e| io_err("seek", e))?;
        inner.file.sync_data().map_err(|e| io_err("fsync", e))?;
        inner.index.clear();
        inner.log_bytes = 0;
        inner.live_bytes = 0;
        inner.dirty = 0;
        inner.synced_len = 0;
        Ok(())
    }

    fn label(&self) -> &'static str {
        "applog"
    }
}

// ---------------------------------------------------------------------
// Faulting wrapper (DST storage-fault axis).
// ---------------------------------------------------------------------

/// Knobs of the DST storage-fault axis. Probabilities are in parts per
/// 256 (sampled from a seeded SplitMix64 stream, so every case replays
/// bit-for-bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageFaults {
    /// Simulated fsync barrier cadence: a barrier is *attempted* every
    /// `sync_every` mutations (1 = after each).
    pub sync_every: u64,
    /// Probability (0–255 of 256) that an attempted barrier silently
    /// does nothing — the delayed/failed-fsync fault. The data still
    /// reads back fine until a crash reverts past it.
    pub fsync_fail_p: u8,
    /// Probability (0–255 of 256) that a read is slow, charging
    /// [`take_stall_ticks`](FaultingBackend::take_stall_ticks) virtual
    /// time the simulation adds to the reply's delivery delay.
    pub slow_read_p: u8,
    /// Virtual ticks one slow read costs (1..=max, sampled).
    pub slow_read_max_ticks: u64,
    /// Probability (0–255 of 256) that a read serves a bit-flipped copy
    /// of the stored payload — the silent media-rot fault. Transient:
    /// the stored block itself is untouched, only the served copy lies.
    pub corrupt_read_p: u8,
    /// Probability (0–255 of 256) that a read serves *another* stored
    /// block's payload under the requested block's metadata (version
    /// stamps and self-checksum kept) — the misdirected-read fault of a
    /// real disk. Skipped when no other block exists.
    pub misdirect_read_p: u8,
}

impl StorageFaults {
    /// The default adversarial mix the DST matrices run with: barriers
    /// every 2 mutations, 1-in-4 of them silently delayed, 1-in-8 reads
    /// slow by up to 3 ticks. No read corruption — that is its own axis
    /// ([`corrupting`](Self::corrupting)).
    pub fn aggressive() -> Self {
        StorageFaults {
            sync_every: 2,
            fsync_fail_p: 64,
            slow_read_p: 32,
            slow_read_max_ticks: 3,
            corrupt_read_p: 0,
            misdirect_read_p: 0,
        }
    }

    /// The corrupting-node mix of the DST integrity axis: fsync behaves,
    /// but roughly 1 read in 26 serves a bit-flipped payload and 1 in 51
    /// a misdirected one. Probabilities are kept low so workloads still
    /// clear the matrices' non-vacuity floors.
    pub fn corrupting() -> Self {
        StorageFaults {
            sync_every: 1,
            fsync_fail_p: 0,
            slow_read_p: 0,
            slow_read_max_ticks: 1,
            corrupt_read_p: 10,
            misdirect_read_p: 5,
        }
    }
}

#[derive(Debug)]
struct FaultState {
    /// The last successfully "fsync'd" snapshot — what a crash reverts to.
    durable: DetHashMap<BlockId, StoredBlock>,
    mutations_since_sync: u64,
    rng: u64,
    /// Counters for non-vacuity assertions in tests.
    dropped_syncs: u64,
    crashes_reverted: u64,
    corrupted_reads: u64,
}

/// Deterministic fault-injection wrapper implementing the DST
/// storage-fault axis over any inner backend.
///
/// The wrapper models the *recovery-visible* behaviour of a faulty
/// disk rather than its byte-level failure detail: a torn final record
/// and lost unflushed appends both recover to the last fsync barrier
/// (that is precisely what [`AppendLogBackend`]'s truncating replay
/// produces, proven separately by its unit tests), so
/// [`crash_restart`](StorageBackend::crash_restart) reverts the inner
/// backend to the last barrier snapshot. Barriers themselves can
/// silently fail (delayed fsync), widening what a crash loses; reads
/// can be slow, surfacing as virtual-time stall ticks the simulation
/// folds into reply latency.
#[derive(Debug)]
pub struct FaultingBackend {
    inner: Arc<dyn StorageBackend>,
    faults: StorageFaults,
    state: Mutex<FaultState>,
    stall_ticks: AtomicU64,
}

impl FaultingBackend {
    /// Wraps `inner`, seeding the fault stream with `seed`.
    pub fn new(inner: Arc<dyn StorageBackend>, faults: StorageFaults, seed: u64) -> Self {
        FaultingBackend {
            inner,
            faults,
            state: Mutex::new(FaultState {
                durable: DetHashMap::default(),
                mutations_since_sync: 0,
                rng: seed ^ 0xA076_1D64_78BD_642F,
                dropped_syncs: 0,
                crashes_reverted: 0,
                corrupted_reads: 0,
            }),
            stall_ticks: AtomicU64::new(0),
        }
    }

    fn next_rand(state: &mut FaultState) -> u64 {
        // SplitMix64: deterministic, seed-replayable.
        state.rng = state.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn chance(state: &mut FaultState, p: u8) -> bool {
        (Self::next_rand(state) & 0xFF) < p as u64
    }

    fn snapshot_inner(&self) -> Result<DetHashMap<BlockId, StoredBlock>, StorageError> {
        let mut snap = DetHashMap::default();
        self.inner.scan(&mut |id, block| {
            snap.insert(id, block.clone());
        })?;
        Ok(snap)
    }

    fn after_mutation(&self) -> Result<(), StorageError> {
        let due = {
            let mut state = self.state.lock();
            state.mutations_since_sync += 1;
            state.mutations_since_sync >= self.faults.sync_every.max(1)
        };
        if due {
            self.barrier(false)?;
        }
        Ok(())
    }

    /// Attempts a durability barrier; `forced` barriers (explicit
    /// `flush`) never fail — a returned `flush` means durable, matching
    /// the contract callers rely on.
    fn barrier(&self, forced: bool) -> Result<(), StorageError> {
        let drop_it = {
            let mut state = self.state.lock();
            state.mutations_since_sync = 0;
            if !forced && Self::chance(&mut state, self.faults.fsync_fail_p) {
                state.dropped_syncs += 1;
                true
            } else {
                false
            }
        };
        if drop_it {
            return Ok(()); // the lying disk: "done", but nothing moved
        }
        let snap = self.snapshot_inner()?;
        self.state.lock().durable = snap;
        Ok(())
    }

    /// How many barriers were silently dropped (fault non-vacuity).
    pub fn dropped_syncs(&self) -> u64 {
        self.state.lock().dropped_syncs
    }

    /// How many crash-restarts actually reverted state (non-vacuity).
    pub fn crashes_reverted(&self) -> u64 {
        self.state.lock().crashes_reverted
    }

    /// How many reads served corrupted payloads (non-vacuity for the
    /// DST corruption axis).
    pub fn corrupted_reads(&self) -> u64 {
        self.state.lock().corrupted_reads
    }

    /// Clones a block with its payload replaced and every piece of
    /// metadata kept (version stamps and self-checksum) — the shape both
    /// corruption faults share. Keeping the metadata is the point: the
    /// served reply *claims* to be the requested block at its recorded
    /// version, only the bytes lie.
    fn with_bytes(block: &StoredBlock, bytes: Bytes) -> StoredBlock {
        match block {
            StoredBlock::Data { version, check, .. } => StoredBlock::Data {
                version: *version,
                bytes,
                check: *check,
            },
            StoredBlock::Parity {
                versions,
                check,
                checks,
                ..
            } => StoredBlock::Parity {
                versions: versions.clone(),
                bytes,
                check: *check,
                checks: checks.clone(),
            },
        }
    }
}

impl StorageBackend for FaultingBackend {
    fn get(&self, id: BlockId) -> Result<Option<StoredBlock>, StorageError> {
        {
            let mut state = self.state.lock();
            if Self::chance(&mut state, self.faults.slow_read_p) {
                let max = self.faults.slow_read_max_ticks.max(1);
                let ticks = 1 + Self::next_rand(&mut state) % max;
                drop(state);
                self.stall_ticks.fetch_add(ticks, Ordering::Relaxed);
            }
        }
        let Some(block) = self.inner.get(id)? else {
            return Ok(None);
        };
        if block.payload_len() > 0 {
            let mut state = self.state.lock();
            if Self::chance(&mut state, self.faults.corrupt_read_p) {
                // Media rot: serve a copy with one bit flipped. The
                // stored block is untouched — the next read may be clean.
                let bit = Self::next_rand(&mut state) % (block.payload_len() as u64 * 8);
                state.corrupted_reads += 1;
                drop(state);
                let mut bytes = match &block {
                    StoredBlock::Data { bytes, .. } | StoredBlock::Parity { bytes, .. } => {
                        bytes.to_vec()
                    }
                };
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
                return Ok(Some(Self::with_bytes(&block, Bytes::from(bytes))));
            }
            if Self::chance(&mut state, self.faults.misdirect_read_p) {
                let pick = Self::next_rand(&mut state);
                drop(state);
                // Misdirected read: the disk returns some *other* stored
                // block's payload. Deterministic despite unspecified scan
                // order: candidates are sorted by id before picking.
                let mut others: Vec<(BlockId, Bytes)> = Vec::new();
                self.inner.scan(&mut |oid, ob| {
                    if oid != id {
                        match ob {
                            StoredBlock::Data { bytes, .. } | StoredBlock::Parity { bytes, .. } => {
                                others.push((oid, bytes.clone()));
                            }
                        }
                    }
                })?;
                if !others.is_empty() {
                    others.sort_by_key(|(oid, _)| *oid);
                    let (_, bytes) = &others[(pick % others.len() as u64) as usize];
                    self.state.lock().corrupted_reads += 1;
                    return Ok(Some(Self::with_bytes(&block, bytes.clone())));
                }
            }
        }
        Ok(Some(block))
    }

    fn put(&self, id: BlockId, block: StoredBlock) -> Result<(), StorageError> {
        self.inner.put(id, block)?;
        self.after_mutation()
    }

    fn delete(&self, id: BlockId) -> Result<(), StorageError> {
        self.inner.delete(id)?;
        self.after_mutation()
    }

    fn scan(&self, visit: &mut dyn FnMut(BlockId, &StoredBlock)) -> Result<(), StorageError> {
        self.inner.scan(visit)
    }

    fn flush(&self) -> Result<(), StorageError> {
        self.barrier(true)?;
        self.inner.flush()
    }

    fn clear(&self) -> Result<(), StorageError> {
        self.inner.clear()?;
        let mut state = self.state.lock();
        state.durable.clear();
        state.mutations_since_sync = 0;
        Ok(())
    }

    fn crash_restart(&self) {
        // Revert the inner backend to the last barrier snapshot: the
        // unflushed suffix (including any torn final record) is gone.
        let snap = self.state.lock().durable.clone();
        if self.inner.clear().is_err() {
            return;
        }
        let mut restore_failed = false;
        for (id, block) in &snap {
            if self.inner.put(*id, block.clone()).is_err() {
                restore_failed = true;
            }
        }
        let mut state = self.state.lock();
        state.mutations_since_sync = 0;
        if !restore_failed {
            state.crashes_reverted += 1;
        }
    }

    fn take_stall_ticks(&self) -> u64 {
        self.stall_ticks.swap(0, Ordering::Relaxed)
    }

    fn label(&self) -> &'static str {
        "faulting"
    }
}

// ---------------------------------------------------------------------
// Environment-driven default selection.
// ---------------------------------------------------------------------

/// Builds the default backend for a node, honouring `TQ_NODE_BACKEND`:
///
/// * unset or `memory` — [`MemoryBackend`];
/// * `applog` — an ephemeral [`AppendLogBackend`] under the system temp
///   dir (deleted when the node drops), with an `Always` fsync policy
///   so the whole integration suite exercises the durable path.
///
/// Any other value panics loudly: silently falling back to memory would
/// make CI's `backend-matrix` job report green without testing anything.
pub fn default_backend(node_index: usize) -> Arc<dyn StorageBackend> {
    match std::env::var("TQ_NODE_BACKEND") {
        Err(_) => Arc::new(MemoryBackend::new()),
        Ok(v) if v == "memory" => Arc::new(MemoryBackend::new()),
        Ok(v) if v == "applog" => {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!(
                "tq-node-{}-{}-{}.log",
                std::process::id(),
                seq,
                node_index
            ));
            let backend = AppendLogBackend::open_ephemeral(path, FsyncPolicy::Always)
                .expect("create ephemeral applog backend in temp dir");
            Arc::new(backend)
        }
        Ok(other) => panic!("TQ_NODE_BACKEND={other:?} is not one of: memory, applog"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(version: u64, payload: &[u8]) -> StoredBlock {
        StoredBlock::new_data(version, Bytes::copy_from_slice(payload))
    }

    fn temp_log(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tq-storage-test-{}-{name}.log", std::process::id()))
    }

    #[test]
    fn memory_backend_roundtrip() {
        let b = MemoryBackend::new();
        assert_eq!(b.get(1), Ok(None));
        b.put(1, data(0, b"abc")).unwrap();
        assert_eq!(b.get(1), Ok(Some(data(0, b"abc"))));
        b.put(1, data(1, b"xyz")).unwrap();
        assert_eq!(b.get(1), Ok(Some(data(1, b"xyz"))));
        let mut seen = 0;
        b.scan(&mut |_, _| seen += 1).unwrap();
        assert_eq!(seen, 1);
        b.delete(1).unwrap();
        assert_eq!(b.get(1), Ok(None));
    }

    fn payload_ptr(block: &StoredBlock) -> *const u8 {
        match block {
            StoredBlock::Data { bytes, .. } | StoredBlock::Parity { bytes, .. } => bytes.as_ptr(),
        }
    }

    /// The two stores whose `put` installs into a resident map.
    fn installing_backends(name: &str) -> [Box<dyn StorageBackend>; 2] {
        let path = temp_log(name);
        let _ = std::fs::remove_file(&path);
        let log = AppendLogBackend::open_ephemeral(path, FsyncPolicy::Manual).unwrap();
        [Box::new(MemoryBackend::new()), Box::new(log)]
    }

    #[test]
    fn put_overwrites_a_uniquely_held_block_in_place() {
        for b in installing_backends("in-place") {
            b.put(1, data(0, b"first-payload")).unwrap();
            b.put(
                2,
                StoredBlock::new_parity(vec![0, 0], Bytes::copy_from_slice(b"par0"), vec![1, 2]),
            )
            .unwrap();
            let resident_data = payload_ptr(&b.get(1).unwrap().unwrap());
            let resident_parity = payload_ptr(&b.get(2).unwrap().unwrap());

            b.put(1, data(1, b"other-payload")).unwrap();
            let parity =
                StoredBlock::new_parity(vec![3, 0], Bytes::copy_from_slice(b"par1"), vec![]);
            b.put(2, parity.clone()).unwrap();

            let got = b.get(1).unwrap().unwrap();
            assert_eq!(got, data(1, b"other-payload"), "{}", b.label());
            assert!(got.self_check_ok());
            assert_eq!(
                payload_ptr(&got),
                resident_data,
                "{}: same buffer",
                b.label()
            );
            let got = b.get(2).unwrap().unwrap();
            assert_eq!(got, parity, "{}: vectors and stamp follow", b.label());
            assert_eq!(payload_ptr(&got), resident_parity, "{}", b.label());

            // A different length cannot reuse the buffer; a kind change
            // carries its own stamps either way.
            b.put(1, data(2, b"longer-than-before")).unwrap();
            assert_eq!(b.get(1), Ok(Some(data(2, b"longer-than-before"))));
            b.put(2, data(0, b"data")).unwrap();
            assert_eq!(b.get(2), Ok(Some(data(0, b"data"))));
        }
    }

    #[test]
    fn put_leaves_a_readers_clone_untouched() {
        for b in installing_backends("cow") {
            b.put(1, data(0, b"being-sent")).unwrap();
            let reader = b.get(1).unwrap().unwrap();
            b.put(1, data(1, b"new-bytes!")).unwrap();
            assert_eq!(reader, data(0, b"being-sent"), "{}", b.label());
            let got = b.get(1).unwrap().unwrap();
            assert_eq!(got, data(1, b"new-bytes!"));
            assert_ne!(payload_ptr(&got), payload_ptr(&reader), "{}", b.label());
        }
    }

    #[test]
    fn record_len_is_the_encoded_length() {
        let payload = Bytes::copy_from_slice(b"thirteen-byte");
        let blocks = [
            data(7, b""),
            data(7, &payload),
            // What a legacy V1 parity record replays as: no vector.
            StoredBlock::new_parity(vec![4, 9], payload.clone(), vec![]),
            StoredBlock::new_parity(vec![4, 9, 2], payload, vec![1, 2, 3]),
        ];
        for block in &blocks {
            assert_eq!(
                record_len(block),
                encode_record(5, Some(block)).len() as u64,
                "{block:?}"
            );
        }
    }

    #[test]
    fn applog_live_bytes_follow_overwrites_and_deletes() {
        let path = temp_log("live-bytes");
        let _ = std::fs::remove_file(&path);
        let b = AppendLogBackend::open(&path, FsyncPolicy::Manual).unwrap();
        let live = |b: &AppendLogBackend| b.inner.lock().live_bytes;
        let parity = StoredBlock::new_parity(vec![1, 2], Bytes::copy_from_slice(b"pp"), vec![3, 4]);
        b.put(1, data(0, b"abcd")).unwrap();
        b.put(2, parity.clone()).unwrap();
        b.put(1, data(1, b"a-longer-payload")).unwrap();
        let rewritten = record_len(&data(1, b"a-longer-payload"));
        assert_eq!(live(&b), rewritten + record_len(&parity));
        // A delete's own record is never live: it only takes away.
        b.delete(2).unwrap();
        assert_eq!(live(&b), rewritten);
        // Replay arrives at the same figure.
        drop(b);
        let b = AppendLogBackend::open(&path, FsyncPolicy::Manual).unwrap();
        assert_eq!(live(&b), rewritten);
        drop(b);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn applog_roundtrip_and_reopen() {
        let path = temp_log("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let b = AppendLogBackend::open(&path, FsyncPolicy::Always).unwrap();
            b.put(1, data(0, b"one")).unwrap();
            b.put(
                2,
                StoredBlock::new_parity(
                    vec![1, 2, 3],
                    Bytes::copy_from_slice(b"par"),
                    vec![0xAB, 0xCD, 0xEF],
                ),
            )
            .unwrap();
            b.put(1, data(5, b"ONE")).unwrap();
            b.delete(2).unwrap();
            b.delete(99).unwrap(); // idempotent, writes no tombstone
        }
        let b = AppendLogBackend::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(b.get(1), Ok(Some(data(5, b"ONE"))));
        assert_eq!(b.get(2), Ok(None));
        let mut count = 0;
        b.scan(&mut |_, _| count += 1).unwrap();
        assert_eq!(count, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn applog_truncates_torn_tail() {
        let path = temp_log("torn");
        let _ = std::fs::remove_file(&path);
        {
            let b = AppendLogBackend::open(&path, FsyncPolicy::Always).unwrap();
            b.put(1, data(0, b"keep")).unwrap();
            b.put(2, data(0, b"also")).unwrap();
        }
        // Tear the final record: chop a few bytes off the file.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let b = AppendLogBackend::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(b.get(1), Ok(Some(data(0, b"keep"))), "prefix survives");
        assert_eq!(b.get(2), Ok(None), "torn record is truncated");
        // The file itself was truncated to the valid prefix, so appends
        // resume from a clean boundary.
        b.put(3, data(0, b"next")).unwrap();
        drop(b);
        let b = AppendLogBackend::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(b.get(3), Ok(Some(data(0, b"next"))));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn applog_rejects_corrupt_record_and_everything_after() {
        let path = temp_log("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let b = AppendLogBackend::open(&path, FsyncPolicy::Always).unwrap();
            b.put(1, data(0, b"first")).unwrap();
            b.put(2, data(0, b"second")).unwrap();
            b.put(3, data(0, b"third")).unwrap();
        }
        // Flip one payload byte inside the *second* record.
        let mut raw = std::fs::read(&path).unwrap();
        let first_len = {
            let body_len = u32::from_le_bytes(raw[0..4].try_into().unwrap()) as usize;
            REC_HEADER + body_len
        };
        raw[first_len + REC_HEADER + 5] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();

        let b = AppendLogBackend::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(b.get(1), Ok(Some(data(0, b"first"))));
        assert_eq!(b.get(2), Ok(None), "corrupt record dropped");
        assert_eq!(b.get(3), Ok(None), "records after corruption untrusted");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn applog_synced_len_tracks_fsync_policy() {
        let path = temp_log("synced-len");
        let _ = std::fs::remove_file(&path);
        let b = AppendLogBackend::open(&path, FsyncPolicy::Manual).unwrap();
        b.put(1, data(0, b"aaaa")).unwrap();
        b.put(2, data(0, b"bbbb")).unwrap();
        assert_eq!(b.synced_len(), 0, "manual policy: nothing synced yet");
        b.flush().unwrap();
        assert_eq!(b.synced_len(), b.log_len());
        b.put(3, data(0, b"cccc")).unwrap();
        assert!(b.synced_len() < b.log_len());
        drop(b);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn applog_flush_syncs_only_what_is_unsynced() {
        // `Always`: the acknowledged put already synced its record, so
        // the flush `durable_acks` adds has nothing to do and changes
        // nothing.
        let path = temp_log("flush-clean");
        let _ = std::fs::remove_file(&path);
        let b = AppendLogBackend::open(&path, FsyncPolicy::Always).unwrap();
        b.put(1, data(0, b"aaaa")).unwrap();
        assert_eq!(b.synced_len(), b.log_len(), "the put paid the fsync");
        b.flush().unwrap();
        assert_eq!(b.synced_len(), b.log_len());
        if cfg!(target_os = "linux") {
            // Prove no fsync is issued: Linux refuses to sync /dev/null
            // (EINVAL), so with the log handle swapped for it a clean
            // flush succeeds only by not syncing — and a dirty one fails.
            let null = OpenOptions::new().write(true).open("/dev/null").unwrap();
            b.inner.lock().file = null;
            b.flush().expect("clean log: no fsync issued");
            b.inner.lock().log_bytes += 1;
            assert!(b.flush().is_err(), "dirty log: the fsync is issued");
        }
        drop(b);
        let _ = std::fs::remove_file(&path);

        // Lazy policies: a dirty log is still synced by the barrier, to
        // the last appended byte, every time it is dirty.
        for policy in [FsyncPolicy::Manual, FsyncPolicy::EveryN(8)] {
            let path = temp_log("flush-dirty");
            let _ = std::fs::remove_file(&path);
            let b = AppendLogBackend::open(&path, policy).unwrap();
            for round in 0..3u64 {
                b.put(round, data(round, b"bbbb")).unwrap();
                assert!(b.synced_len() < b.log_len(), "{policy:?}: dirty");
                b.flush().unwrap();
                assert_eq!(b.synced_len(), b.log_len(), "{policy:?}: barrier");
                assert_eq!(b.inner.lock().dirty, 0, "{policy:?}");
            }
            // What the barrier covered survives the worst legal crash.
            let synced = b.synced_len();
            drop(b);
            let file = OpenOptions::new().write(true).open(&path).unwrap();
            file.set_len(synced).unwrap();
            let b = AppendLogBackend::open(&path, policy).unwrap();
            assert_eq!(b.get(2), Ok(Some(data(2, b"bbbb"))));
            drop(b);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn applog_compaction_shrinks_and_preserves_state() {
        let path = temp_log("compact");
        let _ = std::fs::remove_file(&path);
        let b = AppendLogBackend::open(&path, FsyncPolicy::Manual).unwrap();
        // Rewrite one hot block until the log is dominated by dead
        // records and crosses the compaction floor.
        let payload = vec![7u8; 2048];
        for v in 0..200u64 {
            b.put(1, StoredBlock::new_data(v, Bytes::from(payload.clone())))
                .unwrap();
        }
        b.put(2, data(9, b"other")).unwrap();
        assert!(
            b.log_len() < 200 * 2048,
            "log should have compacted, len={}",
            b.log_len()
        );
        // State is intact, on disk too.
        drop(b);
        let b = AppendLogBackend::open(&path, FsyncPolicy::Manual).unwrap();
        match b.get(1).unwrap() {
            Some(StoredBlock::Data { version, bytes, .. }) => {
                assert_eq!(version, 199);
                assert_eq!(bytes.len(), 2048);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(b.get(2), Ok(Some(data(9, b"other"))));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn faulting_backend_reverts_to_last_barrier_on_crash() {
        let inner = Arc::new(MemoryBackend::new());
        let faults = StorageFaults {
            sync_every: u64::MAX, // only explicit flushes create barriers
            fsync_fail_p: 0,
            slow_read_p: 0,
            slow_read_max_ticks: 1,
            corrupt_read_p: 0,
            misdirect_read_p: 0,
        };
        let b = FaultingBackend::new(inner, faults, 42);
        b.put(1, data(0, b"durable")).unwrap();
        b.flush().unwrap();
        b.put(1, data(1, b"lost-on-crash")).unwrap();
        b.put(2, data(0, b"also-lost")).unwrap();
        assert_eq!(b.get(1), Ok(Some(data(1, b"lost-on-crash"))));
        b.crash_restart();
        assert_eq!(b.get(1), Ok(Some(data(0, b"durable"))));
        assert_eq!(b.get(2), Ok(None));
        assert_eq!(b.crashes_reverted(), 1);
    }

    #[test]
    fn faulting_backend_crash_reverts_an_equal_length_overwrite() {
        // The barrier snapshot shares the resident buffer, so the put
        // after it must replace that buffer, not write through it.
        let faults = StorageFaults {
            sync_every: u64::MAX,
            fsync_fail_p: 0,
            slow_read_p: 0,
            slow_read_max_ticks: 1,
            corrupt_read_p: 0,
            misdirect_read_p: 0,
        };
        let b = FaultingBackend::new(Arc::new(MemoryBackend::new()), faults, 42);
        b.put(1, data(0, b"before-crash")).unwrap();
        b.flush().unwrap();
        b.put(1, data(1, b"lost-on-boot")).unwrap();
        assert_eq!(b.get(1), Ok(Some(data(1, b"lost-on-boot"))));
        b.crash_restart();
        assert_eq!(b.get(1), Ok(Some(data(0, b"before-crash"))));
        // And again from the restored state, whose blocks the snapshot
        // still shares.
        b.put(1, data(2, b"lost-again!!")).unwrap();
        b.crash_restart();
        assert_eq!(b.get(1), Ok(Some(data(0, b"before-crash"))));
        assert_eq!(b.crashes_reverted(), 2);
    }

    #[test]
    fn faulting_backend_dropped_fsync_widens_the_loss() {
        let inner = Arc::new(MemoryBackend::new());
        let faults = StorageFaults {
            sync_every: 1,
            fsync_fail_p: 255, // every automatic barrier silently fails
            slow_read_p: 0,
            slow_read_max_ticks: 1,
            corrupt_read_p: 0,
            misdirect_read_p: 0,
        };
        let b = FaultingBackend::new(inner, faults, 7);
        b.put(1, data(0, b"x")).unwrap();
        b.put(2, data(0, b"y")).unwrap();
        assert!(b.dropped_syncs() >= 2);
        b.crash_restart();
        assert_eq!(b.get(1), Ok(None), "no barrier ever landed");
        // An explicit flush is forced — it always lands.
        b.put(3, data(0, b"z")).unwrap();
        b.flush().unwrap();
        b.crash_restart();
        assert_eq!(b.get(3), Ok(Some(data(0, b"z"))));
    }

    #[test]
    fn faulting_backend_slow_reads_charge_ticks_deterministically() {
        let mk = || {
            let faults = StorageFaults {
                sync_every: 1,
                fsync_fail_p: 0,
                slow_read_p: 255,
                slow_read_max_ticks: 3,
                corrupt_read_p: 0,
                misdirect_read_p: 0,
            };
            FaultingBackend::new(Arc::new(MemoryBackend::new()), faults, 99)
        };
        let a = mk();
        let b = mk();
        a.put(1, data(0, b"p")).unwrap();
        b.put(1, data(0, b"p")).unwrap();
        let mut ticks_a = Vec::new();
        let mut ticks_b = Vec::new();
        for _ in 0..16 {
            a.get(1).unwrap();
            ticks_a.push(a.take_stall_ticks());
            b.get(1).unwrap();
            ticks_b.push(b.take_stall_ticks());
        }
        assert_eq!(ticks_a, ticks_b, "same seed, same stall stream");
        assert!(ticks_a.iter().all(|&t| (1..=3).contains(&t)));
        assert_eq!(a.take_stall_ticks(), 0, "drained");
    }

    #[test]
    fn legacy_v1_parity_records_replay_with_empty_checks() {
        let path = temp_log("v1-parity");
        let _ = std::fs::remove_file(&path);
        // Hand-craft a V1 parity record (the pre-checksum layout):
        // kind · id · count · versions · len · payload.
        let mut body = vec![REC_PUT_PARITY];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&2u32.to_le_bytes());
        body.extend_from_slice(&4u64.to_le_bytes());
        body.extend_from_slice(&9u64.to_le_bytes());
        body.extend_from_slice(&(3u32).to_le_bytes());
        body.extend_from_slice(b"old");
        let mut rec = Vec::new();
        rec.extend_from_slice(&(body.len() as u32).to_le_bytes());
        rec.extend_from_slice(&crc32(&body).to_le_bytes());
        rec.extend_from_slice(&body);
        std::fs::write(&path, &rec).unwrap();

        let b = AppendLogBackend::open(&path, FsyncPolicy::Always).unwrap();
        match b.get(7).unwrap() {
            Some(StoredBlock::Parity {
                versions,
                bytes,
                check,
                checks,
            }) => {
                assert_eq!(versions, vec![4, 9]);
                assert_eq!(&bytes[..], b"old");
                assert_eq!(check, tq_gf256::check::block_check(b"old"));
                assert!(checks.is_empty(), "V1 record: vector unknown");
            }
            other => panic!("{other:?}"),
        }
        // Rewriting it persists the vector in the V2 layout.
        b.put(
            7,
            StoredBlock::new_parity(vec![5, 9], Bytes::copy_from_slice(b"new"), vec![1, 2]),
        )
        .unwrap();
        drop(b);
        let b = AppendLogBackend::open(&path, FsyncPolicy::Always).unwrap();
        match b.get(7).unwrap() {
            Some(StoredBlock::Parity { checks, .. }) => assert_eq!(checks, vec![1, 2]),
            other => panic!("{other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn faulting_backend_bit_flips_are_detectable_and_transient() {
        let faults = StorageFaults {
            sync_every: 1,
            fsync_fail_p: 0,
            slow_read_p: 0,
            slow_read_max_ticks: 1,
            corrupt_read_p: 255, // every read lies
            misdirect_read_p: 0,
        };
        let b = FaultingBackend::new(Arc::new(MemoryBackend::new()), faults, 3);
        let clean = data(1, b"payload-bytes");
        b.put(1, clean.clone()).unwrap();
        let served = b.get(1).unwrap().unwrap();
        assert_ne!(served, clean, "served copy is corrupted");
        assert!(
            !served.self_check_ok(),
            "metadata kept: the self-checksum convicts the bytes"
        );
        assert!(b.corrupted_reads() >= 1);
        // Transient: the stored block itself never rotted.
        let mut ok = FaultingBackend::new(Arc::new(MemoryBackend::new()), faults, 3);
        ok.faults.corrupt_read_p = 0;
        ok.put(1, clean.clone()).unwrap();
        assert_eq!(ok.get(1).unwrap().unwrap(), clean);
    }

    #[test]
    fn faulting_backend_misdirected_reads_keep_requested_metadata() {
        let faults = StorageFaults {
            sync_every: 1,
            fsync_fail_p: 0,
            slow_read_p: 0,
            slow_read_max_ticks: 1,
            corrupt_read_p: 0,
            misdirect_read_p: 255, // every read (with another block) misdirects
        };
        let b = FaultingBackend::new(Arc::new(MemoryBackend::new()), faults, 11);
        b.put(1, data(3, b"mine")).unwrap();
        b.put(2, data(8, b"theirs")).unwrap();
        match b.get(1).unwrap().unwrap() {
            StoredBlock::Data {
                version,
                bytes,
                check,
            } => {
                assert_eq!(version, 3, "requested block's version stamp");
                assert_eq!(&bytes[..], b"theirs", "another block's payload");
                assert_eq!(
                    check,
                    tq_gf256::check::block_check(b"mine"),
                    "requested block's self-checksum — which convicts the bytes"
                );
            }
            other => panic!("{other:?}"),
        }
        assert!(b.corrupted_reads() >= 1);
    }

    #[test]
    fn default_backend_honours_env() {
        // Can't set the env var here without racing other tests; just
        // check the unset default.
        if std::env::var("TQ_NODE_BACKEND").is_err() {
            assert_eq!(default_backend(0).label(), "memory");
        } else {
            // Under the CI backend matrix, whatever is selected must build.
            let b = default_backend(0);
            assert!(["memory", "applog"].contains(&b.label()));
        }
    }
}

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
//!   delete is one checksummed record, written into zero-filled 1 MiB
//!   extents the file grows by ahead of time, so an acknowledged
//!   append's sync commits data, not a new file size; the in-memory
//!   index keeps each live block's metadata and the place of its payload
//!   in the log, never the payload, and a read fetches the payload with
//!   one positional read (so a node's memory grows with its blocks, not
//!   their bytes, and its self-check verifies bytes that came back from
//!   storage); recovery streams the log up to the first zero header and
//!   truncates a torn tail; an [`FsyncPolicy`] says whether each append
//!   syncs or only an explicit flush does (the node flushes before every
//!   ack either way); reads never wait behind an append or a sync; a
//!   failed write or sync poisons the log (fail-stop); compaction copies
//!   the live records into a fresh log once dead records dominate.
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
use std::os::unix::fs::FileExt;
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
/// Payloads travel as refcounted [`Bytes`]. [`MemoryBackend`] holds them
/// resident and a read hands out a clone of the stored allocation (an
/// `Arc` bump). The first install of a block *moves* the request's
/// payload into that store; a later one of the same length
/// (`StoredBlock::install`) copies the payload once into the buffer
/// already resident, unless a reader still holds a clone of it — then
/// the payload replaces the buffer, and the reader keeps the bytes it
/// was given. The store therefore keeps the allocations it was
/// provisioned with instead of trading each one, on every write, for a
/// buffer from whichever thread served that write. [`AppendLogBackend`]
/// keeps no payload: each read fills a fresh buffer from the log.
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

    /// The payload, for a backend to swap: the log keeps its blocks with
    /// the payload taken out, and puts a read's bytes back in.
    fn payload_mut(&mut self) -> &mut Bytes {
        match self {
            StoredBlock::Data { bytes, .. } | StoredBlock::Parity { bytes, .. } => bytes,
        }
    }

    /// Makes this stored block equal `new`, keeping its payload buffer
    /// when it can. With equal lengths and the only handle on the
    /// resident allocation, the new bytes are copied into it and the
    /// incoming buffer is dropped here, by the thread that brought it;
    /// otherwise the incoming buffer takes its place and whoever else
    /// holds the old one keeps what they have. [`MemoryBackend`]'s `put`
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

/// When the append-only log forces data to stable storage. Under both
/// policies a [`StorageNode`](crate::node::StorageNode) flushes before
/// every ack, so no acknowledged mutation is ever past the barrier; a
/// sync is an `fdatasync` of bytes the file already has room for (the
/// log grows in pre-zeroed extents, see [`AppendLogBackend`]); and a
/// sync that fails poisons the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` inside every append, before the record enters the index
    /// (so a `get` never returns what a crash could still take back);
    /// the node's flush then finds nothing left to sync.
    Always,
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

/// Replay and compaction move the log in reads and writes of about this
/// many bytes (kept under the allocator's default mmap threshold of
/// 128 KiB); a record longer than this moves whole.
const IO_CHUNK: usize = 64 * 1024;

/// The log file grows in zero-filled extents of this many bytes, ahead
/// of its records. An append then overwrites space the file already
/// has, so its `fdatasync` commits no new file size — only the data and
/// the device cache — except on the one append per extent that grows it.
const EXTENT: u64 = 1 << 20;

/// What extents are written from: a static, so growing the log
/// allocates nothing.
static ZEROS: [u8; 64 * 1024] = [0; 64 * 1024];

/// Writes zeros over `[from, to)` of `file`.
fn write_zeros(file: &File, mut from: u64, to: u64) -> std::io::Result<()> {
    while from < to {
        let n = (to - from).min(ZEROS.len() as u64);
        file.write_all_at(&ZEROS[..n as usize], from)?;
        from += n;
    }
    Ok(())
}

/// Whether every byte of `bytes` is zero (compared a chunk at a time).
fn is_zero(bytes: &[u8]) -> bool {
    bytes
        .chunks(ZEROS.len())
        .all(|chunk| chunk == &ZEROS[..chunk.len()])
}

/// The record for `id` — a put of `block`, or a delete — in a buffer of
/// exactly its size. Each byte is written once: the header is reserved,
/// the body written after it, and the CRC taken over the body where it
/// lies.
fn encode_record(id: BlockId, block: Option<&StoredBlock>) -> Vec<u8> {
    // A delete is the header, its kind byte and the block id.
    let len = block.map_or(REC_HEADER + 1 + 8, |b| record_len(b) as usize);
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&[0; REC_HEADER]);
    match block {
        None => {
            out.push(REC_DELETE);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Some(StoredBlock::Data { version, bytes, .. }) => {
            out.push(REC_PUT_DATA);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&version.to_le_bytes());
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        Some(StoredBlock::Parity {
            versions,
            bytes,
            checks,
            ..
        }) => {
            out.push(REC_PUT_PARITY_V2);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(versions.len() as u32).to_le_bytes());
            for v in versions {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.extend_from_slice(&(checks.len() as u32).to_le_bytes());
            for c in checks {
                out.extend_from_slice(&c.to_le_bytes());
            }
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
    }
    let body_len = (out.len() - REC_HEADER) as u32;
    let crc = crc32(&out[REC_HEADER..]);
    out[..4].copy_from_slice(&body_len.to_le_bytes());
    out[4..REC_HEADER].copy_from_slice(&crc.to_le_bytes());
    out
}

/// `encode_record(id, Some(block)).len()` without encoding anything:
/// what a put's record is sized to.
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

/// Whether the record `rec` (header and body) still matches its CRC.
fn record_intact(rec: &[u8]) -> bool {
    rec.len() >= REC_HEADER
        && crc32(&rec[REC_HEADER..])
            == u32::from_le_bytes(rec[4..REC_HEADER].try_into().expect("4 bytes"))
}

/// Parses one record body into its block id and, for a put, the block
/// with its payload left out (its self-checksum stamped from the
/// payload) and the payload's length: the payload is the body's last
/// bytes. Returns `None` on any structural problem — recovery treats
/// that exactly like a checksum failure (truncate here).
fn parse_record(body: &[u8]) -> Option<(BlockId, Option<(StoredBlock, usize)>)> {
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
                let block = StoredBlock::Data {
                    version,
                    bytes: Bytes::new(),
                    check: tq_gf256::check::block_check(payload),
                };
                (id, Some((block, len)))
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
                let block = StoredBlock::Parity {
                    versions,
                    bytes: Bytes::new(),
                    check: tq_gf256::check::block_check(payload),
                    checks,
                };
                (id, Some((block, len)))
            })
        }
        _ => None,
    }
}

/// A file read front to back through one buffer, refilled [`IO_CHUNK`]
/// bytes (or one longer record) at a time: how replay reads a log
/// without holding it.
struct Window<'a> {
    file: &'a File,
    /// File length.
    len: u64,
    /// File offset of `buf[0]`.
    at: u64,
    buf: Vec<u8>,
}

impl Window<'_> {
    /// Bytes `[from, from + n)` of the file, which must hold them.
    fn read(&mut self, from: u64, n: usize) -> std::io::Result<&[u8]> {
        if from < self.at || from + n as u64 > self.at + self.buf.len() as u64 {
            let fill = (self.len - from).min(n.max(IO_CHUNK) as u64);
            self.buf.resize(fill as usize, 0);
            self.file.read_exact_at(&mut self.buf, from)?;
            self.at = from;
        }
        let start = (from - self.at) as usize;
        Ok(&self.buf[start..start + n])
    }
}

/// Replays the `len` bytes of the log `file`: returns the fold of its
/// valid prefix, the prefix's length, and whether every byte after the
/// prefix is zero. A zero header, or a torn or corrupt record, ends the
/// prefix. Each payload is read to check its record and stamp its block,
/// and is not kept.
fn replay(file: &Arc<File>, len: u64) -> std::io::Result<(Index, u64, bool)> {
    let mut window = Window {
        file,
        len,
        at: 0,
        buf: Vec::new(),
    };
    let mut index = Index::default();
    let mut valid = 0u64;
    while len - valid >= REC_HEADER as u64 {
        let header = window.read(valid, REC_HEADER)?;
        let body_len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
        if body_len == 0 {
            break; // the zero-filled rest of the last extent
        }
        let total = REC_HEADER as u64 + u64::from(body_len);
        if len - valid < total {
            break; // torn tail: the final append did not land fully
        }
        let rec = window.read(valid, total as usize)?;
        if !record_intact(rec) {
            break; // corrupt record: nothing after it can be trusted
        }
        let Some((id, put)) = parse_record(&rec[REC_HEADER..]) else {
            break;
        };
        let entry = put.map(|(block, payload)| Located {
            block,
            file: Arc::clone(file),
            at: valid,
            len: total,
            payload,
        });
        index.apply(id, entry);
        valid += total;
    }
    let mut zero_tail = true;
    let mut from = valid;
    while zero_tail && from < len {
        let n = (len - from).min(IO_CHUNK as u64) as usize;
        zero_tail = is_zero(window.read(from, n)?);
        from += n as u64;
    }
    Ok((index, valid, zero_tail))
}

/// Copies the records `keep` (id, offset, length; in offset order) from
/// `from` to the start of `to`, in writes of about [`IO_CHUNK`] bytes,
/// leaving out any record whose CRC no longer matches its body. Returns
/// the length written and, per record copied, its id and new offset.
fn copy_records(
    from: &File,
    to: &File,
    keep: &[(BlockId, u64, u64)],
) -> std::io::Result<(u64, Vec<(BlockId, u64)>)> {
    let mut chunk = Vec::with_capacity(IO_CHUNK);
    let mut written = 0u64;
    let mut moved = Vec::with_capacity(keep.len());
    for &(id, at, len) in keep {
        let len = len as usize;
        if !chunk.is_empty() && chunk.len() + len > IO_CHUNK {
            to.write_all_at(&chunk, written)?;
            written += chunk.len() as u64;
            chunk.clear();
        }
        let start = chunk.len();
        chunk.resize(start + len, 0);
        from.read_exact_at(&mut chunk[start..], at)?;
        if record_intact(&chunk[start..]) {
            moved.push((id, written + start as u64));
        } else {
            chunk.truncate(start);
        }
    }
    to.write_all_at(&chunk, written)?;
    Ok((written + chunk.len() as u64, moved))
}

/// The end of the log the appends write to. Its lock is held across
/// every write, sync and compaction.
#[derive(Debug)]
struct Tail {
    file: Arc<File>,
    /// End of the last record: the log's logical length.
    log_bytes: u64,
    /// Log length at the last successful fsync — everything before this
    /// offset survives a crash.
    synced_len: u64,
    /// File length; `[log_bytes, allocated)` holds only zeros.
    allocated: u64,
    /// The first failed write or sync of the live log. The file's state
    /// past `synced_len` is unknown from then on, so every later
    /// mutation and barrier returns this error.
    failed: Option<StorageError>,
    /// Compaction waits until the log is longer than this:
    /// [`COMPACT_MIN_BYTES`], or twice the log's length when a compaction
    /// last failed, so a lasting failure (a full disk) is retried as the
    /// log doubles rather than on every put.
    compact_at: u64,
}

impl Tail {
    /// A healthy tail over `file`, whose records end at `len`, all synced.
    fn new(file: Arc<File>, len: u64, allocated: u64) -> Self {
        Tail {
            file,
            log_bytes: len,
            synced_len: len,
            allocated,
            failed: None,
            compact_at: COMPACT_MIN_BYTES,
        }
    }

    /// `Err` once the log is poisoned.
    fn usable(&self) -> Result<(), StorageError> {
        self.failed.clone().map_or(Ok(()), Err)
    }

    /// Poisons the log with `e`, and returns it.
    fn poison(&mut self, op: &'static str, e: std::io::Error) -> StorageError {
        let err = io_err(op, e);
        self.failed = Some(err.clone());
        err
    }

    /// Writes `rec` at the end of the log. A record that would cross
    /// `allocated` first grows the file by zeros up to the next extent
    /// boundary; the sync that covers the record covers them too.
    fn write(&mut self, rec: &[u8]) -> Result<(), StorageError> {
        let end = self.log_bytes + rec.len() as u64;
        if end > self.allocated {
            let grown = end.next_multiple_of(EXTENT);
            write_zeros(&self.file, end, grown).map_err(|e| self.poison("extend", e))?;
            self.allocated = grown;
        }
        self.file
            .write_all_at(rec, self.log_bytes)
            .map_err(|e| self.poison("append", e))?;
        self.log_bytes = end;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.file.sync_data().map_err(|e| self.poison("fsync", e))?;
        self.synced_len = self.log_bytes;
        Ok(())
    }
}

/// What the index keeps for one live block: everything but the payload,
/// and where the payload lies.
#[derive(Debug, Clone)]
struct Located {
    /// The stored block with an empty payload: its version or version
    /// vector, cross-checksum vector and self-checksum stamp.
    block: StoredBlock,
    /// The log file holding the record: the live log's, until a
    /// compaction moves the record. A `Located` taken before that keeps
    /// the replaced file open, and a record never changes once written,
    /// so it still reads the bytes it was taken for.
    file: Arc<File>,
    /// Offset of the record in `file`.
    at: u64,
    /// Length of the record.
    len: u64,
    /// Length of the payload, which is the record's last bytes.
    payload: usize,
}

impl Located {
    /// The block, its payload read back from the log by one positional
    /// read into a buffer of exactly its size.
    fn read(self) -> Result<StoredBlock, StorageError> {
        let Located {
            mut block,
            file,
            at,
            len,
            payload,
        } = self;
        let mut bytes = vec![0; payload];
        file.read_exact_at(&mut bytes, at + len - payload as u64)
            .map_err(|e| io_err("read", e))?;
        *block.payload_mut() = Bytes::from(bytes);
        Ok(block)
    }
}

/// The fold of the log. Its lock is never held across I/O.
#[derive(Debug, Default)]
struct Index {
    map: DetHashMap<BlockId, Located>,
    /// Length of the live records (what compaction would shrink to).
    live_bytes: u64,
}

impl Index {
    /// Folds one record in: a put's entry, or `None` for a delete.
    fn apply(&mut self, id: BlockId, entry: Option<Located>) {
        let displaced = match entry {
            Some(entry) => {
                self.live_bytes += entry.len;
                self.map.insert(id, entry)
            }
            None => self.map.remove(&id),
        };
        self.live_bytes -= displaced.map_or(0, |old| old.len);
    }
}

/// Crash-safe append-only log storage.
///
/// **Layout.** Back-to-back records from offset 0, each `body_len(u32)
/// · crc32(u32) · body`; the body is a tagged put (data or parity, full
/// payload) or delete. The file grows in zero-filled 1 MiB extents
/// ahead of the records, so an append overwrites space that is already
/// allocated and its sync has no file size to commit; a zero `body_len`
/// ends the log. [`log_len`](Self::log_len) and
/// [`synced_len`](Self::synced_len) are offsets into the records and
/// never count the zero tail. Every mutation appends.
///
/// **Index.** The in-memory index is the fold of the log, and holds no
/// payload: per live block, its version or version vector, cross-checksum
/// vector and self-checksum stamp, and the file, offset and length of its
/// record. Memory grows with the number of blocks, not their size; the
/// payloads stay in the log and the page cache. A `get` reads the payload
/// with one positional read into a buffer of its size, so the node's
/// self-check runs on bytes that came back from storage and catches rot
/// under a live node, not only at the next replay.
///
/// **Recovery.** On open the log is streamed, a bounded window at a time,
/// up to the first zero header, torn record or corrupt record. If every
/// byte after that point is zero it stays as room for appends; otherwise
/// the file is truncated there and synced, so no stale byte is ever read
/// as a record again. Recovered state is exactly the longest valid
/// prefix, which the [`FsyncPolicy`] bounds below by the last barrier. A
/// log written without extents (by an earlier build) replays the same
/// way; an earlier build reads the zero header as a torn tail and
/// truncates it.
///
/// **Locks.** Writes, syncs and compaction hold the tail's lock; the
/// index has its own, taken after the tail's and never held across I/O,
/// so `get` and `scan` never wait behind an append or a sync.
///
/// **Poison.** After a failed write or sync of the live log (including
/// the directory sync that makes a compaction durable), every later
/// `put`, `delete`, `flush` and `clear` returns that error, which the
/// node answers as `Down` — fail-stop. Without this, a later sync that
/// succeeded would vouch for pages the kernel may already have dropped.
///
/// **Compaction.** When dead records dominate (log > 3× live and >
/// 64 KiB), the put or delete that crossed the line copies the live
/// records from the log into a new file, written together with its first
/// zero extent before one sync, which then replaces the log atomically.
/// The index is re-pointed in place: each copied entry gets the new file
/// and offset, and no second table is built. A record whose CRC no
/// longer matches has rotted since it was written: it is left out, and
/// its block dropped, so the node reports the block missing instead of
/// corrupt and scrub re-installs it. Copying it would launder nothing,
/// but it would end the next replay there and cost every record after
/// it. A compaction that fails before its rename (a full disk, say)
/// removes its new file and leaves the log and the triggering mutation's
/// result alone; the next attempt waits until the log has doubled.
pub struct AppendLogBackend {
    path: PathBuf,
    policy: FsyncPolicy,
    tail: Mutex<Tail>,
    index: Mutex<Index>,
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
    /// Opens (or creates) the log at `path`, replaying it into the index
    /// and truncating any torn or corrupt tail.
    pub fn open(path: impl Into<PathBuf>, policy: FsyncPolicy) -> Result<Self, StorageError> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| io_err("create-dir", e))?;
            }
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open", e))?;
        let file = Arc::new(file);
        let len = file.metadata().map_err(|e| io_err("read", e))?.len();
        let (index, valid, zero_tail) = replay(&file, len).map_err(|e| io_err("read", e))?;
        // Past the prefix: either zeros, kept as room for appends, or
        // the remains of a torn or corrupt append, truncated away so the
        // next append starts clean and nothing stale can follow it.
        let mut allocated = len;
        if !zero_tail {
            file.set_len(valid).map_err(|e| io_err("truncate", e))?;
            file.sync_data().map_err(|e| io_err("fsync", e))?;
            allocated = valid;
        }

        Ok(AppendLogBackend {
            path,
            policy,
            tail: Mutex::new(Tail::new(file, valid, allocated)),
            index: Mutex::new(index),
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
        self.tail.lock().synced_len
    }

    /// End of the last record (diagnostics; compaction shrinks it). The
    /// file is longer by its zero tail.
    pub fn log_len(&self) -> u64 {
        self.tail.lock().log_bytes
    }

    /// Appends the record for `id` — a put of `block`, or a delete —
    /// then syncs under `Always`, folds the record into the index, and
    /// compacts once dead records dominate. The result is the record's:
    /// a compaction that fails before its rename leaves the log as it
    /// was, and one that fails after it has poisoned the log for the
    /// next mutation or barrier to report.
    fn append(
        &self,
        tail: &mut Tail,
        id: BlockId,
        block: Option<StoredBlock>,
    ) -> Result<(), StorageError> {
        let at = tail.log_bytes;
        tail.write(&encode_record(id, block.as_ref()))?;
        if self.policy == FsyncPolicy::Always {
            tail.sync()?;
        }
        // The payload now lives in the log; the index keeps the rest.
        let entry = block.map(|mut block| Located {
            payload: std::mem::take(block.payload_mut()).len(),
            block,
            file: Arc::clone(&tail.file),
            at,
            len: tail.log_bytes - at,
        });
        let live = {
            let mut index = self.index.lock();
            index.apply(id, entry);
            let dead_dominate = tail.log_bytes > tail.compact_at
                && tail.log_bytes > COMPACT_RATIO * index.live_bytes.max(1);
            let keep = |(&id, entry): (&BlockId, &Located)| (id, entry.at, entry.len);
            dead_dominate.then(|| index.map.iter().map(keep).collect())
        };
        if let Some(live) = live {
            if self.rewrite(tail, live).is_err() {
                tail.compact_at = 2 * tail.log_bytes;
            }
        }
        Ok(())
    }

    /// Replaces the log with a new file holding the records `keep` (id,
    /// offset and length in the log) and no others: compaction keeps
    /// every live record, `clear` none. The records are copied in offset
    /// order, leaving out any that rotted (see the type's doc); the new
    /// file gets them and then zeros up to the next extent boundary, one
    /// sync covers both, then rename → fsync dir. Up to the rename the
    /// log is untouched, and a failure removes the new file. From the
    /// rename on, the new file *is* the log: each copied entry of the
    /// index is re-pointed at it in place, the others dropped, and the
    /// tail switched to it, all before the directory sync; a failed
    /// directory sync poisons.
    fn rewrite(
        &self,
        tail: &mut Tail,
        mut keep: Vec<(BlockId, u64, u64)>,
    ) -> Result<(), StorageError> {
        keep.sort_unstable_by_key(|&(_, at, _)| at);
        let tmp_path = self.path.with_extension("compact");
        let tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)
            .map_err(|e| io_err("compact-create", e))?;
        let (len, allocated, moved) = (|| {
            let (len, moved) =
                copy_records(&tail.file, &tmp, &keep).map_err(|e| io_err("compact-write", e))?;
            let allocated = len.next_multiple_of(EXTENT);
            write_zeros(&tmp, len, allocated).map_err(|e| io_err("compact-write", e))?;
            tmp.sync_data().map_err(|e| io_err("compact-fsync", e))?;
            std::fs::rename(&tmp_path, &self.path).map_err(|e| io_err("compact-rename", e))?;
            Ok((len, allocated, moved))
        })()
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp_path);
        })?;
        let file = Arc::new(tmp);
        {
            let mut index = self.index.lock();
            for (id, at) in moved {
                if let Some(entry) = index.map.get_mut(&id) {
                    entry.file = Arc::clone(&file);
                    entry.at = at;
                }
            }
            // What still points at the old file was not copied: a rotten
            // record, or every record under `clear`.
            index.map.retain(|_, entry| Arc::ptr_eq(&entry.file, &file));
            index.live_bytes = len;
        }
        *tail = Tail::new(file, len, allocated);
        // Make the rename itself durable. Swallowing this error would
        // let an acknowledged-durable log vanish with the directory
        // entry on power loss.
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                File::open(parent)
                    .and_then(|dir| dir.sync_all())
                    .map_err(|e| tail.poison("compact-dir-fsync", e))?;
            }
        }
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
        let entry = self.index.lock().map.get(&id).cloned();
        entry.map(Located::read).transpose()
    }

    fn put(&self, id: BlockId, block: StoredBlock) -> Result<(), StorageError> {
        let mut tail = self.tail.lock();
        tail.usable()?;
        self.append(&mut tail, id, Some(block))
    }

    fn delete(&self, id: BlockId) -> Result<(), StorageError> {
        let mut tail = self.tail.lock();
        tail.usable()?;
        if !self.index.lock().map.contains_key(&id) {
            return Ok(()); // idempotent: no tombstone for a never-stored id
        }
        self.append(&mut tail, id, None)
    }

    fn scan(&self, visit: &mut dyn FnMut(BlockId, &StoredBlock)) -> Result<(), StorageError> {
        // The entries first, then their payloads, one at a time and
        // without the index lock.
        let entries: Vec<(BlockId, Located)> = self
            .index
            .lock()
            .map
            .iter()
            .map(|(&id, entry)| (id, entry.clone()))
            .collect();
        for (id, entry) in entries {
            visit(id, &entry.read()?);
        }
        Ok(())
    }

    fn flush(&self) -> Result<(), StorageError> {
        let mut tail = self.tail.lock();
        tail.usable()?;
        // Nothing appended since the last successful fsync (the
        // acknowledged `put` of an `Always` log just paid it): the
        // barrier already holds, and a second fsync would only add its
        // latency to the ack.
        if tail.synced_len == tail.log_bytes {
            return Ok(());
        }
        tail.sync()
    }

    fn clear(&self) -> Result<(), StorageError> {
        let mut tail = self.tail.lock();
        tail.usable()?;
        // An empty log replaces this one; whoever holds an entry of it
        // still reads the old file, whose records never change.
        self.rewrite(&mut tail, Vec::new())
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
        let mut block = block.clone();
        *block.payload_mut() = bytes;
        block
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
    use crate::node::{NodeId, StorageNode};
    use crate::rpc::{NodeError, Request, Response};
    use std::collections::BTreeMap;

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

    /// The two stores a reader's block must survive a `put` on.
    fn both_backends(name: &str) -> [Box<dyn StorageBackend>; 2] {
        let path = temp_log(name);
        let _ = std::fs::remove_file(&path);
        let log = AppendLogBackend::open_ephemeral(path, FsyncPolicy::Manual).unwrap();
        [Box::new(MemoryBackend::new()), Box::new(log)]
    }

    #[test]
    fn put_overwrites_a_uniquely_held_block_in_place() {
        // Only the memory backend keeps a resident buffer to reuse.
        let b = MemoryBackend::new();
        b.put(1, data(0, b"first-payload")).unwrap();
        b.put(
            2,
            StoredBlock::new_parity(vec![0, 0], Bytes::copy_from_slice(b"par0"), vec![1, 2]),
        )
        .unwrap();
        let resident_data = payload_ptr(&b.get(1).unwrap().unwrap());
        let resident_parity = payload_ptr(&b.get(2).unwrap().unwrap());

        b.put(1, data(1, b"other-payload")).unwrap();
        let parity = StoredBlock::new_parity(vec![3, 0], Bytes::copy_from_slice(b"par1"), vec![]);
        b.put(2, parity.clone()).unwrap();

        let got = b.get(1).unwrap().unwrap();
        assert_eq!(got, data(1, b"other-payload"));
        assert!(got.self_check_ok());
        assert_eq!(payload_ptr(&got), resident_data, "same buffer");
        let got = b.get(2).unwrap().unwrap();
        assert_eq!(got, parity, "vectors and stamp follow");
        assert_eq!(payload_ptr(&got), resident_parity);

        // A different length cannot reuse the buffer; a kind change
        // carries its own stamps either way.
        b.put(1, data(2, b"longer-than-before")).unwrap();
        assert_eq!(b.get(1), Ok(Some(data(2, b"longer-than-before"))));
        b.put(2, data(0, b"data")).unwrap();
        assert_eq!(b.get(2), Ok(Some(data(0, b"data"))));
    }

    #[test]
    fn put_leaves_a_readers_clone_untouched() {
        for b in both_backends("cow") {
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
            let rec = encode_record(5, Some(block));
            assert_eq!(record_len(block), rec.len() as u64, "{block:?}");
            assert_eq!(rec.capacity(), rec.len(), "pre-sized: {block:?}");
        }
        let delete = encode_record(5, None);
        assert_eq!(delete.capacity(), delete.len());
        assert_eq!(parse_record(&delete[REC_HEADER..]), Some((5, None)));
    }

    #[test]
    fn applog_live_bytes_follow_overwrites_and_deletes() {
        let path = temp_log("live-bytes");
        let _ = std::fs::remove_file(&path);
        let b = AppendLogBackend::open(&path, FsyncPolicy::Manual).unwrap();
        let live = |b: &AppendLogBackend| b.index.lock().live_bytes;
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
        let len = {
            let b = AppendLogBackend::open(&path, FsyncPolicy::Always).unwrap();
            b.put(1, data(0, b"keep")).unwrap();
            b.put(2, data(0, b"also")).unwrap();
            b.log_len()
        };
        // Tear the final record: chop a few bytes off its end (and the
        // zero tail after it).
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
        // the flush the node issues before its ack has nothing to do and
        // changes nothing.
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
            b.tail.lock().file = Arc::new(null);
            b.flush().expect("clean log: no fsync issued");
            b.tail.lock().log_bytes += 1;
            assert!(b.flush().is_err(), "dirty log: the fsync is issued");
        }
        drop(b);
        let _ = std::fs::remove_file(&path);

        // `Manual`: a dirty log is still synced by the barrier, to the
        // last appended byte, every time it is dirty.
        let path = temp_log("flush-dirty");
        let _ = std::fs::remove_file(&path);
        let b = AppendLogBackend::open(&path, FsyncPolicy::Manual).unwrap();
        for round in 0..3u64 {
            b.put(round, data(round, b"bbbb")).unwrap();
            assert!(b.synced_len() < b.log_len(), "dirty");
            b.flush().unwrap();
            assert_eq!(b.synced_len(), b.log_len(), "barrier");
        }
        // What the barrier covered survives the worst legal crash.
        let synced = b.synced_len();
        drop(b);
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(synced).unwrap();
        let b = AppendLogBackend::open(&path, FsyncPolicy::Manual).unwrap();
        assert_eq!(b.get(2), Ok(Some(data(2, b"bbbb"))));
        drop(b);
        let _ = std::fs::remove_file(&path);
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

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    /// The block map of `b`, in id order.
    fn state(b: &AppendLogBackend) -> BTreeMap<BlockId, StoredBlock> {
        let mut map = BTreeMap::new();
        b.scan(&mut |id, block| {
            map.insert(id, block.clone());
        })
        .unwrap();
        map
    }

    #[test]
    fn applog_opens_appends_and_replays_a_log_without_a_zero_tail() {
        // A log as written before extents: records up to the last byte.
        let path = temp_log("no-tail");
        let mut old = encode_record(1, Some(&data(0, b"old-one")));
        old.extend(encode_record(2, Some(&data(3, b"old-two"))));
        old.extend(encode_record(1, None));
        std::fs::write(&path, &old).unwrap();

        let b = AppendLogBackend::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(b.log_len(), old.len() as u64);
        assert_eq!(file_len(&path), old.len() as u64, "nothing truncated");
        assert_eq!(b.get(1), Ok(None));
        assert_eq!(b.get(2), Ok(Some(data(3, b"old-two"))));
        b.put(3, data(0, b"new")).unwrap();
        assert_eq!(file_len(&path), EXTENT, "the first append grows an extent");
        let end = b.log_len();
        drop(b);

        let raw = std::fs::read(&path).unwrap();
        assert_eq!(&raw[..old.len()], &old[..], "old records untouched");
        assert!(is_zero(&raw[end as usize..]));
        let b = AppendLogBackend::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(b.log_len(), end);
        assert_eq!(b.get(2), Ok(Some(data(3, b"old-two"))));
        assert_eq!(b.get(3), Ok(Some(data(0, b"new"))));
        drop(b);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn applog_appends_inside_an_extent_leave_the_file_length_alone() {
        // The deterministic stand-in for "the fdatasync had no file size
        // to commit": once an extent exists, appends that fit in it do
        // not change the file's length. (`Manual` only to skip the
        // fsyncs; the layout is the policy's either way.)
        let path = temp_log("extent");
        let _ = std::fs::remove_file(&path);
        let b = AppendLogBackend::open(&path, FsyncPolicy::Manual).unwrap();
        let block = || data(1, &[7; 4096]);
        b.put(0, block()).unwrap();
        assert_eq!(file_len(&path), EXTENT);
        let fits = (EXTENT - b.log_len()) / record_len(&block());
        for id in 1..=fits {
            b.put(id, block()).unwrap();
            assert_eq!(file_len(&path), EXTENT, "put {id} fits the extent");
        }
        b.put(fits + 1, block()).unwrap();
        assert_eq!(file_len(&path), 2 * EXTENT, "crossing grows one extent");
        b.flush().unwrap();
        let raw = std::fs::read(&path).unwrap();
        assert!(is_zero(&raw[b.log_len() as usize..]));

        // A compaction writes the new log's first extent before its
        // sync, so the appends after it find room too.
        let mut compactions = 0;
        for id in 0..=fits + 1 {
            let before = b.log_len();
            b.delete(id).unwrap();
            if b.log_len() < before {
                compactions += 1;
                assert!(b.log_len() < EXTENT);
            }
            let extents = if compactions == 0 { 2 } else { 1 };
            assert_eq!(file_len(&path), extents * EXTENT);
        }
        assert!(compactions > 0);
        for id in 0..4 {
            b.put(id, block()).unwrap();
            assert_eq!(file_len(&path), EXTENT);
        }
        drop(b);
        let _ = std::fs::remove_file(&path);
    }

    /// Puts `next()` until a put compacts the log.
    fn put_until_compacted(b: &AppendLogBackend, mut next: impl FnMut() -> (BlockId, StoredBlock)) {
        loop {
            let before = b.log_len();
            let (id, block) = next();
            b.put(id, block).unwrap();
            if b.log_len() < before {
                return;
            }
        }
    }

    #[test]
    fn applog_compaction_under_readers_serves_the_last_acknowledged_bytes() {
        const BLOCKS: u64 = 4;
        let path = temp_log("compact-readers");
        let _ = std::fs::remove_file(&path);
        let b = AppendLogBackend::open_ephemeral(&path, FsyncPolicy::Manual).unwrap();
        let block =
            |id: u64, v: u64| data(v, &[(id as u8) ^ (v as u8).wrapping_mul(29) ^ 0x5A; 8192]);
        for id in 0..BLOCKS {
            b.put(id, block(id, 0)).unwrap();
        }

        // An entry taken before a compaction still reads the file it was
        // taken from, though its record is dead and the file unlinked.
        let taken = b.index.lock().map[&0].clone();
        let mut v = 0;
        put_until_compacted(&b, || {
            v += 1;
            (v % BLOCKS, block(v % BLOCKS, v))
        });
        assert!(!Arc::ptr_eq(&taken.file, &b.tail.lock().file));
        assert_eq!(taken.read(), Ok(block(0, 0)));

        // A reader loops over every block while puts compact the log
        // again and again: each read is the block at a version no older
        // than the last one acknowledged before it, byte for byte.
        let acked: Vec<AtomicU64> = (0..BLOCKS).map(|_| AtomicU64::new(0)).collect();
        for id in 0..BLOCKS {
            v += 1;
            b.put(id, block(id, v)).unwrap();
            acked[id as usize].store(v, Ordering::SeqCst);
        }
        let done = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(2);
        let (compactions, reads) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                start.wait();
                let mut reads = 0u64;
                loop {
                    let finished = done.load(Ordering::SeqCst);
                    for id in 0..BLOCKS {
                        let floor = acked[id as usize].load(Ordering::SeqCst);
                        let got = b.get(id).unwrap().expect("stored");
                        let StoredBlock::Data { version, .. } = got else {
                            panic!("{got:?}");
                        };
                        assert!(version >= floor, "block {id}: v{version} < acked v{floor}");
                        assert_eq!(got, block(id, version), "block {id}");
                        reads += 1;
                    }
                    if finished {
                        return reads;
                    }
                }
            });
            start.wait();
            let mut compactions = 0;
            for _ in 0..40 {
                v += 1;
                let id = v % BLOCKS;
                let before = b.log_len();
                b.put(id, block(id, v)).unwrap();
                acked[id as usize].store(v, Ordering::SeqCst);
                compactions += u32::from(b.log_len() < before);
            }
            done.store(true, Ordering::SeqCst);
            (compactions, reader.join().unwrap())
        });
        assert!(compactions >= 3, "{compactions} compactions");
        assert!(reads > BLOCKS);
    }

    /// Flips the last byte of `id`'s stored payload through a second
    /// handle on the log file, as media rot would, while `b` stays open.
    fn rot(b: &AppendLogBackend, id: BlockId) {
        let at = {
            let index = b.index.lock();
            let entry = &index.map[&id];
            entry.at + entry.len - 1
        };
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(b.log_path())
            .unwrap();
        let mut byte = [0];
        file.read_exact_at(&mut byte, at).unwrap();
        file.write_all_at(&[byte[0] ^ 0x20], at).unwrap();
    }

    #[test]
    fn applog_compaction_drops_a_rotten_record_instead_of_copying_it() {
        let path = temp_log("rot-compact");
        let _ = std::fs::remove_file(&path);
        let payload = |id: u64| Bytes::from(vec![0x30 + id as u8; 4096]);
        let open = || {
            let b = Arc::new(AppendLogBackend::open(&path, FsyncPolicy::Manual).unwrap());
            let node = StorageNode::builder(NodeId(0))
                .backend(Arc::clone(&b) as Arc<dyn StorageBackend>)
                .build();
            (b, node)
        };
        let (b, node) = open();
        for id in 1..=4 {
            let init = Request::InitData {
                id,
                bytes: payload(id),
            };
            assert_eq!(node.handle(init), Ok(Response::Ack));
        }
        rot(&b, 2);
        let read = |node: &StorageNode, id| node.handle(Request::ReadData { id });
        assert_eq!(
            read(&node, 2),
            Err(NodeError::Corrupt),
            "refused while live"
        );

        let mut v = 0;
        put_until_compacted(&b, || {
            v += 1;
            (9, data(v, &[0x39; 4096]))
        });
        // Left out of the new log, the block is gone rather than rotten —
        // for scrub to re-install — and every other block is intact, in
        // the compacted log and after a replay of it.
        let check = |node: &StorageNode, when: &str| {
            assert_eq!(read(node, 2), Err(NodeError::NotFound), "{when}");
            for id in [1, 3, 4] {
                let want = Response::Data {
                    bytes: payload(id),
                    version: 0,
                    check: tq_gf256::check::block_check(&payload(id)),
                };
                assert_eq!(read(node, id), Ok(want), "{when}: block {id}");
            }
        };
        check(&node, "compacted");
        drop(node);
        drop(b);
        let (_b, node) = open();
        check(&node, "reopened");
        drop(node);
        let _ = std::fs::remove_file(&path);
    }

    /// How many entries the index's table holds without growing.
    fn index_capacity(b: &AppendLogBackend) -> usize {
        b.index.lock().map.capacity()
    }

    /// Where the index keeps `id`'s entry: moves only if the table does.
    fn entry_addr(b: &AppendLogBackend, id: BlockId) -> *const Located {
        std::ptr::from_ref(&b.index.lock().map[&id])
    }

    #[test]
    fn applog_compaction_repoints_the_index_in_place() {
        const BLOCKS: u64 = 200;
        let path = temp_log("repoint");
        let _ = std::fs::remove_file(&path);
        let b = AppendLogBackend::open_ephemeral(&path, FsyncPolicy::Manual).unwrap();
        let block = |id: u64| data(id, &[id as u8; 1024]);
        for id in 0..BLOCKS {
            b.put(id, block(id)).unwrap();
        }
        rot(&b, BLOCKS - 1);
        let capacity = index_capacity(&b);
        let addr = entry_addr(&b, BLOCKS - 2);

        // Deletes from the front until one compacts: by then a table
        // built for what is left would be a fraction of this one.
        let mut deleted = 0;
        while deleted < BLOCKS {
            let before = b.log_len();
            b.delete(deleted).unwrap();
            deleted += 1;
            if b.log_len() < before {
                break;
            }
        }
        let live = (deleted..BLOCKS - 1).count();
        assert!(live < capacity / 2, "{live} live of {capacity}");
        assert_eq!(index_capacity(&b), capacity, "the table is the old one");
        assert_eq!(entry_addr(&b, BLOCKS - 2), addr, "entries stay put");

        // Every surviving entry reads from the compacted file; the rotten
        // record's block was not copied and is gone.
        let file = Arc::clone(&b.tail.lock().file);
        let index = b.index.lock();
        assert_eq!(index.map.len(), live);
        assert!(index.map.values().all(|e| Arc::ptr_eq(&e.file, &file)));
        assert_eq!(index.live_bytes, b.log_len());
        drop(index);
        assert_eq!(b.get(BLOCKS - 1), Ok(None), "rotten block dropped");
        let want: BTreeMap<_, _> = (deleted..BLOCKS - 1).map(|id| (id, block(id))).collect();
        assert_eq!(state(&b), want);
    }

    /// Overwrites four blocks in turn, each put checked acknowledged,
    /// and remembers what was acknowledged.
    #[derive(Default)]
    struct Writer {
        v: u64,
        acked: BTreeMap<BlockId, StoredBlock>,
    }

    impl Writer {
        /// One put; whether it compacted the log.
        fn put(&mut self, b: &AppendLogBackend) -> bool {
            self.v += 1;
            let (id, block) = (self.v % 4, data(self.v, &[self.v as u8; 4096]));
            let before = b.log_len();
            assert_eq!(b.put(id, block.clone()), Ok(()), "put v{}", self.v);
            self.acked.insert(id, block);
            b.log_len() < before
        }

        /// Puts until one attempts a compaction that fails: the log is
        /// left exactly as it was, and the next attempt waits for it to
        /// double.
        fn fail_one(&mut self, b: &AppendLogBackend) {
            // Bounded, so a retry on every put cannot fill the disk.
            for _ in 0..64 {
                if b.tail.lock().compact_at > COMPACT_MIN_BYTES {
                    break;
                }
                assert!(!self.put(b), "compacted through the obstacle");
            }
            let compact_at = b.tail.lock().compact_at;
            assert_eq!(compact_at, 2 * b.log_len(), "a failure backs off");
            assert_eq!(state(b), self.acked, "get and scan serve every ack");
        }
    }

    #[test]
    fn applog_a_failed_compaction_leaves_the_log_and_the_put_alone() {
        let path = temp_log("compact-fails");
        let tmp = path.with_extension("compact");
        let kept = path.with_extension("kept");
        for p in [&path, &kept] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir(&tmp);
        let open = || AppendLogBackend::open(&path, FsyncPolicy::Always).unwrap();
        let mut w = Writer::default();

        // Before the temp file exists: a directory squats on its name.
        std::fs::create_dir(&tmp).unwrap();
        let b = open();
        w.fail_one(&b);
        assert!(
            tmp.is_dir(),
            "the obstacle is not the compaction's to remove"
        );
        drop(b);
        let b = open();
        assert_eq!(state(&b), w.acked, "reopened");
        w.fail_one(&b);
        std::fs::remove_dir(&tmp).unwrap();
        // The obstacle is gone; the next attempt, once the log has
        // doubled, compacts.
        let retry_at = b.tail.lock().compact_at;
        let mut last = b.log_len();
        for _ in 0..128 {
            if w.put(&b) {
                break;
            }
            last = b.log_len();
        }
        let rec = record_len(&data(0, &[0; 4096]));
        assert!(last + rec > retry_at, "compacted before the log doubled");
        assert_eq!(b.tail.lock().compact_at, COMPACT_MIN_BYTES, "compacted");
        assert_eq!(state(&b), w.acked, "compacted");

        // After the temp file is written and synced: the rename fails,
        // for a directory stands at the log's path (the log lives on
        // under a second name).
        std::fs::hard_link(&path, &kept).unwrap();
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir(&path).unwrap();
        w.fail_one(&b);
        assert!(!tmp.exists(), "the temp file is removed");
        std::fs::remove_dir(&path).unwrap();
        std::fs::rename(&kept, &path).unwrap();
        drop(b);
        let b = open();
        assert_eq!(state(&b), w.acked, "reopened");
        drop(b);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn applog_get_and_scan_return_while_the_tail_is_held() {
        let path = temp_log("two-locks");
        let _ = std::fs::remove_file(&path);
        let b = Arc::new(AppendLogBackend::open_ephemeral(&path, FsyncPolicy::Always).unwrap());
        b.put(1, data(0, b"resident")).unwrap();
        // What a put holds across its write, its fsync and compaction.
        let tail = b.tail.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                let got = b.get(1).unwrap();
                let mut seen = 0;
                b.scan(&mut |_, _| seen += 1).unwrap();
                tx.send((got, seen)).unwrap();
            })
        };
        let answer = rx.recv_timeout(std::time::Duration::from_secs(10));
        drop(tail);
        reader.join().unwrap();
        assert_eq!(answer, Ok((Some(data(0, b"resident")), 1)));
    }

    #[test]
    fn applog_a_failed_sync_poisons_the_log() {
        if !cfg!(target_os = "linux") {
            return;
        }
        let path = temp_log("poison");
        let _ = std::fs::remove_file(&path);
        let b = Arc::new(AppendLogBackend::open(&path, FsyncPolicy::Always).unwrap());
        b.put(1, data(0, b"durable")).unwrap();
        // Linux refuses to sync /dev/null (EINVAL): with the log handle
        // swapped for it, the next put's write lands nowhere and its
        // sync fails.
        let null = OpenOptions::new().write(true).open("/dev/null").unwrap();
        let real = std::mem::replace(&mut b.tail.lock().file, Arc::new(null));
        let failed = b.put(2, data(0, b"lost"));
        assert!(
            matches!(failed, Err(StorageError::Io { op: "fsync", .. })),
            "{failed:?}"
        );
        assert_eq!(b.get(2), Ok(None), "never synced, never indexed");

        // A working handle again: a later sync would succeed, and would
        // vouch for a record the disk never got. The log stays failed.
        b.tail.lock().file = real;
        for result in [
            b.put(3, data(0, b"after")),
            b.delete(1),
            b.delete(99),
            b.flush(),
            b.clear(),
        ] {
            assert_eq!(result, failed, "every mutation and barrier refuses");
        }
        assert_eq!(b.get(1), Ok(Some(data(0, b"durable"))), "reads still serve");
        let node = StorageNode::builder(NodeId(0))
            .backend(Arc::clone(&b) as Arc<dyn StorageBackend>)
            .build();
        assert_eq!(
            node.handle(Request::WriteData {
                id: 1,
                bytes: Bytes::from_static(b"refused"),
                version: 1,
            }),
            Err(NodeError::Down),
            "the node fail-stops"
        );
        drop(node);
        drop(b);

        let b = AppendLogBackend::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(state(&b).len(), 1);
        assert_eq!(b.get(1), Ok(Some(data(0, b"durable"))));
        drop(b);
        let _ = std::fs::remove_file(&path);
    }

    /// The records of the log image `raw`, identified by matching it
    /// against the encodings of `history` (never by the replay code):
    /// `(end offset, id, put block or delete)`, in file order.
    fn records_of(
        raw: &[u8],
        history: &[(BlockId, Option<StoredBlock>)],
    ) -> Vec<(u64, BlockId, Option<StoredBlock>)> {
        let encoded: Vec<Vec<u8>> = history
            .iter()
            .map(|(id, block)| encode_record(*id, block.as_ref()))
            .collect();
        let mut records = Vec::new();
        let mut at = 0;
        while let Some(i) = encoded.iter().position(|rec| raw[at..].starts_with(rec)) {
            at += encoded[i].len();
            records.push((at as u64, history[i].0, history[i].1.clone()));
        }
        records
    }

    /// Cuts the log image `raw` at `cut` twice — the prefix followed by
    /// zeros up to `raw`'s length, and the prefix followed by non-zero
    /// garbage — and checks each reopened copy: it holds exactly the
    /// fold of the records ending at or before the cut, its `log_len()`
    /// is the last such record's end, and a fresh put survives another
    /// reopen with nothing stale revived.
    fn check_cut(
        copy: &Path,
        raw: &[u8],
        records: &[(u64, BlockId, Option<StoredBlock>)],
        cut: u64,
    ) {
        let mut want = BTreeMap::new();
        let mut want_len = 0;
        for (end, id, block) in records.iter().take_while(|(end, ..)| *end <= cut) {
            match block {
                Some(b) => want.insert(*id, b.clone()),
                None => want.remove(id),
            };
            want_len = *end;
        }
        let cut = cut as usize;
        let mut zeros = raw[..cut].to_vec();
        zeros.resize(raw.len(), 0);
        // 512 bytes that each differ from the byte they replace, then
        // whatever the log held after them — later pages that landed
        // while the one at the cut did not.
        let mut garbage = raw.to_vec();
        garbage.resize(raw.len().max(cut + 512), 0);
        for byte in &mut garbage[cut..cut + 512] {
            *byte = !*byte;
        }
        for (tail, image) in [("zeros", zeros), ("garbage", garbage)] {
            std::fs::write(copy, image).unwrap();
            let b = AppendLogBackend::open(copy, FsyncPolicy::Manual).unwrap();
            assert_eq!(state(&b), want, "cut {cut} + {tail}: state");
            assert_eq!(b.log_len(), want_len, "cut {cut} + {tail}: log_len");
            let fresh = data(5, &[0xEE; 24]);
            b.put(FRESH, fresh.clone()).unwrap();
            drop(b);
            let b = AppendLogBackend::open(copy, FsyncPolicy::Manual).unwrap();
            let mut with_fresh = want.clone();
            with_fresh.insert(FRESH, fresh.clone());
            assert_eq!(state(&b), with_fresh, "cut {cut} + {tail}: after a put");
            let end = want_len + record_len(&fresh);
            assert_eq!(b.log_len(), end);
            let on_disk = std::fs::read(copy).unwrap();
            assert!(
                is_zero(&on_disk[end as usize..]),
                "cut {cut} + {tail}: no stale byte after the records"
            );
        }
    }

    /// Ids whose top byte is non-zero: with payloads that hold no zero
    /// byte either, every record ends in a non-zero byte, so no cut
    /// inside a record can be completed by the zeros after it.
    const ID: BlockId = 0xA5A5_A5A5_A5A5_A500;
    const FRESH: BlockId = ID + 0x40;

    #[test]
    fn applog_every_crash_prefix_recovers_the_fold_of_its_records() {
        let path = temp_log("crash-prefix");
        let copy = temp_log("crash-prefix-copy");
        let _ = std::fs::remove_file(&path);
        let fill = |version: u64, len: usize, byte: u8| {
            StoredBlock::new_data(version, Bytes::from(vec![byte; len]))
        };
        let parity = |v: u64, byte: u8| {
            StoredBlock::new_parity(vec![v, 1], Bytes::from(vec![byte; 40]), vec![0x11, 0x22])
        };
        let mut history: Vec<(BlockId, Option<StoredBlock>)> = Vec::new();
        let b = AppendLogBackend::open(&path, FsyncPolicy::Always).unwrap();
        let mut run = |b: &AppendLogBackend, id: BlockId, block: Option<StoredBlock>| {
            match &block {
                Some(block) => b.put(id, block.clone()).unwrap(),
                None => b.delete(id).unwrap(),
            }
            history.push((id, block));
        };

        // Cross the first extent boundary. A third of the log stays
        // live, so nothing compacts yet.
        run(&b, ID + 1, Some(fill(0, 400 << 10, 0x11)));
        run(&b, ID + 2, Some(fill(0, 400 << 10, 0x22)));
        run(&b, ID + 2, None);
        run(&b, ID + 3, Some(fill(0, 300 << 10, 0x33)));
        run(&b, ID + 3, None);
        run(&b, ID + 4, Some(fill(0, 30, 0x44)));
        run(&b, ID + 5, Some(parity(0, 0x55)));
        run(&b, ID + 4, Some(fill(1, 30, 0x45)));
        assert!(b.log_len() > EXTENT);
        assert_eq!(file_len(&path), 2 * EXTENT);
        let before_compaction = std::fs::read(&path).unwrap();

        // Deleting the one big live block leaves dead records dominant:
        // the log compacts to a snapshot of blocks 4 and 5.
        run(&b, ID + 1, None);
        assert_eq!(
            b.log_len(),
            record_len(&fill(1, 30, 0x45)) + record_len(&parity(0, 0x55))
        );
        assert_eq!(file_len(&path), EXTENT);
        run(&b, ID + 6, Some(fill(0, 20, 0x66)));
        run(&b, ID + 5, Some(parity(1, 0x56)));
        run(&b, ID + 4, None);
        run(&b, ID + 7, Some(fill(2, 16, 0x77)));
        assert_eq!(
            file_len(&path),
            EXTENT,
            "no append after compaction grew it"
        );
        let log_len = b.log_len();
        drop(b);

        // The log that results: every cut through its records, then
        // every page of its zero tail.
        let raw = std::fs::read(&path).unwrap();
        let records = records_of(&raw, &history);
        assert_eq!(records.last().map(|r| r.0), Some(log_len), "{records:?}");
        for cut in (0..=log_len)
            .chain((log_len..=EXTENT).step_by(4096))
            .chain([EXTENT])
        {
            check_cut(&copy, &raw, &records, cut);
        }

        // The log before compaction, cut through the record that crossed
        // the extent boundary, at its end, and past its zero tail (each
        // cut replays a MiB of records, so these are sampled).
        let records = records_of(&before_compaction, &history);
        let crossing = records
            .iter()
            .map(|r| r.0)
            .find(|&end| end > EXTENT)
            .expect("a record crosses the boundary");
        for cut in [EXTENT, crossing - 1, crossing, 2 * EXTENT] {
            check_cut(&copy, &before_compaction, &records, cut);
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&copy);
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

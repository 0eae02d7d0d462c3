//! Crash-restart persistence: kill a node mid-write-burst, reopen the
//! append-only log, and check exactly what survived.
//!
//! The crash model follows the [`AppendLogBackend`] contract: everything
//! before `synced_len()` (the log length at the last successful fsync)
//! survives; everything after it *may* vanish. The worst legal crash is
//! therefore "truncate the file to `synced_len`" — the OS dropped every
//! un-synced page — optionally followed by a torn half-record from the
//! append that was in flight. These tests do both, then reopen and
//! compare against the state implied by the synced prefix:
//!
//! * The log on its own, under `FsyncPolicy::Manual` with a `flush()`
//!   after every 5th put: puts past the last sync barrier are legally
//!   lost — recovery equals the last fsync'd prefix, bit for bit.
//! * Through a node, every acknowledgement implies a completed fsync
//!   (the node flushes before it acks), so **no acknowledged write is
//!   ever lost**, even with `FsyncPolicy::Manual` — the ack discipline
//!   alone pins durability. Post-recovery reads replay through the DST
//!   [`HistoryChecker`] and must be accepted against the full history
//!   of acknowledged commits.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::Arc;

use bytes::Bytes;
use trapezoid_quorum::cluster::{
    AppendLogBackend, Envelope, FsyncPolicy, NodeApi, NodeError, NodeId, Request, Response,
    StorageBackend, StorageNode, StoredBlock,
};
use trapezoid_quorum::sim::dst::HistoryChecker;

/// A unique log path per test (process-scoped; tests clean up after
/// themselves, and reruns overwrite leftovers by truncating on open of
/// a fresh path name).
fn log_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tq-persist-{}-{}.log", tag, std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn ack(node: &StorageNode, req: Request) {
    let reply = node.execute(Envelope::new(req));
    assert_eq!(reply.result, Ok(Response::Ack), "mutation must ack");
}

fn read_block(node: &StorageNode, id: u64) -> Option<(Vec<u8>, u64)> {
    let reply = node.execute(Envelope::new(Request::ReadData { id }));
    match reply.result {
        Ok(Response::Data { bytes, version, .. }) => Some((bytes.to_vec(), version)),
        _ => None,
    }
}

/// The crash itself: chop the log to its last-synced length (the OS
/// lost every un-synced page) and land a torn half-record on the tail
/// (the append in flight when power failed).
fn crash(path: &PathBuf, synced: u64) {
    let f = OpenOptions::new().write(true).open(path).expect("open log");
    f.set_len(synced).expect("truncate to synced prefix");
    drop(f);
    let mut f = OpenOptions::new()
        .append(true)
        .open(path)
        .expect("reopen log");
    // A record header claiming 200 body bytes, followed by only 5:
    // exactly what a mid-append crash leaves behind.
    f.write_all(&200u32.to_le_bytes()).expect("torn len");
    f.write_all(&0xDEAD_BEEFu32.to_le_bytes())
        .expect("torn crc");
    f.write_all(b"torn!").expect("torn body");
}

#[test]
fn recovery_equals_last_fsyncd_prefix() {
    let path = log_path("lazy");
    let backend = AppendLogBackend::open(&path, FsyncPolicy::Manual).expect("open log backend");
    // The log alone: a put does NOT imply durability, so the sync
    // barrier (a flush every 5 puts) is the only thing bounding the loss.
    let mut puts = 0;
    let mut put = |id: u64, bytes: &[u8], version: u64| {
        backend
            .put(
                id,
                StoredBlock::new_data(version, Bytes::copy_from_slice(bytes)),
            )
            .expect("put");
        puts += 1;
        if puts % 5 == 0 {
            backend.flush().expect("flush");
        }
        backend.log_len()
    };

    // A write burst over 4 blocks. After each put, record the log
    // offset the mutation's record ends at — the fold of all records
    // ending at or before the final `synced_len` is exactly what a
    // crash must preserve.
    let mut timeline: Vec<(u64, u64, Vec<u8>, u64)> = Vec::new(); // (end_off, id, bytes, version)
    for id in 0..4u64 {
        let body = vec![id as u8; 16];
        timeline.push((put(id, &body, 0), id, body, 0));
    }
    for version in 1..=5u64 {
        for id in 0..4u64 {
            let body = vec![(id as u8) ^ (version as u8).wrapping_mul(31); 16];
            timeline.push((put(id, &body, version), id, body, version));
        }
    }

    let synced = backend.synced_len();
    let total = backend.log_len();
    assert!(
        synced < total,
        "a flush every 5th put must leave an un-synced tail \
         (synced={synced}, log={total})"
    );

    // Expected survivors: per block, the newest record fully inside
    // the synced prefix.
    let mut expected: Vec<Option<(Vec<u8>, u64)>> = vec![None; 4];
    for (end, id, bytes, version) in &timeline {
        if *end <= synced {
            expected[*id as usize] = Some((bytes.clone(), *version));
        }
    }

    drop(backend);
    crash(&path, synced);

    let reopened = AppendLogBackend::open(&path, FsyncPolicy::Manual).expect("reopen after crash");
    assert_eq!(
        reopened.log_len(),
        synced,
        "torn tail must be truncated back to the valid prefix"
    );
    for id in 0..4u64 {
        let got = match reopened.get(id).expect("backend get") {
            Some(StoredBlock::Data { bytes, version, .. }) => Some((bytes.to_vec(), version)),
            _ => None,
        };
        let want = expected[id as usize].clone();
        assert_eq!(
            got, want,
            "block {id}: recovered state must equal the last fsync'd prefix"
        );
    }

    let _ = std::fs::remove_file(&path);
}

/// Silent media rot, not a crash: flip one bit inside a fully-fsync'd
/// record's payload while the log is closed, then reopen. The per-record
/// crc32 must catch the flip during replay — the rotten record (and, by
/// the append-only contract, everything after it) is truncated away, and
/// **no corrupt payload is ever reconstructed into the index**. Every
/// block the recovered node serves passes its self-check; the damaged
/// block simply reverts to its last intact state.
#[test]
fn on_disk_bit_flip_is_caught_by_record_checksums() {
    let path = log_path("bitflip");
    let backend =
        Arc::new(AppendLogBackend::open(&path, FsyncPolicy::Always).expect("open log backend"));
    let node = StorageNode::builder(NodeId(0))
        .backend(backend.clone())
        .build();

    // Five blocks initialised, then overwritten at version 1; remember
    // where each record ends so the flip can be aimed precisely.
    let mut record_ends: Vec<u64> = Vec::new();
    for id in 0..5u64 {
        ack(
            &node,
            Request::InitData {
                id,
                bytes: Bytes::from(vec![0x10 + id as u8; 16]),
            },
        );
        record_ends.push(backend.log_len());
    }
    for id in 0..5u64 {
        ack(
            &node,
            Request::WriteData {
                id,
                bytes: Bytes::from(vec![0xA0 ^ id as u8; 16]),
                version: 1,
            },
        );
        record_ends.push(backend.log_len());
    }
    assert_eq!(
        backend.synced_len(),
        backend.log_len(),
        "Always leaves nothing un-synced — the flip hits durable bytes"
    );
    drop(node);
    drop(backend);

    // Flip one bit in the payload of record 7 (block 2's version-1
    // write): 8 bytes of record header, then kind·id·version·len = 21
    // bytes of body framing before the payload starts.
    let flip_at = record_ends[6] + 8 + 21 + 3;
    let mut raw = std::fs::read(&path).expect("read log");
    raw[flip_at as usize] ^= 0x08;
    std::fs::write(&path, &raw).expect("write flipped log");

    let reopened = Arc::new(
        AppendLogBackend::open(&path, FsyncPolicy::Always).expect("reopen after bit flip"),
    );
    assert_eq!(
        reopened.log_len(),
        record_ends[6],
        "replay must truncate at the rotten record, not replay past it"
    );
    let recovered = StorageNode::builder(NodeId(0))
        .backend(reopened.clone())
        .build();
    for id in 0..5u64 {
        let (bytes, version) = read_block(&recovered, id).expect("block survives rot");
        let (want_bytes, want_version) = if id < 2 {
            (vec![0xA0 ^ id as u8; 16], 1) // written before the rotten record
        } else {
            (vec![0x10 + id as u8; 16], 0) // reverted to the intact prefix
        };
        assert_eq!(version, want_version, "block {id} version after rot");
        assert_eq!(
            bytes, want_bytes,
            "block {id} must never serve flipped bytes"
        );
        // Belt and suspenders: the index entry itself carries a valid
        // self-check — replay re-stamped it from the verified payload.
        let stored = reopened.get(id).expect("backend get").expect("present");
        assert!(stored.self_check_ok(), "block {id} self-check after replay");
    }

    // The truncated log accepts fresh appends cleanly.
    let reply = recovered.execute(Envelope::new(Request::WriteData {
        id: 2,
        bytes: Bytes::from(vec![0x77; 16]),
        version: 1,
    }));
    assert_eq!(reply.result, Ok(Response::Ack), "post-rot append works");
    assert_eq!(
        read_block(&recovered, 2),
        Some((vec![0x77; 16], 1)),
        "block 2 heals by rewrite"
    );

    let _ = std::fs::remove_file(&path);
}

/// Silent media rot under a *live* node: flip one payload byte through a
/// second handle on the log file while the backend stays open. The node
/// reads each payload back from the log, so its self-check sees the rot
/// at once — no restart, no replay — and neither serves the block nor
/// folds a delta into it.
#[test]
fn rot_under_a_live_node_is_refused() {
    let path = log_path("live-rot");
    let backend =
        Arc::new(AppendLogBackend::open(&path, FsyncPolicy::Always).expect("open log backend"));
    let node = StorageNode::builder(NodeId(0))
        .backend(backend.clone())
        .build();
    // A payload is the last bytes of its record.
    let mut last_payload_byte = Vec::new();
    ack(
        &node,
        Request::InitData {
            id: 1,
            bytes: Bytes::from(vec![0x11; 64]),
        },
    );
    last_payload_byte.push(backend.log_len() - 1);
    ack(
        &node,
        Request::InitParity {
            id: 2,
            bytes: Bytes::from(vec![0x22; 64]),
            k: 2,
            checks: vec![0x1111, 0x2222],
        },
    );
    last_payload_byte.push(backend.log_len() - 1);

    let disk = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .expect("second handle on the log");
    for at in last_payload_byte {
        let mut byte = [0];
        disk.read_exact_at(&mut byte, at)
            .expect("read payload byte");
        disk.write_all_at(&[byte[0] ^ 0x40], at)
            .expect("flip payload byte");
    }

    let result = |req| node.execute(Envelope::new(req)).result;
    assert_eq!(result(Request::ReadData { id: 1 }), Err(NodeError::Corrupt));
    assert_eq!(
        result(Request::ReadParity { id: 2 }),
        Err(NodeError::Corrupt)
    );
    let log_len = backend.log_len();
    let fold = Request::AddParity {
        id: 2,
        block_index: 0,
        delta: Bytes::from(vec![0x05; 64]),
        expected_version: 0,
        new_version: 1,
        coeff: 0x53,
        new_check: Some(0x3333),
    };
    assert_eq!(result(fold), Err(NodeError::Corrupt));
    assert_eq!(
        backend.log_len(),
        log_len,
        "nothing folded, nothing appended"
    );

    drop(node);
    drop(backend);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn acked_writes_are_never_lost_to_a_crash() {
    let path = log_path("durable");
    // FsyncPolicy::Manual: the log itself never syncs on its own — if
    // anything survives, it is the flush-before-ack discipline doing it.
    let backend =
        Arc::new(AppendLogBackend::open(&path, FsyncPolicy::Manual).expect("open log backend"));
    let node = StorageNode::builder(NodeId(0))
        .backend(backend.clone())
        .build(); // every node flushes before it acks

    // Acknowledged history, mirrored into the DST checker exactly as
    // the simulation harness would record completed writes.
    let initial: Vec<Vec<u8>> = (0..3u64).map(|id| vec![id as u8; 8]).collect();
    let mut checker = HistoryChecker::new(&initial);
    for (id, body) in initial.iter().enumerate() {
        ack(
            &node,
            Request::InitData {
                id: id as u64,
                bytes: Bytes::from(body.clone()),
            },
        );
    }
    let mut op = 0usize;
    for version in 1..=7u64 {
        for id in 0..3u64 {
            let body = vec![(0x40 + id as u8) ^ (version as u8); 8];
            ack(
                &node,
                Request::WriteData {
                    id,
                    bytes: Bytes::from(body.clone()),
                    version,
                },
            );
            checker
                .commit(id as usize, &body, version, op)
                .expect("acknowledged write commits cleanly");
            op += 1;
        }
    }

    // Every ack implied an fsync: the synced prefix IS the whole log.
    let synced = backend.synced_len();
    assert_eq!(
        synced,
        backend.log_len(),
        "acks must leave no un-synced tail even under FsyncPolicy::Manual"
    );

    drop(node);
    drop(backend);
    crash(&path, synced);

    let reopened =
        Arc::new(AppendLogBackend::open(&path, FsyncPolicy::Manual).expect("reopen after crash"));
    let recovered = StorageNode::builder(NodeId(0))
        .backend(reopened.clone())
        .build();

    // Post-recovery reads must satisfy the same checker that witnessed
    // the acknowledged history: no stale version, no foreign bytes.
    for id in 0..3u64 {
        let (bytes, version) = read_block(&recovered, id).expect("acknowledged block survives");
        assert_eq!(version, 7, "block {id} lost acknowledged writes");
        checker
            .observe_read(id as usize, &bytes, version, op)
            .expect("post-recovery read accepted by the history checker");
        op += 1;
    }

    let _ = std::fs::remove_file(&path);
}

/// The log this script leaves behind, as written by the commit before
/// `crc32` went slicing-by-8 and `block_check` became a bucket sum.
const LOG_BEFORE_THE_TABLE_KERNELS: &str = concat!(
    "210000000fc12e6501010000000000000000000000000000000c000000646174612d626c6f636b2d30",
    "41000000f4c73792040200000000000000020000000000000000000000000000000000000002000000111100000000000022220000000000000c0000007061726974792d626c6b2d30",
    "21000000be940c9301010000000000000001000000000000000c000000646174612d626c6f636b2d31",
    "41000000ede1a5a1040200000000000000020000000100000000000000000000000000000002000000333300000000000022220000000000000c00000023c78738768e89c09d6f7ac3",
);

#[test]
fn logs_replay_across_the_checksum_kernel_change() {
    let script = |node: &StorageNode| {
        ack(
            node,
            Request::InitData {
                id: 1,
                bytes: Bytes::from_static(b"data-block-0"),
            },
        );
        ack(
            node,
            Request::InitParity {
                id: 2,
                bytes: Bytes::from_static(b"parity-blk-0"),
                k: 2,
                checks: vec![0x1111, 0x2222],
            },
        );
        ack(
            node,
            Request::WriteData {
                id: 1,
                bytes: Bytes::from_static(b"data-block-1"),
                version: 1,
            },
        );
        ack(
            node,
            Request::AddParity {
                id: 2,
                block_index: 0,
                delta: Bytes::from_static(b"\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c"),
                expected_version: 0,
                new_version: 1,
                coeff: 0x53,
                new_check: Some(0x3333),
            },
        );
    };
    let open = |path: &PathBuf| {
        let backend =
            Arc::new(AppendLogBackend::open(path, FsyncPolicy::Always).expect("open log"));
        let node = StorageNode::builder(NodeId(0))
            .backend(backend.clone())
            .build();
        (node, backend)
    };
    let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };

    // What this build writes is what the earlier build wrote: record
    // CRCs and the persisted cross-checksum vector included, so the
    // earlier build replays this build's logs. The records now sit at
    // the head of a zero-filled extent, which the earlier build reads
    // as a torn tail and truncates.
    let path = log_path("kernel-change-written");
    let (node, backend) = open(&path);
    script(&node);
    let served = (
        read_block(&node, 1),
        node.execute(Envelope::new(Request::ReadParity { id: 2 }))
            .result,
    );
    let records = backend.log_len() as usize;
    drop(node);
    drop(backend);
    let written = std::fs::read(&path).expect("read log");
    assert_eq!(hex(&written[..records]), LOG_BEFORE_THE_TABLE_KERNELS);
    assert!(
        written[records..].iter().all(|&b| b == 0),
        "past the records, only the zero tail"
    );
    let _ = std::fs::remove_file(&path);

    // And the earlier build's log replays here to the same state, every
    // record passing its CRC and every block its recomputed self-check.
    let path = log_path("kernel-change-replayed");
    let recorded: Vec<u8> = (0..LOG_BEFORE_THE_TABLE_KERNELS.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&LOG_BEFORE_THE_TABLE_KERNELS[i..i + 2], 16).expect("hex"))
        .collect();
    std::fs::write(&path, &recorded).expect("write recorded log");
    let (node, _) = open(&path);
    assert_eq!(read_block(&node, 1), served.0);
    assert_eq!(read_block(&node, 1), Some((b"data-block-1".to_vec(), 1)));
    assert_eq!(
        node.execute(Envelope::new(Request::ReadParity { id: 2 }))
            .result,
        served.1
    );
    drop(node);
    let _ = std::fs::remove_file(&path);
}

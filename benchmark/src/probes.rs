//! Single-thread probes of each layer's public functions, reported once
//! per traced run as workload-independent layer numbers.
//!
//! Kernels run at 64 KiB, node and storage calls at 4 KiB, on seeded
//! non-zero input, with inputs and results passed through `black_box`.
//! Every probe times its call repeatedly for a fixed slice of wall time
//! and reports the median call.

use std::cell::Cell;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use tq_cluster::{
    wire, AppendLogBackend, Cluster, Envelope, FsyncPolicy, LocalTransport, MemoryBackend, NodeApi,
    NodeId, QuorumRound, Reply, Request, StorageBackend, StorageNode, StoredBlock, TcpNodeServer,
    TcpTransport, Transport,
};
use tq_erasure::delta::block_delta;
use tq_erasure::{data_checks, verify_block, CodeParams, ReedSolomon};
use tq_gf256::Gf256;
use tq_trapezoid::StripeLockManager;

use crate::gen::payload;
use crate::run::Metric;
use crate::stats::median;
use crate::workload::{K, N};

const KERNEL_LEN: usize = 64 * 1024;
const BLOCK_LEN: usize = 4096;
/// Wall time per probe.
const SLICE: Duration = Duration::from_millis(120);
const MIN_SAMPLES: usize = 5;

/// Median nanoseconds of one `call`, over as many samples as fit in
/// [`SLICE`] (at least [`MIN_SAMPLES`]). A sample is one call, or for
/// calls near the clock's own cost a batch of them timed together.
/// `call` gets the iteration number.
fn median_ns(mut call: impl FnMut(u64)) -> f64 {
    let mut i = 0u64;
    let t = Instant::now();
    call(i);
    i += 1;
    let first = t.elapsed().as_nanos().max(1) as u64;
    let batch = (20_000 / first).clamp(1, 4096);
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < MIN_SAMPLES || started.elapsed() < SLICE {
        let t = Instant::now();
        for _ in 0..batch {
            call(i);
            i += 1;
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&samples)
}

fn per_kib(ns: f64, bytes: usize) -> f64 {
    ns / (bytes as f64 / 1024.0)
}

fn memory_node(id: usize) -> StorageNode {
    StorageNode::builder(NodeId(id))
        .backend(Arc::new(MemoryBackend::new()))
        .build()
}

pub fn run_all(seed: u64, dir: &Path) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let mut push =
        |name: &'static str, value: f64, unit: &'static str| out.push(Metric { name, value, unit });
    let block = |i: u64, len: usize| payload(seed, 1 << 32 | i, 0, len);

    // --- gf256 ---------------------------------------------------------
    let src = block(0, KERNEL_LEN);
    let mut dst = block(1, KERNEL_LEN);
    let ns = median_ns(|_| {
        tq_gf256::slice_ops::mul_add_slice(Gf256(0x57), black_box(&src), black_box(&mut dst));
    });
    push(
        "gf256.mul_add_slice_ns_per_KiB",
        per_kib(ns, KERNEL_LEN),
        "ns/KiB",
    );
    let ns = median_ns(|_| {
        black_box(tq_gf256::check::block_check(black_box(&src)));
    });
    push(
        "gf256.block_check_ns_per_KiB",
        per_kib(ns, KERNEL_LEN),
        "ns/KiB",
    );

    // --- erasure -------------------------------------------------------
    let rs = ReedSolomon::new(CodeParams::new(N, K).map_err(|e| e.to_string())?);
    let data: Vec<Vec<u8>> = (0..K as u64).map(|i| block(10 + i, KERNEL_LEN)).collect();
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let mut parity = vec![vec![0u8; KERNEL_LEN]; N - K];
    let ns = median_ns(|_| rs.encode_into(black_box(&refs), black_box(&mut parity)));
    push(
        "erasure.encode_ns_per_KiB",
        per_kib(ns, K * KERNEL_LEN),
        "ns/KiB",
    );
    // Block 0 from data 1..k plus the first parity block — the
    // degraded read's decode.
    let mut available: Vec<(usize, &[u8])> = (1..K).map(|i| (i, refs[i])).collect();
    available.push((K, &parity[0]));
    let ns = median_ns(|_| {
        black_box(rs.decode_block(0, black_box(&available)).expect("k shards"));
    });
    push(
        "erasure.decode_block_ns_per_KiB",
        per_kib(ns, KERNEL_LEN),
        "ns/KiB",
    );
    let ns = median_ns(|_| {
        black_box(block_delta(black_box(&data[0]), black_box(&data[1])).expect("equal lengths"));
    });
    push(
        "erasure.block_delta_ns_per_KiB",
        per_kib(ns, KERNEL_LEN),
        "ns/KiB",
    );
    let checks = data_checks(&refs);
    let ns = median_ns(|_| {
        black_box(verify_block(
            &rs,
            K,
            black_box(&parity[0]),
            black_box(&checks),
        ));
    });
    push(
        "erasure.verify_block_ns_per_KiB",
        per_kib(ns, KERNEL_LEN),
        "ns/KiB",
    );

    // --- cluster.wire --------------------------------------------------
    let env = Envelope::new(Request::WriteData {
        id: 1,
        bytes: Bytes::from(block(20, KERNEL_LEN)),
        version: 1,
    });
    let ns = median_ns(|_| {
        black_box(wire::encode_envelope(black_box(&env)));
    });
    push(
        "cluster.wire.encode_envelope_ns_per_KiB",
        per_kib(ns, KERNEL_LEN),
        "ns/KiB",
    );
    let frame = Bytes::from(wire::encode_envelope(&env));
    let ns = median_ns(|_| {
        black_box(wire::decode_frame(black_box(&frame)).expect("own encoding"));
    });
    push(
        "cluster.wire.decode_frame_ns_per_KiB",
        per_kib(ns, KERNEL_LEN),
        "ns/KiB",
    );
    let ns = median_ns(|_| {
        black_box(wire::crc32(black_box(&src)));
    });
    push(
        "cluster.wire.crc32_ns_per_KiB",
        per_kib(ns, KERNEL_LEN),
        "ns/KiB",
    );

    // --- cluster.node (MemoryBackend) ------------------------------------
    // A refused request would time the error path: every reply is
    // checked, and one error fails the probes.
    let refused = Cell::new(0u64);
    let served = |reply: Reply| {
        refused.set(refused.get() + u64::from(reply.result.is_err()));
        black_box(reply);
    };
    let small = Bytes::from(block(30, BLOCK_LEN));
    let data_node = memory_node(0);
    served(data_node.execute(Envelope::new(Request::InitData {
        id: 1,
        bytes: small.clone(),
    })));
    let ns = median_ns(|_| served(data_node.execute(Envelope::new(Request::ReadData { id: 1 }))));
    push("cluster.node.serve_read_us", ns / 1e3, "us");
    let ns = median_ns(|i| {
        served(data_node.execute(Envelope::new(Request::WriteData {
            id: 1,
            bytes: small.clone(),
            version: i + 1,
        })));
    });
    push("cluster.node.serve_write_us", ns / 1e3, "us");
    let parity_node = memory_node(K);
    served(parity_node.execute(Envelope::new(Request::InitParity {
        id: 1,
        bytes: small.clone(),
        k: K,
        checks: vec![1; K],
    })));
    let ns = median_ns(|i| {
        served(parity_node.execute(Envelope::new(Request::AddParity {
            id: 1,
            block_index: 0,
            delta: small.clone(),
            coeff: 0x57,
            expected_version: i,
            new_version: i + 1,
            new_check: Some(i),
        })));
    });
    push("cluster.node.serve_add_parity_us", ns / 1e3, "us");

    // --- cluster.storage -------------------------------------------------
    // 64 live ids: the log outgrows 3x its live size every ~128 puts, so
    // compaction happens and the median put does not see it.
    let blocks: Vec<StoredBlock> = (0..64)
        .map(|i| StoredBlock::new_data(1, Bytes::from(block(40 + i, BLOCK_LEN))))
        .collect();
    for (name, policy) in [
        ("cluster.storage.append_sync_us", FsyncPolicy::Always),
        ("cluster.storage.append_nosync_us", FsyncPolicy::Manual),
    ] {
        let log = AppendLogBackend::open_ephemeral(dir.join("probe.log"), policy)
            .map_err(|e| format!("open probe log: {e}"))?;
        let ns = median_ns(|i| {
            let slot = (i % 64) as usize;
            log.put(slot as u64, black_box(blocks[slot].clone()))
                .expect("probe log append");
        });
        push(name, ns / 1e3, "us");
    }

    // --- cluster.tcp -----------------------------------------------------
    {
        let api: Arc<dyn NodeApi> = Arc::new(memory_node(0));
        let server = TcpNodeServer::spawn(api, "127.0.0.1:0")
            .map_err(|e| format!("bind probe listener: {e}"))?;
        let tcp = TcpTransport::connect(vec![server.local_addr()]);
        let ns = median_ns(|_| served(tcp.dispatch(NodeId(0), Envelope::new(Request::Ping))));
        push("cluster.tcp.ping_rtt_us", ns / 1e3, "us");
        drop(tcp);
        drop(server);
    }

    // --- cluster.quorum_round ----------------------------------------------
    let local = LocalTransport::new(Cluster::with_backends(4, |_| {
        Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>
    }));
    let ns = median_ns(|_| {
        let calls = (0..4).map(|i| (NodeId(i), Request::Ping)).collect();
        black_box(QuorumRound::first_quorum(4).run(&local, calls));
    });
    push("cluster.quorum_round.local_round_us", ns / 1e3, "us");

    // --- core ------------------------------------------------------------
    let locks = StripeLockManager::new();
    let ns = median_ns(|i| drop(black_box(locks.lock(1, (i % 6) as usize))));
    push("core.lock_uncontended_ns", ns, "ns");

    if refused.get() > 0 {
        return Err(format!("probes: {} requests were refused", refused.get()));
    }
    Ok(out)
}

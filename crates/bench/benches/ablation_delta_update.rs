//! Ablation: the paper's in-place delta update (Algorithm 1 line 27)
//! against the naive read-modify-write it replaces.
//!
//! §I frames the cost: "a (9,6)-MDS will require 8 read and write
//! operations for a single block update" in the basic scheme — the delta
//! path sends each parity node one `add` instead of rewriting the whole
//! stripe. This bench measures both the wall-clock and the *bytes moved*
//! (from the cluster's IO counters, printed at start-up).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tq_bench::{payload, provisioned};
use tq_cluster::{LocalTransport, NodeId, Request, Response, Transport};
use tq_trapezoid::TrapErcClient;

const BLOCK: usize = 4096;

/// The naive update: read every data block, re-encode the whole stripe,
/// rewrite every parity block (and the target data block).
fn naive_reencode_update(
    client: &TrapErcClient<LocalTransport>,
    id: u64,
    target: usize,
    new: &[u8],
) {
    let transport = client.transport();
    let k = client.config().params().k();
    let mut data: Vec<Vec<u8>> = Vec::with_capacity(k);
    let mut versions = Vec::with_capacity(k);
    for i in 0..k {
        match transport
            .call(NodeId(i), Request::ReadData { id })
            .expect("up")
        {
            Response::Data { bytes, version, .. } => {
                data.push(bytes.to_vec());
                versions.push(version);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    data[target].copy_from_slice(new);
    versions[target] += 1;
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let parity = client.codec().encode(&refs);
    let checks = tq_erasure::data_checks(&refs);
    transport
        .call(
            NodeId(target),
            Request::WriteData {
                id,
                bytes: Bytes::copy_from_slice(new),
                version: versions[target],
            },
        )
        .expect("up");
    for (j, p) in client.config().params().parity_indices().zip(&parity) {
        transport
            .call(
                NodeId(j),
                Request::WriteParity {
                    id,
                    bytes: Bytes::copy_from_slice(p),
                    versions: versions.clone(),
                    checks: checks.clone(),
                },
            )
            .expect("up");
    }
}

fn print_io_comparison() {
    // One update through each path, counting bytes on the wire.
    let (cluster, client) = provisioned(BLOCK);
    let new = payload(BLOCK, 0x77);
    let before = cluster.io_totals();
    client.write_block(1, 0, &new).expect("healthy");
    let delta_io = cluster.io_totals().since(&before);

    let (cluster2, client2) = provisioned(BLOCK);
    let before = cluster2.io_totals();
    naive_reencode_update(&client2, 1, 0, &payload(BLOCK, 0x78));
    let naive_io = cluster2.io_totals().since(&before);

    eprintln!("## ablation — one 4 KiB block update on a (15, 8) stripe\n");
    eprintln!("| path | node ops | bytes in | bytes out |");
    eprintln!("|---|---|---|---|");
    eprintln!(
        "| delta (Algorithm 1) | {} | {} | {} |",
        delta_io.total_ops(),
        delta_io.bytes_in,
        delta_io.bytes_out
    );
    eprintln!(
        "| naive re-encode | {} | {} | {} |",
        naive_io.total_ops(),
        naive_io.bytes_in,
        naive_io.bytes_out
    );
    eprintln!(
        "\ndelta path moves {:.1}x fewer bytes into nodes ({} vs {}).\n",
        naive_io.bytes_in as f64 / delta_io.bytes_in.max(1) as f64,
        delta_io.bytes_in,
        naive_io.bytes_in
    );
}

fn bench_update_paths(c: &mut Criterion) {
    print_io_comparison();
    let mut group = c.benchmark_group("ablation/update_paths");
    group.throughput(Throughput::Bytes(BLOCK as u64));

    let (_cluster, client) = provisioned(BLOCK);
    let new = payload(BLOCK, 0xA9);
    group.bench_function("delta_algorithm1", |b| {
        b.iter(|| client.write_block(1, 0, &new).expect("healthy"))
    });

    let (_cluster2, client2) = provisioned(BLOCK);
    group.bench_function("naive_reencode", |b| {
        b.iter(|| naive_reencode_update(&client2, 1, 0, &new))
    });
    group.finish();
}

fn bench_hint_ablation(c: &mut Criterion) {
    // Second ablation: Algorithm 1's embedded READBLOCK vs a cached old
    // value — the protocol-vs-eq.9 gap in time rather than availability.
    let mut group = c.benchmark_group("ablation/embedded_read");
    group.throughput(Throughput::Bytes(BLOCK as u64));
    let (_cluster, client) = provisioned(BLOCK);
    let old = client.read_block(1, 0).expect("healthy");
    let new = old.bytes.clone(); // idempotent writes keep the hint exact
    group.bench_function("with_embedded_read", |b| {
        b.iter(|| client.write_block(1, 0, &new).expect("healthy"))
    });
    // Sync the version after the measured loop so hints stay valid.
    let mut version = client.read_block(1, 0).expect("healthy").version;
    group.bench_function("with_hint", |b| {
        b.iter(|| {
            let w = client
                .write_block_with_hint(1, 0, &new, &new, version)
                .expect("healthy");
            version = w.version;
        })
    });
    group.finish();
}

criterion_group!(benches, bench_update_paths, bench_hint_ablation);
criterion_main!(benches);

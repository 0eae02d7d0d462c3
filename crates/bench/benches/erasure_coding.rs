//! Codec throughput: encode, single-block decode (bare, and checked
//! against the stripe's cross-checksum vector as a degraded read does),
//! and full reconstruction, for the paper's code shapes. The delta fold a
//! parity node runs is one `mul_add_slice`, benched as
//! `gf256/mul_add_slice/*`.
//!
//! `encode` runs at 4 KiB *and* 64 KiB blocks (the README's Performance
//! table reads both sizes from `BENCH_erasure.json`), and the
//! `encode_backends` group pits the scalar reference against the
//! dispatched SIMD tier on the same stripe so the end-to-end coding
//! speedup is recorded alongside the kernel-level one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use tq_bench::payload;
use tq_erasure::{data_checks, verify_block, CodeParams, ReedSolomon};
use tq_gf256::simd::Backend;
use tq_gf256::Gf256;

const BLOCK: usize = 4096;

fn setup_sized(n: usize, k: usize, block: usize) -> (ReedSolomon, Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let rs = ReedSolomon::new(CodeParams::new(n, k).expect("valid"));
    let data: Vec<Vec<u8>> = (0..k).map(|i| payload(block, i as u8)).collect();
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let parity = rs.encode(&refs);
    (rs, data, parity)
}

fn setup(n: usize, k: usize) -> (ReedSolomon, Vec<Vec<u8>>, Vec<Vec<u8>>) {
    setup_sized(n, k, BLOCK)
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("erasure/encode");
    for (n, k) in [(9usize, 6usize), (15, 8), (14, 10)] {
        for block in [BLOCK, 65536] {
            let (rs, data, mut parity) = setup_sized(n, k, block);
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            group.throughput(Throughput::Bytes((k * block) as u64));
            // encode_into with reused buffers: the steady-state re-encode
            // cost (the scrub path), free of allocator noise.
            group.bench_with_input(
                BenchmarkId::new("stripe", format!("{n}_{k}_{block}")),
                &k,
                |b, _| b.iter(|| rs.encode_into(black_box(&refs), black_box(&mut parity))),
            );
        }
    }
    group.finish();
}

fn bench_encode_backends(c: &mut Criterion) {
    // The same (9, 6) stripe encoded through the scalar reference and
    // through every SIMD tier the machine has, via the raw backend API
    // (one fused multi pass per parity block, like `encode_into`).
    let mut group = c.benchmark_group("erasure/encode_backends");
    let (rs, data, mut parity) = setup(9, 6);
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let rows: Vec<Vec<Gf256>> = (6..9).map(|j| rs.generator_row(j).to_vec()).collect();
    group.throughput(Throughput::Bytes((6 * BLOCK) as u64));
    for backend in Backend::available() {
        group.bench_with_input(
            BenchmarkId::new(backend.name(), format!("9_6_{BLOCK}")),
            &BLOCK,
            |b, _| {
                b.iter(|| {
                    for (row, out) in rows.iter().zip(parity.iter_mut()) {
                        out.fill(0);
                        backend.mul_add_multi(black_box(row), black_box(&refs), out);
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_decode_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("erasure/decode_block");
    for (n, k) in [(9usize, 6usize), (15, 8)] {
        let (rs, data, parity) = setup(n, k);
        // Worst case: the target is a data block and only parity + other
        // data survive.
        let available: Vec<(usize, &[u8])> = (1..k)
            .map(|i| (i, data[i].as_slice()))
            .chain(
                parity
                    .iter()
                    .enumerate()
                    .map(|(j, p)| (k + j, p.as_slice())),
            )
            .collect();
        group.throughput(Throughput::Bytes(BLOCK as u64));
        group.bench_with_input(
            BenchmarkId::new("stripe", format!("{n}_{k}")),
            &k,
            |b, _| {
                b.iter(|| {
                    rs.decode_block(0, black_box(&available))
                        .expect("decodable")
                })
            },
        );
    }
    group.finish();
}

fn bench_decode_verified(c: &mut Criterion) {
    // The client's whole Case 2 cost: a (9, 6) data block decoded from
    // the 6 shards a degraded read polls, checked once against the
    // stripe's cross-checksum vector.
    let mut group = c.benchmark_group("erasure/decode_verified");
    for block in [BLOCK, 65536] {
        let (rs, data, parity) = setup_sized(9, 6, block);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let checks = data_checks(&refs);
        let available: Vec<(usize, &[u8])> = (1..4)
            .map(|i| (i, refs[i]))
            .chain(
                parity
                    .iter()
                    .enumerate()
                    .map(|(j, p)| (6 + j, p.as_slice())),
            )
            .collect();
        group.throughput(Throughput::Bytes(block as u64));
        group.bench_function(BenchmarkId::from_parameter(block), |b| {
            b.iter(|| {
                let out = rs
                    .decode_block(0, black_box(&available))
                    .expect("decodable");
                assert!(verify_block(&rs, 0, &out, black_box(&checks)));
                out
            })
        });
    }
    group.finish();
}

fn bench_reconstruct(c: &mut Criterion) {
    let mut group = c.benchmark_group("erasure/reconstruct_max_loss");
    for (n, k) in [(9usize, 6usize), (15, 8)] {
        let (rs, data, parity) = setup(n, k);
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity.iter().cloned()).collect();
        group.throughput(Throughput::Bytes(((n - k) * BLOCK) as u64));
        group.bench_with_input(
            BenchmarkId::new("stripe", format!("{n}_{k}")),
            &k,
            |b, _| {
                b.iter_with_setup(
                    || {
                        let mut shards: Vec<Option<Vec<u8>>> =
                            full.iter().cloned().map(Some).collect();
                        for lost in 0..(n - k) {
                            shards[lost * n / (n - k)] = None;
                        }
                        shards
                    },
                    |mut shards| rs.reconstruct(black_box(&mut shards)).expect("recoverable"),
                )
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_encode,
    bench_encode_backends,
    bench_decode_block,
    bench_decode_verified,
    bench_reconstruct
);
criterion_main!(benches);

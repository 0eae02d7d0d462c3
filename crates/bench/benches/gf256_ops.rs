//! Throughput of the GF(2⁸) slice kernels — the arithmetic floor under
//! every encode, decode and delta update in the system.
//!
//! The `mul_add_slice` group measures the *dispatched* kernel (whatever
//! tier detection or `TQ_GF256_FORCE` selected); the `backends` group
//! measures every tier this machine can run side by side, so the
//! scalar-vs-SIMD speedup is a recorded number in `BENCH_gf256.json`
//! rather than a claim. The `block_check` and `crc32` rows are the two
//! checksum passes the data path makes over a payload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use tq_bench::payload;
use tq_gf256::simd::Backend;
use tq_gf256::{slice_ops, Gf256, Matrix};

fn bench_mul_add_slice(c: &mut Criterion) {
    let mut group = c.benchmark_group("gf256/mul_add_slice");
    for size in [256usize, 4096, 65536] {
        let src = payload(size, 3);
        let mut dst = payload(size, 7);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                slice_ops::mul_add_slice(Gf256(0x53), black_box(&src), black_box(&mut dst));
            })
        });
    }
    group.finish();
}

fn bench_mul_add_slice_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("gf256/mul_add_slice_backends");
    for size in [4096usize, 65536] {
        let src = payload(size, 3);
        let mut dst = payload(size, 7);
        group.throughput(Throughput::Bytes(size as u64));
        for backend in Backend::available() {
            group.bench_with_input(BenchmarkId::new(backend.name(), size), &size, |b, _| {
                b.iter(|| {
                    backend.mul_add_slice(Gf256(0x53), black_box(&src), black_box(&mut dst));
                })
            });
        }
    }
    group.finish();
}

fn bench_mul_add_multi(c: &mut Criterion) {
    // A (9, 6) parity block's linear combination: 6 source blocks into
    // one accumulator — fused single pass vs one mul_add pass per block.
    let mut group = c.benchmark_group("gf256/mul_add_multi_k6");
    for size in [4096usize, 65536] {
        let blocks: Vec<Vec<u8>> = (0..6).map(|i| payload(size, i as u8)).collect();
        let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
        let coeffs: Vec<Gf256> = (1..=6).map(|i| Gf256(i as u8 * 31)).collect();
        let mut dst = payload(size, 0xEE);
        group.throughput(Throughput::Bytes((6 * size) as u64));
        group.bench_with_input(BenchmarkId::new("fused", size), &size, |b, _| {
            b.iter(|| {
                slice_ops::mul_add_multi(black_box(&coeffs), black_box(&refs), black_box(&mut dst))
            })
        });
        group.bench_with_input(BenchmarkId::new("per_block", size), &size, |b, _| {
            b.iter(|| {
                for (&co, &bl) in coeffs.iter().zip(&refs) {
                    slice_ops::mul_add_slice(co, black_box(bl), black_box(&mut dst));
                }
            })
        });
    }
    group.finish();
}

fn bench_mul_slice(c: &mut Criterion) {
    let mut group = c.benchmark_group("gf256/mul_slice");
    for size in [4096usize, 65536] {
        let src = payload(size, 5);
        let mut dst = vec![0u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                slice_ops::mul_slice(Gf256(0xC3), black_box(&src), black_box(&mut dst));
            })
        });
    }
    group.finish();
}

fn bench_add_assign(c: &mut Criterion) {
    let mut group = c.benchmark_group("gf256/add_assign");
    let size = 65536usize;
    let src = payload(size, 11);
    let mut dst = payload(size, 13);
    group.throughput(Throughput::Bytes(size as u64));
    group.bench_function(BenchmarkId::from_parameter(size), |b| {
        b.iter(|| slice_ops::add_assign(black_box(&mut dst), black_box(&src)))
    });
    group.finish();
}

fn bench_matrix_inverse(c: &mut Criterion) {
    let mut group = c.benchmark_group("gf256/matrix_inverse");
    for k in [6usize, 8, 12] {
        // The decode-path inversion: a k×k submatrix of the generator.
        let m = {
            let v = Matrix::vandermonde(k + 4, k);
            let rows: Vec<usize> = (2..k + 2).collect();
            v.select_rows(&rows)
        };
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| black_box(&m).inverse().expect("invertible"))
        });
    }
    group.finish();
}

fn bench_block_check(c: &mut Criterion) {
    // The integrity layer's pass over a payload: every install, every
    // verified serve and every decoded block pays one of these.
    let mut group = c.benchmark_group("gf256/block_check");
    for size in [256usize, 4096, 65536] {
        let block = payload(size, 17);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| tq_gf256::check::block_check(black_box(&block)))
        });
    }
    group.finish();
}

fn bench_crc32(c: &mut Criterion) {
    // The append-log record checksum over a 4 KiB block's record body.
    let mut group = c.benchmark_group("cluster/crc32");
    let size = 4096usize;
    let body = payload(size, 23);
    group.throughput(Throughput::Bytes(size as u64));
    group.bench_function(BenchmarkId::from_parameter(size), |b| {
        b.iter(|| tq_cluster::wire::crc32(black_box(&body)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mul_add_slice,
    bench_mul_add_slice_backends,
    bench_mul_add_multi,
    bench_mul_slice,
    bench_add_assign,
    bench_matrix_inverse,
    bench_block_check,
    bench_crc32
);
criterion_main!(benches);

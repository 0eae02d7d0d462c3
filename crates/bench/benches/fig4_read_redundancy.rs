//! Figure 4 — TRAP-ERC read availability across redundancy levels
//! (n − k ∈ {3, 5, 7} at n = 15).
//!
//! Prints the figure's rows at start-up, then measures eq. 13 for each
//! redundancy level and the decode-path read cost as k grows (larger k
//! ⇒ bigger matrix inversion and more blocks to combine).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tq_cluster::{Cluster, LocalTransport};
use tq_quorum::availability;
use tq_sim::{experiments, report};
use tq_trapezoid::TrapErcClient;

fn print_figure() {
    let fig = experiments::fig4_read_redundancy(10);
    eprintln!("{}", report::to_markdown(&fig));
}

fn bench_eq13_by_redundancy(c: &mut Criterion) {
    print_figure();
    let mut group = c.benchmark_group("fig4/eq13_101pt_sweep");
    for k in [12usize, 10, 8] {
        let (shape, th) = experiments::shape_for_k(k);
        group.bench_with_input(BenchmarkId::new("k", k), &k, |b, &k| {
            b.iter(|| {
                let mut acc = 0.0;
                for i in 0..=100 {
                    acc += availability::read_availability_erc(
                        black_box(&shape),
                        &th,
                        15,
                        k,
                        i as f64 / 100.0,
                    );
                }
                acc
            })
        });
    }
    group.finish();
}

fn bench_decode_read_by_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4/decode_read_op");
    for k in [8usize, 10, 12] {
        let (shape, th) = experiments::shape_for_k(k);
        let config = tq_trapezoid::ProtocolConfig::new(
            tq_erasure::CodeParams::new(15, k).expect("valid"),
            shape,
            th,
        )
        .expect("valid");
        let cluster = Cluster::new(15);
        let client =
            TrapErcClient::new(config, LocalTransport::new(cluster.clone())).expect("sized");
        let blocks: Vec<Vec<u8>> = (0..k).map(|i| vec![i as u8; 2048]).collect();
        client.create_stripe(1, blocks).expect("all up");
        cluster.kill(0); // force the decode path for block 0
        group.bench_with_input(BenchmarkId::new("k", k), &k, |b, _| {
            b.iter(|| client.read_block(1, 0).expect("decode path"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_eq13_by_redundancy, bench_decode_read_by_k);
criterion_main!(benches);

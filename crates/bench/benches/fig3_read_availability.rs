//! Figure 3 — read availability of TRAP-ERC vs TRAP-FR.
//!
//! Prints the figure's rows at start-up, then measures the closed forms
//! (eqs. 10 and 13), the exact 2^15 enumeration, and single protocol
//! read operations on both the direct and the decode path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tq_bench::provisioned;
use tq_quorum::availability;
use tq_quorum::exact::exact_availability;
use tq_quorum::system::QuorumSystem;
use tq_quorum::trapezoid::{TrapezoidShape, WriteThresholds};
use tq_sim::{experiments, report};

fn print_figure() {
    let fig = experiments::fig3_read_availability(10);
    eprintln!("{}", report::to_markdown(&fig));
}

fn bench_closed_forms(c: &mut Criterion) {
    print_figure();
    let shape = TrapezoidShape::new(0, 4, 1).expect("static shape");
    let th = WriteThresholds::paper_default(&shape, 2).expect("valid");
    let mut group = c.benchmark_group("fig3/closed_forms_101pt_sweep");
    group.bench_function("eq10_fr", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..=100 {
                acc += availability::read_availability_fr(black_box(&shape), &th, i as f64 / 100.0);
            }
            acc
        })
    });
    group.bench_function("eq13_erc", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..=100 {
                acc += availability::read_availability_erc(
                    black_box(&shape),
                    &th,
                    15,
                    8,
                    i as f64 / 100.0,
                );
            }
            acc
        })
    });
    group.finish();
}

fn bench_exact_enumeration(c: &mut Criterion) {
    let config = tq_bench::paper_config();
    let sys = config.system_for_block(0);
    let mut group = c.benchmark_group("fig3/exact_2pow15_enumeration");
    group.sample_size(20);
    group.bench_function("erc_read_predicate", |b| {
        b.iter(|| exact_availability(15, black_box(0.5), |up| sys.is_read_available(up)))
    });
    group.finish();
}

fn bench_protocol_read_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3/protocol_read_op");
    for block_len in [512usize, 4096] {
        let (cluster, client) = provisioned(block_len);
        group.bench_with_input(BenchmarkId::new("direct", block_len), &block_len, |b, _| {
            b.iter(|| client.read_block(1, 0).expect("direct path"))
        });
        cluster.kill(0);
        group.bench_with_input(BenchmarkId::new("decode", block_len), &block_len, |b, _| {
            b.iter(|| client.read_block(1, 0).expect("decode path"))
        });
        cluster.revive(0);
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_closed_forms,
    bench_exact_enumeration,
    bench_protocol_read_paths
);
criterion_main!(benches);

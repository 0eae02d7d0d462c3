//! Figure 2 — write availability of TRAP-ERC vs node availability p.
//!
//! On start-up the figure's rows are printed to stderr (same series as
//! `figures -- fig2`); the measured benchmark covers the eq. 9 closed
//! form.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tq_quorum::availability;
use tq_quorum::trapezoid::{TrapezoidShape, WriteThresholds};
use tq_sim::{experiments, report};

fn print_figure() {
    let fig = experiments::fig2_write_availability(10);
    eprintln!("{}", report::to_markdown(&fig));
}

fn bench_eq9_evaluation(c: &mut Criterion) {
    print_figure();
    let shape = TrapezoidShape::new(0, 4, 1).expect("static shape");
    let mut group = c.benchmark_group("fig2/eq9_closed_form");
    for w in [1usize, 2, 4] {
        let th = WriteThresholds::paper_default(&shape, w).expect("valid w");
        group.bench_with_input(BenchmarkId::new("w", w), &w, |b, _| {
            b.iter(|| {
                // A full 101-point sweep, the unit of work behind the plot.
                let mut acc = 0.0;
                for i in 0..=100 {
                    let p = i as f64 / 100.0;
                    acc += availability::write_availability(black_box(&shape), &th, p);
                }
                acc
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_eq9_evaluation);
criterion_main!(benches);

//! Batched multi-stripe operations vs loops of single operations, under
//! injected per-node latency.
//!
//! The unified store has one protocol path — the fused plan; a single
//! op is a plan of one. In a `write_batch`/`read_batch` every block's
//! level-`l` fan-out is fused into one `MultiRound` scatter, so a batch
//! of m blocks costs roughly one network round per trapezoid level
//! instead of the m a loop of single ops pays. This bench puts
//! numbers on that claim over a `ChannelTransport` whose nodes each
//! sleep a fixed service delay — the regime where rounds, not bytes,
//! dominate: the batch's wall-clock stays nearly flat in m while the
//! loop grows linearly.
//!
//! A speedup summary is printed at start-up (the repo's bench style:
//! artefact rows first, measurements after).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tq_cluster::{ChannelTransport, Cluster};
use tq_trapezoid::{BatchWrite, BlockAddr, QuorumStore, Store};

/// Injected per-node service delay. Large enough to dominate channel
/// overhead, small enough to keep the bench quick.
const NODE_DELAY: Duration = Duration::from_micros(400);

const BLOCK: usize = 256;
const STRIPES: u64 = 4;
const K: usize = 8;

/// A (15, 8) TRAP-ERC store with `STRIPES` provisioned stripes. With a
/// latency, every node sleeps that long per request — the regime where
/// network rounds dominate wall-clock — including during provisioning
/// (`STRIPES` fused rounds, negligible).
fn fixture(latency: Option<Duration>) -> Box<dyn QuorumStore> {
    let cluster = Cluster::new(15);
    let transport = match latency {
        Some(delay) => ChannelTransport::with_latency(cluster, &[delay; 15]),
        None => ChannelTransport::new(cluster),
    };
    let store = Store::trap_erc(15, K)
        .shape(0, 4, 1)
        .uniform_w(2)
        .transport(transport)
        .build()
        .expect("static parameters");
    for stripe in 0..STRIPES {
        let blocks: Vec<Vec<u8>> = (0..K)
            .map(|i| (0..BLOCK).map(|b| (i * 13 + b) as u8).collect())
            .collect();
        store.create(stripe, blocks).expect("all nodes up");
    }
    store
}

/// The round-dominated fixture: [`NODE_DELAY`] per request on every node.
fn slow_store() -> Box<dyn QuorumStore> {
    fixture(Some(NODE_DELAY))
}

/// Distinct addresses spanning several stripes — the multi-stripe batch
/// shape (`m ≤ STRIPES · K`).
fn addrs(m: usize) -> Vec<BlockAddr> {
    assert!(m as u64 <= STRIPES * K as u64);
    (0..m)
        .map(|i| BlockAddr::new((i / K) as u64, i % K))
        .collect()
}

fn time<R>(mut f: impl FnMut() -> R, reps: u32) -> Duration {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed() / reps
}

/// Printed preamble: the batch-vs-loop table the tentpole promises.
fn print_speedup_summary() {
    eprintln!("# batch_ops — m blocks across {STRIPES} stripes, {NODE_DELAY:?}/node");
    eprintln!("# op     m  loop       batch     speedup  rounds(loop->batch)");
    for m in [4usize, 8, 16] {
        let store = slow_store();
        let addrs = addrs(m);
        let payload = vec![0xA5u8; BLOCK];
        let items: Vec<BatchWrite> = addrs
            .iter()
            .map(|&addr| BatchWrite::new(addr, payload.as_slice()))
            .collect();

        let mut loop_rounds = 0;
        let loop_write = time(
            || {
                loop_rounds = 0;
                for &addr in &addrs {
                    let out = store.write(addr, &payload).expect("healthy cluster");
                    loop_rounds += out.report.network_rounds();
                }
            },
            3,
        );
        let mut batch_rounds = 0;
        let batch_write = time(
            || {
                let batch = store.write_batch(&items);
                assert!(batch.all_ok());
                batch_rounds = batch.report.network_rounds();
            },
            3,
        );
        eprintln!(
            "  write {m:>2}  {loop_write:>8.2?}  {batch_write:>8.2?}  {:>6.2}x  {loop_rounds:>3} -> {batch_rounds}",
            loop_write.as_secs_f64() / batch_write.as_secs_f64()
        );

        let mut loop_rounds = 0;
        let loop_read = time(
            || {
                loop_rounds = 0;
                for &addr in &addrs {
                    let out = store.read(addr).expect("healthy cluster");
                    loop_rounds += out.report.network_rounds();
                }
            },
            3,
        );
        let mut batch_rounds = 0;
        let batch_read = time(
            || {
                let batch = store.read_batch(&addrs);
                assert!(batch.all_ok());
                batch_rounds = batch.report.network_rounds();
            },
            3,
        );
        eprintln!(
            "  read  {m:>2}  {loop_read:>8.2?}  {batch_read:>8.2?}  {:>6.2}x  {loop_rounds:>3} -> {batch_rounds}",
            loop_read.as_secs_f64() / batch_read.as_secs_f64()
        );
    }
}

fn bench_batch_vs_loop(c: &mut Criterion) {
    print_speedup_summary();

    let mut group = c.benchmark_group("batch/write");
    group.sample_size(10);
    for m in [4usize, 8, 16] {
        let store = slow_store();
        let addrs = addrs(m);
        let payload = vec![0x3Cu8; BLOCK];
        let items: Vec<BatchWrite> = addrs
            .iter()
            .map(|&addr| BatchWrite::new(addr, payload.as_slice()))
            .collect();
        group.bench_with_input(BenchmarkId::new("loop", m), &m, |b, _| {
            b.iter(|| {
                for &addr in &addrs {
                    store.write(addr, &payload).expect("healthy cluster");
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("fused", m), &m, |b, _| {
            b.iter(|| {
                let batch = store.write_batch(&items);
                assert!(batch.all_ok());
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("batch/read");
    group.sample_size(10);
    for m in [4usize, 8, 16] {
        let store = slow_store();
        let addrs = addrs(m);
        group.bench_with_input(BenchmarkId::new("loop", m), &m, |b, _| {
            b.iter(|| {
                for &addr in &addrs {
                    store.read(addr).expect("healthy cluster");
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("fused", m), &m, |b, _| {
            b.iter(|| {
                let batch = store.read_batch(&addrs);
                assert!(batch.all_ok());
            })
        });
    }
    group.finish();

    // Zero-latency sanity: fusion must not cost anything when rounds are
    // cheap (the fused plan is the same message volume).
    let mut group = c.benchmark_group("batch/zero_latency_read");
    group.sample_size(20);
    let store = fixture(None);
    let addrs = addrs(8);
    group.bench_function("loop", |b| {
        b.iter(|| {
            for &addr in &addrs {
                store.read(addr).expect("healthy cluster");
            }
        })
    });
    group.bench_function("fused", |b| {
        b.iter(|| {
            let batch = store.read_batch(&addrs);
            assert!(batch.all_ok());
        })
    });
    group.finish();
}

criterion_group!(benches, bench_batch_vs_loop);
criterion_main!(benches);

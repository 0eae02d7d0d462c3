//! The deterministic cost gate: network rounds and messages per
//! operation, pinned for all four backends on the benchmark's shape —
//! an (9, 6) stripe on the (2, 1, 1) trapezoid with `w_1 = 2`
//! (`r_0 = 1`, `r_1 = 2`), the replication baselines on the `n − k + 1
//! = 4` nodes TRAP-FR uses — plus one TRAP-ERC degraded read on
//! (15, 8) / (0, 4, 1), whose level 0 can complete without `N_i`. A
//! healthy read's and write's storage puts and flushes (each flush an
//! `fdatasync` on the log) are pinned beside them, with their floors.
//!
//! On `LocalTransport` these counts are exact and repeat bit for bit,
//! so a plan change that adds a round, a message or a durable install
//! to any operation fails here, loudly, instead of drifting into the
//! wall-clock numbers (ROADMAP's standing gate). CI runs this file by
//! name before the benchmark smoke.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use trapezoid_quorum::cluster::storage::default_backend;
use trapezoid_quorum::cluster::{BlockId, StorageError, StoredBlock};
use trapezoid_quorum::{
    BatchWrite, BlockAddr, Cluster, LocalTransport, OpReport, QuorumStore, StorageBackend, Store,
};

const N: usize = 9;
const K: usize = 6;
const BLOCK_LEN: usize = 64;
const STRIPE: u64 = 1;

fn payload(block: usize, round: u8) -> Vec<u8> {
    vec![(round << 4) | block as u8; BLOCK_LEN]
}

/// The storage calls a cluster's nodes made, summed over the nodes.
#[derive(Debug, Default)]
struct Meter {
    puts: AtomicUsize,
    flushes: AtomicUsize,
}

impl Meter {
    /// `(puts, flushes)` since the last call.
    fn take(&self) -> (usize, usize) {
        let puts = self.puts.swap(0, Ordering::Relaxed);
        (puts, self.flushes.swap(0, Ordering::Relaxed))
    }
}

/// A node's default backend (`MemoryBackend` unless `TQ_NODE_BACKEND`
/// picks the log), its puts and flushes counted on the cluster's
/// [`Meter`]. A flush is the durable-install barrier: on the log it is
/// the `fdatasync`.
#[derive(Debug)]
struct Counted {
    inner: Arc<dyn StorageBackend>,
    meter: Arc<Meter>,
}

impl StorageBackend for Counted {
    fn get(&self, id: BlockId) -> Result<Option<StoredBlock>, StorageError> {
        self.inner.get(id)
    }

    fn put(&self, id: BlockId, block: StoredBlock) -> Result<(), StorageError> {
        self.meter.puts.fetch_add(1, Ordering::Relaxed);
        self.inner.put(id, block)
    }

    fn delete(&self, id: BlockId) -> Result<(), StorageError> {
        self.inner.delete(id)
    }

    fn scan(&self, visit: &mut dyn FnMut(BlockId, &StoredBlock)) -> Result<(), StorageError> {
        self.inner.scan(visit)
    }

    fn flush(&self) -> Result<(), StorageError> {
        self.meter.flushes.fetch_add(1, Ordering::Relaxed);
        self.inner.flush()
    }

    fn clear(&self) -> Result<(), StorageError> {
        self.inner.clear()
    }

    fn label(&self) -> &'static str {
        "counted"
    }
}

/// A provisioned backend on a fresh all-live cluster, and the meter on
/// its nodes' storage (zeroed after provisioning).
fn world(backend: &str) -> (Box<dyn QuorumStore>, Cluster, Arc<Meter>) {
    let replicas = N - K + 1;
    let (nodes, builder) = match backend {
        "trap-erc" => (N, Store::trap_erc(N, K).shape(2, 1, 1).uniform_w(2)),
        "trap-fr" => (replicas, Store::trap_fr(N, K).shape(2, 1, 1).uniform_w(2)),
        "rowa" => (replicas, Store::rowa(replicas)),
        "majority" => (replicas, Store::majority(replicas)),
        other => unreachable!("unknown backend {other}"),
    };
    let meter = Arc::new(Meter::default());
    let cluster = Cluster::with_backends(nodes, |i| {
        Arc::new(Counted {
            inner: default_backend(i),
            meter: Arc::clone(&meter),
        })
    });
    let store = builder
        .transport(LocalTransport::new(cluster.clone()))
        .build()
        .unwrap();
    store
        .create(STRIPE, (0..K).map(|b| payload(b, 0)).collect())
        .unwrap();
    meter.take();
    (store, cluster, meter)
}

/// `(network rounds, messages)` of one operation's report.
fn cost(report: &OpReport) -> (usize, usize) {
    (report.network_rounds(), report.messages())
}

#[test]
fn healthy_ops_cost_what_the_plan_says() {
    // backend, read, write — each `(rounds, messages)` — and the
    // write's storage calls, `(puts, flushes)`. A read stores nothing.
    let pins = [
        // One round: N_i's reply to the level-0 check is the block.
        // A write is that read plus one scatter per level (1 + 3). It
        // installs on N_i and every parity member, 1 + (n − k) = 4 puts,
        // each flushed before its ack. The floor is Σ w_l = 1 + 2 = 3
        // durable installs, a write quorum; the fourth keeps every
        // parity member current.
        ("trap-erc", (1, 1), (3, 5), (4, 4)),
        // The same trapezoid over full replicas, the same bill; floor 3.
        ("trap-fr", (1, 1), (3, 5), (4, 4)),
        // Read one; the embedded read plus write all four, which is
        // also the floor.
        ("rowa", (1, 1), (2, 5), (4, 4)),
        // A majority of 4 is 3 — the first of them asked for the data.
        // The write installs on all four; the floor is a majority, 3.
        ("majority", (1, 3), (2, 7), (4, 4)),
    ];
    for (backend, read, write, stores) in pins {
        let (store, _cluster, meter) = world(backend);
        let addr = BlockAddr::new(STRIPE, 2);
        let out = store.read(addr).unwrap();
        assert_eq!(out.bytes, payload(2, 0), "{backend}");
        assert_eq!(cost(&out.report), read, "{backend}: healthy read");
        assert_eq!(meter.take(), (0, 0), "{backend}: healthy read stores");
        let out = store.write(addr, &payload(2, 1)).unwrap();
        assert_eq!(out.version, 1, "{backend}");
        assert_eq!(cost(&out.report), write, "{backend}: healthy write");
        assert_eq!(meter.take(), stores, "{backend}: healthy write stores");
        // The write left nothing behind that a read pays for.
        let out = store.read(addr).unwrap();
        assert_eq!(out.bytes, payload(2, 1), "{backend}");
        assert_eq!(cost(&out.report), read, "{backend}: read after write");
        assert_eq!(meter.take(), (0, 0), "{backend}: read after write stores");
    }
}

#[test]
fn batches_stay_flat_in_rounds() {
    // backend, rounds of an m-block read, rounds of an m-block write.
    let pins = [
        ("trap-erc", 1, 3),
        ("trap-fr", 1, 3),
        ("rowa", 1, 2),
        ("majority", 1, 2),
    ];
    for (backend, read_rounds, write_rounds) in pins {
        let (store, _cluster, _) = world(backend);
        let addrs: Vec<BlockAddr> = (0..K).map(|b| BlockAddr::new(STRIPE, b)).collect();
        let reads = store.read_batch(&addrs);
        assert!(reads.all_ok(), "{backend}");
        assert_eq!(
            reads.report.network_rounds(),
            read_rounds,
            "{backend}: an m-block read"
        );
        if backend == "trap-erc" {
            // One message per block. (A replication poll has members
            // to spare, and the lazy sequential transport keeps issuing
            // a completed op's calls while its fused siblings gather.)
            assert_eq!(reads.report.messages(), K, "{backend}");
        }
        let payloads: Vec<Vec<u8>> = (0..K).map(|b| payload(b, 1)).collect();
        let items: Vec<BatchWrite> = addrs
            .iter()
            .zip(&payloads)
            .map(|(&addr, p)| BatchWrite::new(addr, p))
            .collect();
        let writes = store.write_batch(&items);
        assert!(writes.all_ok(), "{backend}");
        assert_eq!(
            writes.report.network_rounds(),
            write_rounds,
            "{backend}: an m-block write"
        );
    }
}

#[test]
fn degraded_reads_cost_what_the_plan_says() {
    // TRAP-ERC with the home node down. Round 1, the level-0 check: N_i
    // alone (s_0 = 1), its one refused message — N_i is never asked
    // again. Round 2, Case 2's k-shard poll: level 1's r_1 = 2 pinned
    // parity members, whose columns complete level 1's check and settle
    // the version, plus k − 2 = 4 data shards; the 6 replies decode.
    // The floor is one k-shard fan-out; N_i's refusal is the one extra
    // round and message.
    let (store, cluster, _) = world("trap-erc");
    cluster.kill(2);
    let out = store.read(BlockAddr::new(STRIPE, 2)).unwrap();
    assert!(out.decoded());
    assert_eq!(out.bytes, payload(2, 0));
    assert_eq!(cost(&out.report), (2, 1 + K), "trap-erc: N_i down");

    // The replication backends with their home replica down. At k = 1
    // every check reply from a non-home replica is a whole copy, so a
    // completed check holds what the read serves. TRAP-FR: level 0 is
    // the home replica alone, so the k-shard poll takes r_1 = 2 level-1
    // replicas: 2 rounds, 1 + 2 messages. ROWA: the next replica serves
    // in the same round. Majority: the check runs on to a fourth
    // replica, and its three copies settle and serve the read.
    for (backend, pin) in [("trap-fr", (2, 3)), ("rowa", (1, 2)), ("majority", (1, 4))] {
        let (store, cluster, _) = world(backend);
        cluster.kill(0);
        let out = store.read(BlockAddr::new(STRIPE, 2)).unwrap();
        assert_eq!(out.bytes, payload(2, 0), "{backend}");
        assert_eq!(cost(&out.report), pin, "{backend}: first replica down");
    }
}

#[test]
fn degraded_read_with_a_wide_level_zero_costs_what_the_plan_says() {
    // (15, 8) on the (0, 4, 1) trapezoid: level 0 is N_i and parity
    // 8, 9, 10 (s_0 = 4, r_0 = 2), so it completes without N_i. Round 1:
    // parity 8, then N_0's refusal, then parity 9 — the check is met
    // and the version settled. Round 2, the k-shard poll: the two
    // pinned level-0 parity members and 6 data shards, which decode.
    const K_WIDE: usize = 8;
    let cluster = Cluster::new(15);
    let store = Store::trap_erc(15, K_WIDE)
        .shape(0, 4, 1)
        .uniform_w(2)
        .transport(LocalTransport::new(cluster.clone()))
        .build()
        .unwrap();
    store
        .create(STRIPE, (0..K_WIDE).map(|b| payload(b, 0)).collect())
        .unwrap();
    cluster.kill(0);
    let out = store.read(BlockAddr::new(STRIPE, 0)).unwrap();
    assert!(out.decoded());
    assert_eq!(out.bytes, payload(0, 0));
    assert_eq!(
        cost(&out.report),
        (2, 3 + K_WIDE),
        "trap-erc (15, 8): N_0 down"
    );
}

#[test]
fn degraded_batches_stay_at_two_rounds() {
    // An m-block read across stripes with node 0 down: one fused level-0
    // round (one message per block; every block-0 home refuses), then
    // one fused k-shard poll carrying every block-0 read. Two rounds
    // for any m; k more messages per block the poll decodes.
    let (store, cluster, _) = world("trap-erc");
    for stripe in STRIPE + 1..STRIPE + 3 {
        store
            .create(stripe, (0..K).map(|b| payload(b, 0)).collect())
            .unwrap();
    }
    cluster.kill(0);
    for m in [1, 2, K, 2 * K + 1, 3 * K] {
        let addrs: Vec<BlockAddr> = (0..m)
            .map(|j| BlockAddr::new(STRIPE + (j / K) as u64, j % K))
            .collect();
        let reads = store.read_batch(&addrs);
        assert!(reads.all_ok(), "m = {m}");
        for (addr, out) in addrs.iter().zip(&reads.outcomes) {
            let out = out.as_ref().unwrap();
            assert_eq!(out.bytes, payload(addr.block, 0), "m = {m}");
            assert_eq!(out.decoded(), addr.block == 0, "m = {m}");
        }
        let decoded = addrs.iter().filter(|a| a.block == 0).count();
        assert_eq!(cost(&reads.report), (2, m + K * decoded), "m = {m}");
    }
}

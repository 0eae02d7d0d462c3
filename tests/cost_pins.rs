//! The deterministic cost gate: network rounds and messages per
//! operation, pinned for all four backends on the benchmark's shape —
//! an (9, 6) stripe on the (2, 1, 1) trapezoid with `w_1 = 2`
//! (`r_0 = 1`, `r_1 = 2`), the replication baselines on the `n − k + 1
//! = 4` nodes TRAP-FR uses — plus one TRAP-ERC degraded read on
//! (15, 8) / (0, 4, 1), whose level 0 can complete without `N_i`.
//!
//! On `LocalTransport` these counts are exact and repeat bit for bit,
//! so a plan change that adds a round or a message to any operation
//! fails here, loudly, instead of drifting into the wall-clock numbers
//! (ROADMAP's standing gate). CI runs this file by name before the
//! benchmark smoke.

use trapezoid_quorum::{
    BatchWrite, BlockAddr, Cluster, LocalTransport, OpReport, QuorumStore, Store,
};

const N: usize = 9;
const K: usize = 6;
const BLOCK_LEN: usize = 64;
const STRIPE: u64 = 1;

fn payload(block: usize, round: u8) -> Vec<u8> {
    vec![(round << 4) | block as u8; BLOCK_LEN]
}

/// A provisioned backend on a fresh all-live cluster.
fn world(backend: &str) -> (Box<dyn QuorumStore>, Cluster) {
    let replicas = N - K + 1;
    let (nodes, builder) = match backend {
        "trap-erc" => (N, Store::trap_erc(N, K).shape(2, 1, 1).uniform_w(2)),
        "trap-fr" => (replicas, Store::trap_fr(N, K).shape(2, 1, 1).uniform_w(2)),
        "rowa" => (replicas, Store::rowa(replicas)),
        "majority" => (replicas, Store::majority(replicas)),
        other => unreachable!("unknown backend {other}"),
    };
    let cluster = Cluster::new(nodes);
    let store = builder
        .transport(LocalTransport::new(cluster.clone()))
        .build()
        .unwrap();
    store
        .create(STRIPE, (0..K).map(|b| payload(b, 0)).collect())
        .unwrap();
    (store, cluster)
}

/// `(network rounds, messages)` of one operation's report.
fn cost(report: &OpReport) -> (usize, usize) {
    (report.network_rounds(), report.messages())
}

#[test]
fn healthy_ops_cost_what_the_plan_says() {
    // backend, read, write — each `(rounds, messages)`.
    let pins = [
        // One round: N_i's reply to the level-0 check is the block.
        // A write is that read plus one scatter per level (1 + 3).
        ("trap-erc", (1, 1), (3, 5)),
        // The same trapezoid over full replicas, the same bill.
        ("trap-fr", (1, 1), (3, 5)),
        // Read one; the embedded read plus write all four.
        ("rowa", (1, 1), (2, 5)),
        // A majority of 4 is 3 — the first of them asked for the data.
        ("majority", (1, 3), (2, 7)),
    ];
    for (backend, read, write) in pins {
        let (store, _cluster) = world(backend);
        let addr = BlockAddr::new(STRIPE, 2);
        let out = store.read(addr).unwrap();
        assert_eq!(out.bytes, payload(2, 0), "{backend}");
        assert_eq!(cost(&out.report), read, "{backend}: healthy read");
        let out = store.write(addr, &payload(2, 1)).unwrap();
        assert_eq!(out.version, 1, "{backend}");
        assert_eq!(cost(&out.report), write, "{backend}: healthy write");
        // The write left nothing behind that a read pays for.
        let out = store.read(addr).unwrap();
        assert_eq!(out.bytes, payload(2, 1), "{backend}");
        assert_eq!(cost(&out.report), read, "{backend}: read after write");
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
        let (store, _cluster) = world(backend);
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
    let (store, cluster) = world("trap-erc");
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
        let (store, cluster) = world(backend);
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
    let (store, cluster) = world("trap-erc");
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

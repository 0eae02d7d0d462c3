//! The unified-store contract, enforced across all four protocols: the
//! same create → write_batch → fail-nodes → read_batch → scrub scenario
//! runs over every `Box<dyn QuorumStore>` backend on loopback TCP, and
//! the observable outcomes (bytes, versions, success patterns) must
//! agree — that is what makes the paper's cross-protocol comparison
//! meaningful.
//!
//! The batching acceptance criterion is asserted here too: a batch of m
//! blocks reports *fused* per-level rounds (flat in m), not m
//! independent per-op round sequences.

mod common;

use trapezoid_quorum::cluster::TcpNodeServer;
use trapezoid_quorum::{BatchWrite, BlockAddr, Cluster, QuorumStore, Store};

const K: usize = 8;
const BLOCK_LEN: usize = 64;
const STRIPE: u64 = 1;

/// One backend under test: the servers its transport reaches (first, so
/// they drop last), its name, the store as a trait object, and the
/// cluster handle for fault injection.
type Backend = (
    Vec<TcpNodeServer>,
    &'static str,
    Box<dyn QuorumStore>,
    Cluster,
);

fn backends() -> Vec<Backend> {
    let mut out: Vec<Backend> = Vec::new();
    {
        let cluster = Cluster::new(15);
        let (servers, transport) = common::serve(&cluster);
        let store = Store::trap_erc(15, K)
            .shape(0, 4, 1)
            .uniform_w(2)
            .transport(transport)
            .build()
            .expect("valid trap-erc parameters");
        out.push((servers, "trap-erc", store, cluster));
    }
    {
        let cluster = Cluster::new(15);
        let (servers, transport) = common::serve(&cluster);
        let store = Store::trap_fr(15, K)
            .shape(0, 4, 1)
            .uniform_w(2)
            .transport(transport)
            .build()
            .expect("valid trap-fr parameters");
        out.push((servers, "trap-fr", store, cluster));
    }
    {
        let cluster = Cluster::new(15);
        let (servers, transport) = common::serve(&cluster);
        let store = Store::rowa(15)
            .transport(transport)
            .build()
            .expect("valid rowa parameters");
        out.push((servers, "rowa", store, cluster));
    }
    {
        let cluster = Cluster::new(15);
        let (servers, transport) = common::serve(&cluster);
        let store = Store::majority(15)
            .transport(transport)
            .build()
            .expect("valid majority parameters");
        out.push((servers, "majority", store, cluster));
    }
    out
}

fn payload(block: usize, round: u8) -> Vec<u8> {
    vec![(round << 4) | block as u8; BLOCK_LEN]
}

/// What one backend observed over the scenario: `(bytes, version)` per
/// block, for cross-backend diffing.
type Observations = Vec<(Vec<u8>, u64)>;

/// The full scenario, identical over every backend; returns the
/// `(bytes, version)` observations so the caller can diff backends.
fn run_scenario(name: &str, store: &dyn QuorumStore, cluster: &Cluster) -> Observations {
    let addrs: Vec<BlockAddr> = (0..K).map(|b| BlockAddr::new(STRIPE, b)).collect();

    // Provision k blocks (one real stripe on TRAP-ERC, k replicated
    // objects elsewhere — one namespace either way).
    let initial: Vec<Vec<u8>> = (0..K).map(|b| payload(b, 0)).collect();
    store
        .create(STRIPE, initial)
        .unwrap_or_else(|e| panic!("{name}: create failed: {e}"));

    // Batched write of every block while healthy.
    let payloads: Vec<Vec<u8>> = (0..K).map(|b| payload(b, 1)).collect();
    let items: Vec<BatchWrite> = addrs
        .iter()
        .zip(&payloads)
        .map(|(&addr, p)| BatchWrite::new(addr, p))
        .collect();
    let batch = store.write_batch(&items);
    assert!(
        batch.all_ok(),
        "{name}: healthy write_batch must commit everywhere: {:?}",
        batch.outcomes
    );
    for out in &batch.outcomes {
        assert_eq!(out.as_ref().unwrap().version, 1, "{name}");
    }
    // The fused-rounds criterion: m = 8 blocks, yet the batch bill stays
    // flat — strictly fewer rounds than one per block, with every round
    // marked as carrying several fused ops.
    let rounds = batch.report.network_rounds();
    assert!(
        rounds < K,
        "{name}: write_batch of {K} blocks used {rounds} rounds — not fused"
    );
    assert!(
        batch.report.rounds.iter().any(|r| r.ops == K),
        "{name}: no round carried all {K} ops: {:?}",
        batch.report.rounds
    );
    // ... and a loop of single writes costs strictly more rounds.
    let second: Vec<Vec<u8>> = (0..K).map(|b| payload(b, 2)).collect();
    let mut loop_rounds = 0;
    for (addr, p) in addrs.iter().zip(&second) {
        let out = store
            .write(*addr, p)
            .unwrap_or_else(|e| panic!("{name}: single write failed: {e}"));
        assert_eq!(out.version, 2, "{name}");
        loop_rounds += out.report.network_rounds();
    }
    assert!(
        rounds < loop_rounds,
        "{name}: batch used {rounds} rounds, loop used {loop_rounds}"
    );

    // Fail nodes: a data-carrying node and a high-level one. Every
    // backend must keep serving reads (ROWA by design, Majority with a
    // quorum, the trapezoids per their thresholds; TRAP-ERC decodes
    // block 3).
    cluster.kill(3);
    cluster.kill(12);
    let reads = store.read_batch(&addrs);
    assert!(
        reads.all_ok(),
        "{name}: reads must survive 2 failures: {:?}",
        reads.outcomes
    );
    assert!(
        reads.report.network_rounds() < 2 * K,
        "{name}: read_batch rounds not fused: {}",
        reads.report.network_rounds()
    );
    for (b, out) in reads.outcomes.iter().enumerate() {
        let out = out.as_ref().unwrap();
        assert_eq!(out.bytes, payload(b, 2), "{name}: block {b} stale");
        assert_eq!(out.version, 2, "{name}: block {b} version");
    }

    // Heal and scrub: stale/blank state is refreshed on every node.
    cluster.revive(3);
    cluster.revive(12);
    let scrub = store
        .scrub(STRIPE)
        .unwrap_or_else(|e| panic!("{name}: scrub failed: {e}"));
    assert_eq!(
        scrub.refreshed.len(),
        store.info().nodes,
        "{name}: a healed cluster refreshes every node: {:?}",
        scrub.refreshed
    );
    assert!(scrub.salvaged.is_empty(), "{name}: nothing was poisoned");

    // Post-scrub reads: every backend serves directly again, and writes
    // validate on the full membership (node 12 takes deltas again on
    // TRAP-ERC — the stale-parity trap the scrub exists for).
    let reads = store.read_batch(&addrs);
    assert!(reads.all_ok(), "{name}: post-scrub reads");
    let observations: Vec<(Vec<u8>, u64)> = reads
        .outcomes
        .into_iter()
        .map(|out| {
            let out = out.unwrap();
            assert!(!out.decoded(), "{name}: scrubbed stripe reads directly");
            (out.bytes, out.version)
        })
        .collect();

    let w = store
        .write(BlockAddr::new(STRIPE, 3), &payload(3, 3))
        .unwrap_or_else(|e| panic!("{name}: post-scrub write failed: {e}"));
    assert_eq!(w.version, 3, "{name}");
    observations
}

/// Runs the scenario over all four backends and asserts the observable
/// outcomes agree bit-for-bit.
#[test]
fn all_backends_agree_on_the_scenario() {
    let mut results: Vec<(&'static str, Observations)> = Vec::new();
    for (_servers, name, store, cluster) in backends() {
        results.push((name, run_scenario(name, store.as_ref(), &cluster)));
    }
    let (reference_name, reference) = &results[0];
    for (name, observations) in &results[1..] {
        assert_eq!(
            observations, reference,
            "{name} diverged from {reference_name}"
        );
    }
}

/// Trait-object dispatch details that the scenario doesn't pin down:
/// StoreInfo descriptors and storage-overhead ordering (eq. 14 vs 15).
#[test]
fn store_info_descriptors_are_coherent() {
    for (_servers, name, store, _cluster) in backends() {
        let info = store.info();
        assert_eq!(info.protocol, name);
        assert!(info.nodes >= 1);
        match name {
            "trap-erc" => {
                assert_eq!(info.stripe_width, Some(K));
                assert!(info.erasure_coded);
                assert!((info.storage_overhead - 15.0 / 8.0).abs() < 1e-12);
            }
            "trap-fr" => {
                assert_eq!(info.shape, Some((0, 4, 1)));
                assert!(!info.erasure_coded);
                assert!((info.storage_overhead - 8.0).abs() < 1e-12);
            }
            _ => {
                assert_eq!(info.shape, None);
                assert!((info.storage_overhead - 15.0).abs() < 1e-12);
            }
        }
    }
    // The paper's storage claim, readable straight off the descriptors:
    // ERC < FR < full replication.
    let overheads: Vec<f64> = backends()
        .iter()
        .map(|(_, _, s, _)| s.info().storage_overhead)
        .collect();
    assert!(overheads[0] < overheads[1]);
    assert!(overheads[1] < overheads[2]);
}

/// Invalid addresses error per item on every backend — single ops
/// return `Misconfigured` (never panic), and a mixed batch still serves
/// its valid items.
#[test]
fn out_of_range_blocks_error_per_item() {
    use trapezoid_quorum::ProtocolError;
    for (_servers, name, store, _cluster) in backends() {
        let initial: Vec<Vec<u8>> = (0..K).map(|b| payload(b, 0)).collect();
        store.create(STRIPE, initial).unwrap();
        // Out of range for every backend: past k for TRAP-ERC, past the
        // flattened-namespace slot limit for the replication backends.
        let bad = BlockAddr::new(STRIPE, 1 << 20);
        assert!(
            matches!(store.read(bad), Err(ProtocolError::Misconfigured(_))),
            "{name}: single read must error, not panic"
        );
        assert!(
            matches!(
                store.write(bad, &payload(0, 1)),
                Err(ProtocolError::Misconfigured(_))
            ),
            "{name}: single write must error, not panic"
        );
        // Mixed batch: the invalid item fails alone.
        let good = BlockAddr::new(STRIPE, 0);
        let batch = store.read_batch(&[good, bad]);
        assert_eq!(
            batch.outcomes[0].as_ref().unwrap().bytes,
            payload(0, 0),
            "{name}: valid item must still be served"
        );
        assert!(
            matches!(batch.outcomes[1], Err(ProtocolError::Misconfigured(_))),
            "{name}"
        );
        let p = payload(0, 1);
        let batch = store.write_batch(&[BatchWrite::new(good, &p), BatchWrite::new(bad, &p)]);
        assert_eq!(batch.outcomes[0].as_ref().unwrap().version, 1, "{name}");
        assert!(
            matches!(batch.outcomes[1], Err(ProtocolError::Misconfigured(_))),
            "{name}"
        );
    }
}

/// Batch items fail *individually* — one dead data node fails exactly
/// the blocks that need it, per backend semantics, while the rest of the
/// fused batch commits.
#[test]
fn batch_failures_are_per_item() {
    for (_servers, name, store, cluster) in backends() {
        let initial: Vec<Vec<u8>> = (0..K).map(|b| payload(b, 0)).collect();
        store.create(STRIPE, initial).unwrap();
        cluster.kill(0);
        let payloads: Vec<Vec<u8>> = (0..K).map(|b| payload(b, 1)).collect();
        let items: Vec<BatchWrite> = (0..K)
            .map(|b| BatchWrite::new(BlockAddr::new(STRIPE, b), payloads[b].as_slice()))
            .collect();
        let batch = store.write_batch(&items);
        match name {
            // ROWA: every write needs all replicas — all items fail.
            "rowa" => assert!(
                batch.outcomes.iter().all(|o| o.is_err()),
                "{name}: ROWA writes need every replica"
            ),
            // Majority and TRAP-FR tolerate the failure — all commit.
            "majority" | "trap-fr" => assert!(batch.all_ok(), "{name}"),
            // TRAP-ERC: node 0 carries block 0's data; with w_0 = 3 of
            // {0, 8, 9, 10} still reachable every block commits — but
            // block 0's copy lands only on parity. Reads prove it.
            "trap-erc" => {
                assert!(batch.all_ok(), "{name}");
                let out = store.read(BlockAddr::new(STRIPE, 0)).unwrap();
                assert!(out.decoded(), "{name}: block 0 must decode");
                assert_eq!(out.bytes, payloads[0]);
            }
            other => unreachable!("unknown backend {other}"),
        }
    }
}

/// What `node` stores for `addr`, read straight off the node: a replica
/// may hold the block as data or as a parity block of a one-block stripe
/// (whose every version vector has one entry).
fn stored_on(cluster: &Cluster, node: usize, addr: BlockAddr) -> (Vec<u8>, u64) {
    use trapezoid_quorum::cluster::{Envelope, NodeApi, Request, Response};
    use trapezoid_quorum::protocol::store::OBJECTS_PER_STRIPE;
    let id = addr.stripe * OBJECTS_PER_STRIPE + addr.block as u64;
    let ask = |req| cluster.node(node).execute(Envelope::new(req)).result;
    match ask(Request::ReadData { id }) {
        Ok(Response::Data { bytes, version, .. }) => (bytes.to_vec(), version),
        _ => match ask(Request::ReadParity { id }) {
            Ok(Response::Parity {
                bytes, versions, ..
            }) if versions.len() == 1 => (bytes.to_vec(), versions[0]),
            other => panic!("node {node} holds no replica of {addr:?}: {other:?}"),
        },
    }
}

/// History across writes: a replica that is down for one write and up
/// for the next takes the next one — bytes and version — on every
/// replication backend. (A TRAP-ERC parity node that missed a write
/// refuses later deltas until a scrub; replicas must not.)
#[test]
fn a_replica_that_missed_a_write_takes_the_next() {
    const REPLICA: usize = 5;
    for (_servers, name, store, cluster) in backends() {
        if name == "trap-erc" {
            continue;
        }
        let addr = BlockAddr::new(STRIPE, 2);
        let initial: Vec<Vec<u8>> = (0..K).map(|b| payload(b, 0)).collect();
        store.create(STRIPE, initial).unwrap();
        cluster.kill(REPLICA);
        let first = store.write(addr, &payload(2, 1));
        // ROWA needs every replica, so its first write fails (leaving
        // residue on the live ones); the quorum backends commit.
        assert_eq!(first.is_ok(), name != "rowa", "{name}: {first:?}");
        cluster.revive(REPLICA);
        let second = store
            .write(addr, &payload(2, 2))
            .unwrap_or_else(|e| panic!("{name}: second write failed: {e}"));
        assert!(second.validated.contains(&REPLICA), "{name}: {second:?}");
        assert_eq!(
            stored_on(&cluster, REPLICA, addr),
            (payload(2, 2), second.version),
            "{name}: the replica holds the second write"
        );
    }
}

/// Majority on an even replica count reads from ⌊m/2⌋ + 1 replicas, not
/// from the m − w + 1 a trapezoid level would ask.
#[test]
fn majority_on_four_replicas_reads_with_a_quorum_of_three() {
    use trapezoid_quorum::LocalTransport;
    let cluster = Cluster::new(4);
    let store = Store::majority(4)
        .transport(LocalTransport::new(cluster.clone()))
        .build()
        .unwrap();
    store.create(STRIPE, vec![payload(0, 0)]).unwrap();
    let addr = BlockAddr::new(STRIPE, 0);
    let out = store.read(addr).unwrap();
    assert_eq!(out.report.messages(), 3, "a healthy read asks three");
    cluster.kill(2);
    assert!(store.read(addr).is_ok(), "three of four answer");
    cluster.kill(3);
    assert!(store.read(addr).is_err(), "two of four are no quorum");
}

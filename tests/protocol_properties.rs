//! Protocol-level property tests: random workloads against a shadow
//! model, with bounded random fail-stop churn.
//!
//! These close the loop the unit tests cannot: arbitrary interleavings of
//! writes, reads, failures, revivals, scrubs and rebuilds, always checked
//! against an in-memory oracle. Failures are kept within the code's
//! tolerance (≤ n − k simultaneous) between scrub points.
//!
//! The oracle allows exactly three sources for any byte a read returns:
//! the initial content, a committed write, or the residue of a failed
//! write (Algorithm 1 has no rollback). A scrub may additionally
//! *salvage* a poisoned block — a failed write whose residue version is
//! visible but unrecoverable — by rolling it back to the newest
//! recoverable value; the settled value must still be one of the above.

use std::collections::BTreeSet;

use proptest::prelude::*;
use trapezoid_quorum::quorum::trapezoid::{TrapezoidShape, WriteThresholds};
use trapezoid_quorum::{Cluster, LocalTransport, ProtocolConfig, ProtocolError, TrapErcClient};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
enum Op {
    Write { block: usize, seed: u8 },
    Read { block: usize },
    Kill { node: usize },
    ReviveAllAndScrub,
    Replace { node: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<usize>(), any::<u8>()).prop_map(|(b, seed)| Op::Write { block: b % 8, seed }),
        3 => any::<usize>().prop_map(|b| Op::Read { block: b % 8 }),
        2 => any::<usize>().prop_map(|n| Op::Kill { node: n % 15 }),
        1 => Just(Op::ReviveAllAndScrub),
        1 => any::<usize>().prop_map(|n| Op::Replace { node: n % 15 }),
    ]
}

const BLOCK_LEN: usize = 32;

/// Shadow model: per block, the set of currently-plausible values plus
/// the set of every value that was ever written (for salvage checking).
struct Oracle {
    plausible: Vec<Vec<Vec<u8>>>,
    ever: Vec<Vec<Vec<u8>>>,
}

impl Oracle {
    fn new(initial: &[Vec<u8>]) -> Self {
        Oracle {
            plausible: initial.iter().map(|b| vec![b.clone()]).collect(),
            ever: initial.iter().map(|b| vec![b.clone()]).collect(),
        }
    }
    fn record_ever(&mut self, block: usize, value: &[u8]) {
        if !self.ever[block].iter().any(|v| v == value) {
            self.ever[block].push(value.to_vec());
        }
    }
    fn committed(&mut self, block: usize, value: Vec<u8>) {
        self.record_ever(block, &value);
        self.plausible[block] = vec![value];
    }
    fn residue(&mut self, block: usize, value: Vec<u8>) {
        self.record_ever(block, &value);
        self.plausible[block].push(value);
    }
    fn plausible_now(&self, block: usize, value: &[u8]) -> bool {
        self.plausible[block].iter().any(|v| v == value)
    }
    fn ever_written(&self, block: usize, value: &[u8]) -> bool {
        self.ever[block].iter().any(|v| v == value)
    }
    /// A scrub settled the block on `value` (possibly a salvage
    /// rollback): it becomes the single plausible value.
    fn settled(&mut self, block: usize, value: Vec<u8>) {
        self.plausible[block] = vec![value];
    }
}

/// Reads every block after a scrub, asserting the settled values were
/// ever written, and collapses the oracle onto them.
fn audit_after_scrub(
    client: &TrapErcClient<LocalTransport>,
    oracle: &mut Oracle,
    salvaged: &[usize],
) -> Result<(), TestCaseError> {
    for block in 0..8 {
        let out = client
            .read_block(1, block)
            .expect("scrubbed stripe readable");
        if salvaged.contains(&block) {
            prop_assert!(
                oracle.ever_written(block, &out.bytes),
                "salvaged block {block} settled on a never-written value"
            );
        } else {
            prop_assert!(
                oracle.plausible_now(block, &out.bytes),
                "block {block} settled on an implausible value"
            );
        }
        oracle.settled(block, out.bytes);
    }
    Ok(())
}

/// Strategy over valid trapezoid shapes `(a, b, h)` paired with a legal
/// per-level write-threshold vector (level 0 at or above its majority,
/// every other level in `1..=s_l`) and a seed for quorum sampling.
fn shape_and_thresholds() -> impl Strategy<Value = (TrapezoidShape, Vec<usize>, u64)> {
    (
        0usize..=3,
        1usize..=6,
        0usize..=3,
        any::<u64>(),
        any::<u64>(),
    )
        .prop_filter_map("valid trapezoid", |(a, b, h, wseed, qseed)| {
            let shape = TrapezoidShape::new(a, b, h).ok()?;
            let mut rng = StdRng::seed_from_u64(wseed);
            let w: Vec<usize> = (0..=h)
                .map(|l| {
                    let s = shape.level_size(l);
                    if l == 0 {
                        rng.random_range(b / 2 + 1..=s)
                    } else {
                        rng.random_range(1..=s)
                    }
                })
                .collect();
            Some((shape, w, qseed))
        })
}

/// Draws `count` distinct positions from level `l` of the shape.
fn sample_level_members(
    shape: &TrapezoidShape,
    l: usize,
    count: usize,
    rng: &mut StdRng,
) -> BTreeSet<usize> {
    let mut pool: Vec<usize> = shape.level_range(l).collect();
    for i in 0..count {
        let j = rng.random_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool.into_iter().collect()
}

/// One write quorum: `w_l` arbitrary members from *every* level.
fn sample_write_quorum(
    shape: &TrapezoidShape,
    thresholds: &WriteThresholds,
    rng: &mut StdRng,
) -> BTreeSet<usize> {
    let mut q = BTreeSet::new();
    for l in 0..=shape.h() {
        q.extend(sample_level_members(
            shape,
            l,
            thresholds.write_threshold(l),
            rng,
        ));
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 200,
        .. ProptestConfig::default()
    })]

    /// Safety: every read returns a value that was written to that block
    /// (committed or residue) — never garbage, never another block's
    /// bytes, never a mix — and scrubs settle only on ever-written values.
    #[test]
    fn reads_return_only_written_values(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let config = ProtocolConfig::with_uniform_w(15, 8, 0, 4, 1, 2).unwrap();
        let cluster = Cluster::new(15);
        let client = TrapErcClient::new(config, LocalTransport::new(cluster.clone())).unwrap();
        let initial: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; BLOCK_LEN]).collect();
        client.create_stripe(1, initial.clone()).unwrap();
        let mut oracle = Oracle::new(&initial);
        let mut down = 0usize;

        for op in ops {
            match op {
                Op::Write { block, seed } => {
                    let payload: Vec<u8> = (0..BLOCK_LEN).map(|b| seed.wrapping_add(b as u8)).collect();
                    match client.write_block(1, block, &payload) {
                        Ok(_) => oracle.committed(block, payload),
                        Err(ProtocolError::WriteQuorumNotMet { .. }) => oracle.residue(block, payload),
                        Err(ProtocolError::OldValueUnreadable(_)) => {}
                        Err(e) => prop_assert!(false, "unexpected write error {e}"),
                    }
                }
                Op::Read { block } => {
                    if let Ok(out) = client.read_block(1, block) {
                        prop_assert!(
                            oracle.plausible_now(block, &out.bytes),
                            "block {block} returned a never-written value"
                        );
                    }
                }
                Op::Kill { node } => {
                    // Keep simultaneous failures within n - k = 7.
                    if down < 7 && cluster.node(node).is_up() {
                        cluster.kill(node);
                        down += 1;
                    }
                }
                Op::ReviveAllAndScrub => {
                    for n in 0..15 {
                        cluster.revive(n);
                    }
                    down = 0;
                    let report = client.scrub_stripe(1).unwrap();
                    audit_after_scrub(&client, &mut oracle, &report.salvaged)?;
                }
                Op::Replace { node } => {
                    // Replacement only when the cluster is healthy enough
                    // to rebuild (otherwise it is just a kill).
                    if down == 0 {
                        cluster.replace(node);
                        if client.rebuild_node(1, node).is_err() {
                            // Not rebuildable right now: count as down.
                            cluster.kill(node);
                            down += 1;
                        }
                    }
                }
            }
        }

        // Final: heal everything; the scrub must leave every block
        // readable at an ever-written value (salvaging if poisoned).
        for n in 0..15 {
            cluster.revive(n);
        }
        let report = client.scrub_stripe(1).unwrap();
        audit_after_scrub(&client, &mut oracle, &report.salvaged)?;
    }

    /// Durability: a committed write is immediately readable and survives
    /// any single later failure plus recovery — salvage never rolls back
    /// a *committed* write in this regime.
    #[test]
    fn committed_writes_are_durable(
        block in 0usize..8,
        seed in any::<u8>(),
        killer in any::<usize>(),
    ) {
        let config = ProtocolConfig::with_uniform_w(15, 8, 0, 4, 1, 2).unwrap();
        let cluster = Cluster::new(15);
        let client = TrapErcClient::new(config, LocalTransport::new(cluster.clone())).unwrap();
        client.create_stripe(1, (0..8).map(|i| vec![i as u8; BLOCK_LEN]).collect()).unwrap();

        let payload: Vec<u8> = (0..BLOCK_LEN).map(|b| seed.wrapping_mul(b as u8 | 1)).collect();
        client.write_block(1, block, &payload).unwrap();

        // Any single node dies — commits must stay readable.
        cluster.kill(killer % 15);
        let out = client.read_block(1, block).unwrap();
        prop_assert_eq!(&out.bytes, &payload);

        // Heal and scrub: still the same value, now direct, no salvage.
        cluster.revive(killer % 15);
        let report = client.scrub_stripe(1).unwrap();
        prop_assert!(report.salvaged.is_empty());
        let out = client.read_block(1, block).unwrap();
        prop_assert_eq!(&out.bytes, &payload);
    }

    /// Structure: on *every* generated shape and threshold vector, the
    /// derived read thresholds satisfy `r_l + w_l = s_l + 1` per level —
    /// the eq. 6/7 identity that forces read/write intersection.
    #[test]
    fn generated_shapes_satisfy_threshold_identities((shape, w, _qseed) in shape_and_thresholds()) {
        let thresholds = WriteThresholds::new(&shape, w.clone());
        prop_assert!(thresholds.is_ok(), "legal vector rejected: {w:?} on {shape}");
        let thresholds = thresholds.unwrap();
        prop_assert!(thresholds.write_threshold(0) > shape.level_size(0) / 2);
        for l in 0..=shape.h() {
            let (s, wl) = (shape.level_size(l), thresholds.write_threshold(l));
            let rl = thresholds.read_threshold(&shape, l);
            prop_assert_eq!(rl + wl, s + 1, "level {l} of {shape}");
            prop_assert!((1..=s).contains(&wl));
            prop_assert!((1..=s).contains(&rl));
        }
    }

    /// Witness: sampled quorums on every generated shape really do
    /// intersect — any two write quorums share a level-0 member, and a
    /// read quorum of *any* level meets every write quorum on that
    /// level. This is the property the version-check correctness of
    /// Algorithms 1/2 rests on.
    #[test]
    fn generated_shapes_guarantee_quorum_intersection((shape, w, qseed) in shape_and_thresholds()) {
        let thresholds = WriteThresholds::new(&shape, w).unwrap();
        let mut rng = StdRng::seed_from_u64(qseed);
        let wq1 = sample_write_quorum(&shape, &thresholds, &mut rng);
        let wq2 = sample_write_quorum(&shape, &thresholds, &mut rng);
        let level0: BTreeSet<usize> = shape.level_range(0).collect();
        prop_assert!(
            wq1.intersection(&wq2).any(|m| level0.contains(m)),
            "write quorums missed each other on level 0 of {shape}"
        );
        for l in 0..=shape.h() {
            let rl = thresholds.read_threshold(&shape, l);
            let rq = sample_level_members(&shape, l, rl, &mut rng);
            for wq in [&wq1, &wq2] {
                prop_assert!(
                    rq.intersection(wq).next().is_some(),
                    "read level {l} missed a write quorum on {shape}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// One protocol path: a single op is a batch of one.
// ---------------------------------------------------------------------

mod single_is_batch_of_one {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use trapezoid_quorum::cluster::storage::StoredBlock;
    use trapezoid_quorum::{BatchWrite, BlockAddr, Cluster, LocalTransport, QuorumStore, Store};

    const K: usize = 8;
    const LEN: usize = 32;
    const STRIPE: u64 = 1;
    const SEEDS: u64 = 32;
    const BACKENDS: [&str; 4] = ["trap-erc", "trap-fr", "rowa", "majority"];

    fn payload(block: usize, tag: u8) -> Vec<u8> {
        (0..LEN)
            .map(|b| tag.wrapping_mul(29) ^ (block * 13 + b) as u8)
            .collect()
    }

    /// Flips one bit of `node`'s stored copy of `id` behind its back,
    /// version and cross-checksum vector intact. With `forge` the
    /// self-check is re-stamped over the flipped bytes, so the node
    /// serves them and only a client-side check can object; otherwise
    /// the stale stamp stays (a latent media error the node refuses to
    /// serve). No-op if not stored.
    fn tamper(cluster: &Cluster, node: usize, id: u64, forge: bool) {
        let backend = cluster.node(node).backend();
        let flip = |bytes: &bytes::Bytes| {
            let mut b = bytes.to_vec();
            b[0] ^= 0x40;
            bytes::Bytes::from(b)
        };
        let Some(block) = backend.get(id).unwrap() else {
            return;
        };
        let (StoredBlock::Data { check: stale, .. } | StoredBlock::Parity { check: stale, .. }) =
            block;
        let mut tampered = match block {
            StoredBlock::Data { version, bytes, .. } => {
                StoredBlock::new_data(version, flip(&bytes))
            }
            StoredBlock::Parity {
                versions,
                bytes,
                checks,
                ..
            } => StoredBlock::new_parity(versions, flip(&bytes), checks),
        };
        if !forge {
            let (StoredBlock::Data { check, .. } | StoredBlock::Parity { check, .. }) =
                &mut tampered;
            *check = stale;
        }
        backend.put(id, tampered).unwrap();
    }

    /// A provisioned backend driven into a seeded degraded state: writes
    /// that some nodes miss (stale replicas, residue), bit rot on stored
    /// copies (forged stamps on odd seeds, stale on even, so both
    /// detection sites are exercised), then a fail-stop pattern. Fully
    /// determined by `(backend, seed)` — two calls build twins.
    fn world(backend: &str, seed: u64) -> (Box<dyn QuorumStore>, Cluster) {
        let nodes = match backend {
            "trap-erc" => 15,
            "trap-fr" => 8,
            _ => 5,
        };
        let cluster = Cluster::new(nodes);
        let transport = LocalTransport::new(cluster.clone());
        let builder = match backend {
            "trap-erc" => Store::trap_erc(15, K).shape(0, 4, 1).uniform_w(2),
            "trap-fr" => Store::trap_fr(15, K).shape(0, 4, 1).uniform_w(2),
            "rowa" => Store::rowa(nodes),
            "majority" => Store::majority(nodes),
            other => unreachable!("unknown backend {other}"),
        };
        let store = builder.transport(transport).build().unwrap();
        store
            .create(STRIPE, (0..K).map(|b| payload(b, 0)).collect())
            .unwrap();

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        for round in 1..=3u8 {
            for node in 0..nodes {
                if rng.random_bool(0.2) {
                    cluster.kill(node);
                }
            }
            let block = rng.random_range(0..K);
            let _ = store.write(BlockAddr::new(STRIPE, block), &payload(block, round));
            for node in 0..nodes {
                cluster.revive(node);
            }
        }
        for _ in 0..rng.random_range(0..4usize) {
            let node = rng.random_range(0..nodes);
            let id = if backend == "trap-erc" {
                STRIPE
            } else {
                STRIPE * trapezoid_quorum::protocol::store::OBJECTS_PER_STRIPE
                    + rng.random_range(0..K) as u64
            };
            tamper(&cluster, node, id, !seed.is_multiple_of(2));
        }
        for node in 0..nodes {
            if rng.random_bool(0.2) {
                cluster.kill(node);
            }
        }
        (store, cluster)
    }

    /// `read(a)` ≡ `read_batch(&[a]).outcomes[0]`: same bytes, version and
    /// path, same error (down to the nodes an `Integrity` verdict names),
    /// and the same rounds entry by entry.
    #[test]
    fn single_read_equals_read_batch_of_one_on_every_backend() {
        for backend in BACKENDS {
            for seed in 0..SEEDS {
                let (store, _cluster) = world(backend, seed);
                for block in 0..K {
                    let addr = BlockAddr::new(STRIPE, block);
                    let ctx = format!("{backend} seed {seed} block {block}");
                    let single = store.read(addr);
                    let mut batch = store.read_batch(&[addr]);
                    match (single, batch.outcomes.remove(0)) {
                        (Ok(single), Ok(batched)) => {
                            assert_eq!(single.bytes, batched.bytes, "{ctx}");
                            assert_eq!(single.version, batched.version, "{ctx}");
                            assert_eq!(single.path, batched.path, "{ctx}");
                            assert_eq!(single.report.rounds, batch.report.rounds, "{ctx}");
                        }
                        (single, batched) => assert_eq!(
                            single.map(|o| o.version).unwrap_err(),
                            batched.map(|o| o.version).unwrap_err(),
                            "{ctx}"
                        ),
                    }
                }
            }
        }
    }

    /// `write(a, x)` ≡ `write_batch(&[(a, x)])` on twin worlds: same
    /// version, validated set and rounds (or the same error), and the
    /// same state left behind — residue of a failed write included.
    #[test]
    fn single_write_equals_write_batch_of_one_on_every_backend() {
        for backend in BACKENDS {
            for seed in 0..SEEDS {
                let block = seed as usize % K;
                let addr = BlockAddr::new(STRIPE, block);
                let new = payload(block, 0xF0);
                let ctx = format!("{backend} seed {seed} block {block}");
                let (a, _cluster_a) = world(backend, seed);
                let (b, _cluster_b) = world(backend, seed);
                let single = a.write(addr, &new);
                let mut batch = b.write_batch(&[BatchWrite::new(addr, &new)]);
                match (single, batch.outcomes.remove(0)) {
                    (Ok(single), Ok(batched)) => {
                        assert_eq!(single.version, batched.version, "{ctx}");
                        assert_eq!(single.validated, batched.validated, "{ctx}");
                        assert_eq!(single.report.rounds, batch.report.rounds, "{ctx}");
                    }
                    (single, batched) => assert_eq!(
                        single.map(|o| o.version).unwrap_err(),
                        batched.map(|o| o.version).unwrap_err(),
                        "{ctx}"
                    ),
                }
                for probe in 0..K {
                    let probe = BlockAddr::new(STRIPE, probe);
                    assert_eq!(a.read(probe), b.read(probe), "{ctx}: state after");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// One round per healthy read: the level check asks N_i for the block.
// ---------------------------------------------------------------------

/// On a concurrent transport a level's first-quorum completion can
/// abandon `N_i`'s reply: with `s_0 = 4`, `r_0 = 2` and a slow home
/// node, two parity members complete the check first. The block then
/// takes the fallback `N_i` fetch — one more round — and the read is
/// the one a sequential transport (whose check always hears `N_i`)
/// returns in a single round.
#[test]
fn abandoned_home_reply_falls_back_to_the_fetch_stage() {
    use trapezoid_quorum::cluster::{NetworkModel, SimTransport};
    use trapezoid_quorum::protocol::ReadPath;

    const D: u64 = 1_000;
    let config = || ProtocolConfig::with_uniform_w(15, 8, 0, 4, 1, 2).unwrap();
    let data: Vec<Vec<u8>> = (0..8).map(|i| vec![0x30 | i as u8; BLOCK_LEN]).collect();
    let new = vec![0xE7; BLOCK_LEN];

    let local = TrapErcClient::new(config(), LocalTransport::new(Cluster::new(15))).unwrap();
    let cluster = Cluster::new(15);
    let model = NetworkModel {
        min_delay: D,
        max_delay: D,
        ..NetworkModel::reliable()
    };
    let slow = TrapErcClient::new(
        config(),
        SimTransport::with_model(cluster.clone(), 1, model),
    )
    .unwrap();
    local.create_stripe(1, data.clone()).unwrap();
    slow.create_stripe(1, data).unwrap();
    local.write_block(1, 0, &new).unwrap();
    slow.write_block(1, 0, &new).unwrap();
    // N_0 now answers long after every parity member has.
    slow.transport().set_link_delay(0, Some((20 * D, 20 * D)));

    let before = cluster.node(0).io_snapshot();
    let start = slow.transport().now();
    let fell_back = slow.read_block(1, 0).unwrap();
    let elapsed = slow.transport().now() - start;
    let direct = local.read_block(1, 0).unwrap();
    assert_eq!(direct.report.network_rounds(), 1);
    assert_eq!(
        fell_back.report.network_rounds(),
        2,
        "level-0 check (N_0 abandoned) + fallback fetch"
    );
    assert_eq!(fell_back.path, ReadPath::Direct);
    assert_eq!(
        (&fell_back.bytes, fell_back.version, &fell_back.path),
        (&direct.bytes, direct.version, &direct.path)
    );
    assert_eq!(fell_back.bytes, new);
    // The check ended at the parity members' round trip; the fetch
    // waited out N_0's.
    assert_eq!(elapsed, 2 * D + 2 * 20 * D);
    // The abandoned request died in flight with its round (the
    // simulator's links deliver within the round or not at all), so the
    // fetch is the one read N_0 served.
    assert_eq!(cluster.node(0).io_snapshot().since(&before).reads, 1);
}

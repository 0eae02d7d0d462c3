//! Engine-level concurrency tests: the scatter-gather quorum rounds
//! under a truly concurrent transport, with fault injection.
//!
//! The unit tests pin the engine's semantics on `LocalTransport` (where
//! dispatch is deterministic); these tests close the remaining gap —
//! many protocol threads interleaving on one `ChannelTransport`, nodes
//! crashing and reviving mid-traffic, and rounds that must complete
//! despite dead or slow members.

use std::sync::Arc;
use std::time::{Duration, Instant};

use trapezoid_quorum::cluster::ChannelTransport;
use trapezoid_quorum::protocol::StripeLockManager;
use trapezoid_quorum::{Cluster, ProtocolConfig, TrapErcClient};

const BLOCK_LEN: usize = 64;

fn config_15_8() -> ProtocolConfig {
    ProtocolConfig::with_uniform_w(15, 8, 0, 4, 1, 2).unwrap()
}

fn blocks(k: usize, len: usize, seed: u8) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| {
            (0..len)
                .map(|b| seed.wrapping_mul(31) ^ (i * 41 + b * 7) as u8)
                .collect()
        })
        .collect()
}

/// Concurrent interleaved writes to *different blocks of one stripe*
/// through the concurrent transport: every write fans out over the
/// block's trapezoid, parity nodes serve folds for all blocks at once,
/// and per-block version guards keep the stripe consistent.
#[test]
fn concurrent_interleaved_writes_to_one_stripe() {
    const WRITERS: usize = 4;
    const ROUNDS: u64 = 12;

    let cluster = Cluster::new(15);
    let transport = Arc::new(ChannelTransport::new(cluster.clone()));
    let client = Arc::new(TrapErcClient::new(config_15_8(), transport).unwrap());
    client.create_stripe(1, blocks(8, BLOCK_LEN, 1)).unwrap();

    let handles: Vec<_> = (0..WRITERS)
        .map(|writer| {
            let client = Arc::clone(&client);
            std::thread::spawn(move || {
                // Writer w owns blocks w and w + 4: disjoint write sets,
                // shared parity nodes.
                for round in 1..=ROUNDS {
                    for &block in &[writer, writer + 4] {
                        let payload = vec![(writer as u8) << 4 | round as u8; BLOCK_LEN];
                        let out = client.write_block(1, block, &payload).unwrap();
                        assert_eq!(out.version, round, "writer {writer} block {block}");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Every block settles on its writer's final payload at the final
    // version, and the decode path agrees with the direct path.
    for block in 0..8 {
        let writer = (block % 4) as u8;
        let expect = vec![writer << 4 | ROUNDS as u8; BLOCK_LEN];
        let direct = client.read_block(1, block).unwrap();
        assert_eq!(direct.version, ROUNDS);
        assert_eq!(direct.bytes, expect, "block {block} direct");
        cluster.kill(block);
        let decoded = client.read_block(1, block).unwrap();
        assert_eq!(decoded.bytes, expect, "block {block} decoded");
        assert!(decoded.decoded());
        cluster.revive(block);
    }
}

/// Write-write races on the *same block* are outside the paper's scope
/// (§I defers to "classical ways"); under the lock manager the engine's
/// concurrent rounds must still serialise cleanly.
#[test]
fn locked_same_block_writers_serialise_over_channel_transport() {
    const WRITERS: usize = 6;
    const PER_WRITER: usize = 8;

    let cluster = Cluster::new(15);
    let transport = Arc::new(ChannelTransport::new(cluster));
    let client = Arc::new(TrapErcClient::new(config_15_8(), transport).unwrap());
    client.create_stripe(1, blocks(8, BLOCK_LEN, 2)).unwrap();
    let locks = StripeLockManager::new();

    let handles: Vec<_> = (0..WRITERS)
        .map(|writer| {
            let client = Arc::clone(&client);
            let locks = Arc::clone(&locks);
            std::thread::spawn(move || {
                for round in 0..PER_WRITER {
                    let payload = vec![(writer * 16 + round) as u8; BLOCK_LEN];
                    client.write_block_locked(&locks, 1, 3, &payload).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let out = client.read_block(1, 3).unwrap();
    assert_eq!(
        out.version,
        (WRITERS * PER_WRITER) as u64,
        "every write got a distinct serialised version"
    );
    assert!(
        out.bytes.windows(2).all(|w| w[0] == w[1]),
        "no torn write: a single writer's payload survived"
    );
    assert_eq!(locks.held_count(), 0);
}

/// A crashed node inside a level must not stall a round that can still
/// reach `w_l`: every member (the dead one included — workers apply the
/// injected service delay before answering `Down`) costs one delay, so
/// both the version-check round (first-quorum) and the write round
/// (await-all) complete on the fan-out timescale of ~one delay per
/// level, far under the sequential sum over members.
#[test]
fn crashed_node_does_not_stall_reachable_quorum() {
    // Generous margins against the *sequential* cost so a loaded CI
    // runner cannot flake the test: a sequential walk of the write costs
    // 8 member-delays (200ms) and the structural asserts are primary.
    let delay = Duration::from_millis(25);
    let cluster = Cluster::new(15);
    let transport = Arc::new(ChannelTransport::with_latency(
        cluster.clone(),
        &vec![delay; 15],
    ));
    let client = TrapErcClient::new(config_15_8(), Arc::clone(&transport)).unwrap();
    client.create_stripe(1, blocks(8, BLOCK_LEN, 3)).unwrap();

    // Parity node 9 sits in level 0 of block 0's trapezoid ({0, 8, 9,
    // 10}) and in every other block's level 0 too. Kill it.
    cluster.kill(9);

    // Writes still reach w_0 = 3 of {0, 8, 10} and w_1 = 2 of {11..14};
    // await-all costs ~1 round trip per level, NOT the sum over members
    // and NOT a timeout on the dead node.
    let start = Instant::now();
    let w = client.write_block_with_hint(1, 0, &[7u8; BLOCK_LEN], &blocks(8, BLOCK_LEN, 3)[0], 0);
    let write_elapsed = start.elapsed();
    let w = w.unwrap();
    assert!(!w.validated.contains(&9));
    assert_eq!(w.validated.len(), 7, "all live members validated");
    assert!(
        write_elapsed < delay * 6,
        "write stalled: {write_elapsed:?} for 2 levels of {delay:?} nodes"
    );

    // Reads: the version check needs r_0 = 2 answers; the dead node's
    // `Down` (after its one service delay, like any member) must not
    // block completion either.
    let start = Instant::now();
    let r = client.read_block(1, 0).unwrap();
    let read_elapsed = start.elapsed();
    assert_eq!(r.version, 1);
    assert_eq!(r.bytes, vec![7u8; BLOCK_LEN]);
    assert!(
        read_elapsed < delay * 8,
        "read stalled: {read_elapsed:?} with one dead level-0 member"
    );
}

/// Fault churn during concurrent traffic: parity nodes crash and revive
/// while writers hammer the stripe. Writes may fail (no quorum at that
/// moment) but must never stall, and after healing + scrub every block
/// reads back a value some writer actually wrote.
#[test]
fn fault_churn_under_concurrent_writes_settles_clean() {
    const WRITERS: usize = 4;
    const ROUNDS: usize = 10;

    let cluster = Cluster::new(15);
    let transport = Arc::new(ChannelTransport::new(cluster.clone()));
    let client = Arc::new(TrapErcClient::new(config_15_8(), transport).unwrap());
    let initial = blocks(8, BLOCK_LEN, 4);
    client.create_stripe(1, initial.clone()).unwrap();

    let chaos_cluster = cluster.clone();
    let chaos = std::thread::spawn(move || {
        // Bounded churn: at most two parity nodes down at once, well
        // within the (15, 8) code's n − k = 7 tolerance.
        for round in 0..24usize {
            let a = 8 + round % 7;
            let b = 8 + (round + 3) % 7;
            chaos_cluster.kill(a);
            chaos_cluster.kill(b);
            std::thread::sleep(Duration::from_millis(2));
            chaos_cluster.revive(a);
            chaos_cluster.revive(b);
        }
    });

    let handles: Vec<_> = (0..WRITERS)
        .map(|writer| {
            let client = Arc::clone(&client);
            std::thread::spawn(move || {
                let mut committed = Vec::new();
                for round in 0..ROUNDS {
                    for &block in &[writer, writer + 4] {
                        let payload = vec![(writer * 32 + round + 1) as u8; BLOCK_LEN];
                        // Failures are legitimate under churn; committed
                        // writes are remembered for the audit.
                        if client.write_block(1, block, &payload).is_ok() {
                            committed.push((block, payload));
                        }
                    }
                }
                committed
            })
        })
        .collect();
    let mut committed: Vec<(usize, Vec<u8>)> = Vec::new();
    for h in handles {
        committed.extend(h.join().unwrap());
    }
    chaos.join().unwrap();

    // Heal, scrub, audit: every block settles on its initial content, a
    // committed write, or (failed-write residue) any value that writer
    // attempted — never garbage.
    for n in 0..15 {
        cluster.revive(n);
    }
    client.scrub_stripe(1).unwrap();
    for (block, created) in initial.iter().enumerate() {
        let out = client.read_block(1, block).unwrap();
        let writer = block % 4;
        let mut attempted =
            (0..ROUNDS).map(|round| vec![(writer * 32 + round + 1) as u8; BLOCK_LEN]);
        let plausible = out.bytes == *created || attempted.any(|p| p == out.bytes);
        assert!(
            plausible,
            "block {block} settled on a never-written value: {:?}",
            &out.bytes[..4]
        );
    }
}

/// The armed-hedge completion rule is chosen in one place for every
/// write path: with a hedge policy armed, a `write_batch` of one
/// completes each level on its `w_l`-th ack and abandons a 30× slower
/// member exactly as `write` does, instead of awaiting it.
#[test]
fn hedged_batch_write_abandons_the_straggler_like_a_single_write() {
    use trapezoid_quorum::cluster::HedgePolicy;
    use trapezoid_quorum::{BatchWrite, BlockAddr};

    // Node 14 sits in level 1 = {11, 12, 13, 14} (w_1 = 2) of every
    // block's trapezoid and is on no read path of a healthy stripe.
    let base = Duration::from_millis(2);
    let mut latency = vec![base; 15];
    latency[14] = base * 30;
    let transport = ChannelTransport::with_latency(Cluster::new(15), &latency);
    transport.health_registry().set_policy(HedgePolicy::P99);
    let client = TrapErcClient::new(config_15_8(), transport).unwrap();
    client.create_stripe(1, blocks(8, BLOCK_LEN, 5)).unwrap();

    let single = client.write_block(1, 0, &[0x51; BLOCK_LEN]).unwrap();
    let payload = [0x52; BLOCK_LEN];
    let mut batch = client.write_blocks(&[BatchWrite::new(BlockAddr::new(1, 1), &payload)]);
    let batched = batch.outcomes.remove(0).unwrap();
    for (path, out, report) in [
        ("write", &single, &single.report),
        ("write_batch", &batched, &batch.report),
    ] {
        assert_eq!(out.version, 1, "{path}");
        assert!(
            !out.validated.contains(&14),
            "{path} awaited the straggler: {:?}",
            out.validated
        );
        let level1 = report.rounds.last().expect("write levels recorded");
        assert_eq!(level1.level, Some(1), "{path}");
        assert!(level1.abandoned >= 1, "{path}: {level1:?}");
    }
}

//! Engine-level concurrency tests: the scatter-gather quorum rounds
//! under concurrent transports, with fault injection.
//!
//! The unit tests pin the engine's semantics on `LocalTransport` (where
//! dispatch is deterministic); these tests close the remaining gap.
//! Claims that must hold under every thread schedule — many protocol
//! threads interleaving, nodes crashing and reviving mid-traffic — run
//! on loopback TCP, through the wire codec, the connection pool and the
//! reader threads. Claims about latency — rounds that must complete
//! despite dead or slow members — run on `SimTransport`, where a round's
//! cost is exact virtual time.

mod common;

use std::sync::Arc;
use std::time::Duration;

use trapezoid_quorum::cluster::{NetworkModel, SimTransport};
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
/// over loopback TCP: every write fans out over the
/// block's trapezoid, parity nodes serve folds for all blocks at once,
/// and per-block version guards keep the stripe consistent.
#[test]
fn concurrent_interleaved_writes_to_one_stripe() {
    const WRITERS: usize = 4;
    const ROUNDS: u64 = 12;

    let cluster = Cluster::new(15);
    let (_servers, transport) = common::serve(&cluster);
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
fn locked_same_block_writers_serialise_over_tcp() {
    const WRITERS: usize = 6;
    const PER_WRITER: usize = 8;

    let (_servers, transport) = common::serve(&Cluster::new(15));
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
/// reach `w_l`: with every link at one-way delay `D`, every member (the
/// dead one included — a fail-stopped node answers `Down` over its link
/// like any reply) answers one round trip after the round starts, so
/// both the version-check round (first-quorum) and the write rounds
/// (await-all) each cost exactly `2D` of virtual time — not the
/// sequential sum over members, and not a timeout on the dead node.
#[test]
fn crashed_node_does_not_stall_reachable_quorum() {
    const D: u64 = 1_000;
    let cluster = Cluster::new(15);
    let model = NetworkModel {
        min_delay: D,
        max_delay: D,
        ..NetworkModel::reliable()
    };
    let client = TrapErcClient::new(
        config_15_8(),
        SimTransport::with_model(cluster.clone(), 3, model),
    )
    .unwrap();
    client.create_stripe(1, blocks(8, BLOCK_LEN, 3)).unwrap();

    // Parity node 9 sits in level 0 of block 0's trapezoid ({0, 8, 9,
    // 10}) and in every other block's level 0 too. Kill it.
    cluster.kill(9);

    // Writes still reach w_0 = 3 of {0, 8, 10} and w_1 = 2 of {11..14}.
    let start = client.transport().now();
    let w = client.write_block_with_hint(1, 0, &[7u8; BLOCK_LEN], &blocks(8, BLOCK_LEN, 3)[0], 0);
    let write_elapsed = client.transport().now() - start;
    let w = w.unwrap();
    assert!(!w.validated.contains(&9));
    assert_eq!(w.validated.len(), 7, "all live members validated");
    assert_eq!(w.report.network_rounds(), 2, "one round per level");
    assert_eq!(write_elapsed, 2 * 2 * D, "one round trip per level");

    // Reads: the version check needs r_0 = 2 answers; the dead node's
    // `Down` must not block completion either.
    let start = client.transport().now();
    let r = client.read_block(1, 0).unwrap();
    let read_elapsed = client.transport().now() - start;
    assert_eq!(r.version, 1);
    assert_eq!(r.bytes, vec![7u8; BLOCK_LEN]);
    assert_eq!(r.report.network_rounds(), 1);
    assert_eq!(read_elapsed, 2 * D, "one round trip");
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
    let (_servers, transport) = common::serve(&cluster);
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
    const D: u64 = 1_000;
    let model = NetworkModel {
        min_delay: D,
        max_delay: D,
        ..NetworkModel::reliable()
    };
    let transport = SimTransport::with_model(Cluster::new(15), 5, model);
    transport.set_link_delay(14, Some((30 * D, 30 * D)));
    transport.health_registry().set_policy(HedgePolicy::P99);
    let client = TrapErcClient::new(config_15_8(), transport).unwrap();
    client.create_stripe(1, blocks(8, BLOCK_LEN, 5)).unwrap();

    let start = client.transport().now();
    let single = client.write_block(1, 0, &[0x51; BLOCK_LEN]).unwrap();
    let single_elapsed = client.transport().now() - start;
    let payload = [0x52; BLOCK_LEN];
    let start = client.transport().now();
    let mut batch = client.write_blocks(&[BatchWrite::new(BlockAddr::new(1, 1), &payload)]);
    let batch_elapsed = client.transport().now() - start;
    let batched = batch.outcomes.remove(0).unwrap();
    for (path, out, report, elapsed) in [
        ("write", &single, &single.report, single_elapsed),
        ("write_batch", &batched, &batch.report, batch_elapsed),
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
        // Every round ended at its fast members' round trip; awaiting the
        // straggler would have cost 60·D.
        assert_eq!(report.network_rounds(), 3, "{path}");
        assert_eq!(elapsed, 3 * 2 * D, "{path}: one round trip per round");
    }
}

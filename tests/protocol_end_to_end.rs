//! Cross-crate integration: the full stack (GF(2⁸) → erasure codec →
//! quorum geometry → cluster substrate → TRAP-ERC protocol) exercised
//! end-to-end through every transport.

mod common;

use trapezoid_quorum::cluster::{SimFault, SimTransport, Transport};
use trapezoid_quorum::protocol::ReadPath;
use trapezoid_quorum::{Cluster, LocalTransport, ProtocolConfig, ProtocolError, TrapErcClient};

fn config_15_8() -> ProtocolConfig {
    ProtocolConfig::with_uniform_w(15, 8, 0, 4, 1, 2).expect("valid parameters")
}

fn blocks(k: usize, len: usize, seed: u8) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| {
            (0..len)
                .map(|b| seed.wrapping_add((i * 37 + b * 11) as u8))
                .collect()
        })
        .collect()
}

/// The same scenario must behave identically through the synchronous
/// transport and over loopback TCP.
#[test]
fn transports_agree_on_protocol_behaviour() {
    fn run(transport: impl Transport, cluster: &Cluster) -> Vec<String> {
        let client = TrapErcClient::new(config_15_8(), transport).unwrap();
        let mut log = Vec::new();
        client.create_stripe(1, blocks(8, 64, 1)).unwrap();
        log.push("created".to_string());
        let w = client.write_block(1, 3, &[0xAA; 64]).unwrap();
        log.push(format!("write v{} n{}", w.version, w.validated.len()));
        cluster.kill(3);
        let r = client.read_block(1, 3).unwrap();
        log.push(format!("read v{} decoded={}", r.version, r.decoded()));
        cluster.kill(11);
        cluster.kill(12);
        cluster.kill(13);
        let e = client.write_block(1, 3, &[0xBB; 64]).unwrap_err();
        log.push(format!("write err: {e}"));
        for n in [3, 11, 12, 13] {
            cluster.revive(n);
        }
        let r = client.read_block(1, 3).unwrap();
        log.push(format!("read v{} decoded={}", r.version, r.decoded()));
        log
    }

    let c1 = Cluster::new(15);
    let local_log = run(LocalTransport::new(c1.clone()), &c1);
    let c2 = Cluster::new(15);
    let (_servers, tcp) = common::serve(&c2);
    let tcp_log = run(tcp, &c2);
    assert_eq!(local_log, tcp_log);
}

/// Concurrent writers to *different* blocks of one stripe, over loopback
/// TCP: parity columns are independent, so all writes must commit and
/// the stripe must stay consistent.
#[test]
fn concurrent_writers_different_blocks() {
    use std::sync::Arc;
    let cluster = Cluster::new(15);
    let (_servers, transport) = common::serve(&cluster);
    let client = Arc::new(TrapErcClient::new(config_15_8(), transport).unwrap());
    client.create_stripe(1, blocks(8, 128, 9)).unwrap();

    let handles: Vec<_> = (0..8)
        .map(|i| {
            let client = Arc::clone(&client);
            std::thread::spawn(move || {
                for round in 1..=5u64 {
                    let payload = vec![(i as u8) ^ (round as u8 * 17); 128];
                    let w = client.write_block(1, i, &payload).unwrap();
                    assert_eq!(w.version, round, "block {i} version must be monotone");
                }
                vec![(i as u8) ^ (5u8 * 17); 128]
            })
        })
        .collect();
    let finals: Vec<Vec<u8>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Every block reads back its writer's last payload, via direct reads.
    for (i, expect) in finals.iter().enumerate() {
        let r = client.read_block(1, i).unwrap();
        assert_eq!(&r.bytes, expect, "block {i}");
        assert_eq!(r.version, 5);
        assert_eq!(r.path, ReadPath::Direct);
    }
    // And the decode path agrees with the direct path for every block.
    for (i, expect) in finals.iter().enumerate() {
        cluster.kill(i);
        let r = client.read_block(1, i).unwrap();
        assert_eq!(&r.bytes, expect, "decoded block {i}");
        assert!(r.decoded());
        cluster.revive(i);
    }
}

/// Contending writers on the *same* block: the version guard serialises
/// parity folds, versions never regress, and the final state is one of
/// the contenders' payloads at a consistent version.
#[test]
fn concurrent_writers_same_block_stay_safe() {
    use std::sync::Arc;
    let cluster = Cluster::new(15);
    let (_servers, transport) = common::serve(&cluster);
    let client = Arc::new(TrapErcClient::new(config_15_8(), transport).unwrap());
    client.create_stripe(1, blocks(8, 32, 2)).unwrap();

    let handles: Vec<_> = (0..4)
        .map(|t| {
            let client = Arc::clone(&client);
            std::thread::spawn(move || {
                let mut committed = 0usize;
                for round in 0..10u8 {
                    let payload = vec![t as u8 * 50 + round; 32];
                    if client.write_block(1, 0, &payload).is_ok() {
                        committed += 1;
                    }
                }
                committed
            })
        })
        .collect();
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total >= 1, "at least one write must commit");

    // After the dust settles the stripe is scrubable and self-consistent.
    client.scrub_stripe(1).unwrap();
    let direct = client.read_block(1, 0).unwrap();
    assert_eq!(direct.path, ReadPath::Direct);
    cluster.kill(0);
    let decoded = client.read_block(1, 0).unwrap();
    assert!(decoded.decoded());
    assert_eq!(decoded.bytes, direct.bytes, "decode must agree with direct");
    assert_eq!(decoded.version, direct.version);
}

/// A long sequential history with scripted failures: every committed
/// write stays readable; every read returns the last committed-or-residue
/// value, never anything older or mixed.
#[test]
fn linearizable_single_client_history() {
    let cluster = Cluster::new(15);
    let client = TrapErcClient::new(config_15_8(), LocalTransport::new(cluster.clone())).unwrap();
    client.create_stripe(1, blocks(8, 64, 3)).unwrap();

    let mut last_plausible: Vec<Vec<Vec<u8>>> =
        (0..8).map(|i| vec![blocks(8, 64, 3)[i].clone()]).collect();
    let mut seed = 0xC0FFEEu64;
    let mut next = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        seed
    };
    for step in 0..120 {
        // Mutate availability every few steps, keeping failures ≤ 3.
        if step % 6 == 0 {
            for n in 0..15 {
                cluster.revive(n);
            }
            for stripe_node in 0..(next() % 4) {
                cluster.kill(((next() >> 8) as usize + stripe_node as usize) % 15);
            }
        }
        let i = (next() % 8) as usize;
        let payload = vec![(next() >> 32) as u8; 64];
        match client.write_block(1, i, &payload) {
            Ok(_) => {
                // Committed: this is now the only acceptable value.
                last_plausible[i] = vec![payload];
            }
            Err(ProtocolError::WriteQuorumNotMet { .. }) => {
                // Residue may or may not surface later.
                last_plausible[i].push(payload);
            }
            Err(ProtocolError::OldValueUnreadable(_)) => {}
            Err(e) => panic!("unexpected write error: {e}"),
        }
        if let Ok(r) = client.read_block(1, i) {
            assert!(
                last_plausible[i].contains(&r.bytes),
                "step {step}: read returned a value that was never plausibly current"
            );
            // Observed values collapse the plausible set (reads are
            // repeatable until the next write).
            last_plausible[i] = vec![r.bytes];
        }
    }
}

/// Stripe-wide invariant after arbitrary committed work + scrub: the
/// stored parity equals a fresh encode of the stored data, on every node.
#[test]
fn scrub_restores_eq1_invariant_across_cluster() {
    let cluster = Cluster::new(15);
    let client = TrapErcClient::new(config_15_8(), LocalTransport::new(cluster.clone())).unwrap();
    client.create_stripe(1, blocks(8, 96, 5)).unwrap();

    // Interleave writes with failures so parity nodes diverge.
    for round in 0..12u8 {
        cluster.kill((round as usize) % 15);
        let _ = client.write_block(1, (round as usize * 5) % 8, &[round; 96]);
        cluster.revive((round as usize) % 15);
    }
    for n in 0..15 {
        cluster.revive(n);
    }
    client.scrub_stripe(1).unwrap();

    // Read back the post-scrub data blocks and verify eq. 1 on the wire:
    // every parity node's stored block equals the re-encoded value.
    let data: Vec<Vec<u8>> = (0..8)
        .map(|i| client.read_block(1, i).unwrap().bytes)
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let expect_parity = client.codec().encode(&refs);
    for (j, expect) in (8..15).zip(&expect_parity) {
        use trapezoid_quorum::cluster::{NodeId, Request, Response};
        let transport = LocalTransport::new(cluster.clone());
        match transport
            .call(NodeId(j), Request::ReadParity { id: 1 })
            .unwrap()
        {
            Response::Parity {
                bytes, versions, ..
            } => {
                assert_eq!(&bytes[..], expect.as_slice(), "parity node {j}");
                assert_eq!(versions.len(), 8);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// A health-flagged home node stays entirely off a read's critical
/// path: with the registry armed and `N_0` grayed out, reading block 0
/// skips the level walk and the `N_i` fetch and decodes from `k` healthy
/// members in a *single* round — the read costs exactly `k` wire
/// messages (plus any hedges the transport fires independently).
#[test]
fn straggler_home_node_is_read_around_in_one_round() {
    use trapezoid_quorum::cluster::HedgePolicy;
    use trapezoid_quorum::cluster::{NodeId, Request, Response};

    let config = ProtocolConfig::with_uniform_w(9, 6, 2, 1, 1, 1).unwrap();
    let cluster = Cluster::new(9);
    let client = TrapErcClient::new(config, SimTransport::new(cluster.clone(), 9)).unwrap();
    client.create_stripe(1, blocks(6, 64, 9)).unwrap();
    let w = client.write_block(1, 0, &[0xC4; 64]).unwrap();

    // Gray the home node 30× out and let the estimator see it: every
    // reply feeds it a virtual-time sample.
    let sim = client.transport();
    sim.apply(SimFault::Degrade {
        node: 0,
        factor: 30,
    });
    for _ in 0..10 {
        for node in 0..9 {
            assert_eq!(sim.call(NodeId(node), Request::Ping), Ok(Response::Pong));
        }
    }
    let health = sim.health_registry();
    assert!(health.straggler(0), "gray node must be flagged");
    assert!(!health.straggler(1), "healthy node must not be flagged");

    // Dormant registry: the read still takes the seed's direct path.
    let read = client.read_block(1, 0).unwrap();
    assert_eq!(read.path, ReadPath::Direct);
    assert_eq!(read.bytes, vec![0xC4; 64]);

    // Armed: one salvage round of k shards, none of them from node 0.
    health.set_policy(HedgePolicy::P99);
    let before_msgs = sim.stats().requests;
    let before_hedges = health.hedge_counters().fired;
    let read = client.read_block(1, 0).unwrap();
    assert_eq!(read.bytes, vec![0xC4; 64]);
    assert_eq!(read.version, w.version);
    match &read.path {
        ReadPath::Decoded { nodes } => {
            assert_eq!(nodes.len(), 6);
            assert!(!nodes.contains(&0), "home node polled: {nodes:?}");
        }
        other => panic!("expected a decode-around, got {other:?}"),
    }
    assert_eq!(read.report.network_rounds(), 1, "a single round");
    let hedges = health.hedge_counters().fired - before_hedges;
    assert_eq!(
        sim.stats().requests - before_msgs,
        6 + hedges,
        "salvage must cost exactly k messages (+ hedges)"
    );

    // The batch path reroutes identically.
    use trapezoid_quorum::protocol::BlockAddr;
    let batch = client.read_blocks(&[
        BlockAddr {
            stripe: 1,
            block: 0,
        },
        BlockAddr {
            stripe: 1,
            block: 3,
        },
    ]);
    let out = batch.outcomes[0].as_ref().unwrap();
    assert_eq!(out.bytes, vec![0xC4; 64]);
    assert!(matches!(&out.path, ReadPath::Decoded { nodes } if !nodes.contains(&0)));
    assert!(batch.outcomes[1].as_ref().unwrap().bytes.len() == 64);
}

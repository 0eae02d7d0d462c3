//! Transport equivalence: the same [`NodeApi`] instances answer an
//! identical command sequence identically under every transport —
//! [`LocalTransport`] (the sequential reference), [`SimTransport`] (the
//! simulation seam, reliable links) and [`TcpTransport`] (real loopback
//! sockets through the versioned wire format).
//!
//! This is the seam contract the whole test strategy leans on: every
//! protocol property proven under the deterministic simulator transfers
//! to the real transport *because* the transport is invisible to the
//! node — same envelopes in, same replies out, byte for byte. The two
//! concurrent transports share one dispatch driver and differ only in
//! their link, so a divergence here means a link (the event heap, the
//! wire encode/decode or the TCP framing) changed observable behaviour,
//! which no amount of simulation coverage would catch.

mod common;

use bytes::Bytes;
use trapezoid_quorum::cluster::transport::Transport;
use trapezoid_quorum::cluster::{
    Cluster, Envelope, Lane, LocalTransport, NetworkModel, NodeId, OpId, Reply, Request,
    SimTransport,
};

/// A deterministic script touching every request variant, the absorbed
/// duplicate/stale paths, and every node-level error the wire must
/// carry faithfully. Envelope identities are fixed (not `fresh()`) so
/// the three runs are bit-identical.
fn script() -> Vec<(usize, Envelope)> {
    let env = |n: u64, payload: Request| Envelope {
        op_id: OpId(0x5000 + n),
        round_epoch: 7,
        lane: Lane::Foreground,
        payload,
    };
    let data = |fill: u8| Bytes::from(vec![fill; 24]);
    vec![
        // Stripe creation: data on node 0, parity tracking k=3 on node 3.
        (
            0,
            env(
                0,
                Request::InitData {
                    id: 11,
                    bytes: data(0xA0),
                },
            ),
        ),
        (
            3,
            env(
                1,
                Request::InitParity {
                    id: 11,
                    bytes: data(0xB0),
                    k: 3,
                    checks: vec![0xC1, 0xC2, 0xC3],
                },
            ),
        ),
        // The full mutation vocabulary.
        (
            0,
            env(
                2,
                Request::WriteData {
                    id: 11,
                    bytes: data(0xA1),
                    version: 1,
                },
            ),
        ),
        (
            3,
            env(
                3,
                Request::AddParity {
                    id: 11,
                    block_index: 0,
                    delta: data(0x0F),
                    expected_version: 0,
                    new_version: 1,
                    coeff: 0x37,
                    new_check: Some(0xFACE_0FF5_1DE0_0B0E),
                },
            ),
        ),
        (
            3,
            env(
                4,
                Request::WriteParity {
                    id: 11,
                    bytes: data(0xB2),
                    versions: vec![1, 2, 0],
                    checks: vec![7, 8, 9],
                },
            ),
        ),
        // Every read shape.
        (0, env(5, Request::ReadData { id: 11 })),
        (3, env(6, Request::ReadParity { id: 11 })),
        (0, env(7, Request::VersionData { id: 11 })),
        (3, env(8, Request::VersionVector { id: 11 })),
        (2, env(9, Request::Ping)),
        // Idempotent absorption: a stale write acks without applying.
        (
            0,
            env(
                10,
                Request::WriteData {
                    id: 11,
                    bytes: data(0xA9),
                    version: 0,
                },
            ),
        ),
        // Every error the wire must carry: NotFound, WrongKind,
        // VersionConflict, VectorConflict, SizeMismatch, BadBlockIndex.
        (2, env(11, Request::ReadData { id: 99 })),
        (
            0,
            env(
                12,
                Request::AddParity {
                    id: 11,
                    block_index: 0,
                    delta: data(0x01),
                    expected_version: 1,
                    new_version: 2,
                    coeff: 1,
                    new_check: Some(2),
                },
            ),
        ),
        (
            3,
            env(
                13,
                Request::AddParity {
                    id: 11,
                    block_index: 1,
                    delta: data(0x02),
                    expected_version: 7,
                    new_version: 8,
                    coeff: 1,
                    new_check: Some(2),
                },
            ),
        ),
        (
            3,
            env(
                14,
                Request::WriteParity {
                    id: 11,
                    bytes: data(0xB3),
                    versions: vec![0, 3, 0],
                    checks: vec![7, 9, 9],
                },
            ),
        ),
        (
            0,
            env(
                15,
                Request::WriteData {
                    id: 11,
                    bytes: Bytes::from(vec![0xA2; 9]),
                    version: 2,
                },
            ),
        ),
        (
            3,
            env(
                16,
                Request::AddParity {
                    id: 11,
                    block_index: 9,
                    delta: data(0x03),
                    expected_version: 0,
                    new_version: 1,
                    coeff: 0xE4,
                    new_check: Some(1),
                },
            ),
        ),
    ]
}

fn run(transport: &dyn Transport, script: &[(usize, Envelope)]) -> Vec<Reply> {
    script
        .iter()
        .map(|(node, env)| transport.dispatch(NodeId(*node), env.clone()))
        .collect()
}

#[test]
fn all_three_transports_are_observationally_identical() {
    let cluster = Cluster::new(5);
    let script = script();
    // Every run starts from the *same* node instances, wiped (blocks
    // and applied-op window both live in the wiped durability domain).
    let fresh = |cluster: &Cluster| {
        for node in cluster.nodes() {
            node.wipe();
        }
        cluster.clone()
    };

    // The sequential reference, then the simulated fabric.
    let local = run(&LocalTransport::new(fresh(&cluster)), &script);
    let sim = run(
        &SimTransport::with_model(fresh(&cluster), 42, NetworkModel::reliable()),
        &script,
    );

    // The same NodeApi objects behind real loopback TCP.
    let (_servers, tcp) = common::serve(&fresh(&cluster));
    let tcp = run(&tcp, &script);

    assert_eq!(local.len(), script.len());
    for (name, replies) in [("Sim", &sim), ("Tcp", &tcp)] {
        assert_eq!(replies.len(), local.len());
        for (i, (l, r)) in local.iter().zip(replies).enumerate() {
            assert_eq!(
                l, r,
                "reply {i} diverged between LocalTransport and {name}Transport for {}",
                script[i].1
            );
        }
    }

    // Sanity: the script exercised both success and error paths (an
    // all-`Ok` or all-`Err` run would make equivalence vacuous).
    let ok = local.iter().filter(|r| r.result.is_ok()).count();
    let err = local.len() - ok;
    assert!(ok >= 8, "script should succeed broadly (got {ok} oks)");
    assert!(err >= 4, "script should fail broadly (got {err} errors)");
}

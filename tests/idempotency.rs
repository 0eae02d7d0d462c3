//! Property tests for the idempotent node command API.
//!
//! The claim the API makes (`tq_cluster::rpc` module docs): executing
//! any envelope any number of times, interleaved arbitrarily with other
//! commands, leaves node state as if every envelope executed exactly
//! once. Two properties pin it down:
//!
//! * **In-order at-least-once ≡ exactly-once.** Deliver a valid command
//!   history in issue order, but duplicate each envelope 1–3 times and
//!   re-inject stale copies of arbitrary earlier envelopes at arbitrary
//!   later points (the cross-round redelivery shape). Final node state
//!   must equal exactly-once in-order delivery.
//! * **Arbitrary interleaving ≡ some exactly-once delivery.** Shuffle
//!   the whole multiset of deliveries (duplicates included) into any
//!   order. The final state must equal delivering each envelope **at
//!   most once** — at its first *successful* application point, in the
//!   same order (envelopes that never succeeded are dropped: failures
//!   have no side effects). A redelivery may legitimately succeed where
//!   an out-of-order first attempt was rejected — that is at-least-once
//!   retry converging — but no envelope's effect is ever applied twice.
//!
//! Both properties hold because every mutation is monotone conditional
//! (versions never regress; stale deliveries ack idempotently) and the
//! node's applied-op window absorbs exact replays of the one
//! non-idempotent primitive, the parity delta fold.

use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trapezoid_quorum::cluster::rpc::NodeApi;
use trapezoid_quorum::cluster::{Envelope, NodeId, Request, Response, StorageNode};

const LEN: usize = 16;
const DATA_ID: u64 = 1;
const PARITY_ID: u64 = 2;
const K: usize = 2;

fn pattern(tag: u64) -> Bytes {
    Bytes::from(
        (0..LEN)
            .map(|i| (tag as u8).wrapping_add(i as u8))
            .collect::<Vec<u8>>(),
    )
}

/// Builds a valid sequential command history against one node that
/// holds a data block and a parity block: creates, then an interleaving
/// of data writes (versions ascending) and per-index parity fold chains.
/// `mix` drives the interleaving deterministically.
fn history(writes: u64, folds: [u64; K], mix: u64) -> Vec<Envelope> {
    let mut rng = StdRng::seed_from_u64(mix);
    let mut ops = vec![
        Envelope::new(Request::InitData {
            id: DATA_ID,
            bytes: pattern(0),
        }),
        Envelope::new(Request::InitParity {
            id: PARITY_ID,
            bytes: pattern(100),
            k: K,
            checks: vec![0; K],
        }),
    ];
    let mut next_write = 1u64;
    let mut next_fold = [1u64; K];
    loop {
        // Candidate streams that still have commands to issue.
        let mut candidates: Vec<usize> = Vec::new();
        if next_write <= writes {
            candidates.push(0);
        }
        for i in 0..K {
            if next_fold[i] <= folds[i] {
                candidates.push(1 + i);
            }
        }
        if candidates.is_empty() {
            break;
        }
        match candidates[rng.random_range(0..candidates.len())] {
            0 => {
                ops.push(Envelope::new(Request::WriteData {
                    id: DATA_ID,
                    bytes: pattern(next_write),
                    version: next_write,
                }));
                next_write += 1;
            }
            stream => {
                let i = stream - 1;
                let v = next_fold[i];
                ops.push(Envelope::new(Request::AddParity {
                    id: PARITY_ID,
                    block_index: i,
                    delta: pattern(200 + (i as u64) * 64 + v),
                    expected_version: v - 1,
                    new_version: v,
                    coeff: 1,
                    new_check: Some(v),
                }));
                next_fold[i] += 1;
            }
        }
    }
    ops
}

/// Observable node state: both blocks read back through the payload API.
fn observe(node: &StorageNode) -> (Result<Response, String>, Result<Response, String>) {
    let read = |req: Request| {
        node.execute(Envelope::new(req))
            .result
            .map_err(|e| e.to_string())
    };
    (
        read(Request::ReadData { id: DATA_ID }),
        read(Request::ReadParity { id: PARITY_ID }),
    )
}

/// Applies a delivery schedule (a sequence of envelope clones) to a
/// fresh node and returns its final observable state.
fn deliver(schedule: &[Envelope]) -> (Result<Response, String>, Result<Response, String>) {
    let node = StorageNode::new(NodeId(0));
    for env in schedule {
        let reply = node.execute(env.clone());
        assert_eq!(reply.op_id, env.op_id, "replies echo command identity");
    }
    observe(&node)
}

proptest! {
    /// In-order first deliveries + arbitrary duplicates and stale
    /// redeliveries ≡ exactly-once in-order delivery.
    #[test]
    fn at_least_once_in_order_equals_exactly_once(
        writes in 1u64..=8,
        folds_a in 0u64..=5,
        folds_b in 0u64..=5,
        mix in any::<u64>(),
        chaos in any::<u64>(),
    ) {
        let ops = history(writes, [folds_a, folds_b], mix);
        let exactly_once = deliver(&ops);

        // Duplicate each delivery 1..=3 times in place, and after each
        // position maybe re-inject stale copies of arbitrary earlier
        // envelopes (the cross-round redelivery shape).
        let mut rng = StdRng::seed_from_u64(chaos);
        let mut schedule: Vec<Envelope> = Vec::new();
        for (idx, env) in ops.iter().enumerate() {
            for _ in 0..rng.random_range(1..=3usize) {
                schedule.push(env.clone());
            }
            for _ in 0..rng.random_range(0..=2usize) {
                let stale = rng.random_range(0..=idx);
                schedule.push(ops[stale].clone());
            }
        }
        // A tail of stale redeliveries in arbitrary order.
        for _ in 0..rng.random_range(0..=ops.len()) {
            let stale = rng.random_range(0..ops.len());
            schedule.push(ops[stale].clone());
        }

        let at_least_once = deliver(&schedule);
        prop_assert_eq!(at_least_once, exactly_once);
    }

    /// Any interleaving with duplicates ≡ exactly-once delivery of each
    /// envelope's first *successful* application, in the same order: no
    /// envelope's effect is ever applied twice, and failed deliveries
    /// leave no trace.
    #[test]
    fn any_interleaving_equals_an_exactly_once_delivery(
        writes in 1u64..=8,
        folds_a in 0u64..=5,
        folds_b in 0u64..=5,
        mix in any::<u64>(),
        chaos in any::<u64>(),
    ) {
        let ops = history(writes, [folds_a, folds_b], mix);
        let mut rng = StdRng::seed_from_u64(chaos);

        // Multiset: each envelope 1..=3 times, then a full shuffle.
        let mut schedule: Vec<Envelope> = Vec::new();
        for env in &ops {
            for _ in 0..rng.random_range(1..=3usize) {
                schedule.push(env.clone());
            }
        }
        for i in (1..schedule.len()).rev() {
            let j = rng.random_range(0..=i);
            schedule.swap(i, j);
        }

        // Run the full chaotic schedule, recording which delivery was
        // each envelope's first success.
        let node = StorageNode::new(NodeId(0));
        let mut succeeded = std::collections::HashSet::new();
        let mut effective: Vec<Envelope> = Vec::new();
        for env in &schedule {
            let reply = node.execute(env.clone());
            prop_assert_eq!(reply.op_id, env.op_id);
            if reply.result.is_ok() && succeeded.insert(env.op_id) {
                effective.push(env.clone());
            }
        }

        // The exactly-once reference: each envelope at most once.
        prop_assert_eq!(observe(&node), deliver(&effective));
    }
}

/// Beyond equivalence: after an in-order at-least-once run, the state is
/// exactly the sequential ground truth (last write's bytes and version,
/// full fold chains in the vector).
#[test]
fn converged_state_matches_ground_truth() {
    let ops = history(5, [3, 2], 42);
    let mut schedule = Vec::new();
    for env in &ops {
        schedule.push(env.clone());
        schedule.push(env.clone()); // duplicate everything once
    }
    for env in ops.iter().rev() {
        schedule.push(env.clone()); // then replay the lot backwards
    }
    let (data, parity) = deliver(&schedule);
    match data.unwrap() {
        Response::Data { bytes, version, .. } => {
            assert_eq!(version, 5);
            assert_eq!(bytes, pattern(5));
        }
        other => panic!("unexpected {other:?}"),
    }
    match parity.unwrap() {
        Response::Parity { versions, .. } => assert_eq!(versions, vec![3, 2]),
        other => panic!("unexpected {other:?}"),
    }
}

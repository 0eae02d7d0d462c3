//! Crate-internal helpers for the client's fan-out shapes.
//!
//! Every round runs through [`run_fused`] so that [`OpReport`]
//! accounting is uniform across stages; a single-op round
//! ([`run_recorded`]) is a fused plan of one. [`write_levels`] is the
//! one write walk.

use tq_cluster::{MultiRound, NodeId, PlanOp, QuorumRound, Request, RoundOutcome, Transport};

use crate::errors::ProtocolError;
use crate::store::{BatchWrites, OpReport};
use crate::trap_erc::WriteOutcome;

/// Runs one single-op round — a fused plan of one — and records it in
/// `report`.
pub(crate) fn run_recorded<T: Transport>(
    transport: &T,
    round: QuorumRound,
    level: Option<usize>,
    calls: Vec<(NodeId, Request)>,
    report: &mut OpReport,
) -> RoundOutcome {
    run_fused(transport, level, vec![PlanOp { round, calls }], report)
        .pop()
        .expect("a one-op plan yields one outcome")
}

/// Runs one fused multi-op round and records it in `report` as a single
/// network round covering `ops.len()` logical operations. A stage no
/// block is in (`ops` empty) is not a round: nothing runs, nothing is
/// recorded.
pub(crate) fn run_fused<T: Transport>(
    transport: &T,
    level: Option<usize>,
    ops: Vec<PlanOp>,
    report: &mut OpReport,
) -> Vec<RoundOutcome> {
    if ops.is_empty() {
        return Vec::new();
    }
    let outcomes = MultiRound::run(transport, ops);
    report.absorb_fused(level, &outcomes);
    outcomes
}

/// Grades a round that required every member: `Ok` iff nothing was
/// rejected, otherwise the lowest-indexed rejection's error — the one a
/// sequential walk would have tripped on first.
pub(crate) fn require_all(outcome: &RoundOutcome) -> Result<(), ProtocolError> {
    match outcome.first_rejection() {
        None => Ok(()),
        Some(rejected) => Err(ProtocolError::Node(rejected.error.clone())),
    }
}

/// Flags duplicate batch keys: every occurrence of a key after its
/// first gets the per-item `Misconfigured` error (duplicate addresses
/// in one fused write have no single-op-equivalent ordering).
pub(crate) fn flag_duplicates<K: Eq + std::hash::Hash, T>(
    keys: impl Iterator<Item = K>,
    results: &mut [Option<Result<T, ProtocolError>>],
) {
    let mut seen = std::collections::HashSet::new();
    for (idx, key) in keys.enumerate() {
        if !seen.insert(key) {
            results[idx] = Some(Err(ProtocolError::Misconfigured(
                "duplicate address in write batch",
            )));
        }
    }
}

/// One block on its way through the write levels
/// of a fused plan.
pub(crate) struct Writing<P> {
    /// Position in the caller's batch (and its result table).
    pub idx: usize,
    /// The version this write installs.
    pub version: u64,
    /// Whatever the protocol builds the item's level scatters from.
    pub payload: P,
    /// Validated members so far, level-major, issue order within a level.
    pub validated: Vec<usize>,
}

/// **Algorithm 1 lines 16–38 for a whole plan** — the one write walk:
/// every surviving item's level-`l` scatter (`level_op` returns its
/// `w_l` and calls) is fused into one round per level; an item
/// validating fewer than `w_l` members leaves the plan with
/// [`ProtocolError::WriteQuorumNotMet`] (the walk stops at the failed
/// level, residue and all), the rest resolve `Ok` after the last level.
/// `results` arrives holding the items that failed before the walk and
/// leaves, fully resolved, as the batch's outcomes.
///
/// This is also the one place a write level's completion rule is
/// chosen. By default a level awaits every member: the validated write
/// *set* is the durability statement. When the transport carries an
/// armed health registry (hedging on), the level completes on the first
/// `w_l` acks instead — stragglers are hedged by the transport and
/// their requests still execute, but the level's tail is the quorum's
/// tail, not the slowest member's. The validated set then underreports
/// the stragglers that applied the write after abandonment, which is
/// the safe direction: version polls rediscover them.
pub(crate) fn write_levels<T: Transport, P>(
    transport: &T,
    levels: usize,
    mut alive: Vec<Writing<P>>,
    level_op: impl Fn(&Writing<P>, usize) -> (usize, Vec<(NodeId, Request)>),
    mut results: Vec<Option<Result<WriteOutcome, ProtocolError>>>,
    mut report: OpReport,
) -> BatchWrites {
    let first_quorum = transport.health().is_some_and(|h| h.hedging_enabled());
    for l in 0..levels {
        if alive.is_empty() {
            break;
        }
        let ops: Vec<PlanOp> = alive
            .iter()
            .map(|w| {
                let (needed, calls) = level_op(w, l);
                let round = if first_quorum {
                    QuorumRound::first_quorum(needed)
                } else {
                    QuorumRound::await_all(needed)
                };
                PlanOp { round, calls }
            })
            .collect();
        let outcomes = run_fused(transport, Some(l), ops, &mut report);
        let mut survivors = Vec::with_capacity(alive.len());
        for (mut w, outcome) in alive.into_iter().zip(outcomes) {
            w.validated
                .extend(outcome.accepted_in_issue_order().iter().map(|a| a.node.0));
            if outcome.quorum_met() {
                survivors.push(w);
            } else {
                results[w.idx] = Some(Err(ProtocolError::WriteQuorumNotMet {
                    level: l,
                    needed: outcome.needed,
                    achieved: outcome.validations(),
                }));
            }
        }
        alive = survivors;
    }
    for w in alive {
        results[w.idx] = Some(Ok(WriteOutcome {
            version: w.version,
            validated: w.validated,
            report: OpReport::default(),
        }));
    }
    BatchWrites {
        outcomes: results
            .into_iter()
            .map(|r| r.expect("every item resolved"))
            .collect(),
        report,
    }
}

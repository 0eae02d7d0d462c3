//! The quorum round engine: scatter a level's requests, gather until the
//! quorum condition is met.
//!
//! The paper's Algorithms 1 and 2 are loops over trapezoid levels; each
//! level polls its members and proceeds once `w_l` (write) or `r_l`
//! (read) of them validate. The seed implementation walked members one
//! blocking [`Transport::call`] at a time, so a level's wall-clock cost
//! was the *sum* of member latencies. [`QuorumRound`] restores the shape
//! quorum systems are built for: issue the whole level at once via
//! [`Transport::multicall`] and complete on the quorum condition —
//! roughly the latency of the slowest *needed* responder on a concurrent
//! transport, and bit-for-bit the old sequential behaviour on
//! [`LocalTransport`](crate::transport::LocalTransport).
//!
//! Every call is wrapped in an [`Envelope`] stamped with a fresh
//! [`OpId`] and this round's epoch, and replies are matched **by
//! identity**: a reply whose op id the round never issued — a duplicate
//! absorbed already, or a straggler redelivered from an *earlier* round
//! by an at-least-once fabric — is ignored instead of miscounted
//! against some batch position. That property is what lets
//! [`SimTransport`](crate::sim::SimTransport) redeliver messages across
//! rounds without corrupting quorum accounting.
//!
//! Two completion policies cover both algorithms:
//!
//! * [`QuorumRound::await_all`] — every reply is awaited; the quorum
//!   threshold only decides success afterwards. Writes need this: a
//!   validated write *set* is the durability statement, and on the
//!   sequential transport an early exit would leave members unwritten.
//! * [`QuorumRound::first_quorum`] — the round ends the moment the
//!   threshold-th success arrives. Version checks (Algorithm 2 line 30)
//!   and "first live replica" reads use this; outstanding members are
//!   reported as [`RoundOutcome::abandoned`] stragglers.

use crate::detmap::DetHashMap;
use crate::health::NodeHealth;
use crate::node::NodeId;
use crate::rpc::{next_round_epoch, Envelope, Lane, NodeError, OpId, Request, Response};
use crate::transport::Transport;

/// When a round stops gathering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// Stop as soon as `needed` successes arrived.
    FirstQuorum,
    /// Gather every reply; `needed` only grades the outcome.
    AwaitAll,
}

/// A successful reply within a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accepted {
    /// Position within the issued batch (stable across transports).
    pub index: usize,
    /// The responding node.
    pub node: NodeId,
    /// Its answer.
    pub response: Response,
}

/// A failed reply within a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejected {
    /// Position within the issued batch.
    pub index: usize,
    /// The failing node.
    pub node: NodeId,
    /// Why it failed.
    pub error: NodeError,
}

/// Everything a round learned, for protocol logic and accounting.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// The quorum threshold the round was run with.
    pub needed: usize,
    /// Successes, in arrival order.
    pub accepted: Vec<Accepted>,
    /// Failures, in arrival order.
    pub rejected: Vec<Rejected>,
    /// Members whose replies were never awaited (first-quorum early
    /// completion). On a concurrent transport their requests were still
    /// delivered and executed; on the sequential transport they were
    /// never issued.
    pub abandoned: Vec<NodeId>,
}

impl RoundOutcome {
    /// `true` iff at least `needed` members validated.
    pub fn quorum_met(&self) -> bool {
        self.accepted.len() >= self.needed
    }

    /// Number of validations gathered.
    pub fn validations(&self) -> usize {
        self.accepted.len()
    }

    /// Accepted replies re-sorted into batch-issue order — use when a
    /// result must be independent of reply arrival order (validated-set
    /// reporting, decode input selection).
    pub fn accepted_in_issue_order(&self) -> Vec<&Accepted> {
        let mut sorted: Vec<&Accepted> = self.accepted.iter().collect();
        sorted.sort_by_key(|a| a.index);
        sorted
    }

    /// `true` iff any rejection carries the given error.
    pub fn saw_error(&self, is: impl Fn(&NodeError) -> bool) -> bool {
        self.rejected.iter().any(|r| is(&r.error))
    }

    /// The first rejection in batch-issue order, if any — the error a
    /// sequential walk would have tripped on first.
    pub fn first_rejection(&self) -> Option<&Rejected> {
        self.rejected.iter().min_by_key(|r| r.index)
    }
}

/// One scatter-gather round against a set of nodes.
#[derive(Debug, Clone, Copy)]
pub struct QuorumRound {
    needed: usize,
    completion: Completion,
    lane: Lane,
}

impl QuorumRound {
    /// A round that completes on the `needed`-th success.
    pub fn first_quorum(needed: usize) -> Self {
        QuorumRound {
            needed,
            completion: Completion::FirstQuorum,
            lane: Lane::Foreground,
        }
    }

    /// A round that gathers every reply and grades against `needed`.
    pub fn await_all(needed: usize) -> Self {
        QuorumRound {
            needed,
            completion: Completion::AwaitAll,
            lane: Lane::Foreground,
        }
    }

    /// Marks the round's traffic as background/maintenance: its
    /// envelopes carry the background lane flag, so transports skip
    /// hedging them and any budgeted retries must leave the foreground
    /// reserve (scrub/rebuild cannot starve client ops).
    pub fn background(mut self) -> Self {
        self.lane = Lane::Background;
        self
    }

    /// The quorum threshold.
    pub fn needed(&self) -> usize {
        self.needed
    }

    /// The completion policy.
    pub fn completion(&self) -> Completion {
        self.completion
    }

    /// The priority lane the round's envelopes travel in.
    pub fn lane(&self) -> Lane {
        self.lane
    }

    /// Runs the round as a one-op [`MultiRound`] plan — a single
    /// operation is a batch of one, so envelope stamping, identity
    /// matching, completion and health feeding live in exactly one
    /// gather loop.
    pub fn run<T: Transport + ?Sized>(
        &self,
        transport: &T,
        calls: Vec<(NodeId, Request)>,
    ) -> RoundOutcome {
        let plan = vec![PlanOp {
            round: *self,
            calls,
        }];
        MultiRound::run(transport, plan)
            .pop()
            .expect("a one-op plan yields one outcome")
    }
}

/// Feed a completed round's per-node outcomes into the health registry:
/// every accept is a success, every reject is classified there
/// (availability failures extend the node's failure run; app-level
/// refusals count as a live node). Abandoned members are *not*
/// failures — their answers were simply not needed.
fn feed_health(health: &NodeHealth, outcome: &RoundOutcome) {
    for a in &outcome.accepted {
        health.record(a.node.0, Ok(()));
    }
    for r in &outcome.rejected {
        health.record(r.node.0, Err(&r.error));
    }
}

/// One logical operation inside a fused multi-op scatter
/// ([`MultiRound::run`]): its own quorum condition over its own calls.
#[derive(Debug)]
pub struct PlanOp {
    /// Threshold and completion policy for this op.
    pub round: QuorumRound,
    /// The op's calls; reply indices in the op's [`RoundOutcome`] refer
    /// to positions within this vector.
    pub calls: Vec<(NodeId, Request)>,
}

/// A multi-stripe scatter plan: several logical quorum rounds fused into
/// **one** [`Transport::multicall`] batch.
///
/// Batched protocol operations build on this: where a loop of single ops
/// costs one network round per op per level, a fused plan issues every
/// op's level-`l` requests in one fan-out and completes each op on its
/// own quorum condition. On a concurrent transport the whole plan costs
/// roughly one round trip; on the sequential transport it degenerates to
/// the same ordered walk a loop would make (determinism preserved).
///
/// All the plan's envelopes share one round epoch; replies are matched
/// to their (op, slot) origin by op id, so duplicates and cross-round
/// strangers are ignored (a lone [`QuorumRound::run`] is a one-op plan
/// and inherits exactly this matching).
///
/// Semantic differences from running the ops separately, both inherent
/// to fusion and documented here because accounting depends on them:
///
/// * A [`Completion::FirstQuorum`] op that has already met its threshold
///   keeps *recording* replies that arrive while sibling ops are still
///   gathering (a lone round would have abandoned them). Extra accepts
///   beyond `needed` are harmless to quorum logic.
/// * On the lazy sequential transport, calls are issued in op order;
///   once every op has completed, the remaining calls are never issued
///   and show up as [`RoundOutcome::abandoned`].
#[derive(Debug, Clone, Copy)]
pub struct MultiRound;

impl MultiRound {
    /// Runs the fused plan; returns one [`RoundOutcome`] per op, in op
    /// order.
    pub fn run<T: Transport + ?Sized>(transport: &T, ops: Vec<PlanOp>) -> Vec<RoundOutcome> {
        let mut outcomes: Vec<RoundOutcome> = ops
            .iter()
            .map(|op| RoundOutcome {
                needed: op.round.needed(),
                accepted: Vec::new(),
                rejected: Vec::new(),
                abandoned: Vec::new(),
            })
            .collect();
        let completions: Vec<Completion> = ops.iter().map(|op| op.round.completion()).collect();
        let mut remaining: Vec<usize> = ops.iter().map(|op| op.calls.len()).collect();

        // Flatten op calls into one enveloped batch under one epoch,
        // remembering each op id's (op, local-index, node) origin.
        let epoch = next_round_epoch();
        let mut flat: Vec<(NodeId, Envelope)> = Vec::new();
        let mut origin: Vec<(usize, usize)> = Vec::new();
        let mut slot_of: DetHashMap<OpId, usize> = DetHashMap::default();
        for (op_idx, op) in ops.into_iter().enumerate() {
            for (local, (node, req)) in op.calls.into_iter().enumerate() {
                let mut env = Envelope::in_epoch(req, epoch);
                if op.round.lane() == Lane::Background {
                    env = env.background();
                }
                slot_of.insert(env.op_id, flat.len());
                origin.push((op_idx, local));
                flat.push((node, env));
            }
        }

        // An op with nothing left to prove is complete up front: a
        // zero-threshold first-quorum op, or any op with no calls.
        let mut complete: Vec<bool> = (0..outcomes.len())
            .map(|i| {
                remaining[i] == 0
                    || (completions[i] == Completion::FirstQuorum && outcomes[i].needed == 0)
            })
            .collect();
        let mut incomplete = complete.iter().filter(|&&c| !c).count();

        let issued: Vec<NodeId> = flat.iter().map(|&(node, _)| node).collect();
        let mut seen = vec![false; flat.len()];
        if incomplete > 0 {
            transport.multicall(flat, &mut |reply| {
                // Identity matching: an at-least-once fabric may deliver
                // the same reply twice, or a stale reply from an earlier
                // round. Only the first completion of an op id this
                // plan issued counts — anything else would let a
                // duplicated ack fake a quorum, and would also
                // underflow `remaining`.
                let Some(&flat_idx) = slot_of.get(&reply.op_id) else {
                    return incomplete > 0;
                };
                if seen[flat_idx] {
                    return incomplete > 0;
                }
                let (op_idx, local) = origin[flat_idx];
                seen[flat_idx] = true;
                remaining[op_idx] -= 1;
                let outcome = &mut outcomes[op_idx];
                match reply.result {
                    Ok(response) => outcome.accepted.push(Accepted {
                        index: local,
                        node: reply.node,
                        response,
                    }),
                    Err(error) => outcome.rejected.push(Rejected {
                        index: local,
                        node: reply.node,
                        error,
                    }),
                }
                if !complete[op_idx] {
                    let done = match completions[op_idx] {
                        // An op that exhausted its calls is complete even
                        // short of quorum — it can make no more progress
                        // and must not keep siblings from early exit.
                        Completion::FirstQuorum => {
                            outcome.accepted.len() >= outcome.needed || remaining[op_idx] == 0
                        }
                        Completion::AwaitAll => remaining[op_idx] == 0,
                    };
                    if done {
                        complete[op_idx] = true;
                        incomplete -= 1;
                    }
                }
                incomplete > 0
            });
        }
        for (flat_idx, &node) in issued.iter().enumerate() {
            if !seen[flat_idx] {
                let (op_idx, _) = origin[flat_idx];
                outcomes[op_idx].abandoned.push(node);
            }
        }
        if let Some(health) = transport.health() {
            for outcome in &outcomes {
                feed_health(health, outcome);
            }
        }
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::sim::SimTransport;
    use crate::transport::{LocalTransport, RoundReply};

    fn pings(n: usize) -> Vec<(NodeId, Request)> {
        (0..n).map(|i| (NodeId(i), Request::Ping)).collect()
    }

    #[test]
    fn await_all_gathers_everything() {
        let t = LocalTransport::new(Cluster::new(5));
        t.cluster().kill(2);
        let out = QuorumRound::await_all(4).run(&t, pings(5));
        assert_eq!(out.validations(), 4);
        assert!(out.quorum_met());
        assert_eq!(out.rejected.len(), 1);
        assert_eq!(out.rejected[0].node, NodeId(2));
        assert_eq!(out.rejected[0].error, NodeError::Down);
        assert!(out.abandoned.is_empty());
    }

    #[test]
    fn await_all_reports_missed_quorum() {
        let t = LocalTransport::new(Cluster::new(3));
        t.cluster().kill(0);
        t.cluster().kill(1);
        let out = QuorumRound::await_all(2).run(&t, pings(3));
        assert!(!out.quorum_met());
        assert_eq!(out.validations(), 1);
    }

    #[test]
    fn first_quorum_stops_early_sequentially() {
        let t = LocalTransport::new(Cluster::new(6));
        let before = t.cluster().io_totals();
        let out = QuorumRound::first_quorum(2).run(&t, pings(6));
        assert!(out.quorum_met());
        assert_eq!(out.validations(), 2);
        assert_eq!(
            out.abandoned,
            vec![NodeId(2), NodeId(3), NodeId(4), NodeId(5)],
            "sequential transport never issues the abandoned suffix"
        );
        // Ping is unaccounted, but ensure nothing else was counted.
        assert_eq!(t.cluster().io_totals().since(&before).reads, 0);
    }

    #[test]
    fn first_quorum_skips_failures_until_met() {
        let t = LocalTransport::new(Cluster::new(5));
        t.cluster().kill(0);
        t.cluster().kill(1);
        let out = QuorumRound::first_quorum(2).run(&t, pings(5));
        assert!(out.quorum_met());
        assert_eq!(out.rejected.len(), 2, "failures before quorum are recorded");
        assert_eq!(out.accepted_in_issue_order()[0].node, NodeId(2));
        assert_eq!(out.abandoned, vec![NodeId(4)]);
    }

    #[test]
    fn first_quorum_zero_needed_is_a_noop() {
        let t = LocalTransport::new(Cluster::new(3));
        let out = QuorumRound::first_quorum(0).run(&t, pings(3));
        assert!(out.quorum_met());
        assert_eq!(out.validations(), 0);
        assert_eq!(out.abandoned.len(), 3);
    }

    #[test]
    fn concurrent_round_meets_quorum_despite_dead_member() {
        // Member i's link is slower the earlier it is issued, so replies
        // arrive in reverse issue order.
        let t = SimTransport::new(Cluster::new(5), 7);
        for i in 0..5 {
            let d = 1_000 * (5 - i as u64);
            t.set_link_delay(i, Some((d, d)));
        }
        t.cluster().kill(3);
        let out = QuorumRound::await_all(4).run(&t, pings(5));
        assert!(out.quorum_met());
        assert_eq!(out.validations(), 4);
        assert_eq!(out.rejected[0].node, NodeId(3));
        let arrival: Vec<usize> = out.accepted.iter().map(|a| a.index).collect();
        assert_eq!(arrival, vec![4, 2, 1, 0]);
        let order: Vec<usize> = out
            .accepted_in_issue_order()
            .iter()
            .map(|a| a.index)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 4]);
        // The dead member answered like any other: no timeout was waited.
        assert_eq!(t.now(), 2 * 5_000, "one round trip of the slowest link");
    }

    #[test]
    fn empty_round_trivially_met_at_zero() {
        let t = LocalTransport::new(Cluster::new(1));
        let out = QuorumRound::await_all(0).run(&t, Vec::new());
        assert!(out.quorum_met());
        let out = QuorumRound::await_all(1).run(&t, Vec::new());
        assert!(!out.quorum_met());
    }

    #[test]
    fn fused_awaitall_ops_gather_independently() {
        let t = LocalTransport::new(Cluster::new(6));
        t.cluster().kill(4);
        let ops = vec![
            PlanOp {
                round: QuorumRound::await_all(3),
                calls: pings(3),
            },
            PlanOp {
                round: QuorumRound::await_all(2),
                calls: (3..6).map(|i| (NodeId(i), Request::Ping)).collect(),
            },
        ];
        let outcomes = MultiRound::run(&t, ops);
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes[0].quorum_met());
        assert_eq!(outcomes[0].validations(), 3);
        assert!(outcomes[0].rejected.is_empty());
        assert!(outcomes[1].quorum_met());
        assert_eq!(outcomes[1].validations(), 2);
        assert_eq!(outcomes[1].rejected[0].node, NodeId(4));
        // Local indices are per-op, not per-batch.
        assert_eq!(outcomes[1].accepted_in_issue_order()[0].index, 0);
    }

    #[test]
    fn fused_first_quorum_stops_after_every_op_is_met() {
        let t = LocalTransport::new(Cluster::new(6));
        let ops = vec![
            PlanOp {
                round: QuorumRound::first_quorum(1),
                calls: pings(3),
            },
            PlanOp {
                round: QuorumRound::first_quorum(2),
                calls: (3..6).map(|i| (NodeId(i), Request::Ping)).collect(),
            },
        ];
        let outcomes = MultiRound::run(&t, ops);
        // Sequential lazy dispatch: op 0 is met on its first call; its
        // other two calls are issued anyway while op 1 still gathers
        // (fusion records them as accepts, a lone round would have
        // abandoned them). Op 1 completes on its second success and its
        // remaining call is never issued.
        assert!(outcomes[0].quorum_met());
        assert!(outcomes[1].quorum_met());
        assert_eq!(outcomes[1].validations(), 2);
        assert_eq!(outcomes[1].abandoned, vec![NodeId(5)]);
    }

    #[test]
    fn fused_unsatisfiable_op_does_not_block_early_exit() {
        let t = LocalTransport::new(Cluster::new(6));
        for n in 0..3 {
            t.cluster().kill(n);
        }
        let ops = vec![
            // Op 0 can never meet its quorum: all members dead.
            PlanOp {
                round: QuorumRound::first_quorum(1),
                calls: pings(3),
            },
            PlanOp {
                round: QuorumRound::first_quorum(1),
                calls: (3..6).map(|i| (NodeId(i), Request::Ping)).collect(),
            },
        ];
        let outcomes = MultiRound::run(&t, ops);
        assert!(!outcomes[0].quorum_met());
        assert_eq!(outcomes[0].rejected.len(), 3, "exhausted, not stuck");
        assert!(outcomes[1].quorum_met());
        assert_eq!(outcomes[1].validations(), 1);
        assert_eq!(
            outcomes[1].abandoned,
            vec![NodeId(4), NodeId(5)],
            "the dead op must not keep the met op's stragglers awaited"
        );
    }

    #[test]
    fn fused_zero_threshold_and_empty_ops_complete_upfront() {
        let t = LocalTransport::new(Cluster::new(3));
        let ops = vec![
            PlanOp {
                round: QuorumRound::first_quorum(0),
                calls: pings(3),
            },
            PlanOp {
                round: QuorumRound::await_all(0),
                calls: Vec::new(),
            },
        ];
        let outcomes = MultiRound::run(&t, ops);
        assert_eq!(outcomes[0].abandoned.len(), 3, "never dispatched");
        assert!(outcomes[1].quorum_met());
    }

    /// Delivers every reply twice — an at-least-once fabric in the
    /// worst case. The engines must count each op id once.
    struct DuplicatingTransport {
        inner: LocalTransport,
    }

    impl Transport for DuplicatingTransport {
        fn node_count(&self) -> usize {
            self.inner.node_count()
        }
        fn dispatch(&self, node: NodeId, env: Envelope) -> crate::rpc::Reply {
            self.inner.dispatch(node, env)
        }
        fn multicall(
            &self,
            calls: Vec<(NodeId, Envelope)>,
            sink: &mut dyn FnMut(RoundReply) -> bool,
        ) {
            let mut buffered = Vec::new();
            self.inner.multicall(calls, &mut |reply| {
                buffered.push(reply);
                true
            });
            for reply in buffered {
                if !sink(reply.clone()) || !sink(reply) {
                    return;
                }
            }
        }
    }

    /// Injects a reply with an op id the round never issued before every
    /// real reply — the cross-round stale-straggler shape.
    struct StrangerTransport {
        inner: LocalTransport,
    }

    impl Transport for StrangerTransport {
        fn node_count(&self) -> usize {
            self.inner.node_count()
        }
        fn dispatch(&self, node: NodeId, env: Envelope) -> crate::rpc::Reply {
            self.inner.dispatch(node, env)
        }
        fn multicall(
            &self,
            calls: Vec<(NodeId, Envelope)>,
            sink: &mut dyn FnMut(RoundReply) -> bool,
        ) {
            self.inner.multicall(calls, &mut |reply| {
                let stranger = RoundReply {
                    op_id: OpId::fresh(), // unknown to the round
                    round_epoch: 0,
                    node: reply.node,
                    result: Ok(Response::Ack),
                };
                sink(stranger) && sink(reply)
            });
        }
    }

    #[test]
    fn boundary_thresholds_met_exactly_and_one_short() {
        // Exactly at the boundary: 4 live of 5, threshold 4.
        let t = LocalTransport::new(Cluster::new(5));
        t.cluster().kill(2);
        let met = QuorumRound::await_all(4).run(&t, pings(5));
        assert!(met.quorum_met());
        assert_eq!(met.validations(), 4);
        assert_eq!(met.rejected.len(), 1);
        // One short: same round graded against 5.
        let short = QuorumRound::await_all(5).run(&t, pings(5));
        assert!(!short.quorum_met());
        assert_eq!(short.validations(), 4);
        assert_eq!(short.rejected.len(), 1);
        assert!(short.abandoned.is_empty(), "await_all leaves no stragglers");
    }

    #[test]
    fn fused_ops_graded_at_boundary_and_one_short_independently() {
        let t = LocalTransport::new(Cluster::new(6));
        t.cluster().kill(4);
        let ops = vec![
            // Met exactly at the boundary: 3 live members, needs 3.
            PlanOp {
                round: QuorumRound::await_all(3),
                calls: pings(3),
            },
            // One short: members {3, 4, 5} with 4 dead, needs 3.
            PlanOp {
                round: QuorumRound::await_all(3),
                calls: (3..6).map(|i| (NodeId(i), Request::Ping)).collect(),
            },
        ];
        let outcomes = MultiRound::run(&t, ops);
        assert!(outcomes[0].quorum_met());
        assert_eq!(outcomes[0].validations(), 3);
        assert!(outcomes[0].rejected.is_empty());
        assert!(!outcomes[1].quorum_met());
        assert_eq!(outcomes[1].validations(), 2);
        assert_eq!(outcomes[1].rejected.len(), 1);
        assert_eq!(outcomes[1].rejected[0].node, NodeId(4));
        assert!(outcomes[1].abandoned.is_empty());
    }

    #[test]
    fn duplicated_replies_do_not_fake_a_quorum() {
        let t = DuplicatingTransport {
            inner: LocalTransport::new(Cluster::new(4)),
        };
        // Without identity matching, node 0's duplicated ack would
        // satisfy threshold 2 on its own.
        let out = QuorumRound::first_quorum(2).run(&t, pings(4));
        assert!(out.quorum_met());
        assert_eq!(out.validations(), 2);
        let mut nodes: Vec<usize> = out.accepted.iter().map(|a| a.node.0).collect();
        nodes.dedup();
        assert_eq!(nodes, vec![0, 1], "two *distinct* members validated");
    }

    #[test]
    fn foreign_replies_are_ignored_by_identity() {
        let t = StrangerTransport {
            inner: LocalTransport::new(Cluster::new(4)),
        };
        // Every stranger ack is discarded: the quorum is still built
        // from the round's own op ids only.
        let out = QuorumRound::first_quorum(2).run(&t, pings(4));
        assert!(out.quorum_met());
        assert_eq!(out.validations(), 2);
        let nodes: Vec<usize> = out
            .accepted_in_issue_order()
            .iter()
            .map(|a| a.node.0)
            .collect();
        assert_eq!(nodes, vec![0, 1]);

        let ops = vec![
            PlanOp {
                round: QuorumRound::await_all(2),
                calls: pings(2),
            },
            PlanOp {
                round: QuorumRound::first_quorum(1),
                calls: (2..4).map(|i| (NodeId(i), Request::Ping)).collect(),
            },
        ];
        let t = StrangerTransport {
            inner: LocalTransport::new(Cluster::new(4)),
        };
        let outcomes = MultiRound::run(&t, ops);
        assert!(outcomes[0].quorum_met());
        assert_eq!(outcomes[0].validations(), 2);
        assert!(outcomes[1].quorum_met());
    }

    #[test]
    fn duplicated_replies_keep_fused_accounting_exact() {
        let t = DuplicatingTransport {
            inner: LocalTransport::new(Cluster::new(6)),
        };
        t.inner.cluster().kill(4);
        let ops = vec![
            PlanOp {
                round: QuorumRound::await_all(3),
                calls: pings(3),
            },
            PlanOp {
                round: QuorumRound::first_quorum(2),
                calls: (3..6).map(|i| (NodeId(i), Request::Ping)).collect(),
            },
        ];
        // Without identity matching this underflows `remaining` and
        // panics.
        let outcomes = MultiRound::run(&t, ops);
        assert!(outcomes[0].quorum_met());
        assert_eq!(outcomes[0].validations(), 3);
        assert!(outcomes[1].quorum_met());
        assert_eq!(outcomes[1].validations(), 2);
        assert_eq!(outcomes[1].rejected.len(), 1, "dead member counted once");
        // Totals never exceed the issued batch despite double delivery.
        for out in &outcomes {
            assert!(out.accepted.len() + out.rejected.len() + out.abandoned.len() <= 3);
        }
    }

    #[test]
    fn fused_plan_on_concurrent_transport_delivers_everything() {
        let t = SimTransport::new(Cluster::new(8), 11);
        for i in 0..8 {
            let d = 1_000 * (8 - i as u64);
            t.set_link_delay(i, Some((d, d)));
        }
        t.cluster().kill(6);
        let ops: Vec<PlanOp> = (0..4)
            .map(|op| PlanOp {
                round: QuorumRound::await_all(1),
                calls: (0..2)
                    .map(|j| (NodeId(op * 2 + j), Request::Ping))
                    .collect(),
            })
            .collect();
        let outcomes = MultiRound::run(&t, ops);
        for (op, out) in outcomes.iter().enumerate() {
            let expect_rejects = usize::from(op == 3);
            assert_eq!(out.rejected.len(), expect_rejects, "op {op}");
            assert_eq!(out.validations(), 2 - expect_rejects, "op {op}");
            assert!(out.abandoned.is_empty(), "op {op}");
        }
        assert_eq!(t.stats().rounds, 1, "four ops, one fused round");
        assert_eq!(t.now(), 2 * 8_000, "one round trip of the slowest link");
    }
}

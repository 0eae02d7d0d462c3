//! The dispatch driver: how a round waits, written once.
//!
//! Algorithms 1–2 ask one thing of the network — send a level's
//! requests, stop when `w_l` / `r_l` members validated. Everything
//! between "send" and "stop" is the same on every concurrent fabric:
//! one fixed deadline per round, a call completed by its first reply,
//! a duplicate absorbed, strangers handed on uncounted, the latency
//! estimator fed. [`drive`] is the only place those rules live. A
//! fabric contributes a [`Link`] — put an envelope on the wire, hand
//! back what arrives, tell the time — and nothing else: the seeded
//! simulator and the TCP pool each run exactly this loop, so what DST
//! exercises is what ships.
//!
//! The driver reads no clock and never blocks on its own: time is
//! whatever [`Link::now`] says (virtual nanoseconds under
//! [`SimTransport`](crate::sim::SimTransport), monotonic wall
//! nanoseconds otherwise), and waiting is [`Link::recv`]'s business.
//! clippy's determinism ban (see this crate's `lib.rs`) covers this file.
//!
//! [`LocalTransport`](crate::transport::LocalTransport) stays outside:
//! it has no link to wait on — a call *is* its reply — and its lazy
//! sequential `multicall` (an abandoned suffix is never issued) is the
//! deterministic reference the cost pins and the figures replay against.

use crate::detmap::DetHashMap;
use crate::health::NodeHealth;
use crate::node::NodeId;
use crate::rpc::{Envelope, NodeError, OpId, Reply};
use crate::sync;
use crate::transport::RoundReply;

/// The instant that never comes: a round without a deadline, a
/// [`Link::recv`] that may wait for ever.
pub(crate) const NEVER: u64 = u64::MAX;

/// What one round needs of a fabric. A link is round-scoped: it is made
/// for one [`drive`] and dropping it closes the round — whatever is
/// still in flight stops being this caller's business (it still
/// executes on its node, exactly as on a real network).
pub(crate) trait Link {
    /// Puts `env` on the wire to `node`. Never waits for the peer; a
    /// send that cannot be made surfaces as a failed reply from
    /// [`recv`](Self::recv), carrying the envelope's identity.
    fn send(&mut self, node: NodeId, env: &Envelope);

    /// The next reply to arrive, or `None` once `until` is reached
    /// ([`NEVER`]: once the link can tell that nothing more will come).
    fn recv(&mut self, until: u64) -> Option<RoundReply>;

    /// The link's clock, in nanoseconds from an arbitrary origin.
    fn now(&self) -> u64;
}

/// One call of the round being driven.
struct Slot {
    node: NodeId,
    env: Envelope,
    done: bool,
}

/// Runs one fan-out over `link`: sends every call, then delivers each
/// call's first reply to `sink` in arrival order until every call
/// completed or the sink returns `false`. Either way the link is closed
/// on return.
///
/// `budget` is the fabric's fixed round-trip allowance: every call of
/// the round is declared dead `budget` after the round started, and
/// nothing is ever re-sent.
///
/// Replies are matched by [`OpId`]. A call completes on its first reply
/// (an `Ok` feeds the latency estimator; outcomes are fed once, by the
/// quorum engine), and a later reply to the same call — a duplicate or
/// a redelivery — is absorbed. A reply to an op id this round never
/// issued is forwarded uncounted: the sink ignores strangers by
/// identity. A call still open at the deadline yields
/// [`NodeError::TimedOut`] under the envelope's identity.
///
/// No [`sync::Mutex`] guard may be held across a round; a debug build
/// panics here if one is.
pub(crate) fn drive(
    mut link: impl Link,
    health: &NodeHealth,
    budget: u64,
    calls: Vec<(NodeId, Envelope)>,
    sink: &mut dyn FnMut(RoundReply) -> bool,
) {
    sync::debug_assert_unheld();
    let start = link.now();
    let deadline = start.saturating_add(budget);
    let mut by_op: DetHashMap<OpId, usize> = DetHashMap::default();
    let mut slots: Vec<Slot> = Vec::with_capacity(calls.len());
    for (node, env) in calls {
        link.send(node, &env);
        by_op.insert(env.op_id, slots.len());
        slots.push(Slot {
            node,
            env,
            done: false,
        });
    }
    let mut open = slots.len();
    while open > 0 {
        let received = link.recv(deadline);
        let now = link.now();
        let Some(reply) = received else {
            if deadline == NEVER {
                return; // nothing in flight and nothing to wait out
            }
            if now < deadline {
                continue;
            }
            for s in slots.iter().filter(|s| !s.done) {
                let expired = RoundReply {
                    op_id: s.env.op_id,
                    round_epoch: s.env.round_epoch,
                    node: s.node,
                    result: Err(NodeError::TimedOut),
                };
                if !sink(expired) {
                    return;
                }
            }
            return;
        };
        match by_op.get(&reply.op_id).map(|&i| &mut slots[i]) {
            Some(s) if s.done => continue,
            Some(s) => {
                s.done = true;
                open -= 1;
                if reply.result.is_ok() {
                    health.record_sample(s.node.0, now.saturating_sub(start).max(1));
                }
            }
            None => {}
        }
        if !sink(reply) {
            return;
        }
    }
}

/// [`drive`] for a lone command: a batch of one whose sink keeps the
/// reply to `env` and lets strangers pass.
pub(crate) fn drive_one(
    link: impl Link,
    health: &NodeHealth,
    budget: u64,
    node: NodeId,
    env: Envelope,
) -> Reply {
    let (op_id, round_epoch) = (env.op_id, env.round_epoch);
    let mut result = Err(NodeError::TransportClosed);
    drive(link, health, budget, vec![(node, env)], &mut |reply| {
        if reply.op_id != op_id {
            return true;
        }
        result = reply.result;
        false
    });
    Reply {
        op_id,
        round_epoch,
        result,
    }
}

#[cfg(test)]
mod tests {
    //! One row per waiting rule, over a scripted link on a scripted
    //! clock: no threads, no sockets, no RNG.

    use super::*;
    use crate::rpc::{Request, Response};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// What the script records and what it will deliver.
    #[derive(Default)]
    struct Script {
        now: u64,
        /// `answers[node][n]`: how long after the node's `n`-th send its
        /// reply arrives (`None`, or past the end: the message is lost).
        answers: Vec<Vec<Option<u64>>>,
        /// Every send: `(instant, node)`.
        sent: Vec<(u64, usize)>,
        /// Replies in flight: `(arrival instant, reply)`.
        inflight: Vec<(u64, RoundReply)>,
        closed: bool,
    }

    struct ScriptLink(Rc<RefCell<Script>>);

    impl Link for ScriptLink {
        fn send(&mut self, node: NodeId, env: &Envelope) {
            let mut s = self.0.borrow_mut();
            let now = s.now;
            let nth = s.sent.iter().filter(|&&(_, n)| n == node.0).count();
            s.sent.push((now, node.0));
            if let Some(&Some(delay)) = s.answers.get(node.0).and_then(|a| a.get(nth)) {
                let reply = RoundReply {
                    op_id: env.op_id,
                    round_epoch: env.round_epoch,
                    node,
                    result: Ok(Response::Pong),
                };
                s.inflight.push((now + delay, reply));
            }
        }

        fn recv(&mut self, until: u64) -> Option<RoundReply> {
            let mut s = self.0.borrow_mut();
            let next = (0..s.inflight.len()).min_by_key(|&i| s.inflight[i].0);
            match next.filter(|&i| s.inflight[i].0 < until) {
                Some(i) => {
                    let (at, reply) = s.inflight.remove(i);
                    s.now = s.now.max(at);
                    Some(reply)
                }
                None => {
                    if until != NEVER {
                        s.now = s.now.max(until);
                    }
                    None
                }
            }
        }

        fn now(&self) -> u64 {
            self.0.borrow().now
        }
    }

    impl Drop for ScriptLink {
        fn drop(&mut self) {
            self.0.borrow_mut().closed = true;
        }
    }

    fn script(answers: &[&[Option<u64>]]) -> Rc<RefCell<Script>> {
        Rc::new(RefCell::new(Script {
            answers: answers.iter().map(|a| a.to_vec()).collect(),
            ..Script::default()
        }))
    }

    fn pings(nodes: &[usize]) -> Vec<(NodeId, Envelope)> {
        nodes
            .iter()
            .map(|&n| (NodeId(n), Envelope::in_epoch(Request::Ping, 7)))
            .collect()
    }

    /// Drives `calls` to the end, collecting what the sink saw.
    fn run(
        s: &Rc<RefCell<Script>>,
        health: &NodeHealth,
        budget: u64,
        calls: Vec<(NodeId, Envelope)>,
    ) -> Vec<RoundReply> {
        let mut seen = Vec::new();
        drive(ScriptLink(Rc::clone(s)), health, budget, calls, &mut |r| {
            seen.push(r);
            true
        });
        seen
    }

    const BUDGET: u64 = 100_000;

    #[test]
    fn a_slow_reply_inside_the_budget_is_awaited_and_never_re_sent() {
        // A warm estimate at 100 says nothing about the deadline: the
        // reply 500x later is inside the fabric's budget, so it is the
        // round's answer, and no retry token is drawn.
        let health = NodeHealth::new();
        for _ in 0..3 {
            health.record_sample(0, 100);
        }
        let s = script(&[&[Some(50_000)]]);
        let seen = run(&s, &health, BUDGET, pings(&[0]));
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].result, Ok(Response::Pong));
        assert_eq!(s.borrow().sent, vec![(0, 0)], "one send, no re-issue");
        assert_eq!(s.borrow().now, 50_000, "the fixed budget, not the estimate");
        assert_eq!(health.retries(), 0);
    }

    #[test]
    fn a_duplicate_reply_is_absorbed() {
        // Node 0's reply arrives twice (a duplicating or redelivering
        // fabric); node 1 keeps the round open past the copy.
        let health = NodeHealth::new();
        let s = script(&[&[Some(100)], &[Some(300)]]);
        let calls = pings(&[0, 1]);
        let copy = RoundReply {
            op_id: calls[0].1.op_id,
            round_epoch: calls[0].1.round_epoch,
            node: NodeId(0),
            result: Ok(Response::Pong),
        };
        s.borrow_mut().inflight.push((200, copy));
        let seen = run(&s, &health, BUDGET, calls);
        let nodes: Vec<usize> = seen.iter().map(|r| r.node.0).collect();
        assert_eq!(nodes, vec![0, 1], "each call completes exactly once");
        assert_eq!(health.samples(0), 1, "the copy feeds no second sample");
    }

    #[test]
    fn a_strangers_reply_reaches_the_sink_and_completes_no_slot() {
        let health = NodeHealth::new();
        let s = script(&[&[Some(100)]]);
        let stranger = RoundReply {
            op_id: OpId(u64::MAX),
            round_epoch: 1,
            node: NodeId(0),
            result: Ok(Response::Ack),
        };
        s.borrow_mut().inflight.push((10, stranger.clone()));
        let calls = pings(&[0]);
        let own = calls[0].1.op_id;
        let seen = run(&s, &health, BUDGET, calls);
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], stranger, "forwarded as it came");
        assert_eq!(seen[1].op_id, own, "and the round went on waiting");
        assert_eq!(health.samples(0), 1, "one sample: the round's own call");
    }

    #[test]
    fn an_expired_slot_yields_timed_out_under_the_envelopes_identity() {
        let health = NodeHealth::new();
        let s = script(&[&[], &[Some(10)]]);
        let calls = pings(&[0, 1]);
        let lost = calls[0].1.clone();
        let seen = run(&s, &health, 1_000, calls);
        assert_eq!(seen.len(), 2);
        assert_eq!(
            seen[1],
            RoundReply {
                op_id: lost.op_id,
                round_epoch: lost.round_epoch,
                node: NodeId(0),
                result: Err(NodeError::TimedOut),
            }
        );
        assert_eq!(s.borrow().now, 1_000);
    }

    #[test]
    fn the_sink_returning_false_ends_the_round_and_closes_the_link() {
        let health = NodeHealth::new();
        let s = script(&[&[Some(10)], &[Some(20)], &[Some(30)]]);
        let mut seen = 0;
        drive(
            ScriptLink(Rc::clone(&s)),
            &health,
            BUDGET,
            pings(&[0, 1, 2]),
            &mut |_| {
                seen += 1;
                false
            },
        );
        assert_eq!(seen, 1);
        assert!(s.borrow().closed);
        assert_eq!(
            s.borrow().inflight.len(),
            2,
            "stragglers left to the fabric"
        );
        assert_eq!(s.borrow().now, 10);
    }

    #[test]
    fn drive_one_keeps_its_own_reply_and_lets_strangers_pass() {
        let health = NodeHealth::new();
        let s = script(&[&[Some(100)]]);
        let stranger = RoundReply {
            op_id: OpId(u64::MAX),
            round_epoch: 1,
            node: NodeId(0),
            result: Err(NodeError::Down),
        };
        s.borrow_mut().inflight.push((10, stranger));
        let env = Envelope::in_epoch(Request::Ping, 9);
        let (op_id, round_epoch) = (env.op_id, env.round_epoch);
        let reply = drive_one(ScriptLink(Rc::clone(&s)), &health, BUDGET, NodeId(0), env);
        assert_eq!(
            reply,
            Reply {
                op_id,
                round_epoch,
                result: Ok(Response::Pong)
            }
        );
    }
}

//! The dispatch driver: how a round waits, written once.
//!
//! Algorithms 1–2 ask one thing of the network — send a level's
//! requests, stop when `w_l` / `r_l` members validated. Everything
//! between "send" and "stop" is the same on every concurrent fabric:
//! keep a deadline per call, re-issue a call that outlives its node's
//! hedge quantile, complete a call on its first reply, absorb the
//! loser, hand strangers on uncounted, feed the latency estimator.
//! [`drive`] is the only place those rules live. A fabric contributes a
//! [`Link`] — put an envelope on the wire, hand back what arrives, tell
//! the time — and nothing else: the in-process channels, the seeded
//! simulator and the TCP pool each run exactly this loop, so what DST
//! exercises is what ships.
//!
//! The driver reads no clock and never blocks on its own: time is
//! whatever [`Link::now`] says (virtual nanoseconds under
//! [`SimTransport`](crate::sim::SimTransport), monotonic wall
//! nanoseconds otherwise), and waiting is [`Link::recv`]'s business. The
//! `sim-determinism` lint covers this file.
//!
//! [`LocalTransport`](crate::transport::LocalTransport) stays outside:
//! it has no link to wait on — a call *is* its reply — and its lazy
//! sequential `multicall` (an abandoned suffix is never issued) is the
//! deterministic reference the cost pins and the figures replay against.

use crate::detmap::DetHashMap;
use crate::health::NodeHealth;
use crate::node::NodeId;
use crate::rpc::{Envelope, Lane, NodeError, OpId, Reply};
use crate::transport::RoundReply;

/// The instant that never comes: a call without a deadline, a slot
/// without a hedge, a [`Link::recv`] that may wait for ever.
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
    /// When the call is declared dead ([`NEVER`] on a fabric without a
    /// budget).
    deadline: u64,
    /// When the same envelope is re-issued ([`NEVER`]: not armed, or
    /// already decided).
    hedge_at: u64,
    hedged: bool,
    done: bool,
}

/// Runs one fan-out over `link`: sends every call, then delivers each
/// call's first reply to `sink` in arrival order until every call
/// completed or the sink returns `false`. Either way the link is closed
/// on return.
///
/// `budget` is the fabric's fixed round-trip allowance per call (`None`:
/// the fabric never times a call out). With a
/// [`HedgePolicy`](crate::health::HedgePolicy) armed the per-node
/// estimate tightens it — never loosens it — and a foreground call to a
/// node not flagged as a straggler is re-issued once, same envelope,
/// when it outlives the node's hedge quantile, if the retry budget
/// grants a token. A flagged straggler is never hedged: the re-issue
/// goes to the *same* node (its protocol role is fixed), which can win
/// against jitter or a lost packet but never against a chronically slow
/// node. With the policy `Off` nothing is armed and nothing is drawn
/// from the budget.
///
/// Replies are matched by [`OpId`]. A call completes on its first reply
/// (an `Ok` feeds the latency estimator — unless the fabric has no
/// budget and the policy is `Off`, when nothing would read it; outcomes
/// are fed once, by the quorum engine); a call that completes after its hedge fired counts as
/// a hedge win — both copies carry one identity, so that is the one
/// rule — and the loser of the pair is absorbed as a duplicate. A reply
/// to an op id this round never issued is forwarded uncounted: the sink
/// ignores strangers by identity. A call that outlives its deadline
/// yields [`NodeError::TimedOut`] under the envelope's identity.
pub(crate) fn drive(
    mut link: impl Link,
    health: &NodeHealth,
    budget: Option<u64>,
    calls: Vec<(NodeId, Envelope)>,
    sink: &mut dyn FnMut(RoundReply) -> bool,
) {
    let start = link.now();
    health.advance_now(start);
    let armed = health.hedging_enabled();
    // The estimate shapes deadlines and hedges. A fabric that keeps no
    // deadline, under a policy that arms no hedge, has no reader for it:
    // its replies are not sampled, and an estimator taught directly stays
    // exactly as taught. (In-process latencies are scheduler noise — one
    // late worker wake-up would flag a healthy node a straggler.) A
    // budgeted fabric samples always, so arming starts warm.
    let sampling = armed || budget.is_some();
    let mut by_op: DetHashMap<OpId, usize> = DetHashMap::default();
    let mut slots: Vec<Slot> = Vec::with_capacity(calls.len());
    for (node, env) in calls {
        link.send(node, &env);
        let deadline = budget.map_or(NEVER, |fixed| {
            let adaptive = armed.then(|| health.timeout_for(node.0)).flatten();
            start.saturating_add(adaptive.map_or(fixed, |t| t.min(fixed)))
        });
        let hedge_at = (armed && env.lane == Lane::Foreground && !health.straggler(node.0))
            .then(|| health.hedge_delay(node.0))
            .flatten()
            .map(|delay| start.saturating_add(delay))
            .filter(|&at| at < deadline)
            .unwrap_or(NEVER);
        by_op.insert(env.op_id, slots.len());
        slots.push(Slot {
            node,
            env,
            deadline,
            hedge_at,
            hedged: false,
            done: false,
        });
    }
    // The next instant something is due: a deadline or a hedge. It is
    // recomputed only after waking at it — a call that completes in the
    // meantime may leave it early, which costs one empty wake-up, never a
    // late one.
    let next_due = |slots: &[Slot]| {
        let due = slots.iter().filter(|s| !s.done);
        due.map(|s| s.deadline.min(s.hedge_at))
            .min()
            .unwrap_or(NEVER)
    };
    let mut wake = next_due(&slots);
    let mut open = slots.len();
    while open > 0 {
        let received = link.recv(wake);
        let now = link.now();
        health.advance_now(now);
        let Some(reply) = received else {
            if wake == NEVER {
                return; // nothing in flight and nothing to wait out
            }
            for s in slots.iter_mut().filter(|s| !s.done) {
                if s.deadline <= now {
                    s.done = true;
                    open -= 1;
                    let expired = RoundReply {
                        op_id: s.env.op_id,
                        round_epoch: s.env.round_epoch,
                        node: s.node,
                        result: Err(NodeError::TimedOut),
                    };
                    if !sink(expired) {
                        return;
                    }
                } else if s.hedge_at <= now {
                    s.hedge_at = NEVER; // asked once; a refusal stops asking
                    if health.try_spend(s.env.lane) {
                        link.send(s.node, &s.env);
                        s.hedged = true;
                        health.note_hedge_fired();
                    }
                }
            }
            wake = next_due(&slots);
            continue;
        };
        match by_op.get(&reply.op_id).map(|&i| &mut slots[i]) {
            Some(s) if s.done => {
                if s.hedged {
                    health.note_hedge_dup();
                }
                continue;
            }
            Some(s) => {
                s.done = true;
                open -= 1;
                if sampling && reply.result.is_ok() {
                    health.record_sample(s.node.0, now.saturating_sub(start).max(1));
                }
                if s.hedged {
                    health.note_hedge_won();
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
    budget: Option<u64>,
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
    use crate::health::{HedgeCounters, HedgePolicy, Outcome};
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

    /// A registry whose estimator is warm for `nodes` at `rtt`.
    fn warmed(policy: HedgePolicy, nodes: &[usize], rtt: u64) -> NodeHealth {
        let health = NodeHealth::sim_scale();
        health.set_policy(policy);
        for &n in nodes {
            for _ in 0..3 {
                health.record_sample(n, rtt);
            }
        }
        health
    }

    /// Drives `calls` to the end, collecting what the sink saw.
    fn run(
        s: &Rc<RefCell<Script>>,
        health: &NodeHealth,
        budget: Option<u64>,
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
    fn off_policy_arms_nothing_and_draws_nothing() {
        let health = warmed(HedgePolicy::Off, &[0], 100);
        let s = script(&[&[Some(50_000)]]);
        let seen = run(&s, &health, Some(BUDGET), pings(&[0]));
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].result, Ok(Response::Pong));
        assert_eq!(s.borrow().sent, vec![(0, 0)], "one send, no re-issue");
        assert_eq!(s.borrow().now, 50_000, "the fixed budget, not the estimate");
        assert_eq!(health.hedge_counters(), HedgeCounters::default());
    }

    #[test]
    fn replies_are_sampled_only_where_the_estimate_has_a_reader() {
        let sampled = |policy, budget| {
            let health = NodeHealth::sim_scale();
            health.set_policy(policy);
            run(&script(&[&[Some(100)]]), &health, budget, pings(&[0]));
            health.snapshot().len()
        };
        assert_eq!(
            sampled(HedgePolicy::Off, Some(BUDGET)),
            1,
            "arming starts warm"
        );
        assert_eq!(sampled(HedgePolicy::P99, None), 1);
        assert_eq!(sampled(HedgePolicy::Off, None), 0, "taught only directly");
    }

    #[test]
    fn hedge_fires_at_the_hedge_delay_and_never_at_or_past_the_deadline() {
        let health = warmed(HedgePolicy::P99, &[0], 100);
        let (delay, timeout) = (
            health.hedge_delay(0).expect("warm"),
            health.timeout_for(0).expect("warm"),
        );
        assert!(delay < timeout && timeout < BUDGET);
        // Both copies are lost: the hedge goes out at exactly the hedge
        // delay and the call dies at the adaptive deadline.
        let s = script(&[&[]]);
        let seen = run(&s, &health, Some(BUDGET), pings(&[0]));
        assert_eq!(s.borrow().sent, vec![(0, 0), (delay, 0)]);
        assert_eq!(seen[0].result, Err(NodeError::TimedOut));
        assert_eq!(s.borrow().now, timeout);
        assert_eq!(health.hedge_counters().fired, 1);
        // A fabric budget that expires with the hedge delay: no hedge.
        let s = script(&[&[]]);
        run(&s, &health, Some(delay), pings(&[0]));
        assert_eq!(s.borrow().sent, vec![(0, 0)]);
        assert_eq!(s.borrow().now, delay);
        assert_eq!(health.hedge_counters().fired, 1);
    }

    #[test]
    fn budget_refusal_stops_asking() {
        let health = warmed(HedgePolicy::P99, &[0], 100);
        while health.try_spend(Lane::Foreground) {}
        let spent = health.hedge_counters().retries;
        let s = script(&[&[Some(50_000)]]);
        let seen = run(&s, &health, None, pings(&[0]));
        assert_eq!(seen[0].result, Ok(Response::Pong));
        assert_eq!(s.borrow().sent.len(), 1);
        let after = health.hedge_counters();
        assert_eq!((after.fired, after.retries), (0, spent));
    }

    #[test]
    fn background_lane_and_flagged_stragglers_are_never_hedged() {
        // Node 3's estimate sits 10× over the fleet median: flagged.
        let health = warmed(HedgePolicy::P99, &[0, 1, 2], 100);
        for _ in 0..3 {
            health.record_sample(3, 1_000);
        }
        assert!(health.straggler(3) && !health.straggler(0));
        let slow: &[Option<u64>] = &[Some(50_000), Some(50_000)];
        let s = script(&[slow, slow, slow, slow]);
        let mut calls = pings(&[0, 3]);
        calls.push((NodeId(1), Envelope::new(Request::Ping).background()));
        let seen = run(&s, &health, None, calls);
        assert_eq!(seen.len(), 3);
        let resent: Vec<usize> = s.borrow().sent[3..].iter().map(|&(_, n)| n).collect();
        assert_eq!(resent, vec![0], "only the unflagged foreground call");
        assert_eq!(health.hedge_counters().fired, 1);
    }

    #[test]
    fn hedged_pair_counts_one_win_and_absorbs_the_loser() {
        let health = warmed(HedgePolicy::P99, &[0], 100);
        // Node 0's first copy crawls, its hedge copy answers at once;
        // cold node 1 keeps the round open until the loser has landed.
        let s = script(&[&[Some(5_000), Some(50)], &[Some(6_000)]]);
        let seen = run(&s, &health, None, pings(&[0, 1]));
        let nodes: Vec<usize> = seen.iter().map(|r| r.node.0).collect();
        assert_eq!(nodes, vec![0, 1], "each call completes exactly once");
        let c = health.hedge_counters();
        assert_eq!((c.fired, c.won, c.dups), (1, 1, 1));
    }

    #[test]
    fn a_strangers_reply_reaches_the_sink_and_completes_no_slot() {
        let health = NodeHealth::sim_scale();
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
        let seen = run(&s, &health, Some(BUDGET), calls);
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], stranger, "forwarded as it came");
        assert_eq!(seen[1].op_id, own, "and the round went on waiting");
        assert_eq!(
            health.snapshot().len(),
            1,
            "one sample: the round's own call"
        );
    }

    #[test]
    fn an_expired_slot_yields_timed_out_under_the_envelopes_identity() {
        let health = NodeHealth::sim_scale();
        let s = script(&[&[], &[Some(10)]]);
        let calls = pings(&[0, 1]);
        let lost = calls[0].1.clone();
        let seen = run(&s, &health, Some(1_000), calls);
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
    fn a_fabric_without_a_budget_never_times_out() {
        let health = warmed(HedgePolicy::P99, &[0], 100);
        let s = script(&[&[Some(1 << 50), None]]);
        let seen = run(&s, &health, None, pings(&[0]));
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].result, Ok(Response::Pong), "armed or not");
    }

    #[test]
    fn the_sink_returning_false_ends_the_round_and_closes_the_link() {
        let health = NodeHealth::sim_scale();
        let s = script(&[&[Some(10)], &[Some(20)], &[Some(30)]]);
        let mut seen = 0;
        drive(
            ScriptLink(Rc::clone(&s)),
            &health,
            Some(BUDGET),
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
    fn the_health_clock_follows_the_links_clock() {
        let health = NodeHealth::sim_scale();
        let threshold = crate::health::HealthConfig::sim_scale().circuit_threshold;
        let cooldown = crate::health::HealthConfig::sim_scale().circuit_cooldown;
        for _ in 0..threshold {
            health.record_outcome(0, Outcome::Unavailable { timed_out: false });
        }
        assert!(!health.allow(0), "tripped at instant 0");
        // A round on some other node, during which the link's clock
        // passes the cooldown.
        let s = script(&[&[], &[Some(cooldown)]]);
        run(&s, &health, None, pings(&[1]));
        assert!(health.allow(0), "cooled down: one canary");
        assert!(!health.allow(0), "and only one");
    }

    #[test]
    fn drive_one_keeps_its_own_reply_and_lets_strangers_pass() {
        let health = NodeHealth::sim_scale();
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
        let reply = drive_one(
            ScriptLink(Rc::clone(&s)),
            &health,
            Some(BUDGET),
            NodeId(0),
            env,
        );
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

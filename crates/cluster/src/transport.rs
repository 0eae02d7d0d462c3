//! How protocol code reaches storage nodes.
//!
//! One [`Transport`] trait, and the two in-process implementations of it
//! (the simulated and the socket ones live in [`crate::sim`] and
//! [`crate::tcp`]):
//!
//! * [`LocalTransport`] — synchronous in-process dispatch. Deterministic
//!   and allocation-light; the default for availability experiments,
//!   where per-operation outcomes must be exactly replayable. It has no
//!   link to wait on, so it keeps the trait's lazy sequential
//!   `multicall` and stays outside the dispatch driver.
//! * [`ChannelTransport`] — one worker thread per node behind crossbeam
//!   channels, a faithful stand-in for an RPC fabric. Requests from many
//!   protocol threads interleave on the node's mailbox exactly as they
//!   would on a socket. Links are reliable and FIFO, matching the
//!   paper's "no failure on communication links" assumption. Per-node
//!   latency injection ([`ChannelTransport::set_node_latency`]) makes
//!   dispatch strategies measurable: a level fanned out over slow nodes
//!   costs one round trip, a sequential walk costs their sum. All it
//!   contributes to a round is a link — a mailbox send and one reply
//!   channel on the wall clock; how the round waits (hedging when a
//!   policy is armed, late-reply absorption, the health clock) is the
//!   shared dispatch driver's (`driver.rs`). The fabric has no
//!   round-trip budget: a call here never times out.
//!
//! Everything a transport carries is an [`Envelope`] (command identity +
//! payload) answered by a [`Reply`] echoing that identity; transports
//! route envelopes to the [`NodeApi`] surface and never interpret
//! payloads. Besides the single-command [`Transport::dispatch`] (and its
//! payload-level convenience [`Transport::call`]), the trait exposes the
//! fan-out primitive [`Transport::multicall`] that the quorum round
//! engine ([`crate::quorum_round`]) builds on: issue a batch, observe
//! completions in arrival order, match them by [`OpId`], stop early once
//! a quorum is satisfied.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::cluster::Cluster;
use crate::driver::{drive, drive_one, Link, NEVER};
use crate::health::NodeHealth;
use crate::node::NodeId;
use crate::rpc::{Envelope, NodeApi, NodeError, OpId, Reply, Request, Response};

/// One completed call of a [`Transport::multicall`] batch, identified by
/// the op id its envelope carried (never by arrival position — an
/// at-least-once fabric may interleave stale replies from earlier
/// rounds, and only identity tells them apart).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundReply {
    /// Identity of the command this reply answers.
    pub op_id: OpId,
    /// The round epoch the command carried.
    pub round_epoch: u64,
    /// The node that was addressed.
    pub node: NodeId,
    /// What came back.
    pub result: Result<Response, NodeError>,
}

impl RoundReply {
    /// Builds the round reply for `node` from a node-level [`Reply`].
    pub fn from_reply(node: NodeId, reply: Reply) -> Self {
        RoundReply {
            op_id: reply.op_id,
            round_epoch: reply.round_epoch,
            node,
            result: reply.result,
        }
    }
}

/// A way to issue enveloped commands to nodes and wait for their
/// answers.
pub trait Transport: Send + Sync {
    /// Number of reachable nodes.
    fn node_count(&self) -> usize;

    /// Sends one enveloped command to `node` and waits for the outcome.
    /// The reply echoes the envelope's identity even when synthesised by
    /// the transport (timeout, closed channel).
    fn dispatch(&self, node: NodeId, env: Envelope) -> Reply;

    /// Payload-level convenience: wraps `req` in a fresh single-shot
    /// [`Envelope`] and unwraps the reply.
    fn call(&self, node: NodeId, req: Request) -> Result<Response, NodeError> {
        self.dispatch(node, Envelope::new(req)).result
    }

    /// Fans out a batch of enveloped calls, delivering each completion
    /// to `sink` in *arrival order*. The sink returning `false` abandons
    /// the rest of the round (a quorum was satisfied; the stragglers'
    /// answers are no longer needed).
    ///
    /// Dispatch semantics differ by transport and both are load-bearing:
    ///
    /// * The default implementation (used by [`LocalTransport`]) issues
    ///   calls **lazily and sequentially** in batch order — fully
    ///   deterministic, and an abandoned suffix is *never issued*, so
    ///   experiment replays and IO accounting are bit-for-bit stable.
    /// * [`ChannelTransport`] **sends every request up front** and
    ///   forwards completions as they arrive, so a round costs roughly
    ///   the latency of the slowest *needed* responder instead of the
    ///   sum over members. Abandoning a round only stops waiting: every
    ///   request has already been delivered and will still execute on
    ///   its node (exactly how a real fabric behaves — a write you stop
    ///   waiting for may still land).
    ///
    /// At-least-once transports may additionally deliver **duplicate or
    /// foreign** replies (op ids the caller never issued in this batch);
    /// sinks must match by [`RoundReply::op_id`] and ignore strangers.
    fn multicall(&self, calls: Vec<(NodeId, Envelope)>, sink: &mut dyn FnMut(RoundReply) -> bool) {
        for (node, env) in calls {
            let reply = self.dispatch(node, env);
            if !sink(RoundReply::from_reply(node, reply)) {
                break;
            }
        }
    }

    /// The transport's per-node health registry, if it keeps one.
    ///
    /// `None` (the default, and what [`LocalTransport`] returns) means
    /// no adaptive machinery: fixed deadlines, no hedging, no
    /// first-quorum write completion — the fully deterministic
    /// configuration experiments and exact-IO-count tests rely on.
    fn health(&self) -> Option<&NodeHealth> {
        None
    }
}

/// Synchronous in-process transport: `dispatch` runs the node's
/// [`NodeApi`] on the caller's thread, and `multicall` is the lazy
/// sequential default.
#[derive(Debug, Clone)]
pub struct LocalTransport {
    cluster: Cluster,
}

impl LocalTransport {
    /// Wraps a cluster.
    pub fn new(cluster: Cluster) -> Self {
        LocalTransport { cluster }
    }

    /// Borrow the underlying cluster (fault injection, accounting).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }
}

impl Transport for LocalTransport {
    fn node_count(&self) -> usize {
        self.cluster.len()
    }

    fn dispatch(&self, node: NodeId, env: Envelope) -> Reply {
        assert!(node.0 < self.cluster.len(), "node {node} out of range");
        self.cluster.node(node.0).execute(env)
    }
}

/// One in-flight request parcel on a node's mailbox: the command, and
/// the round channel its answer goes to, tagged with the serving node.
struct Parcel {
    env: Envelope,
    node: NodeId,
    reply: Sender<RoundReply>,
}

/// Thread-per-node transport over crossbeam channels.
///
/// Dropping the transport closes every mailbox and joins the workers.
pub struct ChannelTransport {
    cluster: Cluster,
    mailboxes: Vec<Sender<Parcel>>,
    /// Injected service delay per node, in nanoseconds (0 = none).
    latencies: Vec<Arc<AtomicU64>>,
    /// Per-node health registry (hedging off by default, so the
    /// transport behaves exactly as before until a caller enables it).
    health: Arc<NodeHealth>,
    /// Wire messages put on a mailbox: single dispatches, fan-out sends,
    /// and hedge re-issues. Benchmarks use this to price hedging.
    messages: AtomicU64,
    workers: Vec<JoinHandle<()>>,
}

impl ChannelTransport {
    /// Spawns one worker thread per node of `cluster`, with no injected
    /// latency.
    pub fn new(cluster: Cluster) -> Self {
        Self::with_latency(cluster, &[])
    }

    /// Spawns workers with an initial per-node service delay: node `i`
    /// sleeps `latency[i]` before handling each request (nodes beyond
    /// the slice get zero). Use this to model heterogeneous or uniformly
    /// slow fabrics; [`set_node_latency`](Self::set_node_latency)
    /// adjusts it live.
    pub fn with_latency(cluster: Cluster, latency: &[Duration]) -> Self {
        let mut mailboxes = Vec::with_capacity(cluster.len());
        let mut latencies = Vec::with_capacity(cluster.len());
        let mut workers = Vec::with_capacity(cluster.len());
        for i in 0..cluster.len() {
            let (tx, rx) = unbounded::<Parcel>();
            let node = Arc::clone(cluster.node(i));
            let initial = latency.get(i).map_or(0, |d| d.as_nanos() as u64);
            let delay = Arc::new(AtomicU64::new(initial));
            let worker_delay = Arc::clone(&delay);
            let handle = std::thread::Builder::new()
                .name(format!("tq-node-{i}"))
                .spawn(move || {
                    // Serve until the mailbox closes. A reply failing to
                    // send means the caller gave up; that is its problem,
                    // not the node's.
                    while let Ok(Parcel {
                        env,
                        node: id,
                        reply,
                    }) = rx.recv()
                    {
                        let nanos = worker_delay.load(Ordering::Relaxed);
                        if nanos > 0 {
                            // tq-lint: allow(sim-determinism) -- ChannelTransport is the real-threads fabric; DST runs use SimTransport, which injects latency on the virtual clock instead.
                            std::thread::sleep(Duration::from_nanos(nanos));
                        }
                        let _ = reply.send(RoundReply::from_reply(id, node.execute(env)));
                    }
                })
                .expect("spawn node worker");
            mailboxes.push(tx);
            latencies.push(delay);
            workers.push(handle);
        }
        ChannelTransport {
            cluster,
            mailboxes,
            latencies,
            health: Arc::new(NodeHealth::real_scale()),
            messages: AtomicU64::new(0),
            workers,
        }
    }

    /// Borrow the underlying cluster (fault injection, accounting).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Sets node `i`'s injected service delay (applies to requests the
    /// worker picks up from now on).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn set_node_latency(&self, i: usize, latency: Duration) {
        self.latencies[i].store(latency.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Node `i`'s current injected service delay.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn node_latency(&self, i: usize) -> Duration {
        Duration::from_nanos(self.latencies[i].load(Ordering::Relaxed))
    }

    /// The transport's health registry — enable hedging via
    /// [`NodeHealth::set_policy`].
    pub fn health_registry(&self) -> &NodeHealth {
        &self.health
    }

    /// Total wire messages sent so far (single dispatches, fan-out
    /// sends, and hedge re-issues). Hedging's message overhead is
    /// `hedge_counters().fired / (messages_sent() - fired)`.
    pub fn messages_sent(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// A round's link: every answer of the round funnels into one
    /// channel.
    fn link(&self) -> ChannelLink<'_> {
        let (tx, rx) = unbounded();
        ChannelLink {
            transport: self,
            tx,
            rx,
        }
    }
}

/// The in-process fabric as the driver sees it: mailbox sends and one
/// reply channel, reliable and FIFO, on the wall clock. The link keeps a
/// sender of its own for hedge re-sends, so the channel never reports
/// disconnection; every send is answered instead — by the worker, or
/// in-band below when its mailbox is gone.
struct ChannelLink<'a> {
    transport: &'a ChannelTransport,
    tx: Sender<RoundReply>,
    rx: Receiver<RoundReply>,
}

impl Link for ChannelLink<'_> {
    fn send(&mut self, node: NodeId, env: &Envelope) {
        self.transport.messages.fetch_add(1, Ordering::Relaxed);
        let parcel = Parcel {
            env: env.clone(),
            node,
            reply: self.tx.clone(),
        };
        let mailbox = self.transport.mailboxes.get(node.0);
        if mailbox.and_then(|m| m.send(parcel).ok()).is_none() {
            let _ = self.tx.send(RoundReply {
                op_id: env.op_id,
                round_epoch: env.round_epoch,
                node,
                result: Err(NodeError::TransportClosed),
            });
        }
    }

    fn recv(&mut self, until: u64) -> Option<RoundReply> {
        if until == NEVER {
            return self.rx.recv().ok();
        }
        let wait = Duration::from_nanos(until.saturating_sub(self.now()));
        self.rx.recv_timeout(wait).ok()
    }

    fn now(&self) -> u64 {
        wall_nanos()
    }
}

/// The real fabrics' link clock: monotonic wall nanoseconds since the
/// process first asked.
pub(crate) fn wall_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // tq-lint: allow(sim-determinism) -- the real-threads fabrics' clock; DST runs the same driver over SimTransport's virtual one.
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

impl Transport for ChannelTransport {
    fn node_count(&self) -> usize {
        self.cluster.len()
    }

    fn dispatch(&self, node: NodeId, env: Envelope) -> Reply {
        drive_one(self.link(), &self.health, None, node, env)
    }

    fn health(&self) -> Option<&NodeHealth> {
        Some(&self.health)
    }

    fn multicall(&self, calls: Vec<(NodeId, Envelope)>, sink: &mut dyn FnMut(RoundReply) -> bool) {
        drive(self.link(), &self.health, None, calls, sink)
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        self.mailboxes.clear(); // close every mailbox
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for ChannelTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelTransport")
            .field("nodes", &self.cluster.len())
            .finish()
    }
}

/// Blanket impl so `Arc<T>` transports can be shared across protocol
/// threads. Forwards `multicall` so concurrent fan-out survives the
/// indirection.
impl<T: Transport + ?Sized> Transport for Arc<T> {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }
    fn dispatch(&self, node: NodeId, env: Envelope) -> Reply {
        (**self).dispatch(node, env)
    }
    fn multicall(&self, calls: Vec<(NodeId, Envelope)>, sink: &mut dyn FnMut(RoundReply) -> bool) {
        (**self).multicall(calls, sink)
    }
    fn health(&self) -> Option<&NodeHealth> {
        (**self).health()
    }
}

impl<T: Transport + ?Sized> Transport for &T {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }
    fn dispatch(&self, node: NodeId, env: Envelope) -> Reply {
        (**self).dispatch(node, env)
    }
    fn multicall(&self, calls: Vec<(NodeId, Envelope)>, sink: &mut dyn FnMut(RoundReply) -> bool) {
        (**self).multicall(calls, sink)
    }
    fn health(&self) -> Option<&NodeHealth> {
        (**self).health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::time::Instant;

    fn exercise(transport: &dyn Transport) {
        assert_eq!(transport.node_count(), 3);
        transport
            .call(
                NodeId(0),
                Request::InitData {
                    id: 1,
                    bytes: Bytes::from_static(b"abc"),
                },
            )
            .unwrap();
        match transport
            .call(NodeId(0), Request::ReadData { id: 1 })
            .unwrap()
        {
            Response::Data { bytes, version, .. } => {
                assert_eq!(&bytes[..], b"abc");
                assert_eq!(version, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            transport.call(NodeId(1), Request::ReadData { id: 1 }),
            Err(NodeError::NotFound)
        );
    }

    #[test]
    fn local_transport_basics() {
        let t = LocalTransport::new(Cluster::new(3));
        exercise(&t);
    }

    #[test]
    fn channel_transport_basics() {
        let t = ChannelTransport::new(Cluster::new(3));
        exercise(&t);
    }

    #[test]
    fn dispatch_echoes_envelope_identity() {
        let t = LocalTransport::new(Cluster::new(1));
        let env = Envelope::in_epoch(Request::Ping, 7);
        let (op_id, epoch) = (env.op_id, env.round_epoch);
        let reply = t.dispatch(NodeId(0), env);
        assert_eq!(reply.op_id, op_id);
        assert_eq!(reply.round_epoch, epoch);
        assert_eq!(reply.result, Ok(Response::Pong));

        let t = ChannelTransport::new(Cluster::new(1));
        let env = Envelope::in_epoch(Request::Ping, 9);
        let (op_id, epoch) = (env.op_id, env.round_epoch);
        let reply = t.dispatch(NodeId(0), env);
        assert_eq!(reply.op_id, op_id);
        assert_eq!(reply.round_epoch, epoch);
        assert_eq!(reply.result, Ok(Response::Pong));
    }

    #[test]
    fn both_transports_honour_fail_stop() {
        let local = LocalTransport::new(Cluster::new(2));
        local.cluster().kill(0);
        assert_eq!(local.call(NodeId(0), Request::Ping), Err(NodeError::Down));
        assert_eq!(local.call(NodeId(1), Request::Ping), Ok(Response::Pong));

        let chan = ChannelTransport::new(Cluster::new(2));
        chan.cluster().kill(1);
        assert_eq!(chan.call(NodeId(0), Request::Ping), Ok(Response::Pong));
        assert_eq!(chan.call(NodeId(1), Request::Ping), Err(NodeError::Down));
    }

    #[test]
    fn channel_transport_concurrent_callers() {
        let t = Arc::new(ChannelTransport::new(Cluster::new(4)));
        for i in 0..4 {
            t.call(
                NodeId(i),
                Request::InitData {
                    id: 42,
                    bytes: Bytes::from(vec![i as u8; 8]),
                },
            )
            .unwrap();
        }
        let handles: Vec<_> = (0..8)
            .map(|worker| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for round in 0..50 {
                        let node = NodeId((worker + round) % 4);
                        match t.call(node, Request::ReadData { id: 42 }).unwrap() {
                            Response::Data { bytes, .. } => {
                                assert_eq!(bytes[0] as usize, node.0);
                            }
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.cluster().io_totals().reads, 400);
    }

    #[test]
    fn shared_cluster_between_transports() {
        // The same nodes can be reached through both transports; state is
        // shared because the cluster holds Arc'd nodes.
        let cluster = Cluster::new(2);
        let local = LocalTransport::new(cluster.clone());
        let chan = ChannelTransport::new(cluster);
        local
            .call(
                NodeId(0),
                Request::InitData {
                    id: 5,
                    bytes: Bytes::from_static(b"shared"),
                },
            )
            .unwrap();
        match chan.call(NodeId(0), Request::ReadData { id: 5 }).unwrap() {
            Response::Data { bytes, .. } => assert_eq!(&bytes[..], b"shared"),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn ping_batch(n: usize) -> Vec<(NodeId, Envelope)> {
        (0..n)
            .map(|i| (NodeId(i), Envelope::new(Request::Ping)))
            .collect()
    }

    #[test]
    fn sequential_multicall_is_lazy_and_ordered() {
        let t = LocalTransport::new(Cluster::new(4));
        let batch = ping_batch(4);
        let ids: Vec<OpId> = batch.iter().map(|(_, env)| env.op_id).collect();
        let mut seen = Vec::new();
        t.multicall(batch, &mut |reply| {
            seen.push(reply.op_id);
            seen.len() < 2 // abandon after two completions
        });
        assert_eq!(seen, ids[..2], "issue order, early exit");
        // Lazy: abandoned pings were never issued, so no rejects either.
        let t = LocalTransport::new(Cluster::new(4));
        t.cluster().kill(3);
        let mut results = Vec::new();
        t.multicall(ping_batch(4), &mut |reply| {
            results.push((reply.node, reply.result.is_ok()));
            true
        });
        assert_eq!(
            results,
            vec![
                (NodeId(0), true),
                (NodeId(1), true),
                (NodeId(2), true),
                (NodeId(3), false)
            ],
            "full batch delivered in order with failures in-band"
        );
    }

    #[test]
    fn concurrent_multicall_delivers_every_reply() {
        let t = ChannelTransport::new(Cluster::new(8));
        t.cluster().kill(5);
        let mut ok = 0;
        let mut down = 0;
        t.multicall(ping_batch(8), &mut |reply| {
            match reply.result {
                Ok(Response::Pong) => ok += 1,
                Err(NodeError::Down) => down += 1,
                other => panic!("unexpected {other:?}"),
            }
            true
        });
        assert_eq!((ok, down), (7, 1));
    }

    #[test]
    fn concurrent_multicall_overlaps_injected_latency() {
        // 6 nodes, 40ms each: sequential costs ≥ 240ms, fan-out ≈ 40ms.
        // The margin is generous (4× the ideal, well under sequential) so
        // scheduler noise on a loaded CI runner cannot flake the test.
        let delay = Duration::from_millis(40);
        let t = ChannelTransport::with_latency(Cluster::new(6), &[delay; 6]);
        let start = Instant::now();
        let mut count = 0;
        t.multicall(ping_batch(6), &mut |reply| {
            assert_eq!(reply.result, Ok(Response::Pong));
            count += 1;
            true
        });
        let elapsed = start.elapsed();
        assert_eq!(count, 6);
        assert!(
            elapsed < delay * 4,
            "fan-out took {elapsed:?}, expected ~1 round trip of {delay:?}"
        );
    }

    #[test]
    fn abandoned_round_still_executes_stragglers() {
        // First-quorum abandon over the channel transport: the write we
        // stop waiting for still lands on the node.
        let t = ChannelTransport::new(Cluster::new(3));
        for i in 0..3 {
            t.call(
                NodeId(i),
                Request::InitData {
                    id: 9,
                    bytes: Bytes::from_static(b"old"),
                },
            )
            .unwrap();
        }
        let calls: Vec<(NodeId, Envelope)> = (0..3)
            .map(|i| {
                (
                    NodeId(i),
                    Envelope::new(Request::WriteData {
                        id: 9,
                        bytes: Bytes::from_static(b"new"),
                        version: 1,
                    }),
                )
            })
            .collect();
        let mut first = None;
        t.multicall(calls, &mut |reply| {
            first = Some(reply.result.clone());
            false // abandon after the first ack
        });
        assert_eq!(first, Some(Ok(Response::Ack)));
        // Every node eventually applied the write (drain via fresh calls,
        // which queue behind the straggling writes on each mailbox).
        for i in 0..3 {
            match t.call(NodeId(i), Request::ReadData { id: 9 }).unwrap() {
                Response::Data { bytes, version, .. } => {
                    assert_eq!(&bytes[..], b"new");
                    assert_eq!(version, 1);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn hedged_multicall_reissues_to_stragglers() {
        use crate::health::HedgePolicy;
        let t = ChannelTransport::new(Cluster::new(4));
        t.health_registry().set_policy(HedgePolicy::P99);
        // Warm the estimator (and earn retry budget) with fast rounds.
        for _ in 0..8 {
            let mut n = 0;
            t.multicall(ping_batch(4), &mut |_| {
                n += 1;
                true
            });
            assert_eq!(n, 4);
        }
        // Turn node 3 gray: far past any hedge delay the estimator
        // derives from the fast warm-up samples.
        t.set_node_latency(3, Duration::from_millis(50));
        let mut n = 0;
        t.multicall(ping_batch(4), &mut |r| {
            assert!(r.result.is_ok());
            n += 1;
            true
        });
        assert_eq!(n, 4, "every slot still completes exactly once");
        let c = t.health_registry().hedge_counters();
        assert!(c.fired >= 1, "expected a hedge to fire: {c:?}");
        assert!(c.retries >= 1, "hedges spend retry budget: {c:?}");
    }

    #[test]
    fn hedging_off_keeps_the_plain_path() {
        let t = ChannelTransport::new(Cluster::new(3));
        assert!(!t.health_registry().hedging_enabled());
        let mut n = 0;
        t.multicall(ping_batch(3), &mut |_| {
            n += 1;
            true
        });
        assert_eq!(n, 3);
        assert_eq!(
            t.health_registry().hedge_counters(),
            crate::health::HedgeCounters::default()
        );
    }

    #[test]
    fn latency_can_be_adjusted_live() {
        let t = ChannelTransport::new(Cluster::new(2));
        assert_eq!(t.node_latency(0), Duration::ZERO);
        t.set_node_latency(0, Duration::from_millis(5));
        assert_eq!(t.node_latency(0), Duration::from_millis(5));
        let start = Instant::now();
        t.call(NodeId(0), Request::Ping).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(5));
        t.set_node_latency(0, Duration::ZERO);
        assert_eq!(t.node_latency(0), Duration::ZERO);
    }
}

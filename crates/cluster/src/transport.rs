//! How protocol code reaches storage nodes.
//!
//! One [`Transport`] trait, and two kinds of implementation:
//!
//! * **The sequential reference.** [`LocalTransport`] runs a call on the
//!   caller's thread: a call *is* its reply, and `multicall` is the
//!   trait's lazy sequential default, so an abandoned suffix is never
//!   issued. It is deterministic and zero-latency, and it is what the
//!   cost pins, the availability oracle, the `figures` experiments and
//!   the benchmark's `local_mixed_4k` baseline replay against.
//! * **Concurrent links.** [`SimTransport`](crate::sim::SimTransport)
//!   (seeded virtual time, adversarial links) and
//!   [`TcpTransport`](crate::tcp::TcpTransport) (real sockets, the
//!   stack that ships) send a round's calls up front and hand replies
//!   back in arrival order. Each contributes only a link — send,
//!   receive, tell the time — to the shared dispatch driver
//!   (`driver.rs`), where deadlines, hedging and late-reply absorption
//!   live. A latency claim is checked on the simulator's clock, a claim
//!   that must hold under every thread schedule on loopback TCP.
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

use std::sync::Arc;

use crate::cluster::Cluster;
use crate::health::NodeHealth;
use crate::node::NodeId;
use crate::rpc::{Envelope, NodeApi, NodeError, OpId, Reply, Request, Response};
use crate::sync;

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
    /// * The sequential reference (this default, used by
    ///   [`LocalTransport`]) issues calls **lazily and in batch order** —
    ///   fully deterministic, and an abandoned suffix is *never issued*,
    ///   so experiment replays and IO accounting are bit-for-bit stable.
    /// * The concurrent links ([`SimTransport`](crate::sim::SimTransport),
    ///   [`TcpTransport`](crate::tcp::TcpTransport)) **send every request
    ///   up front** and forward completions as they arrive, so a round
    ///   costs one round trip to the slowest *needed* responder instead
    ///   of the sum over members. Abandoning a round only stops waiting:
    ///   a request already on the wire may still execute on its node (a
    ///   write you stop waiting for may still land).
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

/// The zero-latency sequential reference: `dispatch` runs the node's
/// [`NodeApi`] on the caller's thread, and `multicall` is the lazy
/// sequential default. `tests/cost_pins.rs`, the availability oracle,
/// `figures` and the benchmark's `local_mixed_4k` workload run on it,
/// because every count it reports replays exactly.
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

    /// A call is its reply, so a debug build panics here, as the driver
    /// does for the concurrent links, if a [`sync::Mutex`] guard is held;
    /// `multicall`, the lazy default, comes through here per call.
    fn dispatch(&self, node: NodeId, env: Envelope) -> Reply {
        sync::debug_assert_unheld();
        assert!(node.0 < self.cluster.len(), "node {node} out of range");
        self.cluster.node(node.0).execute(env)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::tests::serve_cluster;
    use crate::tcp::{TcpConfig, TcpNodeServer, TcpTransport};
    use bytes::Bytes;

    /// A loopback TCP transport over a fresh `n`-node cluster, with the
    /// servers that must outlive it.
    fn loopback(n: usize) -> (Vec<TcpNodeServer>, TcpTransport, Cluster) {
        let (cluster, servers, addrs) = serve_cluster(n);
        (servers, TcpTransport::connect(addrs), cluster)
    }

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
    fn dispatch_echoes_envelope_identity() {
        let t = LocalTransport::new(Cluster::new(1));
        let env = Envelope::in_epoch(Request::Ping, 7);
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

        let (_servers, tcp, cluster) = loopback(2);
        cluster.kill(1);
        assert_eq!(tcp.call(NodeId(0), Request::Ping), Ok(Response::Pong));
        assert_eq!(tcp.call(NodeId(1), Request::Ping), Err(NodeError::Down));
    }

    #[test]
    fn concurrent_callers_share_one_transport() {
        let (_servers, t, cluster) = loopback(4);
        let t = Arc::new(t);
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
        assert_eq!(cluster.io_totals().reads, 400);
    }

    #[test]
    fn shared_cluster_between_transports() {
        // The same nodes can be reached through both transports; state is
        // shared because the cluster holds Arc'd nodes.
        let (_servers, tcp, cluster) = loopback(2);
        let local = LocalTransport::new(cluster);
        local
            .call(
                NodeId(0),
                Request::InitData {
                    id: 5,
                    bytes: Bytes::from_static(b"shared"),
                },
            )
            .unwrap();
        match tcp.call(NodeId(0), Request::ReadData { id: 5 }).unwrap() {
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
        let (_servers, t, cluster) = loopback(8);
        cluster.kill(5);
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
    fn abandoned_round_still_executes_stragglers() {
        // First-quorum abandon over sockets: the write we stop waiting
        // for still lands on the node. One pooled connection per peer,
        // already connected, so every frame of a round is written before
        // the round waits, and a later round's frames queue behind it.
        let (cluster, _servers, addrs) = serve_cluster(3);
        let t = TcpTransport::with_config(
            addrs,
            TcpConfig {
                pool_size: 1,
                ..TcpConfig::default()
            },
        );
        let round = |req: Request| -> Vec<(NodeId, Envelope)> {
            (0..3)
                .map(|i| (NodeId(i), Envelope::new(req.clone())))
                .collect()
        };
        let init = Request::InitData {
            id: 9,
            bytes: Bytes::from_static(b"old"),
        };
        let mut acks = 0;
        t.multicall(round(init), &mut |reply| {
            assert_eq!(reply.result, Ok(Response::Ack));
            acks += 1;
            true
        });
        assert_eq!(acks, 3);
        let write = Request::WriteData {
            id: 9,
            bytes: Bytes::from_static(b"new"),
            version: 1,
        };
        let mut first = None;
        t.multicall(round(write), &mut |reply| {
            first = Some(reply.result.clone());
            false // abandon after the first ack
        });
        assert_eq!(first, Some(Ok(Response::Ack)));
        // Every node applied the write: the reads share each write's
        // connection, and a serving thread answers in order.
        let mut reads = 0;
        t.multicall(round(Request::ReadData { id: 9 }), &mut |reply| {
            match reply.result {
                Ok(Response::Data { bytes, version, .. }) => {
                    assert_eq!(&bytes[..], b"new");
                    assert_eq!(version, 1);
                }
                other => panic!("unexpected {other:?}"),
            }
            reads += 1;
            true
        });
        assert_eq!(reads, 3);
        assert_eq!(cluster.io_totals().reads, 3);
    }
}

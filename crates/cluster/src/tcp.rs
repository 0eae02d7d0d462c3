//! Real-socket transport: [`TcpNodeServer`] hosts any [`NodeApi`] on a
//! TCP listener, and [`TcpTransport`] implements [`Transport`] over a
//! per-node connection pool speaking the [`wire`] format.
//!
//! The container this reproduction builds in is offline and carries no
//! async runtime, so everything here is blocking `std::net`: the server
//! runs an accept loop plus one thread per connection; the client runs
//! one *reader* thread per pooled connection feeding a shared dispatch
//! table, while callers write frames directly and park on a rendezvous
//! channel until their reply (matched by [`OpId`](crate::rpc::OpId) —
//! never by arrival
//! order) comes back. That shape is exactly the per-connection
//! reader / shared dispatcher split a nonblocking implementation would
//! have, minus the reactor.
//!
//! Failure surfacing keeps the vocabulary the protocol already speaks:
//!
//! * a node that cannot be reached after bounded reconnect-with-backoff
//!   answers [`NodeError::Down`];
//! * an exceeded round-trip budget answers [`NodeError::TimedOut`]
//!   (and, as everywhere else, the request *may still execute* — a
//!   timed-out write is a partial write, not a no-op);
//! * a connection dying mid-flight answers
//!   [`NodeError::TransportClosed`].
//!
//! Per-node inflight limits provide backpressure: once `max_inflight`
//! commands are outstanding against one node, further dispatches block
//! briefly (bounded by [`TcpConfig::overload_wait`]) and then shed the
//! request as [`NodeError::Overloaded`] — a typed signal that the
//! request was *never sent*, so the caller may retry elsewhere
//! immediately instead of waiting out the full round-trip budget.
//!
//! Reconnects back off exponentially with a cap and deterministic
//! per-peer jitter (seeded from the address, not a global RNG — two
//! transports to the same dead node desynchronise their retry storms
//! identically on every run), and every reconnect attempt beyond the
//! first draws on the shared [`NodeHealth`] retry budget: a dead node
//! cannot soak unbounded connect attempts while live traffic pays for
//! them.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Sender};
use parking_lot::{Condvar, Mutex};

use crate::health::NodeHealth;
use crate::node::NodeId;
use crate::rpc::{Envelope, Lane, NodeApi, NodeError, Reply, Response};
use crate::transport::{RoundReply, Transport};
use crate::wire::{self, Frame, Header, HEADER_LEN};

// ---------------------------------------------------------------------
// Server.
// ---------------------------------------------------------------------

/// Hosts one [`NodeApi`] on a TCP listener.
///
/// One thread accepts; each connection gets a serving thread that reads
/// request frames, executes them on the node, and writes reply frames
/// back on the same connection (replies stay in request order per
/// connection; concurrency comes from the client's connection pool).
/// Dropping the server stops the accept loop and closes every serving
/// connection.
pub struct TcpNodeServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpNodeServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `node`.
    pub fn spawn(node: Arc<dyn NodeApi>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = std::thread::Builder::new()
            .name(format!("tq-tcp-accept-{local_addr}"))
            .spawn(move || {
                accept_loop(listener, node, accept_shutdown);
            })?;
        Ok(TcpNodeServer {
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server actually listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

impl Drop for TcpNodeServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for TcpNodeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpNodeServer")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

fn accept_loop(listener: TcpListener, node: Arc<dyn NodeApi>, shutdown: Arc<AtomicBool>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, peer)) => {
                let _ = stream.set_nodelay(true);
                let node = Arc::clone(&node);
                let conn_shutdown = Arc::clone(&shutdown);
                if let Ok(handle) = std::thread::Builder::new()
                    .name(format!("tq-tcp-serve-{peer}"))
                    .spawn(move || serve_connection(stream, node, conn_shutdown))
                {
                    conns.push(handle);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
        conns.retain(|h| !h.is_finished());
    }
    for h in conns {
        let _ = h.join();
    }
}

/// Reads exactly `buf.len()` bytes, polling `shutdown` between partial
/// reads. Returns `Ok(false)` on orderly EOF at a frame boundary or on
/// shutdown; `Err` on a mid-frame failure.
fn read_exact_polling(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        if shutdown.load(Ordering::Acquire) {
            return Ok(false);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false) // peer closed between frames
                } else {
                    Err(std::io::ErrorKind::UnexpectedEof.into())
                };
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue; // poll tick: re-check shutdown, keep reading
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn serve_connection(mut stream: TcpStream, node: Arc<dyn NodeApi>, shutdown: Arc<AtomicBool>) {
    // A short read timeout turns the blocking read into a poll loop so
    // the thread notices server shutdown promptly.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut header_buf = [0u8; HEADER_LEN];
    loop {
        match read_exact_polling(&mut stream, &mut header_buf, &shutdown) {
            Ok(true) => {}
            _ => return,
        }
        let Ok(header) = Header::decode(&header_buf) else {
            return; // framing lost (or a stranger speaking); drop the link
        };
        let mut body = vec![0u8; header.body_len as usize];
        match read_exact_polling(&mut stream, &mut body, &shutdown) {
            Ok(true) => {}
            _ => return,
        }
        let body = Bytes::from(body);
        let Ok(Frame::Envelope(env)) = wire::decode_body(&header, &body) else {
            return; // replies or garbage on the request path: drop the link
        };
        let reply = node.execute(env);
        if stream.write_all(&wire::encode_reply(&reply)).is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------

/// Tuning for [`TcpTransport`].
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// Round-trip budget per dispatch: connect + write + wait for the
    /// reply. Exceeding it surfaces [`NodeError::TimedOut`].
    pub io_timeout: Duration,
    /// Connections pooled per node (requests round-robin across them).
    pub pool_size: usize,
    /// Maximum commands outstanding against one node before dispatch
    /// blocks (backpressure).
    pub max_inflight: usize,
    /// Reconnect attempts per dispatch before the node is reported
    /// [`NodeError::Down`].
    pub connect_attempts: u32,
    /// First reconnect backoff; doubles per consecutive failure, capped
    /// at `backoff_max` and jittered ±50% (deterministically, per peer).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// How long a dispatch waits for inflight budget before shedding
    /// the request as [`NodeError::Overloaded`]. Kept well under the
    /// round-trip budget so overload surfaces as a fast typed error,
    /// not a slow timeout.
    pub overload_wait: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_secs(2),
            pool_size: 2,
            max_inflight: 64,
            connect_attempts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(200),
            overload_wait: Duration::from_millis(500),
        }
    }
}

/// SplitMix64 finalizer: the deterministic jitter source for reconnect
/// backoff — seeded from the peer address and failure count, so replays
/// of the same failure sequence jitter identically.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a parked caller gets back: the node's answer or the transport's
/// synthesised error.
type ReplyResult = Result<Response, NodeError>;

/// A live client connection: shared writer, reader thread, and the
/// dispatch table matching reply frames to parked callers by op id.
struct Conn {
    writer: Mutex<TcpStream>,
    /// op id → FIFO of waiters. A queue because an at-least-once caller
    /// may legally have the same op id in flight more than once.
    pending: Mutex<HashMap<u64, Vec<Sender<ReplyResult>>>>,
    alive: AtomicBool,
}

impl Conn {
    fn register(&self, op_id: u64) -> crossbeam::channel::Receiver<ReplyResult> {
        let (tx, rx) = bounded(1);
        self.pending.lock().entry(op_id).or_default().push(tx);
        rx
    }

    fn deregister(&self, op_id: u64) {
        let mut pending = self.pending.lock();
        if let Some(waiters) = pending.get_mut(&op_id) {
            waiters.pop();
            if waiters.is_empty() {
                pending.remove(&op_id);
            }
        }
    }

    fn complete(&self, op_id: u64, result: Result<Response, NodeError>) {
        let tx = {
            let mut pending = self.pending.lock();
            match pending.get_mut(&op_id) {
                Some(waiters) if !waiters.is_empty() => {
                    let tx = waiters.remove(0);
                    if waiters.is_empty() {
                        pending.remove(&op_id);
                    }
                    Some(tx)
                }
                // A reply nobody waits for: a straggler whose caller
                // already timed out. Drop it; identity matching means it
                // cannot be miscounted against another command.
                _ => None,
            }
        };
        if let Some(tx) = tx {
            let _ = tx.send(result);
        }
    }

    /// Marks the connection dead and fails every parked caller.
    fn poison(&self) {
        self.alive.store(false, Ordering::Release);
        let drained: Vec<_> = self.pending.lock().drain().collect();
        for (_, waiters) in drained {
            for tx in waiters {
                let _ = tx.send(Err(NodeError::TransportClosed));
            }
        }
    }
}

fn reader_loop(mut stream: TcpStream, conn: Arc<Conn>) {
    let mut header_buf = [0u8; HEADER_LEN];
    loop {
        let ok = (|| -> std::io::Result<()> {
            stream.read_exact(&mut header_buf)?;
            let header = Header::decode(&header_buf)
                .map_err(|_| std::io::Error::from(std::io::ErrorKind::InvalidData))?;
            let mut body = vec![0u8; header.body_len as usize];
            stream.read_exact(&mut body)?;
            let body = Bytes::from(body);
            match wire::decode_body(&header, &body) {
                Ok(Frame::Reply(reply)) => {
                    conn.complete(reply.op_id.0, reply.result);
                    Ok(())
                }
                // Requests on the reply path, or an undecodable body:
                // the stream cannot be trusted any more.
                _ => Err(std::io::ErrorKind::InvalidData.into()),
            }
        })();
        if ok.is_err() {
            conn.poison();
            return;
        }
    }
}

/// One pooled connection slot with its reconnect backoff state.
struct Slot {
    conn: Option<Arc<Conn>>,
    consecutive_failures: u32,
    next_attempt: Instant,
}

/// Everything the transport knows about one node.
struct Peer {
    addr: SocketAddr,
    slots: Vec<Mutex<Slot>>,
    rr: AtomicUsize,
    inflight: Mutex<usize>,
    inflight_cv: Condvar,
}

/// Releases one unit of a peer's inflight budget on drop, so every
/// dispatch return path (reply, timeout, failure) gives it back.
struct InflightPermit<'a> {
    peer: &'a Peer,
}

impl Drop for InflightPermit<'_> {
    fn drop(&mut self) {
        let mut count = self.peer.inflight.lock();
        *count -= 1;
        self.peer.inflight_cv.notify_one();
    }
}

struct TcpInner {
    peers: Vec<Peer>,
    cfg: TcpConfig,
    /// Real-scale health registry: RTT samples land here per dispatch,
    /// reconnect retries draw on its budget, and the quorum engine feeds
    /// outcomes through [`Transport::health`].
    health: Arc<NodeHealth>,
    /// Wall-clock anchor for the health registry's monotone nanosecond
    /// clock.
    started: Instant,
}

/// [`Transport`] over real TCP connections, one pool per node.
///
/// Cloning is cheap (shared inner); drop closes the pooled connections.
/// Connections are established lazily on first dispatch and re-created
/// with exponential backoff after failures.
#[derive(Clone)]
pub struct TcpTransport {
    inner: Arc<TcpInner>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("nodes", &self.inner.peers.len())
            .finish()
    }
}

impl TcpTransport {
    /// Builds a transport reaching `addrs[i]` as node `i`, with default
    /// tuning.
    pub fn connect(addrs: Vec<SocketAddr>) -> Self {
        Self::with_config(addrs, TcpConfig::default())
    }

    /// Builds a transport with explicit tuning.
    pub fn with_config(addrs: Vec<SocketAddr>, cfg: TcpConfig) -> Self {
        let now = Instant::now();
        let peers = addrs
            .into_iter()
            .map(|addr| Peer {
                addr,
                slots: (0..cfg.pool_size.max(1))
                    .map(|_| {
                        Mutex::new(Slot {
                            conn: None,
                            consecutive_failures: 0,
                            next_attempt: now,
                        })
                    })
                    .collect(),
                rr: AtomicUsize::new(0),
                inflight: Mutex::new(0),
                inflight_cv: Condvar::new(),
            })
            .collect();
        TcpTransport {
            inner: Arc::new(TcpInner {
                peers,
                cfg,
                health: Arc::new(NodeHealth::real_scale()),
                started: now,
            }),
        }
    }

    /// The health registry behind this transport — arm a hedge policy
    /// for adaptive per-node deadlines, inspect snapshots, or share the
    /// retry budget with other clients of the same cluster.
    pub fn health_registry(&self) -> &Arc<NodeHealth> {
        &self.inner.health
    }
}

impl TcpInner {
    /// Blocks until the peer has inflight budget, bounded by `deadline`.
    fn acquire_inflight<'a>(
        &self,
        peer: &'a Peer,
        deadline: Instant,
    ) -> Option<InflightPermit<'a>> {
        let mut count = peer.inflight.lock();
        while *count >= self.cfg.max_inflight {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            if peer.inflight_cv.wait_for(&mut count, deadline - now)
                && *count >= self.cfg.max_inflight
            {
                return None;
            }
        }
        *count += 1;
        Some(InflightPermit { peer })
    }

    /// Gets (or re-establishes, with capped jittered backoff) a live
    /// connection for `peer`. `None` means the node is unreachable
    /// within the attempt budget / deadline. Every attempt beyond the
    /// first must be paid for out of the retry budget (`lane`-aware:
    /// background reconnects leave the foreground reserve untouched).
    fn get_conn(&self, peer: &Peer, deadline: Instant, lane: Lane) -> Option<Arc<Conn>> {
        let slot_index = peer.rr.fetch_add(1, Ordering::Relaxed) % peer.slots.len();
        let mut slot = peer.slots[slot_index].lock();
        if let Some(conn) = &slot.conn {
            if conn.alive.load(Ordering::Acquire) {
                return Some(Arc::clone(conn));
            }
            slot.conn = None;
        }
        for attempt in 0..self.cfg.connect_attempts {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            // tq-lint: allow(bounded-retry) -- the budget consult IS here:
            // first attempt free, every re-attempt spends a token.
            if attempt > 0 && !self.health.try_spend(lane) {
                return None;
            }
            // Honour the backoff window from previous failures.
            if slot.next_attempt > now {
                let wait = (slot.next_attempt - now).min(deadline - now);
                std::thread::sleep(wait);
                if Instant::now() >= deadline {
                    return None;
                }
            }
            let budget = self.cfg.connect_timeout.min(deadline - Instant::now());
            match TcpStream::connect_timeout(&peer.addr, budget.max(Duration::from_millis(1))) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_write_timeout(Some(self.cfg.io_timeout));
                    let reader_stream = match stream.try_clone() {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    let conn = Arc::new(Conn {
                        writer: Mutex::new(stream),
                        pending: Mutex::new(HashMap::new()),
                        alive: AtomicBool::new(true),
                    });
                    let reader_conn = Arc::clone(&conn);
                    if std::thread::Builder::new()
                        .name(format!("tq-tcp-read-{}", peer.addr))
                        .spawn(move || reader_loop(reader_stream, reader_conn))
                        .is_err()
                    {
                        continue;
                    }
                    slot.consecutive_failures = 0;
                    slot.conn = Some(Arc::clone(&conn));
                    return Some(conn);
                }
                Err(_) => {
                    slot.consecutive_failures = slot.consecutive_failures.saturating_add(1);
                    let shift = slot.consecutive_failures.min(6);
                    let backoff = self
                        .cfg
                        .backoff_base
                        .saturating_mul(1u32 << shift.saturating_sub(1))
                        .min(self.cfg.backoff_max);
                    // Deterministic ±50% jitter so many slots/processes
                    // hammering one dead node spread out instead of
                    // synchronising their retry storms.
                    let seed = (u64::from(peer.addr.port()) << 32)
                        ^ u64::from(slot.consecutive_failures)
                        ^ (slot_index as u64) << 16;
                    let permille = 500 + splitmix64(seed) % 1001; // [0.5, 1.5]×
                    let jittered = Duration::from_nanos(
                        (backoff.as_nanos() as u64).saturating_mul(permille) / 1000,
                    );
                    slot.next_attempt = Instant::now() + jittered;
                }
            }
        }
        None
    }

    fn dispatch(&self, node: NodeId, env: Envelope) -> Reply {
        let (op_id, round_epoch) = (env.op_id, env.round_epoch);
        let fail = |e: NodeError| Reply {
            op_id,
            round_epoch,
            result: Err(e),
        };
        let Some(peer) = self.peers.get(node.0) else {
            return fail(NodeError::TransportClosed);
        };
        let issued = Instant::now();
        self.health
            .advance_now(issued.duration_since(self.started).as_nanos() as u64);
        // Adaptive round-trip budget: with a hedge policy armed, the
        // per-node estimate (never looser than the configured budget)
        // governs the deadline; fixed io_timeout otherwise.
        let budget = if self.health.hedging_enabled() {
            self.health
                .timeout_for(node.0)
                .map_or(self.cfg.io_timeout, |ns| {
                    Duration::from_nanos(ns).min(self.cfg.io_timeout)
                })
        } else {
            self.cfg.io_timeout
        };
        let deadline = issued + budget;

        // Backpressure first: a node already saturated with our own
        // inflight commands should not accumulate more. Shedding is
        // typed — Overloaded means "never sent", so the caller may
        // re-route immediately.
        let overload_deadline = deadline.min(issued + self.cfg.overload_wait);
        let Some(_permit) = self.acquire_inflight(peer, overload_deadline) else {
            return fail(NodeError::Overloaded);
        };

        let Some(conn) = self.get_conn(peer, deadline, env.lane) else {
            // Unreachable within the bounded reconnect budget: for the
            // protocol that is a down node, unless the clock ran out
            // while we were still trying.
            return if Instant::now() >= deadline {
                fail(NodeError::TimedOut)
            } else {
                fail(NodeError::Down)
            };
        };

        let frame = wire::encode_envelope(&env);
        let rx = conn.register(op_id.0);
        {
            let mut writer = conn.writer.lock();
            if writer.write_all(&frame).is_err() {
                drop(writer);
                conn.deregister(op_id.0);
                conn.poison();
                return fail(NodeError::TransportClosed);
            }
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(remaining) {
            // Rebuild the reply around *our* envelope identity: even a
            // buggy peer cannot make us mislabel an answer.
            Ok(result) => {
                if result.is_ok() {
                    // RTT sample for the estimator; outcomes are fed
                    // once, by the quorum engine.
                    let rtt = issued.elapsed().as_nanos() as u64;
                    self.health.record_sample(node.0, rtt.max(1));
                }
                Reply {
                    op_id,
                    round_epoch,
                    result,
                }
            }
            Err(_) => {
                conn.deregister(op_id.0);
                fail(NodeError::TimedOut)
            }
        }
    }
}

impl Drop for TcpInner {
    fn drop(&mut self) {
        for peer in &self.peers {
            for slot in &peer.slots {
                if let Some(conn) = slot.lock().conn.take() {
                    // Wake the reader thread so it exits.
                    let _ = conn.writer.lock().shutdown(std::net::Shutdown::Both);
                    conn.poison();
                }
            }
        }
    }
}

impl Transport for TcpTransport {
    fn node_count(&self) -> usize {
        self.inner.peers.len()
    }

    fn dispatch(&self, node: NodeId, env: Envelope) -> Reply {
        self.inner.dispatch(node, env)
    }

    fn health(&self) -> Option<&NodeHealth> {
        Some(&self.inner.health)
    }

    /// Concurrent fan-out: every call is written immediately (one
    /// dispatcher thread per call) and completions stream to the sink in
    /// arrival order. Abandoning the round only stops waiting — like any
    /// real fabric, requests already written will still execute.
    ///
    /// A round of exactly one call has nothing to overlap: it is
    /// dispatched inline on the caller's thread, as [`Transport::call`]
    /// is, instead of paying a thread spawn and a channel hand-off for
    /// a wait the caller would sit through anyway.
    fn multicall(
        &self,
        mut calls: Vec<(NodeId, Envelope)>,
        sink: &mut dyn FnMut(RoundReply) -> bool,
    ) {
        let total = calls.len();
        if total <= 1 {
            if let Some((node, env)) = calls.pop() {
                sink(RoundReply::from_reply(node, self.inner.dispatch(node, env)));
            }
            return;
        }
        let (tx, rx) = unbounded::<RoundReply>();
        for (node, env) in calls {
            let inner = Arc::clone(&self.inner);
            let thread_tx = tx.clone();
            let (op_id, round_epoch) = (env.op_id, env.round_epoch);
            let spawned = std::thread::Builder::new()
                .name("tq-tcp-multicall".into())
                .spawn(move || {
                    let reply = inner.dispatch(node, env);
                    let _ = thread_tx.send(RoundReply::from_reply(node, reply));
                });
            if spawned.is_err() {
                // Could not even spawn the dispatcher: fail this call
                // in-band so the round still sees `total` completions.
                let _ = tx.send(RoundReply {
                    op_id,
                    round_epoch,
                    node,
                    result: Err(NodeError::TransportClosed),
                });
            }
        }
        drop(tx);
        let mut received = 0;
        while received < total {
            let Ok(reply) = rx.recv() else { break };
            received += 1;
            if !sink(reply) {
                break; // stragglers complete on their own threads
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::node::StorageNode;
    use crate::rpc::Request;
    use crate::storage::MemoryBackend;

    fn serve_cluster(n: usize) -> (Cluster, Vec<TcpNodeServer>, Vec<SocketAddr>) {
        let cluster = Cluster::new(n);
        let mut servers = Vec::new();
        let mut addrs = Vec::new();
        for i in 0..n {
            let node: Arc<dyn NodeApi> = Arc::clone(cluster.node(i)) as Arc<dyn NodeApi>;
            let server = TcpNodeServer::spawn(node, "127.0.0.1:0").expect("bind loopback");
            addrs.push(server.local_addr());
            servers.push(server);
        }
        (cluster, servers, addrs)
    }

    #[test]
    fn tcp_roundtrip_basics() {
        let (_cluster, _servers, addrs) = serve_cluster(3);
        let t = TcpTransport::connect(addrs);
        assert_eq!(t.node_count(), 3);
        t.call(
            NodeId(0),
            Request::InitData {
                id: 1,
                bytes: Bytes::from_static(b"abc"),
            },
        )
        .unwrap();
        match t.call(NodeId(0), Request::ReadData { id: 1 }).unwrap() {
            Response::Data { bytes, version, .. } => {
                assert_eq!(&bytes[..], b"abc");
                assert_eq!(version, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            t.call(NodeId(1), Request::ReadData { id: 1 }),
            Err(NodeError::NotFound)
        );
    }

    #[test]
    fn tcp_dispatch_echoes_envelope_identity() {
        let (_cluster, _servers, addrs) = serve_cluster(1);
        let t = TcpTransport::connect(addrs);
        let env = Envelope::in_epoch(Request::Ping, 11);
        let (op_id, epoch) = (env.op_id, env.round_epoch);
        let reply = t.dispatch(NodeId(0), env);
        assert_eq!(reply.op_id, op_id);
        assert_eq!(reply.round_epoch, epoch);
        assert_eq!(reply.result, Ok(Response::Pong));
    }

    #[test]
    fn tcp_surfaces_fail_stop_and_unreachable_nodes() {
        let (cluster, servers, mut addrs) = serve_cluster(2);
        // Node 1's address exists but nothing listens: grab a port and
        // free it.
        let throwaway = TcpListener::bind("127.0.0.1:0").unwrap();
        addrs[1] = throwaway.local_addr().unwrap();
        drop(throwaway);

        let t = TcpTransport::with_config(
            addrs,
            TcpConfig {
                io_timeout: Duration::from_millis(1500),
                connect_attempts: 2,
                backoff_base: Duration::from_millis(5),
                ..TcpConfig::default()
            },
        );
        // Fail-stop flows through end to end.
        cluster.kill(0);
        assert_eq!(t.call(NodeId(0), Request::Ping), Err(NodeError::Down));
        cluster.revive(0);
        assert_eq!(t.call(NodeId(0), Request::Ping), Ok(Response::Pong));
        // Unreachable node: bounded backoff, then Down.
        assert_eq!(t.call(NodeId(1), Request::Ping), Err(NodeError::Down));
        drop(servers);
    }

    #[test]
    fn tcp_reconnects_after_server_restart() {
        let cluster = Cluster::new(1);
        let node: Arc<dyn NodeApi> = Arc::clone(cluster.node(0)) as Arc<dyn NodeApi>;
        let server = TcpNodeServer::spawn(Arc::clone(&node), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let t = TcpTransport::with_config(
            vec![addr],
            TcpConfig {
                backoff_base: Duration::from_millis(5),
                ..TcpConfig::default()
            },
        );
        assert_eq!(t.call(NodeId(0), Request::Ping), Ok(Response::Pong));

        drop(server);
        // The old connection dies; dispatches fail while nothing listens.
        let during_outage = t.call(NodeId(0), Request::Ping);
        assert!(during_outage.is_err(), "{during_outage:?}");

        // Restart on the same port and the pool reconnects by itself.
        let _server = TcpNodeServer::spawn(node, addr).unwrap();
        let mut revived = false;
        for _ in 0..20 {
            if t.call(NodeId(0), Request::Ping) == Ok(Response::Pong) {
                revived = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(revived, "transport must reconnect with backoff");
    }

    #[test]
    fn tcp_round_trip_budget_surfaces_timed_out() {
        // A listener that accepts and then never answers.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let mut held = Vec::new();
            listener
                .set_nonblocking(false)
                .expect("blocking accept for the black-hole listener");
            for _ in 0..1 {
                if let Ok((s, _)) = listener.accept() {
                    held.push(s);
                }
            }
            std::thread::sleep(Duration::from_millis(800));
            drop(held);
        });
        let t = TcpTransport::with_config(
            vec![addr],
            TcpConfig {
                io_timeout: Duration::from_millis(200),
                ..TcpConfig::default()
            },
        );
        assert_eq!(t.call(NodeId(0), Request::Ping), Err(NodeError::TimedOut));
        hold.join().unwrap();
    }

    #[test]
    fn tcp_multicall_fans_out_and_abandons_early() {
        let (_cluster, _servers, addrs) = serve_cluster(4);
        let t = TcpTransport::connect(addrs);
        let calls: Vec<(NodeId, Envelope)> = (0..4)
            .map(|i| (NodeId(i), Envelope::new(Request::Ping)))
            .collect();
        let mut seen = 0;
        t.multicall(calls, &mut |reply| {
            assert_eq!(reply.result, Ok(Response::Pong));
            seen += 1;
            seen < 2
        });
        assert_eq!(seen, 2, "early abandon stops the wait");
    }

    #[test]
    fn tcp_one_call_round_is_served_on_the_callers_thread() {
        let (cluster, _servers, addrs) = serve_cluster(2);
        let t = TcpTransport::connect(addrs);
        // Reply delivery: the lone call's answer reaches the sink once,
        // with the envelope's identity, on the thread that asked.
        let caller = std::thread::current().id();
        let env = Envelope::new(Request::Ping);
        let op_id = env.op_id;
        let mut replies = Vec::new();
        t.multicall(vec![(NodeId(1), env)], &mut |reply| {
            assert_eq!(std::thread::current().id(), caller);
            replies.push(reply);
            true
        });
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].op_id, op_id);
        assert_eq!(replies[0].node, NodeId(1));
        assert_eq!(replies[0].result, Ok(Response::Pong));
        // The `sink → false` contract: abandoning after the only reply
        // is a clean return, and an in-band failure is still delivered
        // (exactly once) rather than swallowed.
        cluster.kill(0);
        let mut seen = 0;
        t.multicall(
            vec![(NodeId(0), Envelope::new(Request::Ping))],
            &mut |reply| {
                assert_eq!(reply.result, Err(NodeError::Down));
                seen += 1;
                false
            },
        );
        assert_eq!(seen, 1, "one completion, then the round is over");
    }

    #[test]
    fn tcp_inflight_limit_applies_backpressure_not_deadlock() {
        let node = Arc::new(
            StorageNode::builder(NodeId(0))
                .backend(Arc::new(MemoryBackend::new()))
                .build(),
        );
        let server = TcpNodeServer::spawn(node as Arc<dyn NodeApi>, "127.0.0.1:0").unwrap();
        let t = TcpTransport::with_config(
            vec![server.local_addr()],
            TcpConfig {
                max_inflight: 2,
                pool_size: 1,
                ..TcpConfig::default()
            },
        );
        // Many concurrent pings against a 2-slot window: all succeed,
        // the extras just wait their turn.
        let t = Arc::new(t);
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || t.call(NodeId(0), Request::Ping))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), Ok(Response::Pong));
        }
    }

    #[test]
    fn tcp_pool_exhaustion_sheds_typed_overloaded() {
        // A listener that accepts and never answers: the first dispatch
        // occupies the single inflight slot for its whole budget, so a
        // second dispatch must be shed — quickly, and as Overloaded,
        // not as a slow TimedOut.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let mut held = Vec::new();
            listener.set_nonblocking(false).unwrap();
            if let Ok((s, _)) = listener.accept() {
                held.push(s);
            }
            std::thread::sleep(Duration::from_millis(900));
            drop(held);
        });
        let t = Arc::new(TcpTransport::with_config(
            vec![addr],
            TcpConfig {
                max_inflight: 1,
                pool_size: 1,
                io_timeout: Duration::from_millis(600),
                overload_wait: Duration::from_millis(30),
                ..TcpConfig::default()
            },
        ));
        let blocker = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || t.call(NodeId(0), Request::Ping))
        };
        // Let the blocker occupy the inflight window first.
        std::thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        let shed = t.call(NodeId(0), Request::Ping);
        assert_eq!(shed, Err(NodeError::Overloaded));
        assert!(
            started.elapsed() < Duration::from_millis(400),
            "shedding is fast, not a timeout: {:?}",
            started.elapsed()
        );
        assert_eq!(blocker.join().unwrap(), Err(NodeError::TimedOut));
        hold.join().unwrap();
    }

    #[test]
    fn tcp_reconnect_retries_draw_on_the_budget() {
        // Nothing listens: every connect attempt fails. The first
        // attempt per dispatch is free; each further attempt spends a
        // retry token, so a generous attempt count cannot burn more
        // than the budget holds.
        let throwaway = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = throwaway.local_addr().unwrap();
        drop(throwaway);
        let t = TcpTransport::with_config(
            vec![addr],
            TcpConfig {
                connect_attempts: 10,
                backoff_base: Duration::from_millis(1),
                backoff_max: Duration::from_millis(5),
                ..TcpConfig::default()
            },
        );
        assert_eq!(t.call(NodeId(0), Request::Ping), Err(NodeError::Down));
        let spent_once = t.health_registry().hedge_counters().retries;
        assert!(
            (1..10).contains(&spent_once),
            "retries are budget-bounded below the attempt count: {spent_once}"
        );
        // Budget exhausted: further dispatches stop at the free attempt.
        assert_eq!(t.call(NodeId(0), Request::Ping), Err(NodeError::Down));
        assert_eq!(t.call(NodeId(0), Request::Ping), Err(NodeError::Down));
        let spent_after = t.health_registry().hedge_counters().retries;
        assert_eq!(
            spent_after, spent_once,
            "an empty budget stops paid reconnect attempts"
        );
    }

    #[test]
    fn tcp_payloads_survive_the_wire_byte_exact() {
        let (_cluster, _servers, addrs) = serve_cluster(1);
        let t = TcpTransport::connect(addrs);
        let payload: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
        t.call(
            NodeId(0),
            Request::InitData {
                id: 77,
                bytes: Bytes::from(payload.clone()),
            },
        )
        .unwrap();
        match t.call(NodeId(0), Request::ReadData { id: 77 }).unwrap() {
            Response::Data { bytes, version, .. } => {
                assert_eq!(bytes.to_vec(), payload);
                assert_eq!(version, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

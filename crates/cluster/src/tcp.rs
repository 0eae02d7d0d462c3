//! Real-socket transport: [`TcpNodeServer`] hosts any [`NodeApi`] on a
//! TCP listener, and [`TcpTransport`] implements [`Transport`] over
//! per-node connections speaking the [`wire`] format.
//!
//! The workspace builds offline and carries no async runtime, so
//! everything here is blocking `std::net`: the server blocks in `accept`
//! and runs one thread per connection. A round is a *link* under the
//! shared dispatch driver (`driver.rs`, the loop every concurrent
//! transport waits in), and the client's thread model is:
//!
//! * **Callers write.** Every frame leaves from the thread whose round
//!   it belongs to.
//! * **A lone call's caller reads.** A round of exactly one call —
//!   every healthy read is one — checks a connection out
//!   of the peer's idle list, writes its frame and reads the reply on its
//!   own thread, the read timeout set to the driver's next wake-up. The
//!   connection goes back to the list only once its reply was read and
//!   its [`OpId`] checked: a call that timed out or was abandoned takes
//!   its connection with it, so a late reply can never answer a later
//!   call.
//! * **Reader threads relay only for rounds of several calls.** With no
//!   `poll` (unsafe code is forbidden), only a relay can hand a round its
//!   replies in arrival order; reading members in issue order would let
//!   a black-holed member listed first hold a first-quorum round until
//!   its deadline. Each pooled connection's reader thread matches reply
//!   frames to waiters by [`OpId`] and feeds the round's one channel. A
//!   relayed send that would *block* — the pool slot has no live
//!   connection (reconnect with backoff), or the peer's inflight window
//!   is full (`overload_wait`) — is handed to a short-lived helper
//!   thread, so a dead or saturated peer never delays the round's other
//!   members.
//!
//! Which link a round gets is decided by its call count alone. The
//! deadline and late-reply absorption are the driver's, exactly as
//! under the simulator.
//!
//! Failure surfacing keeps the vocabulary the protocol already speaks:
//!
//! * a node that cannot be reached after bounded reconnect-with-backoff
//!   answers [`NodeError::Down`];
//! * an exceeded round-trip budget ([`TcpConfig::io_timeout`]) answers
//!   [`NodeError::TimedOut`] (and, as everywhere else, the request *may
//!   still execute* — a timed-out write is a partial write, not a
//!   no-op);
//! * a connection dying mid-flight answers
//!   [`NodeError::TransportClosed`].
//!
//! Both kinds of connection obey one set of rules. Per-node inflight
//! limits provide backpressure: once `max_inflight` commands are
//! outstanding against one node, further sends wait briefly (bounded by
//! [`TcpConfig::overload_wait`]) and are then shed as
//! [`NodeError::Overloaded`] — a typed signal that the request was
//! *never sent*, so the caller may retry elsewhere immediately instead
//! of waiting out the full round-trip budget. A command holds its unit
//! of the window until its reply arrives or its round closes, whichever
//! is first.
//!
//! Reconnects go through one routine. They back off exponentially with
//! a cap and deterministic per-peer jitter (seeded from the address, not
//! a global RNG — two transports to the same dead node desynchronise
//! their retry storms identically on every run), and every reconnect
//! attempt beyond the first draws on the shared [`NodeHealth`] retry
//! budget: a dead node cannot soak unbounded connect attempts while live
//! traffic pays for them.

use std::collections::HashMap;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

use crate::detmap::splitmix64;
use crate::driver::{drive, drive_one, Link, NEVER};
use crate::health::{NodeHealth, RetryPermit};
use crate::node::NodeId;
use crate::rpc::{Envelope, Lane, NodeApi, NodeError, OpId, Reply, Response};
use crate::transport::{RoundReply, Transport};
use crate::wire::{self, Frame, Header, HEADER_LEN};

// ---------------------------------------------------------------------
// Frames.
// ---------------------------------------------------------------------

/// A read that gave up at its timeout (`WouldBlock` on Unix, `TimedOut`
/// elsewhere).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one frame off `stream`: its header, then its body into reserved
/// capacity the socket fills directly (nothing zero-fills it first).
/// `Ok(None)` is an orderly close between frames. A failed read is put to
/// `resume`, which decides whether to keep reading — a server's poll
/// tick, a lone call's early wake-up — with the bytes already read kept.
fn read_frame(
    mut stream: &TcpStream,
    resume: impl Fn(&io::Error) -> bool,
) -> io::Result<Option<(Header, Bytes)>> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        match stream.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted || resume(&e) => {}
            Err(e) => return Err(e),
        }
    }
    let header =
        Header::decode(&header).map_err(|_| io::Error::from(io::ErrorKind::InvalidData))?;
    let len = header.body_len as usize;
    let mut body = Vec::with_capacity(len);
    while body.len() < len {
        let want = (len - body.len()) as u64;
        match stream.take(want).read_to_end(&mut body) {
            Ok(n) if n as u64 == want => {}
            Ok(_) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Err(e) if resume(&e) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some((header, Bytes::from(body))))
}

// ---------------------------------------------------------------------
// Server.
// ---------------------------------------------------------------------

/// Hosts one [`NodeApi`] on a TCP listener.
///
/// One thread accepts; each connection gets a serving thread that reads
/// request frames, executes them on the node, and writes reply frames
/// back on the same connection (replies stay in request order per
/// connection; concurrency comes from the client's connections).
/// Dropping the server stops the accept loop and closes every serving
/// connection.
pub struct TcpNodeServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// Times `accept` returned: once per client connection, and once
    /// for the drop's wake-up. Nothing else wakes the acceptor.
    wakes: Arc<AtomicU64>,
}

impl TcpNodeServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `node`.
    pub fn spawn(node: Arc<dyn NodeApi>, addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let wakes = Arc::new(AtomicU64::new(0));
        let (accept_shutdown, accept_wakes) = (Arc::clone(&shutdown), Arc::clone(&wakes));
        let accept_thread = std::thread::Builder::new()
            .name(format!("tq-tcp-accept-{local_addr}"))
            .spawn(move || {
                accept_loop(listener, node, accept_shutdown, accept_wakes);
            })?;
        Ok(TcpNodeServer {
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            wakes,
        })
    }

    /// The address the server actually listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

impl Drop for TcpNodeServer {
    /// Raises the flag, wakes the acceptor — blocked in `accept` — with
    /// one connection of our own, and joins it; it joins every serving
    /// thread in turn.
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let woke = TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok();
        if let Some(t) = self.accept_thread.take() {
            // An acceptor nothing could wake is left parked rather than
            // hang the drop.
            if woke || t.is_finished() {
                let _ = t.join();
            }
        }
    }
}

impl std::fmt::Debug for TcpNodeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpNodeServer")
            .field("local_addr", &self.local_addr)
            .field("wakes", &self.wakes.load(Ordering::Relaxed))
            .finish()
    }
}

fn accept_loop(
    listener: TcpListener,
    node: Arc<dyn NodeApi>,
    shutdown: Arc<AtomicBool>,
    wakes: Arc<AtomicU64>,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        wakes.fetch_add(1, Ordering::Relaxed);
        // Read after every accept: the connection that wakes a dropping
        // server is never served.
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok((stream, peer)) = accepted else { break };
        let _ = stream.set_nodelay(true);
        let node = Arc::clone(&node);
        let conn_shutdown = Arc::clone(&shutdown);
        if let Ok(handle) = std::thread::Builder::new()
            .name(format!("tq-tcp-serve-{peer}"))
            .spawn(move || serve_connection(stream, node, conn_shutdown))
        {
            conns.push(handle);
        }
        conns.retain(|h| !h.is_finished());
    }
    for h in conns {
        let _ = h.join();
    }
}

fn serve_connection(mut stream: TcpStream, node: Arc<dyn NodeApi>, shutdown: Arc<AtomicBool>) {
    // A short read timeout turns every wait into a poll loop so the
    // thread notices server shutdown promptly.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let poll_tick = |e: &io::Error| is_timeout(e) && !shutdown.load(Ordering::Acquire);
    while !shutdown.load(Ordering::Acquire) {
        let Ok(Some((header, body))) = read_frame(&stream, poll_tick) else {
            return; // closed, shut down, or framing lost: drop the link
        };
        let Ok(Frame::Envelope(env)) = wire::decode_body(&header, &body) else {
            return; // replies or garbage on the request path: drop the link
        };
        let reply = node.execute(env);
        if write_reply(&mut stream, &reply).is_err() {
            return;
        }
    }
}

/// Writes `reply` as its `wire::ReplyParts` in vectored writes, so a
/// served payload goes to the socket from the buffer the node served it
/// in: the kernel's copy is the only one.
fn write_reply(stream: &mut TcpStream, reply: &Reply) -> io::Result<()> {
    let parts = wire::encode_reply_parts(reply);
    let mut slices = [IoSlice::new(&parts.head), IoSlice::new(parts.payload)];
    let mut unsent = &mut slices[..];
    while !unsent.is_empty() {
        match stream.write_vectored(unsent) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
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
    /// Connections pooled per node for relayed rounds (requests
    /// round-robin across them).
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

/// A registration a round made and takes back when it closes.
struct Written {
    conn: Arc<Conn>,
    op_id: u64,
}

/// One round's reply channel, and the registrations it must take back
/// when it closes. Shared with the helpers the round started, which may
/// register after the caller moved on.
struct Round {
    tx: Sender<RoundReply>,
    /// One entry per frame written; `None` once the round closed — a
    /// helper arriving that late sends nothing.
    open: Mutex<Option<Vec<Written>>>,
}

impl Round {
    /// Answers `env` in-band with a failure the transport synthesised.
    fn fail(&self, node: NodeId, env: &Envelope, error: NodeError) {
        let _ = self.tx.send(RoundReply {
            op_id: env.op_id,
            round_epoch: env.round_epoch,
            node,
            result: Err(error),
        });
    }
}

/// Where the reply frame for one written command goes. It holds the
/// command's unit of the peer's inflight window, released when the
/// waiter goes — answered, failed, or taken back by its round.
struct Waiter {
    node: NodeId,
    round_epoch: u64,
    tx: Sender<RoundReply>,
    _permit: InflightPermit,
}

impl Waiter {
    /// Delivers `result` under *our* envelope's identity: even a buggy
    /// peer cannot make us mislabel an answer.
    fn answer(self, op_id: u64, result: Result<Response, NodeError>) {
        let _ = self.tx.send(RoundReply {
            op_id: OpId(op_id),
            round_epoch: self.round_epoch,
            node: self.node,
            result,
        });
    }
}

/// A live pooled connection: shared writer, reader thread, and the
/// dispatch table matching reply frames to waiting rounds by op id.
struct Conn {
    writer: Mutex<TcpStream>,
    /// op id → its waiter. A round sends each call once, and every
    /// call is a fresh envelope, so an op id is pending at most once.
    pending: Mutex<HashMap<u64, Waiter>>,
    alive: AtomicBool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            writer: Mutex::new(stream),
            pending: Mutex::new(HashMap::new()),
            alive: AtomicBool::new(true),
        }
    }

    /// Parks a waiter for `env`'s reply.
    fn register(&self, node: NodeId, env: &Envelope, round: &Round, permit: InflightPermit) {
        let waiter = Waiter {
            node,
            round_epoch: env.round_epoch,
            tx: round.tx.clone(),
            _permit: permit,
        };
        let earlier = self.pending.lock().insert(env.op_id.0, waiter);
        debug_assert!(earlier.is_none(), "{} is already pending", env.op_id);
    }

    /// Removes the op id's waiter: its round no longer waits.
    fn deregister(&self, op_id: u64) -> Option<Waiter> {
        self.pending.lock().remove(&op_id)
    }

    /// Serves a reply frame to the op id's waiter. A reply nobody waits
    /// for — its round closed — is dropped; identity matching means it
    /// cannot be miscounted against another command.
    fn complete(&self, op_id: u64, result: Result<Response, NodeError>) {
        if let Some(waiter) = self.deregister(op_id) {
            waiter.answer(op_id, result);
        }
    }

    /// Marks the connection dead and fails every waiter.
    fn poison(&self) {
        self.alive.store(false, Ordering::Release);
        let drained: Vec<_> = self.pending.lock().drain().collect();
        for (op_id, waiter) in drained {
            waiter.answer(op_id, Err(NodeError::TransportClosed));
        }
    }

    /// Registers `env` for `round` and writes its frame. A write that
    /// fails poisons the connection, which answers this waiter with the
    /// rest.
    fn transmit(
        self: &Arc<Self>,
        round: &Round,
        permit: InflightPermit,
        node: NodeId,
        env: &Envelope,
    ) {
        {
            let mut open = round.open.lock();
            let Some(written) = open.as_mut() else { return };
            self.register(node, env, round, permit);
            written.push(Written {
                conn: Arc::clone(self),
                op_id: env.op_id.0,
            });
        }
        let frame = wire::encode_envelope(env);
        if self.writer.lock().write_all(&frame).is_err() {
            self.poison();
        }
    }
}

/// A pooled connection's reader thread: relays each reply frame to the
/// waiter registered for its op id, until the stream fails.
fn reader_loop(stream: TcpStream, conn: Arc<Conn>, relayed: Arc<AtomicU64>) {
    while let Ok(Some((header, body))) = read_frame(&stream, |_| false) {
        // A request on the reply path, or an undecodable body: the
        // stream cannot be trusted any more.
        let Ok(Frame::Reply(reply)) = wire::decode_body(&header, &body) else {
            break;
        };
        relayed.fetch_add(1, Ordering::Relaxed);
        conn.complete(reply.op_id.0, reply.result);
    }
    conn.poison();
}

/// Reconnect backoff: one per pool slot, one for a peer's lone-call
/// connections.
#[derive(Clone, Copy)]
struct Backoff {
    consecutive_failures: u32,
    next_attempt: Instant,
}

/// One pooled connection slot with its reconnect backoff state.
struct Slot {
    conn: Option<Arc<Conn>>,
    backoff: Backoff,
}

/// A peer's inflight window: commands written and not yet answered.
#[derive(Default)]
struct Inflight {
    count: Mutex<usize>,
    freed: Condvar,
}

/// One unit of a peer's inflight window, given back on drop — so every
/// way a command ends (reply, failure, its round closing) returns it.
struct InflightPermit(Arc<Inflight>);

impl Drop for InflightPermit {
    fn drop(&mut self) {
        *self.0.count.lock() -= 1;
        self.0.freed.notify_one();
    }
}

/// Everything the transport knows about one node.
struct Peer {
    addr: SocketAddr,
    /// Relayed rounds' connections, each with its reader thread.
    slots: Vec<Mutex<Slot>>,
    rr: AtomicUsize,
    /// One window for both kinds of connection.
    inflight: Arc<Inflight>,
    /// Lone-call connections no call is using — no reader thread, nothing
    /// outstanding — most recently used last.
    idle: Mutex<Vec<TcpStream>>,
    /// The lone-call connections' reconnect backoff, held across a
    /// connect as a slot is.
    lone_backoff: Mutex<Backoff>,
}

struct TcpInner {
    peers: Vec<Peer>,
    cfg: TcpConfig,
    /// Real-scale health registry: the driver feeds it RTT samples,
    /// reconnect retries draw on its budget, and the quorum engine
    /// feeds outcomes through [`Transport::health`].
    health: Arc<NodeHealth>,
    /// Sends handed to a helper thread because they would have blocked.
    helped: AtomicU64,
    /// Reply frames reader threads relayed to a round's channel.
    relayed: Arc<AtomicU64>,
}

/// [`Transport`] over real TCP connections, per node a pool of relayed
/// connections and a list of idle lone-call ones.
///
/// Cloning is cheap (shared inner); drop closes every connection.
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
        let fresh = Backoff {
            consecutive_failures: 0,
            next_attempt: Instant::now(),
        };
        let peers = addrs
            .into_iter()
            .map(|addr| Peer {
                addr,
                slots: (0..cfg.pool_size.max(1))
                    .map(|_| {
                        Mutex::new(Slot {
                            conn: None,
                            backoff: fresh,
                        })
                    })
                    .collect(),
                rr: AtomicUsize::new(0),
                inflight: Arc::default(),
                idle: Mutex::new(Vec::new()),
                lone_backoff: Mutex::new(fresh),
            })
            .collect();
        TcpTransport {
            inner: Arc::new(TcpInner {
                peers,
                cfg,
                health: Arc::new(NodeHealth::new()),
                helped: AtomicU64::new(0),
                relayed: Arc::default(),
            }),
        }
    }

    /// The health registry behind this transport: the driver's latency
    /// samples, the quorum engine's outcomes and the retry budget.
    pub fn health_registry(&self) -> &Arc<NodeHealth> {
        &self.inner.health
    }

    /// The fabric's fixed round-trip budget.
    fn budget(&self) -> u64 {
        self.inner.cfg.io_timeout.as_nanos() as u64
    }

    /// A relayed round's link.
    fn relay_link(&self) -> RelayLink<'_> {
        let (tx, rx) = unbounded();
        let round = Arc::new(Round {
            tx,
            open: Mutex::new(Some(Vec::new())),
        });
        RelayLink {
            inner: &self.inner,
            round,
            rx,
        }
    }
}

/// The link clock: monotonic wall nanoseconds since the process first
/// asked.
#[expect(
    clippy::disallowed_methods,
    reason = "the socket fabric's clock; DST runs the same driver over SimTransport's virtual one"
)]
fn wall_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Why no connection reached a node: it is down, unless the clock ran
/// out while we were still trying.
fn unreachable(deadline: Instant) -> NodeError {
    if Instant::now() >= deadline {
        NodeError::TimedOut
    } else {
        NodeError::Down
    }
}

/// Whether an idle connection can carry a call: the peer has not closed
/// it (a restarted node has) nor sent anything unasked. One non-blocking
/// peek.
fn still_open(stream: &TcpStream) -> bool {
    let quiet = stream.set_nonblocking(true).is_ok()
        && matches!(stream.peek(&mut [0u8; 1]), Err(e) if e.kind() == io::ErrorKind::WouldBlock);
    quiet && stream.set_nonblocking(false).is_ok()
}

impl TcpInner {
    /// Takes one unit of the peer's inflight window, waiting for one to
    /// be freed until `deadline` (`None`: only if one is free now).
    fn acquire_inflight(&self, peer: &Peer, deadline: Option<Instant>) -> Option<InflightPermit> {
        let mut count = peer.inflight.count.lock();
        while *count >= self.cfg.max_inflight {
            let wait = deadline?.checked_duration_since(Instant::now())?;
            if peer.inflight.freed.wait_for(&mut count, wait) && *count >= self.cfg.max_inflight {
                return None;
            }
        }
        *count += 1;
        Some(InflightPermit(Arc::clone(&peer.inflight)))
    }

    /// Backpressure first: a node already saturated with our own inflight
    /// commands should not accumulate more. A command waits for its unit
    /// of the window at most `overload_wait` (never past `deadline`) and
    /// is then shed — typed: `Overloaded` means "never sent", so the
    /// caller may re-route immediately.
    fn admit(&self, peer: &Peer, deadline: Instant) -> Result<InflightPermit, NodeError> {
        let overload_deadline = deadline.min(Instant::now() + self.cfg.overload_wait);
        self.acquire_inflight(peer, Some(overload_deadline))
            .ok_or(NodeError::Overloaded)
    }

    /// Opens a connection to `peer`, honouring and updating `backoff`:
    /// the one reconnect routine, for pool slots and lone calls alike
    /// (`jitter_key` tells their backoffs apart). `None` means the node
    /// is unreachable within the attempt budget / deadline. The first
    /// attempt is free; every re-attempt is a [`redial`](Self::redial),
    /// paid for out of the retry budget (`lane`-aware: background
    /// reconnects leave the foreground reserve untouched).
    fn connect(
        &self,
        peer: &Peer,
        backoff: &mut Backoff,
        jitter_key: u64,
        deadline: Instant,
        lane: Lane,
    ) -> Option<TcpStream> {
        let mut stream = None;
        for attempt in 0..self.cfg.connect_attempts {
            if stream.is_some() || Instant::now() >= deadline {
                break;
            }
            stream = if attempt == 0 {
                self.dial(peer, backoff, jitter_key, deadline)
            } else {
                let permit = self.health.try_spend(lane)?;
                self.redial(permit, peer, backoff, jitter_key, deadline)
            };
        }
        stream
    }

    /// A reconnect attempt after a failed one: a retry, so it costs a
    /// permit.
    fn redial(
        &self,
        _permit: RetryPermit,
        peer: &Peer,
        backoff: &mut Backoff,
        jitter_key: u64,
        deadline: Instant,
    ) -> Option<TcpStream> {
        self.dial(peer, backoff, jitter_key, deadline)
    }

    /// One connection attempt: waits out `backoff`'s window from earlier
    /// failures (never past `deadline`), connects, and on failure pushes
    /// the window out.
    fn dial(
        &self,
        peer: &Peer,
        backoff: &mut Backoff,
        jitter_key: u64,
        deadline: Instant,
    ) -> Option<TcpStream> {
        let now = Instant::now();
        if backoff.next_attempt > now {
            let wait = (backoff.next_attempt - now).min(deadline - now);
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
                backoff.consecutive_failures = 0;
                Some(stream)
            }
            Err(_) => {
                backoff.consecutive_failures = backoff.consecutive_failures.saturating_add(1);
                let shift = backoff.consecutive_failures.min(6);
                let delay = self
                    .cfg
                    .backoff_base
                    .saturating_mul(1u32 << shift.saturating_sub(1))
                    .min(self.cfg.backoff_max);
                // Deterministic ±50% jitter so many slots/processes
                // hammering one dead node spread out instead of
                // synchronising their retry storms.
                let seed = (u64::from(peer.addr.port()) << 32)
                    ^ u64::from(backoff.consecutive_failures)
                    ^ jitter_key << 16;
                let permille = 500 + splitmix64(seed) % 1001; // [0.5, 1.5]×
                let jittered =
                    Duration::from_nanos((delay.as_nanos() as u64).saturating_mul(permille) / 1000);
                backoff.next_attempt = Instant::now() + jittered;
                None
            }
        }
    }

    /// Gets (or re-establishes, starting its reader thread) a live
    /// connection in `peer`'s pool slot `slot_index`. Holds the slot for
    /// as long as it takes.
    fn get_conn(
        &self,
        peer: &Peer,
        slot_index: usize,
        deadline: Instant,
        lane: Lane,
    ) -> Option<Arc<Conn>> {
        let mut slot = peer.slots[slot_index].lock();
        if let Some(conn) = &slot.conn {
            if conn.alive.load(Ordering::Acquire) {
                return Some(Arc::clone(conn));
            }
            slot.conn = None;
        }
        let stream = self.connect(peer, &mut slot.backoff, slot_index as u64, deadline, lane)?;
        let reader_stream = stream.try_clone().ok()?;
        let conn = Arc::new(Conn::new(stream));
        let (reader_conn, relayed) = (Arc::clone(&conn), Arc::clone(&self.relayed));
        std::thread::Builder::new()
            .name(format!("tq-tcp-read-{}", peer.addr))
            .spawn(move || reader_loop(reader_stream, reader_conn, relayed))
            .ok()?;
        slot.conn = Some(Arc::clone(&conn));
        Some(conn)
    }

    /// A connection for one lone call: the most recently used idle one
    /// the peer has not closed, else a new one.
    fn checkout(&self, peer: &Peer, deadline: Instant, lane: Lane) -> Option<TcpStream> {
        loop {
            let idle = peer.idle.lock().pop();
            match idle {
                Some(stream) if still_open(&stream) => return Some(stream),
                Some(_) => {} // closed by the peer: dropped
                None => break,
            }
        }
        let mut backoff = peer.lone_backoff.lock();
        let jitter_key = peer.slots.len() as u64;
        self.connect(peer, &mut backoff, jitter_key, deadline, lane)
    }

    /// The relayed send that may block, run on a helper thread: waits
    /// out a saturated inflight window, reconnects the pool slot with
    /// backoff, then writes the frame like any other relayed send.
    fn send_blocking(&self, round: &Round, node: NodeId, slot_index: usize, env: &Envelope) {
        let peer = &self.peers[node.0];
        let deadline = Instant::now() + self.cfg.io_timeout;
        let sent = self.admit(peer, deadline).and_then(|permit| {
            let conn = self
                .get_conn(peer, slot_index, deadline, env.lane)
                .ok_or_else(|| unreachable(deadline))?;
            Ok((conn, permit))
        });
        match sent {
            Ok((conn, permit)) => conn.transmit(round, permit, node, env),
            Err(error) => round.fail(node, env, error),
        }
    }

    /// A lone call's send, on the caller's thread: the same admission and
    /// reconnect rules, then the frame, on a connection checked out for
    /// this call alone.
    fn send_lone<'p>(&self, peer: &'p Peer, env: &Envelope) -> Result<Outstanding<'p>, NodeError> {
        let deadline = Instant::now() + self.cfg.io_timeout;
        let permit = self.admit(peer, deadline)?;
        let mut stream = self
            .checkout(peer, deadline, env.lane)
            .ok_or_else(|| unreachable(deadline))?;
        stream
            .write_all(&wire::encode_envelope(env))
            .map_err(|_| NodeError::TransportClosed)?;
        Ok(Outstanding {
            peer,
            stream,
            _permit: permit,
        })
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

/// The relayed fabric as the driver sees it: callers write frames on
/// pooled connections, reader threads feed the round's one channel, and
/// the clock is monotonic wall time.
struct RelayLink<'a> {
    inner: &'a Arc<TcpInner>,
    round: Arc<Round>,
    rx: Receiver<RoundReply>,
}

impl Link for RelayLink<'_> {
    /// A peer with a live pooled connection and inflight headroom is
    /// written from the caller's thread. A send that would block —
    /// reconnect-with-backoff, a saturated peer's `overload_wait` — is
    /// handed to a short-lived helper instead, so a dead or slow peer
    /// never delays the round's other members. The choice is made on
    /// what the pool can observe, per send.
    fn send(&mut self, node: NodeId, env: &Envelope) {
        let Some(peer) = self.inner.peers.get(node.0) else {
            return self.round.fail(node, env, NodeError::TransportClosed);
        };
        // Requests round-robin over the pool's connections.
        let slot_index = peer.rr.fetch_add(1, Ordering::Relaxed) % peer.slots.len();
        let live = peer.slots[slot_index]
            .try_lock()
            .and_then(|slot| slot.conn.clone())
            .filter(|conn| conn.alive.load(Ordering::Acquire));
        if let Some(conn) = live {
            if let Some(permit) = self.inner.acquire_inflight(peer, None) {
                return conn.transmit(&self.round, permit, node, env);
            }
        }
        self.inner.helped.fetch_add(1, Ordering::Relaxed);
        let (inner, round, helper_env) =
            (Arc::clone(self.inner), Arc::clone(&self.round), env.clone());
        // Detached on purpose: joining it would make the round wait out
        // exactly the backoff it was started to keep off this thread. It
        // ends within `io_timeout`, and sends nothing once the round
        // closed.
        let spawned = std::thread::Builder::new()
            .name("tq-tcp-send".into())
            .spawn(move || inner.send_blocking(&round, node, slot_index, &helper_env));
        if spawned.is_err() {
            self.round.fail(node, env, NodeError::TransportClosed);
        }
    }

    fn recv(&mut self, until: u64) -> Option<RoundReply> {
        let wait = Duration::from_nanos(until.saturating_sub(self.now()));
        self.rx.recv_timeout(wait).ok()
    }

    fn now(&self) -> u64 {
        wall_nanos()
    }
}

impl Drop for RelayLink<'_> {
    /// Closing the round takes back every registration it left
    /// outstanding, which frees those commands' inflight units at once
    /// instead of when (or if) their replies arrive.
    fn drop(&mut self) {
        for w in self.round.open.lock().take().into_iter().flatten() {
            w.conn.deregister(w.op_id);
        }
    }
}

/// A lone call on the wire: the connection checked out for it, and its
/// unit of the peer's inflight window. Dropped unanswered — timed out,
/// or its round abandoned — the connection closes with it.
struct Outstanding<'a> {
    peer: &'a Peer,
    stream: TcpStream,
    _permit: InflightPermit,
}

/// Arms `stream`'s read timeout to expire at `until` on the link clock;
/// a `TimedOut` error once `until` has passed.
fn read_until(stream: &TcpStream, until: u64) -> io::Result<()> {
    if until == NEVER {
        return stream.set_read_timeout(None);
    }
    match until.saturating_sub(wall_nanos()) {
        0 => Err(io::ErrorKind::TimedOut.into()),
        left => stream.set_read_timeout(Some(Duration::from_nanos(left))),
    }
}

impl Outstanding<'_> {
    /// Reads the call's reply on the caller's thread, waiting until
    /// `until`; `None` if it did not come by then. Only a reply to
    /// `op_id` returns the connection to the peer's idle list — anything
    /// else on it fails the call and closes it.
    fn finish(self, op_id: OpId, until: u64) -> Option<Result<Response, NodeError>> {
        let frame = read_until(&self.stream, until).and_then(|()| {
            read_frame(&self.stream, |e| {
                is_timeout(e) && read_until(&self.stream, until).is_ok()
            })
        });
        let reply = match frame {
            Err(e) if is_timeout(&e) => return None,
            Ok(Some((header, body))) => wire::decode_body(&header, &body),
            _ => return Some(Err(NodeError::TransportClosed)),
        };
        match reply {
            Ok(Frame::Reply(reply)) if reply.op_id == op_id => {
                self.peer.idle.lock().push(self.stream);
                Some(reply.result)
            }
            _ => Some(Err(NodeError::TransportClosed)),
        }
    }
}

/// The link of a round with one call: the caller
/// writes the frame on a connection checked out for the call and reads
/// the reply on its own thread — no channel, reader thread or helper.
struct LoneLink<'a> {
    inner: &'a TcpInner,
    /// The call's identity, once sent.
    sent: Option<(NodeId, OpId, u64)>,
    /// The connection carrying the call, or why it has none, until
    /// [`recv`](Link::recv) takes its outcome.
    wire: Option<Result<Outstanding<'a>, NodeError>>,
}

impl<'a> LoneLink<'a> {
    fn new(inner: &'a TcpInner) -> Self {
        LoneLink {
            inner,
            sent: None,
            wire: None,
        }
    }
}

impl Link for LoneLink<'_> {
    /// The call is the whole round, so a send that would block — a
    /// reconnect with backoff, a full window's `overload_wait` — blocks
    /// only its own caller. The driver sends a call once; a second copy
    /// would not be sent, since nothing here would read its reply.
    fn send(&mut self, node: NodeId, env: &Envelope) {
        if self.sent.is_some() {
            return;
        }
        self.sent = Some((node, env.op_id, env.round_epoch));
        self.wire = Some(match self.inner.peers.get(node.0) {
            Some(peer) => self.inner.send_lone(peer, env),
            None => Err(NodeError::TransportClosed),
        });
    }

    fn recv(&mut self, until: u64) -> Option<RoundReply> {
        let (Some((node, op_id, round_epoch)), Some(wire)) = (self.sent, self.wire.take()) else {
            // Nothing more will arrive: wait out `until` as an empty
            // channel would.
            if until != NEVER {
                std::thread::sleep(Duration::from_nanos(until.saturating_sub(self.now())));
            }
            return None;
        };
        let result = match wire {
            Ok(outstanding) => outstanding.finish(op_id, until)?,
            Err(error) => Err(error),
        };
        Some(RoundReply {
            op_id,
            round_epoch,
            node,
            result,
        })
    }

    fn now(&self) -> u64 {
        wall_nanos()
    }
}

impl Transport for TcpTransport {
    fn node_count(&self) -> usize {
        self.inner.peers.len()
    }

    fn dispatch(&self, node: NodeId, env: Envelope) -> Reply {
        let (health, budget) = (&self.inner.health, self.budget());
        drive_one(LoneLink::new(&self.inner), health, budget, node, env)
    }

    fn health(&self) -> Option<&NodeHealth> {
        Some(&self.inner.health)
    }

    /// Concurrent fan-out: every call is written immediately and
    /// completions stream to the sink in arrival order. Abandoning the
    /// round only stops waiting — like any real fabric, requests already
    /// written will still execute.
    fn multicall(&self, calls: Vec<(NodeId, Envelope)>, sink: &mut dyn FnMut(RoundReply) -> bool) {
        let (health, budget) = (&self.inner.health, self.budget());
        if calls.len() == 1 {
            drive(LoneLink::new(&self.inner), health, budget, calls, sink)
        } else {
            drive(self.relay_link(), health, budget, calls, sink)
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::node::StorageNode;
    use crate::rpc::Request;
    use crate::storage::MemoryBackend;

    /// A cluster of `n` nodes, each served on its own loopback port.
    pub(crate) fn serve_cluster(n: usize) -> (Cluster, Vec<TcpNodeServer>, Vec<SocketAddr>) {
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
    fn tcp_warm_round_is_written_from_the_callers_thread() {
        let (_cluster, _servers, addrs) = serve_cluster(3);
        let t = TcpTransport::connect(addrs);
        let caller = std::thread::current().id();
        let round = || {
            let calls: Vec<(NodeId, Envelope)> = (0..3)
                .map(|i| (NodeId(i), Envelope::new(Request::Ping)))
                .collect();
            let mut seen = 0;
            t.multicall(calls, &mut |reply| {
                assert_eq!(std::thread::current().id(), caller);
                assert_eq!(reply.result, Ok(Response::Pong));
                seen += 1;
                true
            });
            assert_eq!(seen, 3);
        };
        let counters = || {
            (
                t.inner.helped.load(Ordering::Relaxed),
                t.inner.relayed.load(Ordering::Relaxed),
            )
        };
        // Two 3-call rounds connect both pooled connections of each peer
        // (each through a helper: connecting may block). Lone calls would
        // not: they never touch the pool.
        round();
        round();
        assert_eq!(counters(), (6, 6), "one helper per connection made");
        round();
        assert_eq!(
            counters(),
            (6, 9),
            "live connections with headroom: no thread was started"
        );
        // The mirror image: lone calls are written and read by their
        // caller, on one idle connection per peer.
        for i in 0..100 {
            assert_eq!(t.call(NodeId(i % 3), Request::Ping), Ok(Response::Pong));
        }
        assert_eq!(
            counters(),
            (6, 9),
            "lone calls start no thread and relay no frame"
        );
        for peer in &t.inner.peers {
            assert_eq!(peer.idle.lock().len(), 1);
        }
    }

    #[test]
    fn tcp_lone_call_never_reuses_a_timed_out_connection() {
        // Holds the first request it reads until the test releases it,
        // after the second call has returned, and answers every later
        // one at once, each connection on its own thread. A second call
        // that reused the first connection would queue behind the held
        // request and time out, whatever the schedule.
        let io_timeout = Duration::from_millis(200);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (release, released) = unbounded::<()>();
        let gate = Arc::new(Mutex::new(Some(released)));
        std::thread::spawn(move || {
            for stream in listener.incoming().take(2) {
                let (Ok(mut stream), gate) = (stream, Arc::clone(&gate)) else {
                    return;
                };
                std::thread::spawn(move || {
                    while let Ok(Some((header, body))) = read_frame(&stream, |_| false) {
                        let Ok(Frame::Envelope(env)) = wire::decode_body(&header, &body) else {
                            return;
                        };
                        let held = gate.lock().take();
                        if let Some(released) = held {
                            let _ = released.recv();
                        }
                        let reply = Reply {
                            op_id: env.op_id,
                            round_epoch: env.round_epoch,
                            result: Ok(Response::Pong),
                        };
                        if stream.write_all(&wire::encode_reply(&reply)).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        let t = TcpTransport::with_config(
            vec![addr],
            TcpConfig {
                io_timeout,
                ..TcpConfig::default()
            },
        );
        let started = Instant::now();
        assert_eq!(t.call(NodeId(0), Request::Ping), Err(NodeError::TimedOut));
        let waited = started.elapsed();
        assert!(
            waited >= io_timeout,
            "TimedOut before the deadline: {waited:?}"
        );
        let env = Envelope::new(Request::Ping);
        let op_id = env.op_id;
        let reply = t.dispatch(NodeId(0), env);
        release.send(()).unwrap();
        assert_eq!((reply.op_id, reply.result), (op_id, Ok(Response::Pong)));
    }

    #[test]
    fn tcp_server_without_clients_drops_without_waiting_for_a_tick() {
        // The acceptor used to poll every 2 ms, so an idle server's drop
        // waited for the next tick. Blocked in `accept`, it wakes exactly
        // once: for the connection its own drop makes.
        let cluster = Cluster::new(1);
        let node: Arc<dyn NodeApi> = Arc::clone(cluster.node(0)) as Arc<dyn NodeApi>;
        for _ in 0..5 {
            let server = TcpNodeServer::spawn(Arc::clone(&node), "127.0.0.1:0").unwrap();
            let wakes = Arc::clone(&server.wakes);
            // Idle long enough for a ticking acceptor to show its ticks.
            std::thread::sleep(Duration::from_millis(5));
            // The drop joins the acceptor, so its count is final here.
            drop(server);
            assert_eq!(wakes.load(Ordering::Relaxed), 1, "one wake-up: the drop's");
        }
    }

    #[test]
    fn tcp_refusing_peer_does_not_delay_the_rounds_other_members() {
        use crate::quorum_round::QuorumRound;
        let (_cluster, _servers, mut addrs) = serve_cluster(1);
        let throwaway = TcpListener::bind("127.0.0.1:0").unwrap();
        addrs.insert(0, throwaway.local_addr().unwrap());
        drop(throwaway);
        // A backoff far past the round-trip budget: a send to the
        // refusing peer cannot end before the budget does.
        let backoff_base = Duration::from_secs(60);
        let t = TcpTransport::with_config(
            addrs,
            TcpConfig {
                pool_size: 1,
                connect_attempts: 1,
                backoff_base,
                backoff_max: backoff_base,
                ..TcpConfig::default()
            },
        );
        // Connect the live peer's pooled connection; put the refusing
        // one's into its backoff window, where the next connect attempt
        // sleeps first.
        let pings = || vec![(NodeId(0), Request::Ping), (NodeId(1), Request::Ping)];
        let warm = QuorumRound::await_all(1).run(&t, pings());
        assert_eq!(warm.rejected[0].error, NodeError::Down);
        let started = Instant::now();
        let outcome = QuorumRound::first_quorum(1).run(&t, pings());
        let elapsed = started.elapsed();
        assert!(outcome.quorum_met());
        assert_eq!(outcome.accepted[0].node, NodeId(1));
        assert!(
            outcome.rejected.is_empty() && outcome.abandoned == vec![NodeId(0)],
            "the refusing peer, listed first, held the round up: {outcome:?}"
        );
        assert!(elapsed < backoff_base / 2, "{elapsed:?}");
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
        // A listener that accepts and answers nothing until released: the
        // first dispatch occupies the single inflight slot for its whole
        // budget, so a second dispatch must be shed — while the first is
        // still outstanding, and as Overloaded, not as a slow TimedOut.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (accepted_tx, accepted) = unbounded();
        let (release, released) = unbounded::<()>();
        let hold = std::thread::spawn(move || {
            if let Ok((s, _)) = listener.accept() {
                accepted_tx.send(()).unwrap();
                let _ = released.recv();
                drop(s);
            }
        });
        let t = Arc::new(TcpTransport::with_config(
            vec![addr],
            TcpConfig {
                max_inflight: 1,
                pool_size: 1,
                io_timeout: Duration::from_secs(2),
                overload_wait: Duration::from_millis(30),
                ..TcpConfig::default()
            },
        ));
        let blocker = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || t.call(NodeId(0), Request::Ping))
        };
        // The blocker connects only once it holds the inflight slot.
        accepted.recv().unwrap();
        let started = Instant::now();
        let shed = t.call(NodeId(0), Request::Ping);
        assert_eq!(shed, Err(NodeError::Overloaded));
        assert!(
            !blocker.is_finished(),
            "shedding is fast, not a timeout: {:?}",
            started.elapsed()
        );
        assert_eq!(blocker.join().unwrap(), Err(NodeError::TimedOut));
        release.send(()).unwrap();
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
        let spent_once = t.health_registry().retries();
        assert!(
            (1..10).contains(&spent_once),
            "retries are budget-bounded below the attempt count: {spent_once}"
        );
        // Budget exhausted: further dispatches stop at the free attempt.
        assert_eq!(t.call(NodeId(0), Request::Ping), Err(NodeError::Down));
        assert_eq!(t.call(NodeId(0), Request::Ping), Err(NodeError::Down));
        let spent_after = t.health_registry().retries();
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

//! The outside-in trace: spans recorded from the benchmark's own files,
//! around the calls into each layer's public functions.
//!
//! Three decorators sit on the library's own seams — [`TimedTransport`]
//! on `Transport`, [`TimedNode`] on `NodeApi`, [`TimedBackend`] on
//! `StorageBackend` — and the client loop adds a span around each op and
//! each `StripeLockManager::lock`. Only the traced run builds a stack
//! with them; end-to-end metrics come from a stack that has no decorator
//! in the call path at all.
//!
//! Spans live in per-thread vectors (registered once per thread, so the
//! hot path takes an uncontended lock) and are collected when the run
//! ends. Every timestamp is nanoseconds since one process-wide epoch, so
//! spans from client, dispatcher and server threads compare directly.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use tq_cluster::{
    wire, AppendLogBackend, Envelope, NodeApi, NodeHealth, NodeId, Reply, RoundReply,
    StorageBackend, StorageError, StorageNode, StoredBlock, Transport,
};

/// What a span brackets. The name printed in the trace file is
/// [`Kind::name`], prefixed with the layer that owns the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One client read, `QuorumStore::read`.
    OpRead,
    /// One client write: lock wait + `QuorumStore::write`.
    OpWrite,
    /// `StripeLockManager::lock`.
    Lock,
    /// `Transport::multicall` — one fan-out round.
    Multicall,
    /// A lone `Transport::dispatch` — a round of one, on the caller's
    /// thread.
    Dispatch,
    /// One awaited reply of a multicall: round start → arrival at the
    /// round's sink.
    Call,
    /// `NodeApi::execute`.
    Node,
    /// `StorageBackend::get`.
    Get,
    /// `StorageBackend::put`.
    Put,
    /// `StorageBackend::flush`.
    Flush,
    /// The trace's own wire-byte counting (`encode_envelope` /
    /// `encode_reply` lengths); bracketed so no layer is billed for it.
    WireCount,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::OpRead => "core.read",
            Kind::OpWrite => "core.write",
            Kind::Lock => "core.lock",
            Kind::Multicall => "cluster.quorum_round.multicall",
            Kind::Dispatch => "cluster.transport.dispatch",
            Kind::Call => "cluster.transport.call",
            Kind::Node => "cluster.node.execute",
            Kind::Get => "cluster.storage.get",
            Kind::Put => "cluster.storage.put",
            Kind::Flush => "cluster.storage.flush",
            Kind::WireCount => "trace.wire_count",
        }
    }
}

/// Marks "no node" in [`Span::node`].
pub const NO_NODE: u16 = u16::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the same thread (0 = none). Node spans run on
    /// server threads and are joined to their call through `key`.
    pub parent: u64,
    /// Client op sequence number for op spans; the envelope's `OpId` for
    /// dispatch, call and node spans — the identity the envelope already
    /// carries end to end; 0 otherwise.
    pub key: u64,
    pub kind: Kind,
    pub node: u16,
    /// For dispatch/call spans: the reply was `Ok`.
    pub ok: bool,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static REGISTRY: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static BUFFER: RefCell<Option<Buffer>> = const { RefCell::new(None) };
    /// Wire bytes the transport decorator counted on this thread since
    /// the client loop last took them.
    static WIRE_BYTES: Cell<u64> = const { Cell::new(0) };
}

pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn record(span: Span) {
    BUFFER.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buffer = slot.get_or_insert_with(|| {
            let buffer: Buffer = Arc::default();
            REGISTRY
                .lock()
                .expect("span registry: no thread panics while holding it")
                .push(Arc::clone(&buffer));
            buffer
        });
        buffer
            .lock()
            .expect("span buffer: only its own thread and the collector lock it")
            .push(span);
    });
}

/// An open span; closes (and is recorded) on drop.
pub struct Open {
    id: u64,
    parent: u64,
    key: u64,
    kind: Kind,
    node: u16,
    ok: bool,
    start_ns: u64,
}

impl Open {
    pub fn set_ok(&mut self, ok: bool) {
        self.ok = ok;
    }
}

impl Drop for Open {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.parent));
        record(Span {
            id: self.id,
            parent: self.parent,
            key: self.key,
            kind: self.kind,
            node: self.node,
            ok: self.ok,
            start_ns: self.start_ns,
            end_ns: now_ns(),
        });
    }
}

/// Opens a span nested in whatever span is open on this thread.
pub fn enter(kind: Kind, node: u16, key: u64) -> Open {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(id));
    Open {
        id,
        parent,
        key,
        kind,
        node,
        ok: true,
        start_ns: now_ns(),
    }
}

/// Takes (and zeroes) the wire bytes counted on this thread.
pub fn take_wire_bytes() -> u64 {
    WIRE_BYTES.with(|w| w.replace(0))
}

/// Drains every thread's spans. Call once the stack is quiet.
pub fn collect() -> Vec<Span> {
    let registry = REGISTRY
        .lock()
        .expect("span registry: no thread panics while holding it");
    let mut all = Vec::new();
    for buffer in registry.iter() {
        all.append(
            &mut buffer
                .lock()
                .expect("span buffer: only its own thread and the collector lock it"),
        );
    }
    all
}

// ---------------------------------------------------------------------
// Decorators.
// ---------------------------------------------------------------------

/// Times every round a client issues through the wrapped transport.
///
/// A concurrent transport's `multicall` is passed through and observed
/// at its sink: each awaited reply becomes a [`Kind::Call`] span from
/// round start to arrival. A sequential transport (`LocalTransport`,
/// whose `multicall` is the trait's lazy in-order default) gets that
/// same loop here, over the timed `dispatch`; there the dispatch *is*
/// the node call, so its span is recorded as [`Kind::Node`].
pub struct TimedTransport<T> {
    inner: T,
    sequential: bool,
}

impl<T: Transport> TimedTransport<T> {
    pub fn concurrent(inner: T) -> Self {
        TimedTransport {
            inner,
            sequential: false,
        }
    }

    pub fn sequential(inner: T) -> Self {
        TimedTransport {
            inner,
            sequential: true,
        }
    }
}

fn count_wire(envelopes: u64, replies: &[Reply]) {
    let _span = enter(Kind::WireCount, NO_NODE, 0);
    let bytes: u64 = replies
        .iter()
        .map(|r| wire::encode_reply(r).len() as u64)
        .sum();
    WIRE_BYTES.with(|w| w.set(w.get() + envelopes + bytes));
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn dispatch(&self, node: NodeId, env: Envelope) -> Reply {
        let request_bytes = {
            let _span = enter(Kind::WireCount, NO_NODE, 0);
            wire::encode_envelope(&env).len() as u64
        };
        let kind = if self.sequential {
            Kind::Node
        } else {
            Kind::Dispatch
        };
        let mut span = enter(kind, node.0 as u16, env.op_id.0);
        let reply = self.inner.dispatch(node, env);
        span.set_ok(reply.result.is_ok());
        drop(span);
        count_wire(request_bytes, std::slice::from_ref(&reply));
        reply
    }

    fn multicall(&self, calls: Vec<(NodeId, Envelope)>, sink: &mut dyn FnMut(RoundReply) -> bool) {
        if self.sequential {
            let _round = enter(Kind::Multicall, NO_NODE, 0);
            for (node, env) in calls {
                let reply = self.dispatch(node, env);
                if !sink(RoundReply::from_reply(node, reply)) {
                    break;
                }
            }
            return;
        }
        let request_bytes: u64 = {
            let _span = enter(Kind::WireCount, NO_NODE, 0);
            calls
                .iter()
                .map(|(_, env)| wire::encode_envelope(env).len() as u64)
                .sum()
        };
        let mut replies: Vec<Reply> = Vec::with_capacity(calls.len());
        {
            let round = enter(Kind::Multicall, NO_NODE, 0);
            let (round_id, round_start) = (round.id, round.start_ns);
            self.inner.multicall(calls, &mut |reply| {
                record(Span {
                    id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                    parent: round_id,
                    key: reply.op_id.0,
                    kind: Kind::Call,
                    node: reply.node.0 as u16,
                    ok: reply.result.is_ok(),
                    start_ns: round_start,
                    end_ns: now_ns(),
                });
                replies.push(Reply {
                    op_id: reply.op_id,
                    round_epoch: reply.round_epoch,
                    result: reply.result.clone(),
                });
                sink(reply)
            });
        }
        // Requests of abandoned stragglers were still written: bill every
        // envelope, and every reply that was awaited.
        count_wire(request_bytes, &replies);
    }

    fn health(&self) -> Option<&NodeHealth> {
        self.inner.health()
    }
}

/// Times `NodeApi::execute` on whatever thread serves the node.
pub struct TimedNode {
    inner: Arc<StorageNode>,
}

impl TimedNode {
    pub fn new(inner: Arc<StorageNode>) -> Self {
        TimedNode { inner }
    }
}

impl NodeApi for TimedNode {
    fn execute(&self, env: Envelope) -> Reply {
        let mut span = enter(Kind::Node, self.inner.id().0 as u16, env.op_id.0);
        let reply = self.inner.execute(env);
        span.set_ok(reply.result.is_ok());
        reply
    }
}

/// Times `get`/`put`/`flush` under a node, and counts the bytes a log
/// backend appends (`log_len()` growth sampled after every put, so a
/// compaction's shrink is not mistaken for negative growth).
#[derive(Debug)]
pub struct TimedBackend {
    inner: Arc<dyn StorageBackend>,
    log: Option<Arc<AppendLogBackend>>,
    node: u16,
    last_log_len: AtomicU64,
    appended: AtomicU64,
}

impl TimedBackend {
    pub fn memory(inner: Arc<dyn StorageBackend>, node: usize) -> Self {
        TimedBackend {
            inner,
            log: None,
            node: node as u16,
            last_log_len: AtomicU64::new(0),
            appended: AtomicU64::new(0),
        }
    }

    pub fn log(log: Arc<AppendLogBackend>, node: usize) -> Self {
        TimedBackend {
            last_log_len: AtomicU64::new(log.log_len()),
            inner: Arc::clone(&log) as Arc<dyn StorageBackend>,
            log: Some(log),
            node: node as u16,
            appended: AtomicU64::new(0),
        }
    }

    /// Log bytes appended through this backend since it was wrapped.
    /// A statistic: concurrent puts may attribute a few bytes twice.
    pub fn appended_bytes(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }
}

impl StorageBackend for TimedBackend {
    fn get(&self, id: u64) -> Result<Option<StoredBlock>, StorageError> {
        let _span = enter(Kind::Get, self.node, 0);
        self.inner.get(id)
    }

    fn put(&self, id: u64, block: StoredBlock) -> Result<(), StorageError> {
        let result = {
            let _span = enter(Kind::Put, self.node, 0);
            self.inner.put(id, block)
        };
        if let Some(log) = &self.log {
            let len = log.log_len();
            let last = self.last_log_len.swap(len, Ordering::Relaxed);
            self.appended
                .fetch_add(len.saturating_sub(last), Ordering::Relaxed);
        }
        result
    }

    fn delete(&self, id: u64) -> Result<(), StorageError> {
        self.inner.delete(id)
    }

    fn scan(&self, visit: &mut dyn FnMut(u64, &StoredBlock)) -> Result<(), StorageError> {
        self.inner.scan(visit)
    }

    fn flush(&self) -> Result<(), StorageError> {
        let _span = enter(Kind::Flush, self.node, 0);
        self.inner.flush()
    }

    fn clear(&self) -> Result<(), StorageError> {
        self.inner.clear()
    }

    fn crash_restart(&self) {
        self.inner.crash_restart();
    }

    fn take_stall_ticks(&self) -> u64 {
        self.inner.take_stall_ticks()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

// ---------------------------------------------------------------------
// Analysis.
// ---------------------------------------------------------------------

/// Where one client op's time went, by the layer whose call was open —
/// along the op's *blocking path*: per round, the awaited call that
/// completed last (every call, on a sequential transport).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpBudget {
    pub write: bool,
    pub total_ns: u64,
    /// Op span minus its rounds, lock and wire counting: planning,
    /// `block_delta`, check verification, decode.
    pub core_ns: u64,
    pub lock_ns: u64,
    /// Lone dispatches: RTT minus `node.execute`.
    pub transport_ns: u64,
    /// Multicall rounds: round span minus the blocking call's
    /// `node.execute`.
    pub round_ns: u64,
    pub multicall_rounds: u64,
    /// `node.execute` minus its storage spans.
    pub node_ns: u64,
    pub get_ns: u64,
    pub put_ns: u64,
    pub flush_ns: u64,
    /// The trace's own wire counting.
    pub wire_count_ns: u64,
    /// Round time whose blocking call has no node span to join.
    pub unmatched_ns: u64,
}

impl Analysis {
    /// Books one awaited call: its RTT and whether it was answered `Ok`.
    fn awaited(&mut self, call: &Span) {
        self.rtts.push(call.dur());
        self.awaited_calls += 1;
        self.failed_calls += u64::from(!call.ok);
    }
}

impl OpBudget {
    /// Time billed to a layer of the system (everything but the trace's
    /// own work and unjoined rounds).
    pub fn explained_ns(&self) -> u64 {
        self.core_ns
            + self.lock_ns
            + self.transport_ns
            + self.round_ns
            + self.node_ns
            + self.get_ns
            + self.put_ns
            + self.flush_ns
    }
}

/// Aggregates over every span of a traced phase.
#[derive(Debug, Default)]
pub struct Analysis {
    pub ops: Vec<OpBudget>,
    /// RTT of every awaited call (lone dispatch span, or round start →
    /// sink arrival), nanoseconds.
    pub rtts: Vec<u64>,
    pub awaited_calls: u64,
    pub failed_calls: u64,
    /// Over lone dispatches joined to a node span.
    pub lone_transport_ns: u64,
    pub lone_dispatches: u64,
    /// Over every node span.
    pub node_self_ns: u64,
    pub node_spans: u64,
    pub get_ns: u64,
    pub gets: u64,
    pub put_ns: u64,
    pub puts: u64,
    pub put_max_ns: u64,
    pub flush_ns: u64,
    pub flushes: u64,
}

/// Self time: a span's duration minus what its children cover.
/// Children of one span run one after another on one thread (or, for a
/// concurrent round's calls, are reduced to the single blocking call
/// before this is applied), so what they cover is the plain sum of their
/// durations. Never negative: clocks read on two threads may disagree by
/// a few nanoseconds.
pub fn self_time(span_ns: u64, children_ns: u64) -> u64 {
    span_ns.saturating_sub(children_ns)
}

struct NodeCost {
    exec_ns: u64,
    get_ns: u64,
    put_ns: u64,
    flush_ns: u64,
}

impl NodeCost {
    fn storage_ns(&self) -> u64 {
        self.get_ns + self.put_ns + self.flush_ns
    }

    fn bill(&self, budget: &mut OpBudget) {
        budget.node_ns += self_time(self.exec_ns, self.storage_ns());
        budget.get_ns += self.get_ns;
        budget.put_ns += self.put_ns;
        budget.flush_ns += self.flush_ns;
    }
}

pub fn analyse(spans: &[Span]) -> Analysis {
    use std::collections::HashMap;
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    let mut node_by_key: HashMap<u64, &Span> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(s);
        }
        if s.kind == Kind::Node {
            node_by_key.insert(s.key, s);
        }
    }
    let kids = |id: u64| children.get(&id).map(Vec::as_slice).unwrap_or(&[]);
    let node_cost = |node: &Span| {
        let mut cost = NodeCost {
            exec_ns: node.dur(),
            get_ns: 0,
            put_ns: 0,
            flush_ns: 0,
        };
        for c in kids(node.id) {
            match c.kind {
                Kind::Get => cost.get_ns += c.dur(),
                Kind::Put => cost.put_ns += c.dur(),
                Kind::Flush => cost.flush_ns += c.dur(),
                _ => {}
            }
        }
        cost
    };

    let mut a = Analysis::default();
    for s in spans {
        match s.kind {
            Kind::Node => {
                let cost = node_cost(s);
                a.node_self_ns += self_time(cost.exec_ns, cost.storage_ns());
                a.node_spans += 1;
            }
            Kind::Get => {
                a.get_ns += s.dur();
                a.gets += 1;
            }
            Kind::Put => {
                a.put_ns += s.dur();
                a.puts += 1;
                a.put_max_ns = a.put_max_ns.max(s.dur());
            }
            Kind::Flush => {
                a.flush_ns += s.dur();
                a.flushes += 1;
            }
            _ => {}
        }
    }

    let mut op_spans: Vec<&Span> = spans
        .iter()
        .filter(|s| matches!(s.kind, Kind::OpRead | Kind::OpWrite))
        .collect();
    op_spans.sort_by_key(|s| s.start_ns);
    for op in op_spans {
        let mut b = OpBudget {
            write: op.kind == Kind::OpWrite,
            total_ns: op.dur(),
            ..OpBudget::default()
        };
        let mut covered = 0u64;
        for child in kids(op.id) {
            covered += child.dur();
            match child.kind {
                Kind::Lock => b.lock_ns += child.dur(),
                Kind::WireCount => b.wire_count_ns += child.dur(),
                Kind::Dispatch => {
                    a.awaited(child);
                    match node_by_key.get(&child.key) {
                        Some(node) => {
                            let cost = node_cost(node);
                            let transport = self_time(child.dur(), cost.exec_ns);
                            b.transport_ns += transport;
                            a.lone_transport_ns += transport;
                            a.lone_dispatches += 1;
                            cost.bill(&mut b);
                        }
                        None => b.unmatched_ns += child.dur(),
                    }
                }
                // Sequential transport, round of one: the dispatch is the
                // node call.
                Kind::Node => {
                    a.awaited(child);
                    node_cost(child).bill(&mut b);
                }
                Kind::Multicall => {
                    b.multicall_rounds += 1;
                    let mut blocking: Vec<&Span> = Vec::new();
                    let mut last_call: Option<&Span> = None;
                    for c in kids(child.id) {
                        match c.kind {
                            // Sequential transport: every issued call
                            // blocks the round, and its span is the node's.
                            Kind::Node => {
                                a.awaited(c);
                                blocking.push(c);
                            }
                            Kind::Call => {
                                a.awaited(c);
                                if last_call.is_none_or(|l| c.end_ns >= l.end_ns) {
                                    last_call = Some(c);
                                }
                            }
                            Kind::WireCount => b.wire_count_ns += c.dur(),
                            _ => {}
                        }
                    }
                    if let Some(call) = last_call {
                        match node_by_key.get(&call.key) {
                            Some(node) => blocking.push(node),
                            None => {
                                b.unmatched_ns += child.dur();
                                continue;
                            }
                        }
                    }
                    let mut exec = 0u64;
                    for node in blocking {
                        let cost = node_cost(node);
                        exec += cost.exec_ns;
                        cost.bill(&mut b);
                    }
                    let wire_inside: u64 = kids(child.id)
                        .iter()
                        .filter(|c| c.kind == Kind::WireCount)
                        .map(|c| c.dur())
                        .sum();
                    b.round_ns += self_time(child.dur(), exec + wire_inside);
                }
                _ => {}
            }
        }
        b.core_ns = self_time(op.dur(), covered);
        a.ops.push(b);
    }
    a
}

/// One line of the trace file. `op` is the client op the span belongs
/// to (0 when it belongs to none, e.g. an abandoned straggler's node
/// span), resolved through parents and envelope identities.
pub fn write_jsonl(
    spans: &[Span],
    max_ops: usize,
    out: &mut dyn std::io::Write,
) -> std::io::Result<()> {
    use std::collections::HashMap;
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    // A node span's causal parent is the dispatch/call that carried its
    // envelope.
    let carrier: HashMap<u64, &Span> = spans
        .iter()
        .filter(|s| matches!(s.kind, Kind::Dispatch | Kind::Call))
        .map(|s| (s.key, s))
        .collect();
    let causal_parent = |s: &Span| -> u64 {
        if s.kind == Kind::Node && s.parent == 0 {
            carrier.get(&s.key).map_or(0, |c| c.id)
        } else {
            s.parent
        }
    };
    let op_of = |s: &Span| -> u64 {
        let mut cur = s;
        for _ in 0..8 {
            if matches!(cur.kind, Kind::OpRead | Kind::OpWrite) {
                return cur.key;
            }
            match by_id.get(&causal_parent(cur)) {
                Some(p) => cur = p,
                None => return 0,
            }
        }
        0
    };
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.id));
    for s in sorted {
        let op = op_of(s);
        if op == 0 || op > max_ops as u64 {
            continue;
        }
        let node = if s.node == NO_NODE {
            "null".to_string()
        } else {
            s.node.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"node\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            causal_parent(s),
            op,
            s.kind.name(),
            node,
            s.start_ns,
            s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, key: u64, kind: Kind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            key,
            kind,
            node: 0,
            ok: true,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        assert_eq!(self_time(100, 30 + 20), 50);
        assert_eq!(self_time(100, 0), 100);
        assert_eq!(self_time(10, 30), 0, "never negative");
    }

    /// A hand-built write over a concurrent transport:
    ///
    /// ```text
    /// op 0..1000
    ///   lock       10..60
    ///   dispatch   100..300   node 150..250 { get 160..180 }
    ///   multicall  400..900
    ///     call A   400..600   node 450..550
    ///     call B   400..850   node 500..800 { put 520..620, flush 620..780 }
    /// ```
    #[test]
    fn budget_follows_the_blocking_path() {
        let spans = vec![
            span(1, 0, 1, Kind::OpWrite, 0, 1000),
            span(2, 1, 0, Kind::Lock, 10, 60),
            span(3, 1, 71, Kind::Dispatch, 100, 300),
            span(4, 0, 71, Kind::Node, 150, 250),
            span(5, 4, 0, Kind::Get, 160, 180),
            span(6, 1, 0, Kind::Multicall, 400, 900),
            span(7, 6, 72, Kind::Call, 400, 600),
            span(8, 0, 72, Kind::Node, 450, 550),
            span(9, 6, 73, Kind::Call, 400, 850),
            span(10, 0, 73, Kind::Node, 500, 800),
            span(11, 10, 0, Kind::Put, 520, 620),
            span(12, 10, 0, Kind::Flush, 620, 780),
        ];
        let a = analyse(&spans);
        assert_eq!(a.ops.len(), 1);
        let b = a.ops[0];
        assert!(b.write);
        assert_eq!(b.total_ns, 1000);
        assert_eq!(b.lock_ns, 50);
        // op − (lock 50 + dispatch 200 + multicall 500)
        assert_eq!(b.core_ns, 250);
        // dispatch 200 − node 100
        assert_eq!(b.transport_ns, 100);
        // multicall 500 − blocking call B's node 300; call A is off the path
        assert_eq!(b.round_ns, 200);
        assert_eq!(b.multicall_rounds, 1);
        // node 4: 100 − get 20; node 10: 300 − put 100 − flush 160
        assert_eq!(b.node_ns, 80 + 40);
        assert_eq!((b.get_ns, b.put_ns, b.flush_ns), (20, 100, 160));
        assert_eq!(b.unmatched_ns, 0);
        assert_eq!(b.explained_ns(), b.total_ns);

        assert_eq!(a.awaited_calls, 3);
        assert_eq!(a.failed_calls, 0);
        assert_eq!(a.rtts, vec![200, 200, 450]);
        assert_eq!((a.lone_dispatches, a.lone_transport_ns), (1, 100));
        // All three node spans count for the per-message node figure.
        assert_eq!(a.node_spans, 3);
        assert_eq!(a.node_self_ns, 80 + 100 + 40);
        assert_eq!((a.puts, a.put_max_ns, a.flushes, a.gets), (1, 100, 1, 1));
    }

    /// Sequential transport: the round's children are the node calls
    /// themselves, and all of them block.
    #[test]
    fn sequential_rounds_bill_every_call() {
        let spans = vec![
            span(1, 0, 1, Kind::OpRead, 0, 100),
            span(2, 1, 0, Kind::Multicall, 10, 90),
            span(3, 2, 5, Kind::Node, 12, 40),
            span(4, 3, 0, Kind::Get, 15, 25),
            span(5, 2, 6, Kind::Node, 45, 85),
        ];
        let a = analyse(&spans);
        let b = a.ops[0];
        assert_eq!(b.core_ns, 20);
        assert_eq!(b.round_ns, 80 - 28 - 40);
        assert_eq!(b.node_ns, 18 + 40);
        assert_eq!(b.get_ns, 10);
        assert_eq!(b.explained_ns(), 100);
        assert_eq!(a.awaited_calls, 2);
    }

    #[test]
    fn a_round_without_a_node_span_is_unmatched_not_hidden() {
        let spans = vec![
            span(1, 0, 1, Kind::OpRead, 0, 100),
            span(2, 1, 9, Kind::Dispatch, 10, 70),
        ];
        let b = analyse(&spans).ops[0];
        assert_eq!(b.unmatched_ns, 60);
        assert_eq!(b.explained_ns(), 40);
    }

    #[test]
    fn jsonl_resolves_the_owning_op_across_threads() {
        let spans = vec![
            span(1, 0, 1, Kind::OpRead, 0, 100),
            span(2, 1, 9, Kind::Dispatch, 10, 70),
            span(3, 0, 9, Kind::Node, 20, 60),
            span(4, 3, 0, Kind::Get, 30, 40),
            // Belongs to op 2, beyond the cap.
            span(5, 0, 2, Kind::OpRead, 200, 300),
        ];
        let mut out = Vec::new();
        write_jsonl(&spans, 1, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].contains("\"id\":3,\"parent\":2,\"op\":1"));
        assert!(lines[3].contains("\"name\":\"cluster.storage.get\""));
        assert!(lines.iter().all(|l| l.contains("\"op\":1")));
    }
}

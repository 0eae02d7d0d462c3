//! Deterministic simulation transport: virtual time, adversarial links.
//!
//! The other transports realise the paper's §IV model faithfully —
//! perfect links, fail-stop nodes. Real deployments are hostile in ways
//! that model never probes: messages are delayed, lost, duplicated and
//! reordered; partitions cut one direction of a link but not the other;
//! nodes crash mid-round and come back with (or without) their disks.
//! [`SimTransport`] is a FoundationDB-style deterministic simulation of
//! exactly that hostility:
//!
//! * **Virtual time.** No wall clock and no threads: a seeded
//!   scheduler pops `(time, seq)`-ordered message events off a heap.
//!   The same seed replays the same schedule bit-for-bit, on any
//!   machine, under any test runner.
//! * **Programmable network.** A [`NetworkModel`] gives every message an
//!   independently sampled link delay (with optional per-link override),
//!   a loss probability per *direction* (a lost reply is a write that
//!   landed but looks failed — the classic partial-write hazard), a
//!   duplication probability (the duplicate executes on the node again),
//!   and a round-trip `timeout` after which the caller sees
//!   [`NodeError::TimedOut`](crate::rpc::NodeError::TimedOut).
//! * **At-least-once delivery.** With [`NetworkModel::redelivery`] on,
//!   a message still in flight when its round ends is **not** dropped:
//!   it goes to a bounded limbo and is re-injected into later rounds —
//!   stale requests execute on nodes long after their round gave up,
//!   stale replies surface in rounds that never issued them, and
//!   duplicates of both are sampled again on the way. This is the
//!   adversarial regime the idempotent command API
//!   ([`Envelope`]/[`crate::rpc::NodeApi`], monotone node mutations,
//!   identity-matched gathering) exists to survive; the protocols run
//!   checker-clean under it in the DST matrix. With `redelivery` off,
//!   in-flight messages die with their round (the paper's
//!   deliver-promptly-or-fail link model).
//! * **Faults in virtual time.** [`SimFault`]s can be applied
//!   immediately or scheduled at an absolute virtual instant, so a crash
//!   can land *between two replies of the same round*. Crashes are
//!   durable (state kept, the paper's fail-stop) or volatile (disk lost:
//!   the node answers `NotFound` after restart until anti-entropy
//!   reinstalls it). Partitions block the request or the reply direction
//!   of a set of links, independently. [`SimFault::Degrade`] grays a
//!   node out — up and correct, just 10–100× slower — the straggler
//!   regime the health registry's straggler flag exists for.
//! * **The waiting code under test is the waiting code that ships.**
//!   The simulator is a *link* — the seeded event heap with loss,
//!   duplication, FIFO, limbo and scheduled faults — under the same
//!   dispatch driver (`driver.rs`) the TCP transport runs: the round
//!   deadline (the model's `timeout`), late-reply absorption and
//!   timeout synthesis are the driver's, on this transport's virtual
//!   clock. The transport owns a [`NodeHealth`] registry (exposed via
//!   [`SimTransport::health_registry`]) that the driver feeds latency
//!   samples and the read path consults; the driver wakes only at
//!   deadlines and draws nothing from the RNG or the retry budget.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use parking_lot::MutexGuard;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cluster::Cluster;
use crate::driver::{drive, drive_one, Link, NEVER};
use crate::health::NodeHealth;
use crate::node::NodeId;
use crate::rpc::{Envelope, NodeApi, Reply};
use crate::transport::{RoundReply, Transport};

/// How many times one limbo message is re-injected into later rounds
/// before the simulation finally drops it.
const REDELIVERY_TTL: u8 = 3;

/// Upper bound on messages parked in limbo between rounds (oldest are
/// dropped first) — keeps a pathological schedule from accreting an
/// unbounded backlog.
const LIMBO_CAP: usize = 64;

/// Virtual nanoseconds one storage stall tick costs: slow-read faults
/// reported by [`crate::storage::StorageBackend::take_stall_ticks`] are
/// folded into the reply's delivery delay at this rate.
const STALL_TICK_NS: u64 = 1_000;

/// Link behaviour knobs, all per-message and independently sampled.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    /// Minimum one-way delay, in virtual nanoseconds.
    pub min_delay: u64,
    /// Maximum one-way delay (inclusive). Widening `[min, max]` is the
    /// reordering knob: independent draws land replies out of issue
    /// order.
    pub max_delay: u64,
    /// Probability that a message (request or reply, each direction
    /// rolled separately) is lost.
    pub loss: f64,
    /// Probability that a delivered request is delivered *again* at an
    /// independently sampled time (at-least-once fabric).
    pub duplicate: f64,
    /// Round-trip budget per call: with no reply by `issue + timeout`
    /// the caller sees [`NodeError::TimedOut`](crate::rpc::NodeError::TimedOut).
    pub timeout: u64,
    /// Keep each link FIFO (per direction, per node): a later message on
    /// the same link never overtakes an earlier one. Reordering across
    /// *different* links is unaffected. Off = fully adversarial
    /// per-message order even within a link.
    pub fifo_links: bool,
    /// Cross-round redelivery (at-least-once mode): messages that
    /// outlive their round are parked and re-injected into later rounds
    /// instead of dropped. See the [module docs](self).
    pub redelivery: bool,
    /// Probability that a sampled delay grows a heavy (lognormal-ish)
    /// tail: the draw is multiplied by a power of two in `[2, 32]`.
    /// The body of the distribution stays put; rare stragglers appear.
    /// At `0.0` nothing
    /// is drawn from the RNG, so legacy schedules stay bit-identical.
    pub heavy_tail: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::reliable()
    }
}

impl NetworkModel {
    /// Perfect links with mild symmetric jitter — the §IV model plus a
    /// clock.
    pub fn reliable() -> Self {
        NetworkModel {
            min_delay: 50,
            max_delay: 150,
            loss: 0.0,
            duplicate: 0.0,
            timeout: 100_000,
            fifo_links: true,
            redelivery: false,
            heavy_tail: 0.0,
        }
    }

    /// Lossy, duplicating, widely-jittered links: the adversarial
    /// default of the DST scenarios.
    pub fn hostile(loss: f64, duplicate: f64) -> Self {
        NetworkModel {
            min_delay: 10,
            max_delay: 5_000,
            loss,
            duplicate,
            timeout: 50_000,
            fifo_links: false,
            redelivery: false,
            heavy_tail: 0.0,
        }
    }

    /// A genuinely at-least-once fabric: hostile links **plus**
    /// cross-round redelivery — every undelivered request or reply gets
    /// re-injected into later rounds (up to a TTL), arbitrarily
    /// duplicated again on the way.
    pub fn at_least_once(loss: f64, duplicate: f64) -> Self {
        NetworkModel {
            redelivery: true,
            ..NetworkModel::hostile(loss, duplicate)
        }
    }
}

/// One network/node fault, applied immediately or scheduled in virtual
/// time via [`SimTransport::schedule`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimFault {
    /// Fail-stop the node. `durable: true` keeps its disk (the paper's
    /// model — it revives stale); `durable: false` loses it (the node
    /// revives empty and answers `NotFound` until repaired).
    Crash {
        /// Which node.
        node: usize,
        /// Whether the stored stripe state survives the crash.
        durable: bool,
    },
    /// Bring the node back up (state as the crash left it).
    Restart {
        /// Which node.
        node: usize,
    },
    /// Block the *request* direction of the links to these nodes.
    PartitionRequests {
        /// Unreachable nodes.
        nodes: Vec<usize>,
    },
    /// Block the *reply* direction of the links from these nodes
    /// (asymmetric partition: their writes land, their acks do not).
    PartitionReplies {
        /// Muted nodes.
        nodes: Vec<usize>,
    },
    /// Clear every partition in both directions.
    HealPartitions,
    /// Replace the loss probability.
    SetLoss(f64),
    /// Replace the duplication probability.
    SetDuplication(f64),
    /// Replace the global delay band.
    SetDelay {
        /// New minimum one-way delay.
        min: u64,
        /// New maximum one-way delay.
        max: u64,
    },
    /// Gray the node out: every message to or from it takes `factor`×
    /// the sampled delay. The node stays up and answers correctly —
    /// it is merely slow, the failure mode fail-stop detectors never
    /// see. `factor: 1` restores full speed.
    Degrade {
        /// Which node.
        node: usize,
        /// Delay multiplier (clamped to at least 1).
        factor: u64,
    },
}

/// Counters the scheduler keeps; deterministic per seed, so tests can
/// assert on them to prove two runs took the same schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Fan-out rounds served.
    pub rounds: u64,
    /// Requests handed to the network.
    pub requests: u64,
    /// Replies handed to the round that was waiting for them.
    pub delivered: u64,
    /// Requests lost (sampled loss or request-partition).
    pub requests_dropped: u64,
    /// Replies lost (sampled loss or reply-partition).
    pub replies_dropped: u64,
    /// Duplicate deliveries: requests that reached their node again,
    /// plus replies that surfaced at a caller again.
    pub duplicates: u64,
    /// Faults applied (scheduled and immediate).
    pub faults: u64,
    /// Cross-round redeliveries: stale requests executed in a later
    /// round plus stale replies surfaced to a later round's caller.
    pub redelivered: u64,
    /// Limbo messages dropped for good (TTL exhausted, capacity, or a
    /// [`SimTransport::flush_inflight`]).
    pub limbo_dropped: u64,
}

/// A message that outlived its round, waiting to be re-injected.
#[derive(Debug)]
enum LimboMsg {
    /// An undelivered request: will execute on `node` in a later round.
    Req {
        node: NodeId,
        env: Envelope,
        hops: u8,
    },
    /// An undelivered reply: will surface to a later round's caller,
    /// carrying its original (now stale) identity.
    Reply {
        node: NodeId,
        reply: Reply,
        hops: u8,
    },
}

/// What travels through the event heap: messages, and nothing else —
/// the round deadline is the driver's, not the fabric's.
#[derive(Debug)]
enum EventKind {
    /// A request reaches its node (and executes there). `foreign` marks
    /// a cross-round redelivery, counted as such.
    ReqArrive {
        node: NodeId,
        env: Envelope,
        duplicate: bool,
        foreign: bool,
        hops: u8,
    },
    /// A reply reaches the caller.
    ReplyArrive {
        node: NodeId,
        reply: Reply,
        duplicate: bool,
        foreign: bool,
        hops: u8,
    },
}

struct Event {
    time: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    /// Min-heap order on `(time, seq)` through `BinaryHeap`'s max-heap:
    /// earliest time first, issue order breaking ties — a total,
    /// deterministic order.
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A fault bound to a virtual instant.
#[derive(Debug)]
struct PlannedFault {
    time: u64,
    seq: u64,
    fault: SimFault,
}

/// Mutable scheduler state behind the transport's `&self` surface.
#[derive(Debug)]
struct SimState {
    now: u64,
    seq: u64,
    rng: StdRng,
    model: NetworkModel,
    /// Per-node one-way delay override `(min, max)`; `None` uses the
    /// model band. Applies to both directions of the link.
    link_delay: Vec<Option<(u64, u64)>>,
    /// Request direction blocked towards node `i`.
    req_blocked: Vec<bool>,
    /// Reply direction blocked from node `i`.
    reply_blocked: Vec<bool>,
    /// Pending scheduled faults (unsorted; drained by time).
    plan: Vec<PlannedFault>,
    /// Last delivery instant per link direction, for FIFO enforcement.
    req_last: Vec<u64>,
    reply_last: Vec<u64>,
    /// Messages that outlived their round, awaiting re-injection
    /// (at-least-once mode only; insertion order, bounded).
    limbo: Vec<LimboMsg>,
    /// Per-node delay multiplier ([`SimFault::Degrade`]); 1 = healthy.
    degrade: Vec<u64>,
    stats: SimStats,
}

impl SimState {
    fn sample_delay(&mut self, node: usize) -> u64 {
        let (lo, hi) =
            self.link_delay[node].unwrap_or((self.model.min_delay, self.model.max_delay));
        let hi = hi.max(lo);
        let mut delay = self.rng.random_range(lo..=hi);
        // Heavy-tail knob: rarely multiply the draw by 2..32, a
        // lognormal-ish tail that produces stragglers without moving
        // the body of the distribution. `roll` draws nothing at 0.0.
        let tail = self.model.heavy_tail;
        if self.roll(tail) {
            let shift = self.rng.random_range(1..=5u32);
            delay = delay.saturating_mul(1u64 << shift);
        }
        // A degraded (gray) node slows both directions of its link.
        delay.saturating_mul(self.degrade[node])
    }

    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.random_bool(p)
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// FIFO clamp: delivery on a link never precedes an earlier message
    /// of the same link/direction.
    fn fifo(&mut self, last: u64, at: u64) -> u64 {
        if self.model.fifo_links && at <= last {
            last + 1
        } else {
            at
        }
    }

    /// Samples a delivery instant on the request direction of `node`'s
    /// link: delay draw + FIFO clamp, advancing the link's high-water
    /// mark.
    fn next_req_arrival(&mut self, node: usize) -> u64 {
        let delay = self.sample_delay(node);
        let last = self.req_last[node];
        let issue = self.now + delay;
        let at = self.fifo(last, issue);
        self.req_last[node] = at;
        at
    }

    /// Reply-direction counterpart of
    /// [`next_req_arrival`](Self::next_req_arrival). `extra` is added to
    /// the sampled delay — node-side processing stalls (the storage
    /// fault axis's slow reads) delay the ack like extra wire time.
    fn next_reply_arrival(&mut self, node: usize, extra: u64) -> u64 {
        let delay = self.sample_delay(node).saturating_add(extra);
        let last = self.reply_last[node];
        let issue = self.now + delay;
        let at = self.fifo(last, issue);
        self.reply_last[node] = at;
        at
    }

    /// Schedules one request delivery toward `node` (plus a sampled
    /// duplicate), honouring request-partitions, loss, FIFO and the
    /// duplication knob — the single path fresh sends and limbo
    /// re-injections both go through.
    fn schedule_request(
        &mut self,
        heap: &mut BinaryHeap<Event>,
        node: NodeId,
        env: &Envelope,
        foreign: bool,
        hops: u8,
    ) {
        let loss = self.model.loss;
        if self.req_blocked[node.0] || self.roll(loss) {
            self.stats.requests_dropped += 1;
            return;
        }
        let dup_p = self.model.duplicate;
        let first = self.next_req_arrival(node.0);
        let again = self.roll(dup_p).then(|| self.next_req_arrival(node.0));
        for (copy, time) in std::iter::once(first).chain(again).enumerate() {
            let seq = self.next_seq();
            heap.push(Event {
                time,
                seq,
                kind: EventKind::ReqArrive {
                    node,
                    env: env.clone(),
                    duplicate: copy > 0,
                    foreign,
                    hops,
                },
            });
        }
    }

    /// Schedules one reply delivery from `node` (plus a sampled
    /// duplicate), honouring reply-partitions, loss, FIFO and the
    /// duplication knob. `stall` delays the original like extra wire
    /// time. A reply that lands after its caller stopped waiting is
    /// absorbed by the driver, or outlives the round in the heap.
    fn schedule_reply(
        &mut self,
        heap: &mut BinaryHeap<Event>,
        node: NodeId,
        reply: &Reply,
        foreign: bool,
        hops: u8,
        stall: u64,
    ) {
        let loss = self.model.loss;
        if self.reply_blocked[node.0] || self.roll(loss) {
            self.stats.replies_dropped += 1;
            return;
        }
        let dup_p = self.model.duplicate;
        let first = self.next_reply_arrival(node.0, stall);
        let again = self.roll(dup_p).then(|| self.next_reply_arrival(node.0, 0));
        for (copy, time) in std::iter::once(first).chain(again).enumerate() {
            let seq = self.next_seq();
            heap.push(Event {
                time,
                seq,
                kind: EventKind::ReplyArrive {
                    node,
                    reply: reply.clone(),
                    duplicate: copy > 0,
                    foreign,
                    hops,
                },
            });
        }
    }

    /// Parks a limbo message, honouring TTL and capacity.
    fn park(&mut self, msg: LimboMsg) {
        let hops = match &msg {
            LimboMsg::Req { hops, .. } | LimboMsg::Reply { hops, .. } => *hops,
        };
        if hops >= REDELIVERY_TTL {
            self.stats.limbo_dropped += 1;
            return;
        }
        if self.limbo.len() >= LIMBO_CAP {
            self.limbo.remove(0);
            self.stats.limbo_dropped += 1;
        }
        self.limbo.push(msg);
    }

    fn apply_fault(&mut self, cluster: &Cluster, fault: &SimFault) {
        self.stats.faults += 1;
        match fault {
            SimFault::Crash { node, durable } => {
                // The machine dies and restarts: the backend recovers
                // what it durably holds (everything on an in-memory
                // backend; on a log, a replay of what its disk kept) and
                // volatile node state — the applied-op window — is gone.
                // A volatile crash then replaces the disk with a blank one.
                cluster.node(*node).crash_restart();
                if !*durable {
                    cluster.node(*node).wipe();
                }
                cluster.kill(*node);
            }
            SimFault::Restart { node } => cluster.revive(*node),
            SimFault::PartitionRequests { nodes } => {
                for &n in nodes {
                    self.req_blocked[n] = true;
                }
            }
            SimFault::PartitionReplies { nodes } => {
                for &n in nodes {
                    self.reply_blocked[n] = true;
                }
            }
            SimFault::HealPartitions => {
                self.req_blocked.iter_mut().for_each(|b| *b = false);
                self.reply_blocked.iter_mut().for_each(|b| *b = false);
            }
            SimFault::SetLoss(p) => self.model.loss = *p,
            SimFault::SetDuplication(p) => self.model.duplicate = *p,
            SimFault::SetDelay { min, max } => {
                self.model.min_delay = *min;
                self.model.max_delay = *max;
            }
            SimFault::Degrade { node, factor } => {
                self.degrade[*node] = (*factor).max(1);
            }
        }
    }

    /// Applies every scheduled fault with `time <= t`, in `(time, seq)`
    /// order.
    fn run_faults_until(&mut self, cluster: &Cluster, t: u64) {
        loop {
            let mut due: Option<usize> = None;
            for (i, pf) in self.plan.iter().enumerate() {
                if pf.time <= t
                    && due.is_none_or(|j| (pf.time, pf.seq) < (self.plan[j].time, self.plan[j].seq))
                {
                    due = Some(i);
                }
            }
            let Some(i) = due else { break };
            let pf = self.plan.swap_remove(i);
            self.apply_fault(cluster, &pf.fault);
        }
    }
}

/// The deterministic simulation transport. See the [module docs](self).
///
/// All mutation goes through a single internal lock, and the event loop
/// runs on the caller's thread: the simulation is effectively
/// single-threaded even if the handle is shared, which is what makes
/// replays exact. That lock is the fabric itself: a round's link holds
/// it for the whole round, so it is a raw mutex, not a
/// [`sync::Mutex`](crate::sync::Mutex) whose guard no round may outlive.
pub struct SimTransport {
    cluster: Cluster,
    #[expect(
        clippy::disallowed_types,
        reason = "a round's link holds it for the whole round"
    )]
    state: parking_lot::Mutex<SimState>,
    /// Per-node health, fed from virtual time: RTT samples on delivery,
    /// outcomes by the quorum engine via [`Transport::health`]. The
    /// registry draws nothing from the schedule's RNG.
    health: Arc<NodeHealth>,
}

impl SimTransport {
    /// A simulation over `cluster` with the default (reliable) model.
    pub fn new(cluster: Cluster, seed: u64) -> Self {
        Self::with_model(cluster, seed, NetworkModel::default())
    }

    /// A simulation with an explicit network model.
    #[expect(
        clippy::disallowed_types,
        reason = "a round's link holds it for the whole round"
    )]
    pub fn with_model(cluster: Cluster, seed: u64, model: NetworkModel) -> Self {
        let n = cluster.len();
        SimTransport {
            cluster,
            state: parking_lot::Mutex::new(SimState {
                now: 0,
                seq: 0,
                rng: StdRng::seed_from_u64(seed),
                model,
                link_delay: vec![None; n],
                req_blocked: vec![false; n],
                reply_blocked: vec![false; n],
                plan: Vec::new(),
                req_last: vec![0; n],
                reply_last: vec![0; n],
                limbo: Vec::new(),
                degrade: vec![1; n],
                stats: SimStats::default(),
            }),
            health: Arc::new(NodeHealth::new()),
        }
    }

    /// The health registry this simulation feeds, driven entirely by
    /// virtual time.
    pub fn health_registry(&self) -> &Arc<NodeHealth> {
        &self.health
    }

    /// Borrow the underlying cluster (state inspection, accounting).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Current virtual instant.
    pub fn now(&self) -> u64 {
        self.state.lock().now
    }

    /// Scheduler counters so far.
    pub fn stats(&self) -> SimStats {
        self.state.lock().stats
    }

    /// A copy of the current network model.
    pub fn model(&self) -> NetworkModel {
        self.state.lock().model.clone()
    }

    /// Replaces the network model (delay band, loss, duplication,
    /// timeout, FIFO discipline, redelivery) from now on. Messages
    /// already in limbo stay parked until a round runs with redelivery
    /// enabled — or [`flush_inflight`](Self::flush_inflight) drops them.
    pub fn set_model(&self, model: NetworkModel) {
        self.state.lock().model = model;
    }

    /// Drops every in-flight cross-round message (the limbo backlog),
    /// returning how many were discarded. A quiesce — what anti-entropy
    /// runs behind — means *waiting out* the network; this models that
    /// wait as the messages never arriving afterwards.
    pub fn flush_inflight(&self) -> usize {
        let mut st = self.state.lock();
        let dropped = st.limbo.len();
        st.stats.limbo_dropped += dropped as u64;
        st.limbo.clear();
        dropped
    }

    /// Overrides the one-way delay band of node `i`'s link (both
    /// directions); `None` restores the model band.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn set_link_delay(&self, i: usize, band: Option<(u64, u64)>) {
        self.state.lock().link_delay[i] = band;
    }

    /// Applies a fault right now.
    pub fn apply(&self, fault: SimFault) {
        let mut st = self.state.lock();
        st.apply_fault(&self.cluster, &fault);
    }

    /// Schedules a fault at absolute virtual time `at` (clamped to the
    /// present if already past). It fires when the event loop or
    /// [`advance_to`](Self::advance_to) reaches that instant — including
    /// *between two replies of one round*.
    pub fn schedule(&self, at: u64, fault: SimFault) {
        let mut st = self.state.lock();
        let seq = st.next_seq();
        st.plan.push(PlannedFault {
            time: at,
            seq,
            fault,
        });
    }

    /// Advances virtual time to `t`, firing scheduled faults on the way
    /// (no-op if `t` is in the past).
    pub fn advance_to(&self, t: u64) {
        let mut st = self.state.lock();
        st.run_faults_until(&self.cluster, t);
        st.now = st.now.max(t);
    }

    /// Advances virtual time by `dt`.
    pub fn advance(&self, dt: u64) {
        let now = self.now();
        self.advance_to(now.saturating_add(dt));
    }

    /// Earliest pending scheduled-fault instant, if any — drive time past
    /// it with [`advance_to`](Self::advance_to) to quiesce the plan.
    pub fn next_planned_fault(&self) -> Option<u64> {
        self.state.lock().plan.iter().map(|p| p.time).min()
    }

    /// Opens a round's link: takes the scheduler for the round's
    /// duration and, in at-least-once mode, re-injects everything parked
    /// by earlier rounds through the same scheduling path as fresh
    /// traffic — loss/partitions/duplication roll again per
    /// re-injection; the fabric is as adversarial to stragglers as to
    /// new messages.
    fn link(&self) -> SimLink<'_> {
        let mut st = self.state.lock();
        st.stats.rounds += 1;
        let mut heap = BinaryHeap::new();
        if st.model.redelivery {
            for msg in std::mem::take(&mut st.limbo) {
                match msg {
                    LimboMsg::Req { node, env, hops } => {
                        st.schedule_request(&mut heap, node, &env, true, hops + 1);
                    }
                    LimboMsg::Reply { node, reply, hops } => {
                        st.schedule_reply(&mut heap, node, &reply, true, hops + 1, 0);
                    }
                }
            }
        }
        SimLink {
            cluster: &self.cluster,
            st,
            heap,
        }
    }
}

/// The simulated fabric as the driver sees it: one round's seeded event
/// heap. `send` schedules deliveries, `recv` pops them in `(time, seq)`
/// order — executing requests on their nodes as they arrive, whether or
/// not anyone still waits — and time is the virtual clock, which moves
/// only when an event or the driver's own wake-up instant is reached.
struct SimLink<'a> {
    cluster: &'a Cluster,
    st: MutexGuard<'a, SimState>,
    heap: BinaryHeap<Event>,
}

impl Link for SimLink<'_> {
    fn send(&mut self, node: NodeId, env: &Envelope) {
        assert!(node.0 < self.cluster.len(), "node {node} out of range");
        self.st.stats.requests += 1;
        self.st
            .schedule_request(&mut self.heap, node, env, false, 0);
    }

    fn recv(&mut self, until: u64) -> Option<RoundReply> {
        let st = &mut *self.st;
        while self.heap.peek().is_some_and(|ev| ev.time < until) {
            let ev = self.heap.pop()?;
            st.run_faults_until(self.cluster, ev.time);
            st.now = st.now.max(ev.time);
            match ev.kind {
                EventKind::ReqArrive {
                    node,
                    env,
                    duplicate,
                    foreign,
                    hops,
                } => {
                    // The node executes the request at arrival time even
                    // if the caller has already given up on this op —
                    // side effects of unawaited messages are the point —
                    // and the ack is sent regardless: a request arriving
                    // after its own timeout produces exactly the stale
                    // reply the at-least-once mode must keep in flight.
                    st.stats.duplicates += u64::from(duplicate);
                    st.stats.redelivered += u64::from(foreign);
                    let reply = self.cluster.node(node.0).execute(env);
                    // Storage-fault axis: slow reads charged by the
                    // node's backend surface as reply latency.
                    let stall =
                        self.cluster.node(node.0).backend().take_stall_ticks() * STALL_TICK_NS;
                    st.schedule_reply(&mut self.heap, node, &reply, foreign, hops, stall);
                }
                EventKind::ReplyArrive {
                    node,
                    reply,
                    duplicate,
                    foreign,
                    hops: _,
                } => {
                    // A stale straggler from an earlier round surfaces
                    // here like any reply: the driver forwards it and the
                    // engine must discard it by identity.
                    st.stats.duplicates += u64::from(duplicate);
                    st.stats.redelivered += u64::from(foreign);
                    st.stats.delivered += u64::from(!foreign);
                    return Some(RoundReply::from_reply(node, reply));
                }
            }
        }
        if until != NEVER {
            st.run_faults_until(self.cluster, until);
            st.now = st.now.max(until);
        }
        None
    }

    fn now(&self) -> u64 {
        self.st.now
    }
}

impl Drop for SimLink<'_> {
    /// The round is over. What the heap still holds are messages in
    /// flight: in at-least-once mode they go to limbo for later rounds;
    /// otherwise they die here.
    fn drop(&mut self) {
        if !self.st.model.redelivery {
            return;
        }
        while let Some(ev) = self.heap.pop() {
            self.st.park(match ev.kind {
                EventKind::ReqArrive {
                    node, env, hops, ..
                } => LimboMsg::Req { node, env, hops },
                EventKind::ReplyArrive {
                    node, reply, hops, ..
                } => LimboMsg::Reply { node, reply, hops },
            });
        }
    }
}

impl Transport for SimTransport {
    fn node_count(&self) -> usize {
        self.cluster.len()
    }

    fn dispatch(&self, node: NodeId, env: Envelope) -> Reply {
        let link = self.link();
        let budget = link.st.model.timeout;
        drive_one(link, &self.health, budget, node, env)
    }

    fn multicall(&self, calls: Vec<(NodeId, Envelope)>, sink: &mut dyn FnMut(RoundReply) -> bool) {
        let link = self.link();
        let budget = link.st.model.timeout;
        drive(link, &self.health, budget, calls, sink)
    }

    fn health(&self) -> Option<&NodeHealth> {
        Some(&self.health)
    }
}

impl std::fmt::Debug for SimTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("SimTransport")
            .field("nodes", &self.cluster.len())
            .field("now", &st.now)
            .field("inflight", &st.limbo.len())
            .field("stats", &st.stats)
            .finish()
    }
}

#[cfg(test)]
impl SimTransport {
    /// Number of cross-round messages currently parked in limbo.
    pub(crate) fn inflight(&self) -> usize {
        self.state.lock().limbo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::{NodeError, Request, Response};
    use bytes::Bytes;

    fn pings(n: usize) -> Vec<(NodeId, Request)> {
        (0..n).map(|i| (NodeId(i), Request::Ping)).collect()
    }

    fn envelopes(calls: Vec<(NodeId, Request)>) -> Vec<(NodeId, Envelope)> {
        calls
            .into_iter()
            .map(|(node, req)| (node, Envelope::new(req)))
            .collect()
    }

    fn collect(t: &SimTransport, calls: Vec<(NodeId, Request)>) -> Vec<RoundReply> {
        let mut replies = Vec::new();
        t.multicall(envelopes(calls), &mut |r| {
            replies.push(r);
            true
        });
        replies
    }

    #[test]
    fn reliable_model_delivers_everything() {
        let t = SimTransport::new(Cluster::new(5), 1);
        let replies = collect(&t, pings(5));
        assert_eq!(replies.len(), 5);
        assert!(replies.iter().all(|r| r.result == Ok(Response::Pong)));
        assert!(t.now() > 0, "virtual time advanced");
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed| {
            let t =
                SimTransport::with_model(Cluster::new(8), seed, NetworkModel::hostile(0.3, 0.2));
            let mut order = Vec::new();
            for _ in 0..10 {
                let replies = collect(&t, pings(8));
                order.extend(replies.into_iter().map(|r| (r.node, r.result.is_ok())));
            }
            (order, t.stats(), t.now())
        };
        assert_eq!(run(42), run(42), "replay must be bit-for-bit");
        assert_ne!(run(42).0, run(43).0, "different seeds diverge");
    }

    #[test]
    fn loss_produces_timeouts_not_hangs() {
        let t = SimTransport::with_model(
            Cluster::new(4),
            7,
            NetworkModel {
                loss: 1.0,
                ..NetworkModel::reliable()
            },
        );
        let replies = collect(&t, pings(4));
        assert_eq!(replies.len(), 4);
        assert!(replies.iter().all(|r| r.result == Err(NodeError::TimedOut)));
        // Synthesised timeout replies still echo the issuing round's
        // epoch, like every other reply.
        let env = Envelope::in_epoch(Request::Ping, 99);
        let (op, epoch) = (env.op_id, env.round_epoch);
        let mut timed_out = None;
        t.multicall(vec![(NodeId(0), env)], &mut |reply| {
            timed_out = Some((reply.op_id, reply.round_epoch));
            true
        });
        assert_eq!(timed_out, Some((op, epoch)));
    }

    #[test]
    fn lost_reply_still_executes_the_request() {
        // Reply-partition node 0: its write lands, the ack does not.
        let t = SimTransport::new(Cluster::new(2), 3);
        for i in 0..2 {
            t.call(
                NodeId(i),
                Request::InitData {
                    id: 1,
                    bytes: Bytes::from_static(b"old"),
                },
            )
            .unwrap();
        }
        t.apply(SimFault::PartitionReplies { nodes: vec![0] });
        let r = t.call(
            NodeId(0),
            Request::WriteData {
                id: 1,
                bytes: Bytes::from_static(b"new"),
                version: 1,
            },
        );
        assert_eq!(r, Err(NodeError::TimedOut));
        t.apply(SimFault::HealPartitions);
        match t.call(NodeId(0), Request::ReadData { id: 1 }).unwrap() {
            Response::Data { bytes, version, .. } => {
                assert_eq!(&bytes[..], b"new", "partial write landed");
                assert_eq!(version, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn request_partition_prevents_execution() {
        let t = SimTransport::new(Cluster::new(2), 5);
        t.call(
            NodeId(0),
            Request::InitData {
                id: 1,
                bytes: Bytes::from_static(b"old"),
            },
        )
        .unwrap();
        t.apply(SimFault::PartitionRequests { nodes: vec![0] });
        let r = t.call(
            NodeId(0),
            Request::WriteData {
                id: 1,
                bytes: Bytes::from_static(b"new"),
                version: 1,
            },
        );
        assert_eq!(r, Err(NodeError::TimedOut));
        t.apply(SimFault::HealPartitions);
        match t.call(NodeId(0), Request::ReadData { id: 1 }).unwrap() {
            Response::Data { bytes, .. } => assert_eq!(&bytes[..], b"old"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scheduled_crash_lands_mid_round() {
        // Nodes answer one after another under FIFO + fixed delay; a
        // crash scheduled between the first and last arrival splits the
        // round into successes and Down rejections.
        let t = SimTransport::with_model(
            Cluster::new(4),
            9,
            NetworkModel {
                min_delay: 100,
                max_delay: 100,
                ..NetworkModel::reliable()
            },
        );
        // Stagger the links so arrivals are 100, 300, 500, 700.
        for i in 0..4 {
            t.set_link_delay(i, Some((100 + 200 * i as u64, 100 + 200 * i as u64)));
        }
        t.schedule(
            400,
            SimFault::Crash {
                node: 2,
                durable: true,
            },
        );
        t.schedule(
            400,
            SimFault::Crash {
                node: 3,
                durable: true,
            },
        );
        let replies = collect(&t, pings(4));
        let ok: Vec<usize> = replies
            .iter()
            .filter(|r| r.result.is_ok())
            .map(|r| r.node.0)
            .collect();
        let down: Vec<usize> = replies
            .iter()
            .filter(|r| r.result == Err(NodeError::Down))
            .map(|r| r.node.0)
            .collect();
        assert_eq!(ok, vec![0, 1], "requests delivered before the crash");
        assert_eq!(down, vec![2, 3], "requests delivered after the crash");
    }

    #[test]
    fn volatile_crash_loses_state_durable_keeps_it() {
        let t = SimTransport::new(Cluster::new(2), 11);
        for i in 0..2 {
            t.call(
                NodeId(i),
                Request::InitData {
                    id: 1,
                    bytes: Bytes::from_static(b"x"),
                },
            )
            .unwrap();
        }
        t.apply(SimFault::Crash {
            node: 0,
            durable: true,
        });
        t.apply(SimFault::Crash {
            node: 1,
            durable: false,
        });
        t.apply(SimFault::Restart { node: 0 });
        t.apply(SimFault::Restart { node: 1 });
        assert!(t.call(NodeId(0), Request::ReadData { id: 1 }).is_ok());
        assert_eq!(
            t.call(NodeId(1), Request::ReadData { id: 1 }),
            Err(NodeError::NotFound),
            "volatile crash wiped the disk"
        );
    }

    #[test]
    fn duplicates_reach_the_node_but_complete_once() {
        let t = SimTransport::with_model(
            Cluster::new(1),
            13,
            NetworkModel {
                duplicate: 1.0,
                ..NetworkModel::reliable()
            },
        );
        t.call(
            NodeId(0),
            Request::InitData {
                id: 1,
                bytes: Bytes::from(vec![0u8; 4]),
            },
        )
        .unwrap();
        let replies = collect(&t, vec![(NodeId(0), Request::ReadData { id: 1 })]);
        assert_eq!(replies.len(), 1, "one completion per call");
        assert!(t.stats().duplicates >= 1, "the duplicate reached the node");
        // Both the original and the duplicate hit the node's read path
        // (reads are outside the applied-op window).
        assert_eq!(t.cluster().io_totals().reads, 2);
    }

    #[test]
    fn abandoned_round_drops_stragglers() {
        let t = SimTransport::new(Cluster::new(6), 17);
        let mut first = None;
        t.multicall(envelopes(pings(6)), &mut |reply| {
            first = Some(reply.result.clone());
            false
        });
        assert_eq!(first, Some(Ok(Response::Pong)));
        let delivered_after_first = t.stats().delivered;
        assert_eq!(delivered_after_first, 1);
        assert_eq!(t.inflight(), 0, "no redelivery: stragglers die");
    }

    #[test]
    fn advance_fires_scheduled_faults() {
        let t = SimTransport::new(Cluster::new(2), 19);
        t.schedule(
            1_000,
            SimFault::Crash {
                node: 1,
                durable: true,
            },
        );
        assert_eq!(t.next_planned_fault(), Some(1_000));
        assert!(t.cluster().node(1).is_up());
        t.advance_to(999);
        assert!(t.cluster().node(1).is_up());
        t.advance(1);
        assert!(!t.cluster().node(1).is_up());
        assert_eq!(t.next_planned_fault(), None);
    }

    #[test]
    fn fifo_links_preserve_per_link_order() {
        // With FIFO on and a huge jitter band, two requests to the same
        // node must still execute in issue order.
        let t = SimTransport::with_model(
            Cluster::new(1),
            23,
            NetworkModel {
                min_delay: 1,
                max_delay: 100_000,
                timeout: 1_000_000,
                ..NetworkModel::reliable()
            },
        );
        t.call(
            NodeId(0),
            Request::InitData {
                id: 1,
                bytes: Bytes::from(vec![0u8; 1]),
            },
        )
        .unwrap();
        for v in 1..=20u64 {
            // Issue write then read in one round: the read must observe
            // the write that was issued before it on the same link.
            let calls = vec![
                (
                    NodeId(0),
                    Request::WriteData {
                        id: 1,
                        bytes: Bytes::from(vec![v as u8]),
                        version: v,
                    },
                ),
                (NodeId(0), Request::ReadData { id: 1 }),
            ];
            let replies = collect(&t, calls);
            let read = replies
                .iter()
                .find(|r| matches!(r.result, Ok(Response::Data { .. })))
                .unwrap();
            match &read.result {
                Ok(Response::Data { version, .. }) => assert_eq!(*version, v),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn redelivery_executes_a_stale_request_in_a_later_round() {
        // Partition the reply direction and time the write out; in
        // at-least-once mode the *late reply* is parked rather than the
        // request being lost, and a fully-partitioned request also
        // survives rounds. Here: block requests so the write never lands
        // in its own round, heal, then watch it land during a later
        // round.
        let t = SimTransport::with_model(
            Cluster::new(2),
            29,
            NetworkModel {
                redelivery: true,
                // Huge delay on this link: the request outlives the round.
                ..NetworkModel::reliable()
            },
        );
        for i in 0..2 {
            t.call(
                NodeId(i),
                Request::InitData {
                    id: 1,
                    bytes: Bytes::from_static(b"old"),
                },
            )
            .unwrap();
        }
        // Delay node 0's link far past the timeout: the request is still
        // in flight when the round times out.
        t.set_link_delay(0, Some((200_000, 200_000)));
        let r = t.call(
            NodeId(0),
            Request::WriteData {
                id: 1,
                bytes: Bytes::from_static(b"new"),
                version: 1,
            },
        );
        assert_eq!(r, Err(NodeError::TimedOut));
        assert_eq!(t.inflight(), 1, "the write is parked, not dropped");
        // Restore the link; the parked write executes during this later
        // round, before the read's own (FIFO-ordered) arrival? No — the
        // limbo message samples a fresh delay, so just assert it lands
        // and the node converges to the new value across rounds.
        t.set_link_delay(0, None);
        let mut value = None;
        for _ in 0..4 {
            if let Ok(Response::Data { bytes, version, .. }) =
                t.call(NodeId(0), Request::ReadData { id: 1 })
            {
                value = Some((bytes.to_vec(), version));
            }
        }
        assert_eq!(t.inflight(), 0, "limbo drained");
        assert!(t.stats().redelivered >= 1);
        assert_eq!(
            value,
            Some((b"new".to_vec(), 1)),
            "the stale write landed in a later round"
        );
    }

    #[test]
    fn redelivered_stale_write_cannot_regress_a_newer_version() {
        let t = SimTransport::with_model(
            Cluster::new(1),
            31,
            NetworkModel {
                redelivery: true,
                ..NetworkModel::reliable()
            },
        );
        t.call(
            NodeId(0),
            Request::InitData {
                id: 1,
                bytes: Bytes::from_static(b"v0"),
            },
        )
        .unwrap();
        // Strand a v1 write in limbo (past the 100k timeout).
        t.set_link_delay(0, Some((150_000, 150_000)));
        let r = t.call(
            NodeId(0),
            Request::WriteData {
                id: 1,
                bytes: Bytes::from_static(b"v1"),
                version: 1,
            },
        );
        assert_eq!(r, Err(NodeError::TimedOut));
        assert_eq!(t.inflight(), 1);
        // Commit v2 through a healthy link, with the stale v1 landing
        // somewhere among these rounds.
        t.set_link_delay(0, None);
        t.call(
            NodeId(0),
            Request::WriteData {
                id: 1,
                bytes: Bytes::from_static(b"v2"),
                version: 2,
            },
        )
        .unwrap();
        let mut last = None;
        for _ in 0..4 {
            if let Ok(Response::Data { bytes, version, .. }) =
                t.call(NodeId(0), Request::ReadData { id: 1 })
            {
                last = Some((bytes.to_vec(), version));
            }
        }
        assert_eq!(t.inflight(), 0);
        assert_eq!(
            last,
            Some((b"v2".to_vec(), 2)),
            "monotone write guard: the stale v1 redelivery acked without clobbering"
        );
    }

    #[test]
    fn stale_replies_surface_in_later_rounds_and_are_ignored() {
        // Block the reply direction so the write executes but its ack is
        // parked; later rounds then receive that stale ack in-band.
        let t = SimTransport::with_model(
            Cluster::new(1),
            37,
            NetworkModel {
                redelivery: true,
                ..NetworkModel::reliable()
            },
        );
        t.call(
            NodeId(0),
            Request::InitData {
                id: 1,
                bytes: Bytes::from_static(b"x"),
            },
        )
        .unwrap();
        // Stretch the link so the reply (FIFO behind the request) cannot
        // make the deadline: the request executes, the reply is parked.
        t.set_link_delay(0, Some((60_000, 60_000)));
        let r = t.call(
            NodeId(0),
            Request::WriteData {
                id: 1,
                bytes: Bytes::from_static(b"y"),
                version: 1,
            },
        );
        assert_eq!(r, Err(NodeError::TimedOut));
        assert!(t.inflight() >= 1, "the late ack is parked");
        t.set_link_delay(0, None);
        // The next rounds see the stale ack as a foreign RoundReply; the
        // engine-facing contract is that it carries the *old* op id.
        let mut foreign = Vec::new();
        for _ in 0..4 {
            let env = Envelope::new(Request::ReadData { id: 1 });
            let own = env.op_id;
            t.multicall(vec![(NodeId(0), env)], &mut |reply| {
                if reply.op_id != own {
                    foreign.push(reply.result.clone());
                }
                true
            });
        }
        assert_eq!(t.inflight(), 0);
        assert!(
            foreign.contains(&Ok(Response::Ack)),
            "the stale ack surfaced with its original identity: {foreign:?}"
        );
    }

    #[test]
    fn flush_inflight_empties_limbo() {
        let t = SimTransport::with_model(
            Cluster::new(1),
            41,
            NetworkModel {
                redelivery: true,
                ..NetworkModel::reliable()
            },
        );
        t.call(
            NodeId(0),
            Request::InitData {
                id: 1,
                bytes: Bytes::from_static(b"x"),
            },
        )
        .unwrap();
        t.set_link_delay(0, Some((150_000, 150_000)));
        let _ = t.call(
            NodeId(0),
            Request::WriteData {
                id: 1,
                bytes: Bytes::from_static(b"y"),
                version: 1,
            },
        );
        assert_eq!(t.inflight(), 1);
        assert_eq!(t.flush_inflight(), 1);
        assert_eq!(t.inflight(), 0);
        t.set_link_delay(0, None);
        // The flushed write never lands.
        match t.call(NodeId(0), Request::ReadData { id: 1 }).unwrap() {
            Response::Data { bytes, version, .. } => {
                assert_eq!(&bytes[..], b"x");
                assert_eq!(version, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(t.stats().limbo_dropped >= 1);
    }

    #[test]
    fn redelivery_replay_is_bit_for_bit() {
        let run = |seed| {
            let t = SimTransport::with_model(
                Cluster::new(6),
                seed,
                NetworkModel::at_least_once(0.15, 0.25),
            );
            let mut order = Vec::new();
            for _ in 0..12 {
                let replies = collect(&t, pings(6));
                order.extend(replies.into_iter().map(|r| (r.node, r.result.is_ok())));
            }
            (order, t.stats(), t.now())
        };
        assert_eq!(run(77), run(77), "at-least-once replay must be bit-for-bit");
    }

    #[test]
    fn degrade_slows_a_node_without_downing_it() {
        let t = SimTransport::new(Cluster::new(2), 47);
        t.apply(SimFault::Degrade {
            node: 0,
            factor: 100,
        });
        let replies = collect(&t, pings(2));
        assert_eq!(replies.len(), 2);
        assert!(replies.iter().all(|r| r.result == Ok(Response::Pong)));
        assert_eq!(
            replies[0].node,
            NodeId(1),
            "the gray node answers last, not never"
        );
        // Restoring factor 1 closes the gap again.
        t.apply(SimFault::Degrade { node: 0, factor: 1 });
        let replies = collect(&t, pings(2));
        assert!(replies.iter().all(|r| r.result == Ok(Response::Pong)));
    }

    #[test]
    fn await_all_round_costs_one_round_trip_at_any_width() {
        // Every request of a round leaves at once, so a level of s
        // members costs one round trip of link delay d whatever s is; the
        // same calls one at a time cost s of them.
        use crate::quorum_round::QuorumRound;
        const D: u64 = 1_000;
        for s in [4, 8, 15] {
            let t = SimTransport::with_model(
                Cluster::new(s),
                61,
                NetworkModel {
                    min_delay: D,
                    max_delay: D,
                    ..NetworkModel::reliable()
                },
            );
            let out = QuorumRound::await_all(s).run(&t, pings(s));
            assert_eq!(out.validations(), s);
            assert_eq!(t.now(), 2 * D, "fan-out over {s} members");
            assert_eq!(t.stats().requests, s as u64);
            for (node, req) in pings(s) {
                assert_eq!(t.call(node, req), Ok(Response::Pong));
            }
            assert_eq!(t.now(), 2 * D * (1 + s as u64), "{s} sequential calls");
        }
    }

    #[test]
    fn every_round_feeds_the_estimator() {
        // Each completed call is one RTT sample for its node, so the
        // registry's straggler flag has evidence to work from.
        let t = SimTransport::new(Cluster::new(2), 53);
        for _ in 0..5 {
            let replies = collect(&t, pings(2));
            assert_eq!(replies.len(), 2);
        }
        for node in 0..2 {
            assert_eq!(t.health_registry().samples(node), 5, "node {node}");
        }
        assert_eq!(t.health_registry().retries(), 0, "nothing re-sent");
    }

    #[test]
    fn limbo_is_bounded_by_ttl() {
        // A permanently request-partitioned node in at-least-once mode:
        // every round re-parks the pending messages until the TTL drops
        // them — limbo cannot grow without bound.
        let t = SimTransport::with_model(
            Cluster::new(1),
            43,
            NetworkModel {
                redelivery: true,
                ..NetworkModel::reliable()
            },
        );
        t.set_link_delay(0, Some((200_000, 200_000)));
        for _ in 0..20 {
            let _ = t.call(NodeId(0), Request::Ping);
        }
        assert!(
            t.inflight() <= LIMBO_CAP,
            "limbo stays bounded: {}",
            t.inflight()
        );
        assert!(t.stats().limbo_dropped > 0, "TTL or cap dropped messages");
    }
}

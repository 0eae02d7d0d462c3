//! # tq-cluster — a simulated distributed storage substrate
//!
//! The TRAP-ERC paper evaluates its protocol under a precise failure
//! model: nodes are independent, fail-stop, equally available with
//! probability `p`, and links never fail (§IV assumptions 1–4). This
//! crate *is* that model, made executable:
//!
//! * [`node::StorageNode`] — one storage server exposing exactly the
//!   primitive surface the paper's pseudocode calls:
//!   `write(x)`, `read(id)`, `version(id)` (a version *vector* on parity
//!   nodes — the columns of the paper's k×(n−k) matrix V) and
//!   `add(buf)` (the parity fold `b_j ← b_j + buf`, applied under a
//!   version guard). Every mutation is monotone conditional, so the node
//!   is safe under at-least-once delivery. Every node also verifies what
//!   it serves (a block failing its stamped self-check is refused, not
//!   served) and syncs what it acks (flush before every acknowledgement);
//!   neither is a setting.
//! * [`rpc`] — the idempotent command vocabulary between protocol and
//!   node: [`rpc::Request`]/[`rpc::Response`] payloads wrapped in
//!   [`rpc::Envelope`]s (op identity + round epoch), answered by
//!   [`rpc::Reply`]s echoing that identity, executed through the
//!   [`rpc::NodeApi`] trait that decouples command handling from
//!   transport dispatch.
//! * [`cluster::Cluster`] — a set of nodes with fail-stop switches and
//!   per-node IO accounting.
//! * [`transport`] — how protocol code reaches nodes: [`transport::LocalTransport`]
//!   invokes nodes synchronously, the zero-latency sequential reference
//!   experiments and cost pins replay against. Under both concurrent
//!   transports — the simulator and TCP — sits one private dispatch
//!   driver (`driver.rs`): the round deadline and late-reply
//!   absorption are written once, and each fabric contributes only a
//!   link (send, receive, tell the time).
//! * [`quorum_round`] — the scatter-gather round engine: one trapezoid
//!   level's requests issued at once through [`transport::Transport::multicall`],
//!   completed on the paper's `w_l`/`r_l` quorum condition, stragglers
//!   and failures reported for accounting.
//! * [`sync`] — the one short-lock type ([`sync::Mutex`]), whose guard a
//!   debug build checks no round outlives.
//! * [`fault`] — seeded fail-stop fault patterns and schedules, so every
//!   experiment is replayable bit-for-bit.
//! * [`health`] — per-node health ([`health::NodeHealth`]): a latency
//!   estimate that flags stragglers and ranks members, a
//!   consecutive-failure circuit that routes reads around unreachable
//!   nodes, and a token-bucket retry budget capping client-side
//!   re-issue traffic.
//! * [`sim`] — the deterministic simulation transport
//!   ([`sim::SimTransport`]): a seeded virtual-time event scheduler that
//!   drives the same fan-outs through an adversarial [`sim::NetworkModel`]
//!   (delay, loss, duplication, asymmetric partitions, crash-restart with
//!   durable or volatile state, and an at-least-once mode with
//!   cross-round redelivery) — the substrate of the DST harness in
//!   `tq-sim`.
//! * [`wire`] — the versioned, length-prefixed binary frame format for
//!   [`rpc::Envelope`]/[`rpc::Reply`]: self-checking 32-byte header,
//!   zero-copy payload decode, typed [`wire::DecodeError`]s — never a
//!   panic, whatever the bytes.
//! * [`tcp`] — the same [`transport::Transport`] seam over real
//!   loopback/network sockets: [`tcp::TcpNodeServer`] hosts any
//!   [`rpc::NodeApi`], [`tcp::TcpTransport`] pools connections per node
//!   with inflight backpressure, reconnect-with-backoff, and timeouts.
//! * [`storage`] — the pluggable persistence seam *under* the node:
//!   [`storage::StorageBackend`] with a striped in-memory map, a
//!   crash-safe append-only log (checksummed records, sync-per-append or
//!   on-flush, torn-tail recovery, compaction).
//! * [`disk`] — the file system under the log: the operating system's,
//!   or [`disk::SimFs`], a deterministic in-memory disk whose crashes and
//!   faults the DST storage axis runs the shipped log on.
//!
//! Nothing here knows about trapezoids or erasure codes; `tq-trapezoid`
//! composes this substrate with `tq-erasure` and `tq-quorum` into the
//! paper's Algorithms 1 and 2.

// unsafe_code is forbidden workspace-wide (see [workspace.lints] in the
// root Cargo.toml), so no module of this crate can re-allow it.
#![warn(missing_docs)]

// Determinism: the modules below that deny the two `disallowed_*` lints
// are the ones the simulator reaches. They read no wall clock, sleep no
// thread, draw no OS entropy and hash with no random seed (clippy.toml
// names each), so a DST case replays bit-for-bit. The dispatch driver is
// among them: it runs on its link's clock, virtual under the simulator.
// `tcp` is real-clock by nature and unreachable from the simulator. Test
// code is exempt. The same ban keeps raw mutexes out of these modules:
// their locks are `sync::Mutex`, whose guards the round entry points
// check in a debug build.
pub mod cluster;
#[cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
pub mod detmap;
#[cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
pub mod disk;
#[cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
mod driver;
pub mod fault;
#[cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
pub mod health;
#[cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
pub mod node;
#[cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
pub mod quorum_round;
#[cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
pub mod rpc;
#[cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
pub mod sim;
pub mod stats;
#[cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
pub mod storage;
pub mod sync;
pub mod tcp;
#[cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
pub mod transport;
#[cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
pub mod wire;

pub use cluster::Cluster;
pub use disk::{LogDisk, LogFile, SimFs, SimFsFaults, SimFsStats};
pub use fault::FaultInjector;
pub use health::NodeHealth;
pub use node::{NodeBuilder, NodeId, StorageNode};
pub use quorum_round::{
    Accepted, Completion, MultiRound, PlanOp, QuorumRound, Rejected, RoundOutcome,
};
pub use rpc::{BlockId, Envelope, Lane, NodeApi, NodeError, OpId, Reply, Request, Response};
pub use sim::{NetworkModel, SimFault, SimStats, SimTransport};
pub use storage::{
    AppendLogBackend, FsyncPolicy, MemoryBackend, StorageBackend, StorageError, StoredBlock,
};
pub use tcp::{TcpConfig, TcpNodeServer, TcpTransport};
pub use transport::{LocalTransport, RoundReply, Transport};
pub use wire::{DecodeError, Frame, FrameKind, Header};

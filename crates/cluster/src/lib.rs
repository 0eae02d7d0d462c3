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
//!   is safe under at-least-once delivery.
//! * [`rpc`] — the idempotent command vocabulary between protocol and
//!   node: [`rpc::Request`]/[`rpc::Response`] payloads wrapped in
//!   [`rpc::Envelope`]s (op identity + round epoch), answered by
//!   [`rpc::Reply`]s echoing that identity, executed through the
//!   [`rpc::NodeApi`] trait that decouples command handling from
//!   transport dispatch.
//! * [`cluster::Cluster`] — a set of nodes with fail-stop switches and
//!   per-node IO accounting.
//! * [`transport`] — how protocol code reaches nodes: [`transport::LocalTransport`]
//!   invokes nodes synchronously (deterministic, fast — the default for
//!   experiments), [`transport::ChannelTransport`] runs a thread per node behind
//!   crossbeam channels (the concurrent configuration integration tests
//!   exercise). Under every concurrent transport — channels, simulator,
//!   TCP — sits one private dispatch driver (`driver.rs`): deadlines,
//!   hedged re-issue and late-reply absorption are written once, and
//!   each fabric contributes only a link (send, receive, tell the time).
//! * [`quorum_round`] — the scatter-gather round engine: one trapezoid
//!   level's requests issued at once through [`transport::Transport::multicall`],
//!   completed on the paper's `w_l`/`r_l` quorum condition, stragglers
//!   and failures reported for accounting.
//! * [`fault`] — seeded Bernoulli availability sampling and fault
//!   schedules, so every experiment is replayable bit-for-bit.
//! * [`health`] — the adaptive straggler-tolerance layer: per-node
//!   latency/variance estimation ([`health::NodeHealth`]) driving
//!   adaptive timeouts and hedged sends, circuit breaking for gray
//!   nodes, and the token-bucket [`health::RetryBudget`] capping all
//!   client-side re-issue traffic.
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
//!   crash-safe append-only log (checksummed records, fsync policy,
//!   torn-tail recovery, compaction), and a deterministic faulting
//!   wrapper for the DST's storage fault axis.
//!
//! Nothing here knows about trapezoids or erasure codes; `tq-trapezoid`
//! composes this substrate with `tq-erasure` and `tq-quorum` into the
//! paper's Algorithms 1 and 2.

// unsafe_code is denied workspace-wide (see [workspace.lints] in the root
// Cargo.toml); tq-lint's `unsafe-allow` pass guards the allow sites.
#![warn(missing_docs)]

pub mod cluster;
pub mod detmap;
mod driver;
pub mod fault;
pub mod health;
pub mod node;
pub mod quorum_round;
pub mod rpc;
pub mod sim;
pub mod stats;
pub mod storage;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use cluster::Cluster;
pub use fault::FaultInjector;
pub use health::{
    CircuitState, HealthConfig, HedgeCounters, HedgePolicy, NodeHealth, NodeSnapshot, Outcome,
    RetryBudget,
};
pub use node::{NodeBuilder, NodeId, StorageNode};
pub use quorum_round::{
    Accepted, Completion, MultiRound, PlanOp, QuorumRound, Rejected, RoundOutcome,
};
pub use rpc::{BlockId, Envelope, Lane, NodeApi, NodeError, OpId, Reply, Request, Response};
pub use sim::{NetworkModel, SimFault, SimStats, SimTransport};
pub use stats::IoStats;
pub use storage::{
    AppendLogBackend, FaultingBackend, FsyncPolicy, MemoryBackend, StorageBackend, StorageError,
    StorageFaults, StoredBlock,
};
pub use tcp::{TcpConfig, TcpNodeServer, TcpTransport};
pub use transport::{ChannelTransport, LocalTransport, RoundReply, Transport};
pub use wire::{DecodeError, Frame, FrameKind, Header};

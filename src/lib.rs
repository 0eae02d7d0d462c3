//! # trapezoid-quorum — facade crate
//!
//! One-stop re-export of the workspace implementing Relaza, Jorda &
//! M'zoughi, *Trapezoid Quorum Protocol Dedicated to Erasure Resilient
//! Coding Based Schemes* (IPDPSW 2015):
//!
//! | layer | crate | re-exported as |
//! |---|---|---|
//! | GF(2⁸) arithmetic | `tq-gf256` | [`gf256`] |
//! | (n, k) MDS codes + delta updates | `tq-erasure` | [`erasure`] |
//! | quorum systems + availability analysis | `tq-quorum` | [`quorum`] |
//! | simulated storage substrate | `tq-cluster` | [`cluster`] |
//! | TRAP-ERC / TRAP-FR protocols | `tq-trapezoid` | [`protocol`] |
//! | Monte-Carlo + figure regeneration | `tq-sim` | [`sim`] |
//!
//! The most common types are also lifted to the crate root — above all
//! the unified store API ([`Store`], [`QuorumStore`], [`BlockAddr`]),
//! which is how new code should construct and drive the protocols. See
//! the `examples/` directory for end-to-end walkthroughs:
//!
//! * `quickstart` — build a store, write, batch-write, lose a node,
//!   still read.
//! * `virtual_disk` — the paper's motivating scenario: a VM disk image
//!   with strict consistency over erasure-coded storage.
//! * `availability_study` — regenerate the Fig. 3 comparison at the
//!   terminal, analytic vs simulated.
//! * `failure_injection` — scripted fail-stop scenarios showing exactly
//!   when writes fail and how reads survive via decode.
//! * `node_replacement` — rebuild a replaced node under live traffic.

// unsafe_code is denied workspace-wide (see [workspace.lints] in the root
// Cargo.toml); tq-lint's `unsafe-allow` pass guards the allow sites.
#![warn(missing_docs)]

pub use tq_cluster as cluster;
pub use tq_erasure as erasure;
pub use tq_gf256 as gf256;
pub use tq_quorum as quorum;
pub use tq_sim as sim;
pub use tq_trapezoid as protocol;

pub use tq_cluster::{
    AppendLogBackend, Cluster, FaultInjector, FsyncPolicy, LocalTransport, MemoryBackend,
    NetworkModel, SimFault, SimTransport, StorageBackend, TcpNodeServer, TcpTransport,
};
pub use tq_erasure::{CodeParams, ReedSolomon};
pub use tq_quorum::trapezoid::{TrapezoidShape, WriteThresholds};
pub use tq_trapezoid::{
    BatchReads, BatchWrite, BatchWrites, BlockAddr, OpReport, ProtocolConfig, ProtocolError,
    QuorumStore, ShardMap, ShardedStore, Store, StoreBuilder, StoreInfo, StripeLockManager,
    TrapErcClient, Volume, VolumeConfig, VolumeError,
};

//! # tq-trapezoid — the TRAP-ERC protocol (the paper's contribution)
//!
//! This crate composes the substrates into the system of Relaza, Jorda &
//! M'zoughi, *Trapezoid Quorum Protocol Dedicated to Erasure Resilient
//! Coding Based Schemes* (IPDPSW 2015):
//!
//! * `tq-erasure` supplies the systematic (n, k) MDS code and the
//!   `α_{j,i}` delta coefficients (eq. 1);
//! * `tq-quorum` supplies the trapezoid geometry, thresholds and the
//!   per-block [`tq_quorum::TrapErcSystem`] membership mapping (eq. 5:
//!   `Nbnode = n − k + 1`);
//! * `tq-cluster` supplies storage nodes with exactly the primitive
//!   surface the pseudocode calls (`write`, `read`, `version`, `add`).
//!
//! On top sit faithful executable versions of the paper's pseudocode:
//!
//! * [`TrapErcClient::write_block`] — **Algorithm 1**: read the old
//!   chunk, then walk levels 0..=h writing `x` to `N_i` and folding
//!   `α_{j,i}·(x − chunk)` into each parity node under a version guard;
//!   a level that validates fewer than `w_l` nodes fails the write.
//! * [`TrapErcClient::read_block`] — **Algorithm 2**: per level, poll
//!   versions from `r_l = s_l − w_l + 1` members; once a level completes,
//!   serve from `N_i` if it holds the latest version, otherwise decode
//!   from `k` mutually-consistent stripe nodes.
//! * the replication baselines — TRAP-FR (the same trapezoid over full
//!   replicas, the paper's §IV comparison), ROWA and Majority (§II) —
//!   as configurations of the same client over an `(m, 1)` code, built by
//!   [`Store::trap_fr`], [`Store::rowa`] and [`Store::majority`].
//!
//! Every level loop dispatches through the scatter-gather round engine
//! ([`tq_cluster::QuorumRound`]): a level's requests go out in one
//! [`tq_cluster::Transport::multicall`] batch and the round completes on
//! the paper's `w_l`/`r_l` quorum condition — sequential and
//! deterministic on [`tq_cluster::LocalTransport`], concurrent (one
//! round trip per level instead of one per member) on
//! [`tq_cluster::SimTransport`] and [`tq_cluster::TcpTransport`].
//!
//! ## Quickstart
//!
//! ```
//! use tq_cluster::{Cluster, LocalTransport};
//! use tq_trapezoid::{ProtocolConfig, TrapErcClient};
//!
//! // (9, 6) stripe; trapezoid of n-k+1 = 4 nodes: a=2, b=1, h=1.
//! // `build` prepends w_0 = ⌊b/2⌋+1; the slice covers levels 1..=h.
//! let config = ProtocolConfig::build(9, 6, 2, 1, 1, &[1]).unwrap();
//! let cluster = Cluster::new(9);
//! let client = TrapErcClient::new(config, LocalTransport::new(cluster.clone())).unwrap();
//!
//! let blocks: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 64]).collect();
//! client.create_stripe(1, blocks.clone()).unwrap();
//!
//! // Write block 2, then read it back — even with its data node dead.
//! client.write_block(1, 2, &vec![0xAB; 64]).unwrap();
//! cluster.kill(2);
//! let out = client.read_block(1, 2).unwrap();
//! assert_eq!(out.bytes, vec![0xAB; 64]);
//! assert!(out.decoded());
//! ```

// unsafe_code is forbidden workspace-wide (see [workspace.lints] in the
// root Cargo.toml), so no module of this crate can re-allow it.
#![warn(missing_docs)]
// Determinism: DST drives this crate's clients (the write batch through
// `rounds::flag_duplicates` included), so its code reads no wall clock,
// sleeps no thread, draws no OS entropy and hashes with no random seed
// (clippy.toml names each). Test code is exempt.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

mod baselines;
pub mod config;
pub mod errors;
pub(crate) mod locking;
pub mod recovery;
mod rounds;
pub mod shard;
pub mod store;
pub mod trap_erc;
pub(crate) mod version_matrix;
pub mod volume;

pub use config::ProtocolConfig;
pub use errors::{ProtocolError, VolumeError};
pub use locking::StripeLockManager;
pub use recovery::RebuildReport;
pub use shard::{ShardMap, ShardedStore};
pub use store::{
    BatchReads, BatchWrite, BatchWrites, BlockAddr, OpReport, QuorumStore, RoundStats, Store,
    StoreBuilder, StoreInfo,
};
pub use trap_erc::{ReadOutcome, ReadPath, ScrubReport, TrapErcClient, WriteOutcome};
pub use volume::{Volume, VolumeConfig};

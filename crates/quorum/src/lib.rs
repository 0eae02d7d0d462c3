//! # tq-quorum — quorum systems and the TRAP-ERC availability analysis
//!
//! The analytical half of the reproduction of Relaza et al., *Trapezoid
//! Quorum Protocol Dedicated to Erasure Resilient Coding Based Schemes*
//! (IPDPSW 2015). This crate knows nothing about bytes or networks; it
//! models *which sets of live nodes allow an operation* and *how likely
//! such sets are* under i.i.d. fail-stop nodes with availability `p`.
//!
//! Contents:
//!
//! * [`NodeSet`] — a bitmask over up to 128 logical nodes.
//! * [`trapezoid`] — the trapezoid geometry of Suzuki & Ohara as the paper
//!   uses it: `h+1` levels, level `l` holding `s_l = a·l + b` nodes,
//!   write thresholds `w_l` (with `w_0 = ⌊b/2⌋+1` forced to a level-0
//!   majority) and read thresholds `r_l = s_l − w_l + 1`.
//! * [`system`] — the [`QuorumSystem`] predicate trait; implemented by
//!   the trapezoid (full-replication semantics), the TRAP-ERC view over a
//!   whole (n, k) stripe, and the related-work baselines in [`majority`],
//!   [`rowa`], [`grid`] and [`tree`].
//! * [`availability`] — the paper's closed forms: Φ (eq. 7), write
//!   availability (eqs. 8/9), read availability for TRAP-FR (eq. 10) and
//!   TRAP-ERC (eqs. 11–13), and the storage-space equations (14/15);
//!   plus closed forms for the baselines.
//! * [`exact`] — exhaustive 2^N enumeration of any [`QuorumSystem`]
//!   predicate, the ground truth the closed forms are tested against.
//! * [`analysis`] — sweep helpers producing the (p, availability) series
//!   behind every figure of the paper.
//!
//! ```
//! use tq_quorum::trapezoid::{TrapezoidShape, WriteThresholds};
//! use tq_quorum::availability;
//!
//! // Figure 1 of the paper: a = 2, b = 3, h = 2 → levels of 3, 5, 7.
//! let shape = TrapezoidShape::new(2, 3, 2).unwrap();
//! assert_eq!(shape.node_count(), 15);
//! let w = WriteThresholds::paper_default(&shape, 2).unwrap();
//! let pw = availability::write_availability(&shape, &w, 0.9);
//! assert!(pw > 0.9 && pw <= 1.0);
//! ```

// unsafe_code is forbidden workspace-wide (see [workspace.lints] in the
// root Cargo.toml), so no module of this crate can re-allow it.
#![warn(missing_docs)]

pub mod analysis;
pub mod availability;
pub mod exact;
pub mod grid;
pub mod majority;
pub mod nodeset;
pub mod rowa;
pub mod system;
pub mod trapezoid;
pub mod tree;

pub use nodeset::NodeSet;
pub use system::QuorumSystem;
pub use trapezoid::{ShapeError, TrapErcSystem, TrapezoidQuorum, TrapezoidShape, WriteThresholds};

//! # tq-sim — exact figure regeneration and deterministic simulation
//!
//! The paper's §IV-D evaluates the closed forms of §IV-A/B/C numerically
//! (Figs. 2–5). [`experiments`] regenerates every one of those figures
//! and sets each closed form beside the exact availability it models:
//! the count of successful up-sets by size (`tq_quorum::exact`), over
//! all 2ⁿ up-sets, of the structural predicate — which the availability
//! oracle (`tests/availability_oracle.rs`) proves is also where the
//! *shipped* client succeeds: a read ⇔ the read predicate, a hinted
//! write ⇔ the write predicate, a faithful write ⇔ both.
//!
//! That is where the paper's approximations become visible: eq. 13's
//! P2 term drops the version check, and eq. 9 ignores Algorithm 1's
//! embedded READBLOCK. The committed `figures/*.md` record both gaps.
//!
//! Beyond the paper's evaluation, [`dst`] adds deterministic simulation
//! testing: seeded adversarial network schedules (loss, duplication,
//! reordering, partitions, crash-restart) driven through
//! `tq_cluster::SimTransport`, with every operation checked online
//! against regular-register semantics and failing seeds replayable
//! bit-for-bit.
//!
//! The `figures` binary (`cargo run -p tq-sim --bin figures -- all`)
//! renders every figure as markdown + CSV.

// unsafe_code is forbidden workspace-wide (see [workspace.lints] in the
// root Cargo.toml), so no module of this crate can re-allow it.
#![warn(missing_docs)]
// Determinism: a DST case replays bit-for-bit from its seed and a
// figure regenerates byte for byte, so nothing here reads a wall clock,
// sleeps a thread, draws OS entropy or hashes with a random seed
// (clippy.toml names each). Test code is exempt.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod dst;
pub mod experiments;
pub mod report;

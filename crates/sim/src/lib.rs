//! # tq-sim — Monte-Carlo validation and figure regeneration
//!
//! The paper's §IV-D evaluates the closed forms of §IV-A/B/C numerically
//! (Figs. 2–5). This crate regenerates every one of those figures and
//! goes two steps further, cross-validating each closed form against:
//!
//! 1. **exact enumeration** (`tq_quorum::exact`) of the structural
//!    predicates — feasible for the paper's n = 15;
//! 2. **protocol-level Monte-Carlo** — the *real* Algorithms 1/2 from
//!    `tq-trapezoid` executed against a `tq-cluster` whose availability
//!    pattern is re-sampled i.i.d. Bernoulli(p) per trial, exactly the
//!    model the formulas integrate over.
//!
//! Layer 2 is where the paper's approximations become visible: eq. 13's
//! P2 term drops the version check, and eq. 9 ignores Algorithm 1's
//! embedded READBLOCK. [`monte_carlo`] measures both gaps;
//! EXPERIMENTS.md records them.
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
// Determinism: a DST case and a figure replay bit-for-bit from their
// seed, so nothing here reads a wall clock, sleeps a thread, draws OS
// entropy or hashes with a random seed (clippy.toml names each). Test
// code is exempt.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod dst;
pub mod experiments;
pub mod monte_carlo;
pub mod report;

pub use dst::{CaseConfig, CaseReport, HistoryChecker, Scenario, Violation};
pub use experiments::FigureData;
pub use monte_carlo::{Estimate, MonteCarlo};

//! # tq-gf256 — GF(2⁸) arithmetic for erasure-resilient coding
//!
//! This crate is the arithmetic substrate of the TRAP-ERC reproduction.
//! The paper (Relaza et al., IPDPSW 2015, eq. 1) defines redundant blocks as
//!
//! ```text
//! b_j = Σ_{i=1..k} α_{j,i} · b_i        (arithmetic over GF(2^h))
//! ```
//!
//! and its write algorithm applies *in-place delta updates*
//! `b_j ← b_j + α_{j,i}·(x − c)` exploiting the commutativity of Galois-field
//! operations. Everything here exists to make those two lines fast and
//! correct:
//!
//! * [`Gf256`] — a field element with full operator overloading. Addition is
//!   XOR (characteristic 2, so subtraction ≡ addition), multiplication uses
//!   compile-time exp/log tables over the AES-adjacent polynomial `0x11D`.
//! * [`slice_ops`] — bulk kernels (`add_assign`, `mul_slice`,
//!   `mul_add_slice`, `mul_add_multi`) used on whole storage blocks;
//!   these are the hot path of encode and delta-update.
//! * [`simd`] — the dispatching backend suite under `slice_ops`:
//!   split-nibble `pshufb` (SSSE3/AVX2) and `vqtbl1q_u8` (NEON) tiers
//!   over the scalar table-walk floor, selected once per process by
//!   runtime feature detection (`TQ_GF256_FORCE` overrides).
//! * [`check`] — 8-lane GF(2⁸)-linear block checksums
//!   (`block_check`/`combine`/`linear_check`), the primitive under the
//!   stripe cross-checksum integrity mode: linearity lets a reader derive
//!   a parity block's expected checksum from the data-block checksums.
//! * [`matrix`] — dense matrices over GF(2⁸) with Gauss–Jordan inversion and
//!   a Vandermonde constructor, from which the systematic MDS
//!   generator of `tq-erasure` is derived. `tq-erasure`'s
//!   `tests/lagrange_oracle.rs` checks every generator coefficient
//!   against the Lagrange basis value at the Vandermonde points.
//!
//! The field is fixed to `h = 8` (GF(256)): the paper itself notes GF(2^h)
//! "usually" in byte-sized fields, and byte granularity is what storage
//! blocks want.
//!
//! ## Example
//!
//! ```
//! use tq_gf256::Gf256;
//!
//! let a = Gf256::new(0x53);
//! let b = Gf256::new(0xCA);
//! assert_eq!(a * b / b, a);          // multiplicative group
//! assert_eq!(a + b, b + a);          // commutative
//! assert_eq!(a + a, Gf256::ZERO);    // characteristic 2
//! ```

// `unsafe` is denied crate-wide and re-allowed in exactly one place: the
// `#[target_feature]` SIMD kernels in `simd`, which are guarded by
// runtime feature detection (see that module's Safety section). Every
// other crate forbids unsafe_code (see [workspace.lints] in the root
// Cargo.toml); this one denies it, in its own Cargo.toml, so that `simd`
// can re-allow it.
#![warn(missing_docs)]

pub mod check;
pub mod field;
pub mod matrix;
pub mod simd;
pub mod slice_ops;
pub mod tables;

pub use field::Gf256;
pub use matrix::Matrix;

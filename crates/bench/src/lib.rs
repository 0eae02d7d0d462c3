//! # tq-bench — shared helpers for the Criterion benchmark harness
//!
//! The benches measure the kernel trajectory CI records in
//! `BENCH_*.json`:
//!
//! | target | measures |
//! |---|---|
//! | `gf256_ops` | GF(2⁸) slice kernels, every tier side by side |
//! | `erasure_coding` | encode / decode / reconstruct / delta |

/// Deterministic pseudo-random payload.
pub fn payload(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_mul(31).wrapping_add((i * 7) as u8))
        .collect()
}

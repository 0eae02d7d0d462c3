//! Compile-time lookup tables for GF(2⁸) arithmetic.
//!
//! The field is GF(2⁸) with the primitive reduction polynomial
//! `x⁸ + x⁴ + x³ + x² + 1` (`0x11D`), the polynomial used by most storage
//! Reed–Solomon implementations. `α = 2` (i.e. the polynomial `x`) is a
//! generator of the multiplicative group, so every non-zero element is
//! `α^e` for a unique `e ∈ [0, 255)`.
//!
//! Three tables are computed at compile time by `const` evaluation:
//!
//! * [`EXP`] — `EXP[e] = α^e`, doubled to 512 entries so that
//!   `EXP[log a + log b]` never needs a modular reduction;
//! * [`LOG`] — `LOG[x] = e` with `α^e = x` (undefined for `x = 0`,
//!   stored as 0 — callers must branch on zero first);
//! * [`MUL`] — the full 64 KiB product table `MUL[a][b] = a·b`, used by the
//!   bulk slice kernels where one operand is fixed per call and a 256-byte
//!   row fits comfortably in L1.

/// The reduction polynomial `x⁸ + x⁴ + x³ + x² + 1` as a 9-bit constant.
pub const POLY: u16 = 0x11D;

/// Order of the multiplicative group: the 255 non-zero elements.
const GROUP_ORDER: usize = 255;

const fn build_exp_log() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut e = 0usize;
    while e < GROUP_ORDER {
        exp[e] = x as u8;
        log[x as usize] = e as u8;
        // multiply by the generator α = 2, reducing modulo POLY
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        e += 1;
    }
    // Duplicate the cycle so EXP[a + b] is valid for a, b < 255 without
    // reducing (a + b) mod 255 on the hot path.
    let mut j = GROUP_ORDER;
    while j < 512 {
        exp[j] = exp[j - GROUP_ORDER];
        j += 1;
    }
    (exp, log)
}

const EXP_LOG: ([u8; 512], [u8; 256]) = build_exp_log();

/// `EXP[e] = α^e` for `e ∈ [0, 510)`; the cycle of length 255 is stored
/// twice so exponent sums need no reduction.
pub const EXP: [u8; 512] = EXP_LOG.0;

/// `LOG[x]` is the discrete logarithm of `x` base `α`. `LOG[0]` is a
/// placeholder (0); multiplication routines must special-case zero.
pub const LOG: [u8; 256] = EXP_LOG.1;

const fn build_mul() -> [[u8; 256]; 256] {
    let mut table = [[0u8; 256]; 256];
    let mut a = 1usize;
    while a < 256 {
        let la = LOG[a] as usize;
        let mut b = 1usize;
        while b < 256 {
            table[a][b] = EXP[la + LOG[b] as usize];
            b += 1;
        }
        a += 1;
    }
    table
}

/// Full product table: `MUL[a][b] = a · b` in GF(2⁸).
///
/// Row `MUL[c]` is the fastest way to multiply a long slice by the constant
/// `c` (one L1-resident load per byte, no branches).
pub static MUL: [[u8; 256]; 256] = build_mul();

const fn build_nibble_tables() -> ([[u8; 16]; 256], [[u8; 16]; 256]) {
    let mut lo = [[0u8; 16]; 256];
    let mut hi = [[0u8; 16]; 256];
    let mut c = 0usize;
    while c < 256 {
        let mut x = 0usize;
        while x < 16 {
            lo[c][x] = mul(c as u8, x as u8);
            hi[c][x] = mul(c as u8, (x << 4) as u8);
            x += 1;
        }
        c += 1;
    }
    (lo, hi)
}

const NIBBLE_TABLES: ([[u8; 16]; 256], [[u8; 16]; 256]) = build_nibble_tables();

/// Split-nibble product tables: `MUL_LO[c][x] = c · x` for `x < 16`.
///
/// Multiplication by a constant is GF(2)-linear, so
/// `c·b = MUL_LO[c][b & 0xF] ⊕ MUL_HI[c][b >> 4]` — exactly the shape a
/// 16-lane byte shuffle (`pshufb` / `vqtbl1q_u8`) evaluates in one
/// instruction per nibble. The SIMD kernels in [`crate::simd`] load row
/// `c` of each table once per call and stream the block through it.
pub static MUL_LO: [[u8; 16]; 256] = NIBBLE_TABLES.0;

/// Split-nibble product tables: `MUL_HI[c][x] = c · (x << 4)` for `x < 16`.
/// See [`MUL_LO`].
pub static MUL_HI: [[u8; 16]; 256] = NIBBLE_TABLES.1;

/// Multiply two field elements using the exp/log tables.
///
/// Scalar building block; prefer [`crate::slice_ops`] for bulk data.
#[inline]
pub const fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Multiplicative inverse. `inv(0)` is a logic error and panics.
#[inline]
pub const fn inv(a: u8) -> u8 {
    assert!(a != 0, "division by zero in GF(256)");
    EXP[GROUP_ORDER - LOG[a as usize] as usize]
}

/// Field division `a / b`. Panics if `b == 0`.
#[inline]
pub const fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(256)");
    if a == 0 {
        0
    } else {
        // log a - log b, lifted by GROUP_ORDER to stay non-negative.
        EXP[LOG[a as usize] as usize + GROUP_ORDER - LOG[b as usize] as usize]
    }
}

/// Exponentiation `a^e` by repeated squaring on the logarithm.
#[inline]
pub const fn pow(a: u8, e: u32) -> u8 {
    if e == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let l = LOG[a as usize] as u64 * e as u64;
    EXP[(l % GROUP_ORDER as u64) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slow bitwise "Russian peasant" multiplication used as ground truth.
    fn mul_ref(mut a: u8, mut b: u8) -> u8 {
        let mut acc = 0u8;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            let carry = a & 0x80 != 0;
            a <<= 1;
            if carry {
                a ^= (POLY & 0xFF) as u8;
            }
            b >>= 1;
        }
        acc
    }

    #[test]
    fn exp_log_round_trip() {
        for x in 1..=255u8 {
            assert_eq!(EXP[LOG[x as usize] as usize], x);
        }
    }

    #[test]
    fn exp_is_doubled_cycle() {
        for e in 0..255 {
            assert_eq!(EXP[e], EXP[e + GROUP_ORDER]);
        }
    }

    #[test]
    fn generator_has_full_order() {
        // α = 2 must generate all 255 non-zero elements.
        let mut seen = [false; 256];
        let mut x = 1u8;
        for _ in 0..GROUP_ORDER {
            assert!(!seen[x as usize], "generator order < 255");
            seen[x as usize] = true;
            x = mul(x, 2);
        }
        assert_eq!(x, 1, "α^255 must equal 1");
    }

    #[test]
    fn mul_matches_reference_exhaustively() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul_ref(a, b), "a={a} b={b}");
                assert_eq!(MUL[a as usize][b as usize], mul_ref(a, b));
            }
        }
    }

    #[test]
    fn inverse_is_two_sided() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1);
            assert_eq!(mul(inv(a), a), 1);
        }
    }

    #[test]
    fn div_is_mul_by_inverse() {
        for a in 0..=255u8 {
            for b in 1..=255u8 {
                assert_eq!(div(a, b), mul(a, inv(b)));
            }
        }
    }

    #[test]
    fn pow_small_cases() {
        for a in 0..=255u8 {
            assert_eq!(pow(a, 0), 1);
            assert_eq!(pow(a, 1), a);
            assert_eq!(pow(a, 2), mul(a, a));
            assert_eq!(pow(a, 3), mul(mul(a, a), a));
        }
    }

    #[test]
    fn pow_respects_group_order() {
        for a in 1..=255u8 {
            assert_eq!(pow(a, 255), 1, "a^255 = 1 for non-zero a");
            assert_eq!(pow(a, 256), a);
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn inv_zero_panics() {
        let _ = inv(0);
    }
}

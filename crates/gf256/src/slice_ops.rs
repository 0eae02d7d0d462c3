//! Bulk GF(2⁸) kernels over byte slices.
//!
//! Storage blocks are `[u8]`, and both erasure encoding (eq. 1 of the paper)
//! and the trapezoid write algorithm's delta update
//! (`b_j ← b_j + α_{j,i}·(x − c)`, Algorithm 1 line 27) reduce to a few
//! primitive kernels applied across whole blocks:
//!
//! * [`add_assign`] — `dst ^= src` (field addition/subtraction per byte);
//! * [`mul_slice`] — `dst = c · src`, a block times a constant;
//! * [`mul_add_slice`] — fused `dst ^= c · src`, the single hottest kernel:
//!   one call per (parity block × data block) pair during encode and one
//!   call per parity block during a delta update;
//! * [`mul_add_multi`] / [`linear_combination`] — a whole parity block's
//!   linear combination in one fused, register-blocked pass.
//!
//! Every kernel dispatches through [`crate::simd`]: split-nibble
//! `pshufb`/`vqtbl1q_u8` SIMD where the CPU has it, the scalar `MUL[c]`
//! table walk otherwise. The scalar walk is also the differential
//! reference, forcible via `TQ_GF256_FORCE=scalar`.
//! The backend is detected once per process; see [`crate::simd::active`].

use crate::field::Gf256;
use crate::simd;

/// `dst[i] ^= src[i]` for all `i` — field addition of two blocks.
///
/// # Panics
/// Panics if `dst.len() != src.len()`; blocks in one stripe must agree.
#[inline]
pub fn add_assign(dst: &mut [u8], src: &[u8]) {
    simd::active().add_assign(dst, src);
}

/// `dst[i] = c · src[i]` — out-of-place constant multiply.
///
/// # Panics
/// Panics on length mismatch.
#[inline]
pub fn mul_slice(c: Gf256, src: &[u8], dst: &mut [u8]) {
    simd::active().mul_slice(c, src, dst);
}

/// Fused multiply-add: `dst[i] ^= c · src[i]`.
///
/// This is the inner loop of systematic RS encoding (one call per
/// coefficient of the generator matrix) and of the paper's in-place parity
/// delta update.
///
/// # Panics
/// Panics on length mismatch.
#[inline]
pub fn mul_add_slice(c: Gf256, src: &[u8], dst: &mut [u8]) {
    simd::active().mul_add_slice(c, src, dst);
}

/// Fused multi-block multiply-add:
/// `dst[i] ^= Σ_j coeffs[j] · blocks[j][i]`.
///
/// One parity block's entire linear combination in a single pass — the
/// SIMD backends keep the accumulator strip in registers across every
/// coefficient, so each output byte is loaded and stored exactly once
/// however many blocks feed it. This is the kernel under
/// `ReedSolomon::encode_into`, `reconstruct` and `decode_block`.
///
/// # Panics
/// Panics if `coeffs.len() != blocks.len()` or any block length differs
/// from `dst`.
pub fn mul_add_multi(coeffs: &[Gf256], blocks: &[&[u8]], dst: &mut [u8]) {
    simd::active().mul_add_multi(coeffs, blocks, dst);
}

/// Computes `out[i] = Σ_j coeffs[j] · blocks[j][i]` — a full linear
/// combination of blocks, e.g. one parity block from all data blocks.
///
/// `out` is cleared first.
///
/// # Panics
/// Panics if `coeffs.len() != blocks.len()` or any block length differs
/// from `out`.
pub fn linear_combination(coeffs: &[Gf256], blocks: &[&[u8]], out: &mut [u8]) {
    out.fill(0);
    mul_add_multi(coeffs, blocks, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables;

    fn mul_byte(a: u8, b: u8) -> u8 {
        tables::mul(a, b)
    }

    #[test]
    fn add_assign_is_xor() {
        let mut dst = vec![0x00, 0xFF, 0xAA, 0x55];
        let src = vec![0xFF, 0xFF, 0x0F, 0xF0];
        add_assign(&mut dst, &src);
        assert_eq!(dst, vec![0xFF, 0x00, 0xA5, 0xA5]);
    }

    #[test]
    fn add_assign_self_cancels() {
        let orig: Vec<u8> = (0..=255).collect();
        let mut dst = orig.clone();
        let src = orig.clone();
        add_assign(&mut dst, &src);
        assert!(dst.iter().all(|&b| b == 0));
    }

    #[test]
    fn mul_slice_special_cases() {
        let src: Vec<u8> = (0..=255).collect();
        let mut dst = vec![0xEE; 256];
        mul_slice(Gf256::ZERO, &src, &mut dst);
        assert!(dst.iter().all(|&b| b == 0));
        mul_slice(Gf256::ONE, &src, &mut dst);
        assert_eq!(dst, src);
    }

    #[test]
    fn mul_slice_matches_scalar() {
        let src: Vec<u8> = (0..=255).collect();
        let mut dst = vec![0u8; 256];
        for c in [2u8, 3, 0x1D, 0x8E, 0xFF] {
            mul_slice(Gf256(c), &src, &mut dst);
            for (i, &d) in dst.iter().enumerate() {
                assert_eq!(d, mul_byte(c, src[i]));
            }
        }
    }

    #[test]
    fn mul_add_slice_accumulates() {
        let src = vec![5u8, 6, 7];
        let mut dst = vec![1u8, 2, 3];
        mul_add_slice(Gf256(4), &src, &mut dst);
        for i in 0..3 {
            assert_eq!(dst[i], [1u8, 2, 3][i] ^ mul_byte(4, src[i]));
        }
    }

    #[test]
    fn linear_combination_two_blocks() {
        let b0 = vec![1u8, 2, 3, 4];
        let b1 = vec![9u8, 8, 7, 6];
        let coeffs = [Gf256(3), Gf256(5)];
        let mut out = vec![0u8; 4];
        linear_combination(&coeffs, &[&b0, &b1], &mut out);
        for i in 0..4 {
            assert_eq!(out[i], mul_byte(3, b0[i]) ^ mul_byte(5, b1[i]));
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let mut dst = vec![0u8; 3];
        add_assign(&mut dst, &[1, 2]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn mul_add_distributes_over_blocks(
                c in any::<u8>(),
                src in proptest::collection::vec(any::<u8>(), 1..128),
            ) {
                // dst ^= c*src twice must cancel (characteristic 2).
                let mut dst = src.clone();
                let orig = dst.clone();
                mul_add_slice(Gf256(c), &src, &mut dst);
                mul_add_slice(Gf256(c), &src, &mut dst);
                prop_assert_eq!(dst, orig);
            }

            #[test]
            fn mul_slice_then_inverse_round_trips(
                c in 1u8..=255,
                src in proptest::collection::vec(any::<u8>(), 1..128),
            ) {
                let mut tmp = vec![0u8; src.len()];
                let mut back = vec![0u8; src.len()];
                mul_slice(Gf256(c), &src, &mut tmp);
                mul_slice(Gf256(c).inv(), &tmp, &mut back);
                prop_assert_eq!(back, src);
            }

            #[test]
            fn linear_combination_linear_in_each_block(
                c0 in any::<u8>(),
                c1 in any::<u8>(),
                len in 1usize..64,
                seed in any::<u64>(),
            ) {
                // lc([c0,c1],[x,y]) == lc([c0],[x]) + lc([c1],[y])
                let mut rng = seed;
                let mut next = || {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (rng >> 33) as u8
                };
                let x: Vec<u8> = (0..len).map(|_| next()).collect();
                let y: Vec<u8> = (0..len).map(|_| next()).collect();
                let mut both = vec![0u8; len];
                linear_combination(&[Gf256(c0), Gf256(c1)], &[&x, &y], &mut both);
                let mut separate = vec![0u8; len];
                let mut tmp = vec![0u8; len];
                linear_combination(&[Gf256(c0)], &[&x], &mut separate);
                linear_combination(&[Gf256(c1)], &[&y], &mut tmp);
                add_assign(&mut separate, &tmp);
                prop_assert_eq!(both, separate);
            }
        }
    }
}

//! GF(2⁸)-linear block checksums — the primitive under the stripe
//! cross-checksum integrity mode.
//!
//! A checksum packs 8 parallel GF(2⁸) accumulator lanes into one `u64`:
//! lane `m` of [`block_check`]`(b)` is `Σ_i w_m(i) · b[i]` over GF(2⁸),
//! where the per-position weights `w_m(i)` are the 8 bytes of
//! `splitmix64(i)` (zero bytes remapped to a fixed non-zero constant, so
//! every byte position influences every lane and any single corrupted
//! byte flips all 8 lanes).
//!
//! Position-dependent weights make the checksum order-sensitive — unlike
//! a plain XOR fold, swapping two block bytes changes it — and
//! GF-linearity in the block bytes makes it commute with the erasure
//! code:
//!
//! * `block_check(x ⊕ y) = block_check(x) ^ block_check(y)` — deltas
//!   compose by XOR;
//! * `block_check(c · x) = combine(c, block_check(x))` — scaling a block
//!   scales its checksum lane-wise.
//!
//! Together these give the cross-checksum identity the stripe integrity
//! mode rests on: a parity block `p_j = Σ_i α_{j,i} · d_i` satisfies
//! `block_check(p_j) = Σ_i combine(α_{j,i}, block_check(d_i))`
//! ([`linear_check`]), so a reader holding only the *data*-block
//! checksum vector can verify any fetched parity block before decoding.

use std::sync::OnceLock;

use crate::tables;
use crate::Gf256;

/// Weight byte used in place of a zero `splitmix64` output byte: a zero
/// weight would make that lane blind to the position.
const ZERO_WEIGHT_SUBSTITUTE: u8 = 0x8D;

/// SplitMix64 mix — the same finalizer the storage layer uses for
/// striping, reused here as a cheap per-position weight generator.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The 8 non-zero lane weights for byte position `i`.
#[inline]
fn weights(i: usize) -> [u8; 8] {
    let mut w = splitmix64(i as u64).to_le_bytes();
    for lane in &mut w {
        if *lane == 0 {
            *lane = ZERO_WEIGHT_SUBSTITUTE;
        }
    }
    w
}

/// [`weights`]`(i)` as one little-endian word: lane `m` is byte `m`.
#[inline]
fn packed_weights(i: usize) -> u64 {
    u64::from_le_bytes(weights(i))
}

/// Positions per cached weight page, and how many pages are cached: the
/// first 64 Ki positions (512 KiB of words, each page built on first
/// use). Later positions compute their weights on the fly, so the cache
/// is bounded whatever lengths are summed.
const PAGE: usize = 4096;
const CACHED_PAGES: usize = 16;

static WEIGHT_PAGES: [OnceLock<Box<[u64]>>; CACHED_PAGES] =
    [const { OnceLock::new() }; CACHED_PAGES];

/// How many bucket tables a block is dealt over, round-robin. A run of
/// equal bytes would otherwise make every `S[b] ^= W` wait for the store
/// before it.
const BUCKET_TABLES: usize = 4;

/// Deals `S_j[b_i] ^= W(i)` over the bucket tables; `weights[i]` is the
/// packed weight of `bytes[i]`'s position.
#[inline]
fn bucket(buckets: &mut [[u64; 256]; BUCKET_TABLES], bytes: &[u8], weights: &[u64]) {
    let [s0, s1, s2, s3] = buckets;
    let mut words = bytes.chunks_exact(8);
    let mut groups = weights.chunks_exact(8);
    // One load per 8 block bytes: the loop is bound by its loads (byte,
    // weight, bucket), so the bytes come out of a register.
    for (word, w) in (&mut words).zip(&mut groups) {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
        s0[(word & 0xFF) as usize] ^= w[0];
        s1[(word >> 8 & 0xFF) as usize] ^= w[1];
        s2[(word >> 16 & 0xFF) as usize] ^= w[2];
        s3[(word >> 24 & 0xFF) as usize] ^= w[3];
        s0[(word >> 32 & 0xFF) as usize] ^= w[4];
        s1[(word >> 40 & 0xFF) as usize] ^= w[5];
        s2[(word >> 48 & 0xFF) as usize] ^= w[6];
        s3[(word >> 56) as usize] ^= w[7];
    }
    for (&b, &w) in words.remainder().iter().zip(groups.remainder()) {
        s0[b as usize] ^= w;
    }
}

/// The 8-lane GF(2⁸) checksum of a block.
///
/// Linear in the block bytes (see the [module docs](self)); the checksum
/// of an all-zero block is 0.
///
/// Computed as a bucket sum: `S[v]` collects (by XOR, all 8 lanes at
/// once) the weights of the positions holding byte value `v`, so lane
/// `m` is `Σ_v v · S[v]_m` — one table update per block byte, and the
/// 255 field multiplications per lane collapse, by the bits of `v`, to
/// eight: `Σ_t α^t · ⊕{S[v] : bit t of v set}`.
pub fn block_check(bytes: &[u8]) -> u64 {
    let mut buckets = [[0u64; 256]; BUCKET_TABLES];
    for (page, chunk) in bytes.chunks(PAGE).enumerate() {
        let base = page * PAGE;
        match WEIGHT_PAGES.get(page) {
            Some(cached) => {
                let weights =
                    cached.get_or_init(|| (base..base + PAGE).map(packed_weights).collect());
                bucket(&mut buckets, chunk, &weights[..chunk.len()]);
            }
            None => {
                let mut weights = [0u64; 256];
                for (run, part) in chunk.chunks(weights.len()).enumerate() {
                    let at = base + run * weights.len();
                    for (i, w) in weights.iter_mut().enumerate() {
                        *w = packed_weights(at + i);
                    }
                    bucket(&mut buckets, part, &weights[..part.len()]);
                }
            }
        }
    }
    let [mut sums, rest @ ..] = buckets;
    for table in &rest {
        for (s, &t) in sums.iter_mut().zip(table) {
            *s ^= t;
        }
    }
    // Bit t of v splits the live prefix of `sums` in two: the upper
    // half's XOR is that bit's reduction, and folding it onto the lower
    // half leaves the same problem for the bits below.
    let mut check = 0u64;
    for bit in (0..8).rev() {
        let half = 1usize << bit;
        let (lower, upper) = sums[..2 * half].split_at_mut(half);
        let mut reduced = 0u64;
        for (l, &u) in lower.iter_mut().zip(upper.iter()) {
            reduced ^= u;
            *l ^= u;
        }
        check ^= combine(Gf256(1 << bit), reduced);
    }
    check
}

/// Scales a checksum by a field coefficient, lane-wise:
/// `combine(c, block_check(x)) == block_check(c · x)`.
pub fn combine(coeff: Gf256, check: u64) -> u64 {
    let row = &tables::MUL[coeff.value() as usize];
    let mut lanes = check.to_le_bytes();
    for lane in &mut lanes {
        *lane = row[*lane as usize];
    }
    u64::from_le_bytes(lanes)
}

/// The checksum of the linear combination `Σ_i coeffs[i] · blocks[i]`,
/// computed from the blocks' checksums alone:
/// `linear_check(c, checks) == block_check(Σ c_i · x_i)`.
///
/// # Panics
/// Panics if the slices disagree in length.
pub fn linear_check(coeffs: &[Gf256], checks: &[u64]) -> u64 {
    assert_eq!(
        coeffs.len(),
        checks.len(),
        "linear_check: {} coefficients vs {} checksums",
        coeffs.len(),
        checks.len()
    );
    coeffs
        .iter()
        .zip(checks)
        .fold(0u64, |acc, (&c, &ch)| acc ^ combine(c, ch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice_ops;

    fn sample(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| seed.wrapping_add((i as u8).wrapping_mul(37)))
            .collect()
    }

    #[test]
    fn zero_block_checks_to_zero() {
        assert_eq!(block_check(&[]), 0);
        assert_eq!(block_check(&[0u8; 64]), 0);
    }

    #[test]
    fn weights_are_never_zero() {
        for i in 0..4096 {
            assert!(weights(i).iter().all(|&w| w != 0), "position {i}");
        }
    }

    #[test]
    fn any_single_byte_corruption_flips_every_lane() {
        let block = sample(257, 11);
        let clean = block_check(&block);
        for pos in [0usize, 1, 7, 63, 128, 256] {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = block.clone();
                bad[pos] ^= flip;
                let got = block_check(&bad);
                // Non-zero weights: a changed byte perturbs all 8 lanes.
                for lane in 0..8 {
                    assert_ne!(
                        got.to_le_bytes()[lane],
                        clean.to_le_bytes()[lane],
                        "pos {pos} flip {flip:#x} lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let a = block_check(&[1, 2, 3, 4]);
        let b = block_check(&[2, 1, 3, 4]);
        assert_ne!(a, b, "swapping bytes must change the checksum");
    }

    #[test]
    fn xor_linearity() {
        let x = sample(96, 3);
        let y = sample(96, 200);
        let xy: Vec<u8> = x.iter().zip(&y).map(|(&a, &b)| a ^ b).collect();
        assert_eq!(block_check(&xy), block_check(&x) ^ block_check(&y));
    }

    #[test]
    fn scaling_linearity() {
        let x = sample(80, 77);
        for c in [0u8, 1, 2, 0x53, 0xFF] {
            let c = Gf256(c);
            let mut scaled = vec![0u8; x.len()];
            slice_ops::mul_slice(c, &x, &mut scaled);
            assert_eq!(block_check(&scaled), combine(c, block_check(&x)), "c={c}");
        }
    }

    #[test]
    fn linear_check_matches_materialised_combination() {
        let blocks: Vec<Vec<u8>> = (0..5u8).map(|s| sample(64, s.wrapping_mul(91))).collect();
        let coeffs: Vec<Gf256> = [3u8, 0x1D, 1, 0xAA, 0x02]
            .iter()
            .map(|&c| Gf256(c))
            .collect();
        let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
        let mut out = vec![0u8; 64];
        slice_ops::linear_combination(&coeffs, &refs, &mut out);
        let checks: Vec<u64> = blocks.iter().map(|b| block_check(b)).collect();
        assert_eq!(block_check(&out), linear_check(&coeffs, &checks));
    }

    #[test]
    #[should_panic(expected = "linear_check")]
    fn linear_check_rejects_ragged_input() {
        let _ = linear_check(&[Gf256::ONE], &[1, 2]);
    }

    /// The definition, one field multiplication per byte and lane: what
    /// `block_check` computed before it became a bucket sum, kept as the
    /// reference every sum it produces must still equal bit for bit
    /// (sums are persisted in parity records and sent on the wire).
    fn block_check_reference(bytes: &[u8]) -> u64 {
        let mut lanes = [0u8; 8];
        for (i, &b) in bytes.iter().enumerate() {
            let row = &tables::MUL[b as usize];
            for (lane, &wm) in lanes.iter_mut().zip(&weights(i)) {
                *lane ^= row[wm as usize];
            }
        }
        u64::from_le_bytes(lanes)
    }

    #[test]
    fn matches_the_reference_at_every_short_length_and_alignment() {
        let block = sample(257 + 8, 29);
        for offset in 0..if cfg!(miri) { 2 } else { 8 } {
            for len in 0..=257 {
                let sub = &block[offset..offset + len];
                assert_eq!(
                    block_check(sub),
                    block_check_reference(sub),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    #[test]
    fn matches_the_reference_on_degenerate_blocks() {
        let len = if cfg!(miri) { 300 } else { 4096 + 3 };
        assert_eq!(block_check(&vec![0u8; len]), 0);
        // A run of one value lands every update on one bucket per table.
        let ones = vec![0xFFu8; len];
        assert_eq!(block_check(&ones), block_check_reference(&ones));
        for pos in [0, 1, len / 2, len - 1] {
            for value in [0x01u8, 0x80, 0xFF] {
                let mut lone = vec![0u8; len];
                lone[pos] = value;
                assert_eq!(
                    block_check(&lone),
                    block_check_reference(&lone),
                    "pos {pos} value {value:#x}"
                );
            }
        }
    }

    #[test]
    fn matches_the_reference_across_pages_and_past_the_cached_weights() {
        let cached = PAGE * CACHED_PAGES;
        let lens: &[usize] = if cfg!(miri) {
            &[PAGE - 1, PAGE + 1]
        } else {
            &[
                PAGE - 1,
                PAGE,
                PAGE + 1,
                cached - 1,
                cached,
                cached + 1,
                cached + 255,
                cached + 256,
                cached + PAGE + 257,
            ]
        };
        for &len in lens {
            let block = sample(len, 151);
            assert_eq!(
                block_check(&block),
                block_check_reference(&block),
                "len {len}"
            );
        }
    }

    #[test]
    fn sums_equal_the_values_recorded_before_the_bucket_sum() {
        // Computed by the per-byte loop at the commit before this kernel.
        assert_eq!(block_check(b"123456789"), 0x2c63_b4de_361c_ab7d);
        assert_eq!(block_check(&[0xFFu8; 257]), 0xd346_7a1b_ea3d_cd66);
        if !cfg!(miri) {
            assert_eq!(block_check(&sample(4096, 7)), 0x787a_36d3_9ec3_2ee4);
            assert_eq!(block_check(&sample(65536, 3)), 0x4529_95aa_145b_62a3);
            assert_eq!(block_check(&sample(70000, 91)), 0xd990_8324_6457_a2ef);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn bucket_sum_equals_reference(
                block in proptest::collection::vec(any::<u8>(), 0..600),
                skip in 0usize..8,
            ) {
                let sub = &block[skip.min(block.len())..];
                prop_assert_eq!(block_check(sub), block_check_reference(sub));
            }
        }
    }
}

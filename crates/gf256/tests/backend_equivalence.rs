//! Differential backend equivalence: every kernel tier this machine can
//! run must produce byte-identical output to the scalar reference, for
//! every kernel, across all block lengths 0..=257 (covering empty
//! blocks, sub-register tails, and multi-strip bodies for the 16/32/64
//! byte inner loops) and across misaligned sub-slices (SIMD loads are
//! unaligned by construction; these tests pin that down).
//!
//! The CI `kernel-matrix` job additionally re-runs this whole suite —
//! and the erasure-codec suite above it — under each `TQ_GF256_FORCE`
//! value, so the *dispatched* entry points in `slice_ops` get the same
//! coverage tier by tier.

use proptest::prelude::*;
use tq_gf256::simd::Backend;
use tq_gf256::slice_ops;
use tq_gf256::Gf256;

/// Deterministic, position-dependent filler that hits all byte values.
fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

/// The constants worth pinning: the special-cased 0 and 1, the generator
/// 2, a high-bit value, and a spread of "ordinary" field elements.
const COEFFS: [u8; 8] = [0, 1, 2, 3, 0x1D, 0x53, 0x8E, 0xFF];

/// Runs `check` for every backend available on this machine, with the
/// backend name in panic messages.
fn for_each_backend(check: impl Fn(Backend)) {
    let available = Backend::available();
    assert!(available.contains(&Backend::Scalar), "scalar always runs");
    for backend in available {
        check(backend);
    }
}

#[test]
fn mul_add_slice_matches_scalar_for_all_lengths() {
    for_each_backend(|backend| {
        for len in 0..=257usize {
            let src = pattern(len, 1);
            for c in COEFFS {
                let mut expect = pattern(len, 2);
                let mut got = expect.clone();
                Backend::Scalar.mul_add_slice(Gf256(c), &src, &mut expect);
                backend.mul_add_slice(Gf256(c), &src, &mut got);
                assert_eq!(got, expect, "{backend:?} len={len} c={c:#04x}");
            }
        }
    });
}

#[test]
fn mul_slice_matches_scalar_for_all_lengths() {
    for_each_backend(|backend| {
        for len in 0..=257usize {
            let src = pattern(len, 3);
            for c in COEFFS {
                let mut expect = vec![0xA5u8; len];
                let mut got = vec![0x5Au8; len];
                Backend::Scalar.mul_slice(Gf256(c), &src, &mut expect);
                backend.mul_slice(Gf256(c), &src, &mut got);
                assert_eq!(got, expect, "{backend:?} len={len} c={c:#04x}");
            }
        }
    });
}

#[test]
fn add_assign_matches_scalar_for_all_lengths() {
    for_each_backend(|backend| {
        for len in 0..=257usize {
            let src = pattern(len, 5);
            let mut expect = pattern(len, 6);
            let mut got = expect.clone();
            Backend::Scalar.add_assign(&mut expect, &src);
            backend.add_assign(&mut got, &src);
            assert_eq!(got, expect, "{backend:?} len={len}");
        }
    });
}

#[test]
fn misaligned_sub_slices_match_scalar() {
    // SIMD kernels must not assume any alignment: run every kernel on
    // sub-slices starting at offsets 1..=7 of an aligned allocation, for
    // lengths that leave every possible tail.
    for_each_backend(|backend| {
        let backing_src = pattern(300, 7);
        for offset in 1..=7usize {
            for len in [0usize, 1, 15, 16, 17, 31, 32, 63, 64, 65, 255] {
                let src = &backing_src[offset..offset + len];
                for c in [2u8, 0x53, 0xFF] {
                    let mut expect_backing = pattern(300, 8);
                    let mut got_backing = expect_backing.clone();
                    Backend::Scalar.mul_add_slice(
                        Gf256(c),
                        src,
                        &mut expect_backing[offset..offset + len],
                    );
                    backend.mul_add_slice(Gf256(c), src, &mut got_backing[offset..offset + len]);
                    // The write must also stay inside the sub-slice.
                    assert_eq!(
                        got_backing, expect_backing,
                        "{backend:?} offset={offset} len={len} c={c:#04x}"
                    );
                }
            }
        }
    });
}

#[test]
fn mul_add_multi_matches_scalar_for_all_lengths_and_widths() {
    for_each_backend(|backend| {
        for len in 0..=257usize {
            // Width 0 (empty combination) through 5 blocks.
            for width in [0usize, 1, 3, 5] {
                let blocks: Vec<Vec<u8>> =
                    (0..width).map(|j| pattern(len, 10 + j as u64)).collect();
                let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
                let coeffs: Vec<Gf256> = (0..width)
                    .map(|j| Gf256(COEFFS[j % COEFFS.len()]))
                    .collect();
                let mut expect = pattern(len, 20);
                let mut got = expect.clone();
                Backend::Scalar.mul_add_multi(&coeffs, &refs, &mut expect);
                backend.mul_add_multi(&coeffs, &refs, &mut got);
                assert_eq!(got, expect, "{backend:?} len={len} width={width}");
            }
        }
    });
}

#[test]
fn dispatched_slice_ops_match_the_scalar_backend() {
    // Whatever `active()` resolved to in this process (including a
    // TQ_GF256_FORCE override from the CI kernel matrix), the public
    // slice_ops entry points must agree with the scalar reference.
    let src = pattern(257, 30);
    for c in COEFFS {
        let mut expect = pattern(257, 31);
        let mut got = expect.clone();
        Backend::Scalar.mul_add_slice(Gf256(c), &src, &mut expect);
        slice_ops::mul_add_slice(Gf256(c), &src, &mut got);
        assert_eq!(got, expect, "dispatched mul_add_slice c={c:#04x}");

        let mut expect = vec![0u8; 257];
        let mut got = vec![0u8; 257];
        Backend::Scalar.mul_slice(Gf256(c), &src, &mut expect);
        slice_ops::mul_slice(Gf256(c), &src, &mut got);
        assert_eq!(got, expect, "dispatched mul_slice c={c:#04x}");
    }
    let blocks: Vec<Vec<u8>> = (0..4).map(|j| pattern(257, 40 + j)).collect();
    let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
    let coeffs = [Gf256(3), Gf256(0x53), Gf256(1), Gf256(0)];
    let mut expect = vec![0u8; 257];
    let mut got = vec![0u8; 257];
    for (&c, &b) in coeffs.iter().zip(&refs) {
        Backend::Scalar.mul_add_slice(c, b, &mut expect);
    }
    slice_ops::linear_combination(&coeffs, &refs, &mut got);
    assert_eq!(got, expect, "dispatched linear_combination");
}

// ---------------------------------------------------------------------
// Detection-tier expectations, cfg-gated per architecture.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[test]
fn detection_picks_the_expected_x86_tier() {
    let best = Backend::detect();
    if std::arch::is_x86_feature_detected!("avx2") {
        assert_eq!(best, Backend::Avx2, "AVX2 machines must pick avx2");
    } else if std::arch::is_x86_feature_detected!("ssse3") {
        assert_eq!(best, Backend::Ssse3, "SSSE3-only machines must pick ssse3");
    } else {
        assert_eq!(best, Backend::Scalar, "pre-SSSE3 machines run scalar");
    }
}

#[cfg(target_arch = "aarch64")]
#[test]
fn detection_picks_neon_on_aarch64() {
    assert_eq!(Backend::detect(), Backend::Neon);
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
#[test]
fn detection_falls_back_to_scalar_on_other_arches() {
    assert_eq!(Backend::detect(), Backend::Scalar);
}

#[test]
fn active_backend_honours_a_force_override() {
    // `active()` is cached process-wide; when the kernel-matrix job sets
    // TQ_GF256_FORCE this asserts the override took effect, and without
    // the variable it asserts detection picked the best available tier.
    match std::env::var("TQ_GF256_FORCE").ok().as_deref() {
        Some("simd") | None => assert_eq!(tq_gf256::simd::active(), Backend::detect()),
        Some(other) => {
            let tier = Backend::ALL
                .into_iter()
                .find(|b| b.name() == other)
                .unwrap_or_else(|| panic!("unknown TQ_GF256_FORCE={other:?} in test env"));
            assert_eq!(tq_gf256::simd::active(), tier);
        }
    }
}

// ---------------------------------------------------------------------
// Property-based equivalence over random lengths, offsets and contents.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn prop_mul_add_slice_equivalent_across_backends(
        c in any::<u8>(),
        seed in any::<u64>(),
        len in 0usize..300,
        offset in 0usize..8,
    ) {
        let src_backing = pattern(len + offset, seed);
        let src = &src_backing[offset..];
        let dst_seed = seed.wrapping_add(1);
        for backend in Backend::available() {
            let mut expect = pattern(len, dst_seed);
            let mut got = expect.clone();
            Backend::Scalar.mul_add_slice(Gf256(c), src, &mut expect);
            backend.mul_add_slice(Gf256(c), src, &mut got);
            prop_assert_eq!(&got, &expect, "{:?}", backend);
        }
    }

    #[test]
    fn prop_mul_add_multi_equivalent_across_backends(
        seed in any::<u64>(),
        len in 0usize..300,
        width in 0usize..8,
        coeff_seed in any::<u64>(),
    ) {
        let blocks: Vec<Vec<u8>> = (0..width)
            .map(|j| pattern(len, seed.wrapping_add(j as u64)))
            .collect();
        let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
        let coeffs: Vec<Gf256> = (0..width)
            .map(|j| Gf256((coeff_seed.rotate_left(8 * j as u32) & 0xFF) as u8))
            .collect();
        for backend in Backend::available() {
            let mut expect = pattern(len, seed.wrapping_add(99));
            let mut got = expect.clone();
            Backend::Scalar.mul_add_multi(&coeffs, &refs, &mut expect);
            backend.mul_add_multi(&coeffs, &refs, &mut got);
            prop_assert_eq!(&got, &expect, "{:?}", backend);
        }
    }
}

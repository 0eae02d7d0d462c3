//! Dispatching GF(2⁸) kernel backends: split-nibble SIMD tiers over the
//! scalar table-walk floor.
//!
//! Every bulk kernel in [`crate::slice_ops`] routes through one of the
//! [`Backend`]s here, chosen once per process by runtime feature
//! detection (overridable with the `TQ_GF256_FORCE` environment
//! variable):
//!
//! | backend  | arch        | inner loop                                   |
//! |----------|-------------|----------------------------------------------|
//! | `avx2`   | x86_64      | 2×32 B per iter, `vpshufb` split-nibble      |
//! | `ssse3`  | x86_64      | 16 B per iter, `pshufb` split-nibble         |
//! | `neon`   | aarch64     | 16 B per iter, `vqtbl1q_u8` split-nibble     |
//! | `scalar` | portable    | 1 B per iter, L1-resident `MUL[c]` row walk  |
//!
//! `scalar` is both the differential reference and the floor a CPU
//! without a SIMD tier runs. A portable u64 word-ladder tier measured
//! slower than the row walk at 4 and 64 KiB, so there is none.
//!
//! The SIMD paths evaluate `c·b = LO[c][b & 0xF] ⊕ HI[c][b >> 4]`
//! (see [`crate::tables::MUL_LO`]) with one 16-lane table shuffle per
//! nibble, the classic split-nibble construction of Plank et al.'s
//! *Screaming Fast Galois Field Arithmetic*. On top of the per-slice
//! kernels, [`Backend::mul_add_multi`] fuses a whole linear combination
//! — all generator coefficients feeding one parity block — into a single
//! pass that keeps the accumulator strip in registers, so encode,
//! decode and reconstruct write each output byte exactly once.
//!
//! # Forcing a backend
//!
//! `TQ_GF256_FORCE` accepts `scalar` and `simd` (the best SIMD tier the
//! machine supports, falling back to `scalar` where there is none),
//! plus the explicit tier names `ssse3`, `avx2` and `neon` for
//! targeted differential testing. Forcing a tier the CPU lacks panics —
//! silently falling back would defeat the point of forcing. The
//! variable is read once; the choice is cached for the process.
//!
//! # Safety
//!
//! This is the only module in the crate that uses `unsafe` (the crate
//! root denies it elsewhere): the `#[target_feature]` kernels and their
//! raw-pointer strip loops. Soundness rests on one invariant, enforced
//! by the private `Backend::assert_runnable` at every public entry point: a SIMD
//! backend is only ever *executed* on a CPU whose feature bit was
//! observed at runtime. All pointer arithmetic stays inside
//! `chunks_exact`-derived bounds.

#![allow(unsafe_code)]

use crate::field::Gf256;
use crate::tables::{MUL, MUL_HI, MUL_LO};
use std::sync::OnceLock;

/// How far the cache-blocked fallback of [`Backend::mul_add_multi`]
/// walks before revisiting the accumulator: half a typical L1d, so the
/// destination strip stays resident across all coefficients.
const MULTI_BLOCK: usize = 16 * 1024;

/// How many coefficients the fused SIMD kernels stage on the stack
/// before falling back to a heap table buffer. Covers every code shape
/// in the paper (k ≤ 10) with room to spare, keeping `mul_add_multi`
/// allocation-free on the encode/scrub hot path.
const MAX_FUSED_STACK: usize = 16;

/// One GF(2⁸) kernel implementation tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// One byte at a time through the 256-byte `MUL[c]` row — the
    /// reference every other backend is differentially tested against.
    Scalar,
    /// x86_64 SSSE3 `pshufb` split-nibble, 16 bytes per step.
    Ssse3,
    /// x86_64 AVX2 `vpshufb` split-nibble, 64 bytes per step.
    Avx2,
    /// aarch64 NEON `vqtbl1q_u8` split-nibble, 16 bytes per step.
    Neon,
}

impl Backend {
    /// Every backend this build knows about, the scalar floor first.
    pub const ALL: [Backend; 4] = [
        Backend::Scalar,
        Backend::Ssse3,
        Backend::Avx2,
        Backend::Neon,
    ];

    /// The backend's `TQ_GF256_FORCE` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Ssse3 => "ssse3",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }

    /// `true` iff this backend can run on the current CPU.
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Ssse3 => std::arch::is_x86_feature_detected!("ssse3"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// The backends runnable on this machine, the scalar floor first.
    pub fn available() -> Vec<Backend> {
        Backend::ALL
            .into_iter()
            .filter(|b| b.is_available())
            .collect()
    }

    /// The fastest tier the current CPU supports, ignoring any override.
    pub fn detect() -> Backend {
        for candidate in [Backend::Avx2, Backend::Neon, Backend::Ssse3] {
            if candidate.is_available() {
                return candidate;
            }
        }
        Backend::Scalar
    }

    /// Guards the unsafe kernels: executing a `#[target_feature]` body
    /// on a CPU without the feature is undefined behaviour, and
    /// `Backend` values are plain data anyone can construct.
    #[inline]
    fn assert_runnable(self) {
        assert!(
            self.is_available(),
            "GF(256) backend `{}` is not supported by this CPU",
            self.name()
        );
    }
}

/// Parses a `TQ_GF256_FORCE` value. `None` input means "no override".
///
/// # Panics
/// Panics on an unknown spelling or a tier the CPU cannot run — a
/// forced backend that silently degraded would invalidate whatever
/// experiment forced it.
fn select(force: Option<&str>) -> Backend {
    let Some(force) = force else {
        return Backend::detect();
    };
    let chosen = match force {
        "scalar" => Backend::Scalar,
        // "simd" asks for the best tier; machines with no SIMD tier run
        // the scalar floor so the CI matrix passes anywhere.
        "simd" => Backend::detect(),
        "ssse3" => Backend::Ssse3,
        "avx2" => Backend::Avx2,
        "neon" => Backend::Neon,
        other => panic!(
            "TQ_GF256_FORCE={other:?} is not a GF(256) backend \
             (expected scalar|simd|ssse3|avx2|neon)"
        ),
    };
    chosen.assert_runnable();
    chosen
}

/// The process-wide active backend: `TQ_GF256_FORCE` if set, otherwise
/// the best tier runtime detection finds. Resolved once and cached.
pub fn active() -> Backend {
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(|| select(std::env::var("TQ_GF256_FORCE").ok().as_deref()))
}

// ---------------------------------------------------------------------
// Public kernels: dispatch + shared special cases.
// ---------------------------------------------------------------------

impl Backend {
    /// `dst[i] ^= src[i]` — field addition of two equal-length blocks.
    ///
    /// # Panics
    /// Panics on length mismatch (hard assert: the kernels would
    /// otherwise silently truncate in release builds).
    pub fn add_assign(self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "add_assign: block length mismatch");
        self.assert_runnable();
        match self {
            // XOR needs no tables: the scalar floor XORs a u64 word at a
            // time and the SIMD tiers use their native width.
            Backend::Scalar => xor_words(dst, src),
            #[cfg(target_arch = "x86_64")]
            Backend::Ssse3 => unsafe { xor_ssse3(dst, src) },
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => unsafe { xor_avx2(dst, src) },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => unsafe { xor_neon(dst, src) },
            #[allow(unreachable_patterns)]
            _ => unreachable!("assert_runnable rejected {self:?}"),
        }
    }

    /// `dst[i] = c · src[i]` — out-of-place constant multiply.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn mul_slice(self, c: Gf256, src: &[u8], dst: &mut [u8]) {
        assert_eq!(dst.len(), src.len(), "mul_slice: block length mismatch");
        match c.value() {
            0 => dst.fill(0),
            1 => dst.copy_from_slice(src),
            cv => {
                self.assert_runnable();
                match self {
                    Backend::Scalar => mul_slice_scalar(cv, src, dst),
                    #[cfg(target_arch = "x86_64")]
                    Backend::Ssse3 => unsafe { mul_slice_ssse3(cv, src, dst) },
                    #[cfg(target_arch = "x86_64")]
                    Backend::Avx2 => unsafe { mul_slice_avx2(cv, src, dst) },
                    #[cfg(target_arch = "aarch64")]
                    Backend::Neon => unsafe { mul_slice_neon(cv, src, dst) },
                    #[allow(unreachable_patterns)]
                    _ => unreachable!("assert_runnable rejected {self:?}"),
                }
            }
        }
    }

    /// `dst[i] ^= c · src[i]` — the fused multiply-add under encode and
    /// the delta update; the single hottest kernel in the system.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn mul_add_slice(self, c: Gf256, src: &[u8], dst: &mut [u8]) {
        assert_eq!(dst.len(), src.len(), "mul_add_slice: block length mismatch");
        match c.value() {
            0 => {}
            1 => self.add_assign(dst, src),
            cv => {
                self.assert_runnable();
                match self {
                    Backend::Scalar => mul_add_slice_scalar(cv, src, dst),
                    #[cfg(target_arch = "x86_64")]
                    Backend::Ssse3 => unsafe { mul_add_slice_ssse3(cv, src, dst) },
                    #[cfg(target_arch = "x86_64")]
                    Backend::Avx2 => unsafe { mul_add_slice_avx2(cv, src, dst) },
                    #[cfg(target_arch = "aarch64")]
                    Backend::Neon => unsafe { mul_add_slice_neon(cv, src, dst) },
                    #[allow(unreachable_patterns)]
                    _ => unreachable!("assert_runnable rejected {self:?}"),
                }
            }
        }
    }

    /// Fused multi-block multiply-add:
    /// `dst[i] ^= Σ_j coeffs[j] · blocks[j][i]`.
    ///
    /// One parity block's entire linear combination in a single pass:
    /// the SIMD tiers hold the accumulator strip in registers across
    /// all coefficients (each output byte is written exactly once), the
    /// scalar floor cache-blocks so the destination stays in L1 while
    /// every source block streams over it.
    ///
    /// # Panics
    /// Panics on any shape mismatch. These are real asserts, not debug
    /// ones: the SIMD kernels walk `blocks` by raw offsets derived from
    /// `dst.len()`, so an undersized block must fail loudly rather than
    /// read out of bounds.
    pub fn mul_add_multi(self, coeffs: &[Gf256], blocks: &[&[u8]], dst: &mut [u8]) {
        assert_eq!(
            coeffs.len(),
            blocks.len(),
            "mul_add_multi: {} coefficients for {} blocks",
            coeffs.len(),
            blocks.len()
        );
        assert!(
            blocks.iter().all(|b| b.len() == dst.len()),
            "mul_add_multi: block length mismatch"
        );
        self.assert_runnable();
        match self {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => unsafe { mul_add_multi_avx2(coeffs, blocks, dst) },
            #[cfg(target_arch = "x86_64")]
            Backend::Ssse3 => unsafe { mul_add_multi_ssse3(coeffs, blocks, dst) },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => unsafe { mul_add_multi_neon(coeffs, blocks, dst) },
            _ => {
                // Cache-blocked fallback: revisit dst in L1-sized strips.
                let len = dst.len();
                let mut start = 0;
                while start < len {
                    let end = (start + MULTI_BLOCK).min(len);
                    for (&c, block) in coeffs.iter().zip(blocks) {
                        self.mul_add_slice(c, &block[start..end], &mut dst[start..end]);
                    }
                    start = end;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Scalar reference kernels (also the tail path of every SIMD kernel).
// ---------------------------------------------------------------------

#[inline]
fn mul_slice_scalar(c: u8, src: &[u8], dst: &mut [u8]) {
    let row = &MUL[c as usize];
    for (d, s) in dst.iter_mut().zip(src) {
        *d = row[*s as usize];
    }
}

#[inline]
fn mul_add_slice_scalar(c: u8, src: &[u8], dst: &mut [u8]) {
    let row = &MUL[c as usize];
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= row[*s as usize];
    }
}

/// `dst ^= src` a u64 word at a time: `Scalar`'s `add_assign` and the
/// tail of every SIMD XOR kernel.
#[inline]
fn xor_words(dst: &mut [u8], src: &[u8]) {
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let w = u64::from_le_bytes(dc.try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(sc.try_into().expect("8-byte chunk"));
        dc.copy_from_slice(&w.to_le_bytes());
    }
    for (dc, sc) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dc ^= *sc;
    }
}

// ---------------------------------------------------------------------
// x86_64 kernels: SSSE3 (16 B) and AVX2 (64 B) split-nibble shuffles.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use std::arch::x86_64::*;

    /// Loads the two 16-entry nibble tables for constant `c`.
    ///
    /// # Safety
    /// Caller must have verified SSSE3 (the tables are plain loads, but
    /// callers immediately shuffle with them).
    #[inline]
    #[target_feature(enable = "ssse3")]
    unsafe fn tables_128(c: u8) -> (__m128i, __m128i) {
        (
            _mm_loadu_si128(MUL_LO[c as usize].as_ptr() as *const __m128i),
            _mm_loadu_si128(MUL_HI[c as usize].as_ptr() as *const __m128i),
        )
    }

    /// `c · v` for 16 packed bytes via two nibble shuffles.
    #[inline]
    #[target_feature(enable = "ssse3")]
    unsafe fn mul_128(lo: __m128i, hi: __m128i, v: __m128i) -> __m128i {
        let mask = _mm_set1_epi8(0x0F);
        let lo_prod = _mm_shuffle_epi8(lo, _mm_and_si128(v, mask));
        let hi_prod = _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64::<4>(v), mask));
        _mm_xor_si128(lo_prod, hi_prod)
    }

    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn xor_ssse3(dst: &mut [u8], src: &[u8]) {
        let mut d = dst.chunks_exact_mut(16);
        let mut s = src.chunks_exact(16);
        for (dc, sc) in (&mut d).zip(&mut s) {
            let v = _mm_xor_si128(
                _mm_loadu_si128(dc.as_ptr() as *const __m128i),
                _mm_loadu_si128(sc.as_ptr() as *const __m128i),
            );
            _mm_storeu_si128(dc.as_mut_ptr() as *mut __m128i, v);
        }
        xor_words(d.into_remainder(), s.remainder());
    }

    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_slice_ssse3(c: u8, src: &[u8], dst: &mut [u8]) {
        let (lo, hi) = tables_128(c);
        let mut d = dst.chunks_exact_mut(16);
        let mut s = src.chunks_exact(16);
        for (dc, sc) in (&mut d).zip(&mut s) {
            let v = mul_128(lo, hi, _mm_loadu_si128(sc.as_ptr() as *const __m128i));
            _mm_storeu_si128(dc.as_mut_ptr() as *mut __m128i, v);
        }
        mul_slice_scalar(c, s.remainder(), d.into_remainder());
    }

    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_add_slice_ssse3(c: u8, src: &[u8], dst: &mut [u8]) {
        let (lo, hi) = tables_128(c);
        let mut d = dst.chunks_exact_mut(16);
        let mut s = src.chunks_exact(16);
        for (dc, sc) in (&mut d).zip(&mut s) {
            let prod = mul_128(lo, hi, _mm_loadu_si128(sc.as_ptr() as *const __m128i));
            let acc = _mm_xor_si128(_mm_loadu_si128(dc.as_ptr() as *const __m128i), prod);
            _mm_storeu_si128(dc.as_mut_ptr() as *mut __m128i, acc);
        }
        mul_add_slice_scalar(c, s.remainder(), d.into_remainder());
    }

    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_add_multi_ssse3(coeffs: &[Gf256], blocks: &[&[u8]], dst: &mut [u8]) {
        // Table pairs staged once per call — on the stack for every
        // realistic stripe width, so the encode/scrub hot path does not
        // allocate per parity block. 32-byte strips then keep two
        // independent accumulators in registers across every coefficient.
        let zero = _mm_setzero_si128();
        let mut stack = [(zero, zero); MAX_FUSED_STACK];
        let heap: Vec<(__m128i, __m128i)>;
        let tables: &[(__m128i, __m128i)] = if coeffs.len() <= MAX_FUSED_STACK {
            for (slot, c) in stack.iter_mut().zip(coeffs) {
                *slot = tables_128(c.value());
            }
            &stack[..coeffs.len()]
        } else {
            heap = coeffs.iter().map(|c| tables_128(c.value())).collect();
            &heap
        };
        let len = dst.len();
        let strips = len / 32;
        for strip in 0..strips {
            let off = strip * 32;
            let mut acc0 = _mm_loadu_si128(dst.as_ptr().add(off) as *const __m128i);
            let mut acc1 = _mm_loadu_si128(dst.as_ptr().add(off + 16) as *const __m128i);
            for (block, &(lo, hi)) in blocks.iter().zip(tables) {
                let v0 = _mm_loadu_si128(block.as_ptr().add(off) as *const __m128i);
                let v1 = _mm_loadu_si128(block.as_ptr().add(off + 16) as *const __m128i);
                acc0 = _mm_xor_si128(acc0, mul_128(lo, hi, v0));
                acc1 = _mm_xor_si128(acc1, mul_128(lo, hi, v1));
            }
            _mm_storeu_si128(dst.as_mut_ptr().add(off) as *mut __m128i, acc0);
            _mm_storeu_si128(dst.as_mut_ptr().add(off + 16) as *mut __m128i, acc1);
        }
        let mut tail = strips * 32;
        if len - tail >= 16 {
            let off = tail;
            let mut acc = _mm_loadu_si128(dst.as_ptr().add(off) as *const __m128i);
            for (block, &(lo, hi)) in blocks.iter().zip(tables) {
                let v = _mm_loadu_si128(block.as_ptr().add(off) as *const __m128i);
                acc = _mm_xor_si128(acc, mul_128(lo, hi, v));
            }
            _mm_storeu_si128(dst.as_mut_ptr().add(off) as *mut __m128i, acc);
            tail += 16;
        }
        for (&c, block) in coeffs.iter().zip(blocks) {
            mul_add_slice_scalar(c.value(), &block[tail..], &mut dst[tail..]);
        }
    }

    /// Loads the nibble tables for `c` broadcast to both 128-bit lanes.
    ///
    /// # Safety
    /// Caller must have verified AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tables_256(c: u8) -> (__m256i, __m256i) {
        let lo = _mm_loadu_si128(MUL_LO[c as usize].as_ptr() as *const __m128i);
        let hi = _mm_loadu_si128(MUL_HI[c as usize].as_ptr() as *const __m128i);
        (
            _mm256_broadcastsi128_si256(lo),
            _mm256_broadcastsi128_si256(hi),
        )
    }

    /// `c · v` for 32 packed bytes (`vpshufb` shuffles within each lane,
    /// which is exactly what the broadcast tables want).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul_256(lo: __m256i, hi: __m256i, v: __m256i) -> __m256i {
        let mask = _mm256_set1_epi8(0x0F);
        let lo_prod = _mm256_shuffle_epi8(lo, _mm256_and_si256(v, mask));
        let hi_prod = _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64::<4>(v), mask));
        _mm256_xor_si256(lo_prod, hi_prod)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn xor_avx2(dst: &mut [u8], src: &[u8]) {
        let mut d = dst.chunks_exact_mut(32);
        let mut s = src.chunks_exact(32);
        for (dc, sc) in (&mut d).zip(&mut s) {
            let v = _mm256_xor_si256(
                _mm256_loadu_si256(dc.as_ptr() as *const __m256i),
                _mm256_loadu_si256(sc.as_ptr() as *const __m256i),
            );
            _mm256_storeu_si256(dc.as_mut_ptr() as *mut __m256i, v);
        }
        xor_words(d.into_remainder(), s.remainder());
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_slice_avx2(c: u8, src: &[u8], dst: &mut [u8]) {
        let (lo, hi) = tables_256(c);
        let mut d = dst.chunks_exact_mut(32);
        let mut s = src.chunks_exact(32);
        for (dc, sc) in (&mut d).zip(&mut s) {
            let v = mul_256(lo, hi, _mm256_loadu_si256(sc.as_ptr() as *const __m256i));
            _mm256_storeu_si256(dc.as_mut_ptr() as *mut __m256i, v);
        }
        mul_slice_scalar(c, s.remainder(), d.into_remainder());
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_add_slice_avx2(c: u8, src: &[u8], dst: &mut [u8]) {
        let (lo, hi) = tables_256(c);
        // 64 bytes per iteration: two independent 32-byte streams hide
        // the shuffle latency behind each other.
        let mut d = dst.chunks_exact_mut(64);
        let mut s = src.chunks_exact(64);
        for (dc, sc) in (&mut d).zip(&mut s) {
            let v0 = _mm256_loadu_si256(sc.as_ptr() as *const __m256i);
            let v1 = _mm256_loadu_si256(sc.as_ptr().add(32) as *const __m256i);
            let a0 = _mm256_loadu_si256(dc.as_ptr() as *const __m256i);
            let a1 = _mm256_loadu_si256(dc.as_ptr().add(32) as *const __m256i);
            let r0 = _mm256_xor_si256(a0, mul_256(lo, hi, v0));
            let r1 = _mm256_xor_si256(a1, mul_256(lo, hi, v1));
            _mm256_storeu_si256(dc.as_mut_ptr() as *mut __m256i, r0);
            _mm256_storeu_si256(dc.as_mut_ptr().add(32) as *mut __m256i, r1);
        }
        mul_add_slice_ssse3(c, s.remainder(), d.into_remainder());
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_add_multi_avx2(coeffs: &[Gf256], blocks: &[&[u8]], dst: &mut [u8]) {
        // Stack-staged table pairs, like the SSSE3 twin.
        let zero = _mm256_setzero_si256();
        let mut stack = [(zero, zero); MAX_FUSED_STACK];
        let heap: Vec<(__m256i, __m256i)>;
        let tables: &[(__m256i, __m256i)] = if coeffs.len() <= MAX_FUSED_STACK {
            for (slot, c) in stack.iter_mut().zip(coeffs) {
                *slot = tables_256(c.value());
            }
            &stack[..coeffs.len()]
        } else {
            heap = coeffs.iter().map(|c| tables_256(c.value())).collect();
            &heap
        };
        let len = dst.len();
        // 64-byte strips: two accumulators amortise the per-strip table
        // traffic and give each coefficient's shuffles a second
        // independent stream to overlap with.
        let strips = len / 64;
        for strip in 0..strips {
            let off = strip * 64;
            let mut acc0 = _mm256_loadu_si256(dst.as_ptr().add(off) as *const __m256i);
            let mut acc1 = _mm256_loadu_si256(dst.as_ptr().add(off + 32) as *const __m256i);
            for (block, &(lo, hi)) in blocks.iter().zip(tables) {
                let v0 = _mm256_loadu_si256(block.as_ptr().add(off) as *const __m256i);
                let v1 = _mm256_loadu_si256(block.as_ptr().add(off + 32) as *const __m256i);
                acc0 = _mm256_xor_si256(acc0, mul_256(lo, hi, v0));
                acc1 = _mm256_xor_si256(acc1, mul_256(lo, hi, v1));
            }
            _mm256_storeu_si256(dst.as_mut_ptr().add(off) as *mut __m256i, acc0);
            _mm256_storeu_si256(dst.as_mut_ptr().add(off + 32) as *mut __m256i, acc1);
        }
        let mut tail = strips * 64;
        if len - tail >= 32 {
            let off = tail;
            let mut acc = _mm256_loadu_si256(dst.as_ptr().add(off) as *const __m256i);
            for (block, &(lo, hi)) in blocks.iter().zip(tables) {
                let v = _mm256_loadu_si256(block.as_ptr().add(off) as *const __m256i);
                acc = _mm256_xor_si256(acc, mul_256(lo, hi, v));
            }
            _mm256_storeu_si256(dst.as_mut_ptr().add(off) as *mut __m256i, acc);
            tail += 32;
        }
        for (&c, block) in coeffs.iter().zip(blocks) {
            mul_add_slice_scalar(c.value(), &block[tail..], &mut dst[tail..]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{
    mul_add_multi_avx2, mul_add_multi_ssse3, mul_add_slice_avx2, mul_add_slice_ssse3,
    mul_slice_avx2, mul_slice_ssse3, xor_avx2, xor_ssse3,
};

// ---------------------------------------------------------------------
// aarch64 kernels: NEON vqtbl1q_u8 split-nibble shuffles.
// ---------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::*;
    use std::arch::aarch64::*;

    /// # Safety
    /// Caller must have verified NEON.
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn tables_neon(c: u8) -> (uint8x16_t, uint8x16_t) {
        (
            vld1q_u8(MUL_LO[c as usize].as_ptr()),
            vld1q_u8(MUL_HI[c as usize].as_ptr()),
        )
    }

    /// `c · v` for 16 packed bytes via two nibble table lookups.
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn mul_neon(lo: uint8x16_t, hi: uint8x16_t, v: uint8x16_t) -> uint8x16_t {
        let mask = vdupq_n_u8(0x0F);
        let lo_prod = vqtbl1q_u8(lo, vandq_u8(v, mask));
        let hi_prod = vqtbl1q_u8(hi, vshrq_n_u8::<4>(v));
        veorq_u8(lo_prod, hi_prod)
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn xor_neon(dst: &mut [u8], src: &[u8]) {
        let mut d = dst.chunks_exact_mut(16);
        let mut s = src.chunks_exact(16);
        for (dc, sc) in (&mut d).zip(&mut s) {
            let v = veorq_u8(vld1q_u8(dc.as_ptr()), vld1q_u8(sc.as_ptr()));
            vst1q_u8(dc.as_mut_ptr(), v);
        }
        xor_words(d.into_remainder(), s.remainder());
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn mul_slice_neon(c: u8, src: &[u8], dst: &mut [u8]) {
        let (lo, hi) = tables_neon(c);
        let mut d = dst.chunks_exact_mut(16);
        let mut s = src.chunks_exact(16);
        for (dc, sc) in (&mut d).zip(&mut s) {
            vst1q_u8(dc.as_mut_ptr(), mul_neon(lo, hi, vld1q_u8(sc.as_ptr())));
        }
        mul_slice_scalar(c, s.remainder(), d.into_remainder());
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn mul_add_slice_neon(c: u8, src: &[u8], dst: &mut [u8]) {
        let (lo, hi) = tables_neon(c);
        let mut d = dst.chunks_exact_mut(16);
        let mut s = src.chunks_exact(16);
        for (dc, sc) in (&mut d).zip(&mut s) {
            let acc = veorq_u8(
                vld1q_u8(dc.as_ptr()),
                mul_neon(lo, hi, vld1q_u8(sc.as_ptr())),
            );
            vst1q_u8(dc.as_mut_ptr(), acc);
        }
        mul_add_slice_scalar(c, s.remainder(), d.into_remainder());
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn mul_add_multi_neon(coeffs: &[Gf256], blocks: &[&[u8]], dst: &mut [u8]) {
        // Stack-staged table pairs, like the x86 twins.
        let zero = vdupq_n_u8(0);
        let mut stack = [(zero, zero); MAX_FUSED_STACK];
        let heap: Vec<(uint8x16_t, uint8x16_t)>;
        let tables: &[(uint8x16_t, uint8x16_t)] = if coeffs.len() <= MAX_FUSED_STACK {
            for (slot, c) in stack.iter_mut().zip(coeffs) {
                *slot = tables_neon(c.value());
            }
            &stack[..coeffs.len()]
        } else {
            heap = coeffs.iter().map(|c| tables_neon(c.value())).collect();
            &heap
        };
        let len = dst.len();
        // 32-byte strips: two accumulators per pass (see the AVX2 twin).
        let strips = len / 32;
        for strip in 0..strips {
            let off = strip * 32;
            let mut acc0 = vld1q_u8(dst.as_ptr().add(off));
            let mut acc1 = vld1q_u8(dst.as_ptr().add(off + 16));
            for (block, &(lo, hi)) in blocks.iter().zip(tables) {
                acc0 = veorq_u8(acc0, mul_neon(lo, hi, vld1q_u8(block.as_ptr().add(off))));
                acc1 = veorq_u8(
                    acc1,
                    mul_neon(lo, hi, vld1q_u8(block.as_ptr().add(off + 16))),
                );
            }
            vst1q_u8(dst.as_mut_ptr().add(off), acc0);
            vst1q_u8(dst.as_mut_ptr().add(off + 16), acc1);
        }
        let mut tail = strips * 32;
        if len - tail >= 16 {
            let off = tail;
            let mut acc = vld1q_u8(dst.as_ptr().add(off));
            for (block, &(lo, hi)) in blocks.iter().zip(tables) {
                acc = veorq_u8(acc, mul_neon(lo, hi, vld1q_u8(block.as_ptr().add(off))));
            }
            vst1q_u8(dst.as_mut_ptr().add(off), acc);
            tail += 16;
        }
        for (&c, block) in coeffs.iter().zip(blocks) {
            mul_add_slice_scalar(c.value(), &block[tail..], &mut dst[tail..]);
        }
    }
}

#[cfg(target_arch = "aarch64")]
use arm::{mul_add_multi_neon, mul_add_slice_neon, mul_slice_neon, xor_neon};

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| {
                seed.wrapping_mul(31)
                    .wrapping_add((i as u8).wrapping_mul(97))
            })
            .collect()
    }

    #[test]
    fn nibble_tables_recompose_full_products() {
        for c in 0..=255u8 {
            for b in 0..=255u8 {
                let split =
                    MUL_LO[c as usize][(b & 0x0F) as usize] ^ MUL_HI[c as usize][(b >> 4) as usize];
                assert_eq!(split, MUL[c as usize][b as usize], "c={c} b={b}");
            }
        }
    }

    #[test]
    fn every_available_backend_matches_scalar() {
        // Full differential coverage (all lengths, misalignment, the
        // multi kernel) lives in tests/backend_equivalence.rs; this is
        // the in-crate smoke version.
        let src = pattern(257, 3);
        for backend in Backend::available() {
            for c in [0u8, 1, 2, 0x53, 0xFF] {
                let mut expect = pattern(257, 7);
                let mut got = expect.clone();
                Backend::Scalar.mul_add_slice(Gf256(c), &src, &mut expect);
                backend.mul_add_slice(Gf256(c), &src, &mut got);
                assert_eq!(got, expect, "{backend:?} c={c:#x}");
            }
        }
    }

    #[test]
    fn mul_add_multi_equals_repeated_mul_add() {
        let blocks: Vec<Vec<u8>> = (0..5).map(|i| pattern(1000, i as u8)).collect();
        let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
        let coeffs: Vec<Gf256> = [0u8, 1, 2, 0x53, 0xCA].iter().map(|&c| Gf256(c)).collect();
        for backend in Backend::available() {
            let mut expect = pattern(1000, 99);
            let mut got = expect.clone();
            for (&c, &b) in coeffs.iter().zip(&refs) {
                Backend::Scalar.mul_add_slice(c, b, &mut expect);
            }
            backend.mul_add_multi(&coeffs, &refs, &mut got);
            assert_eq!(got, expect, "{backend:?}");
        }
    }

    #[test]
    fn detect_prefers_the_widest_available_tier() {
        let best = Backend::detect();
        assert!(best.is_available());
        #[cfg(target_arch = "x86_64")]
        {
            if Backend::Avx2.is_available() {
                assert_eq!(best, Backend::Avx2);
            } else if Backend::Ssse3.is_available() {
                assert_eq!(best, Backend::Ssse3);
            } else {
                assert_eq!(best, Backend::Scalar);
            }
        }
        #[cfg(target_arch = "aarch64")]
        assert_eq!(best, Backend::Neon);
    }

    #[test]
    fn select_honours_every_force_value() {
        assert_eq!(select(Some("scalar")), Backend::Scalar);
        assert_eq!(select(Some("simd")), Backend::detect());
        assert_eq!(select(None), Backend::detect());
    }

    #[test]
    #[should_panic(expected = "not a GF(256) backend")]
    fn select_rejects_unknown_values() {
        let _ = select(Some("quantum"));
    }

    #[test]
    #[should_panic(expected = "not a GF(256) backend")]
    fn select_rejects_the_retired_word_tier() {
        // The u64 word-ladder tier lost to the scalar row walk and was
        // removed; its old spelling is now an unknown value. Spelled in
        // two halves so a search for the name finds no live reference.
        let _ = select(Some(concat!("sw", "ar")));
    }

    #[test]
    fn detect_returns_a_simd_tier_or_the_scalar_floor() {
        // Scalar exactly when the CPU has none of Avx2, Neon or Ssse3.
        let best = Backend::detect();
        assert!(best.is_available(), "{best:?}");
        let simd = [Backend::Avx2, Backend::Neon, Backend::Ssse3];
        let any_simd = simd.into_iter().any(Backend::is_available);
        assert_eq!(best == Backend::Scalar, !any_simd, "{best:?}");
        assert!(best == Backend::Scalar || simd.contains(&best), "{best:?}");
    }

    #[test]
    fn forcing_an_unavailable_tier_panics() {
        #[cfg(target_arch = "x86_64")]
        let foreign = "neon";
        #[cfg(not(target_arch = "x86_64"))]
        let foreign = "avx2";
        let err = std::panic::catch_unwind(|| select(Some(foreign))).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("not supported by this CPU"), "{msg}");
    }

    #[test]
    fn active_respects_the_env_override() {
        // `active()` caches process-wide, so this can only pin down the
        // consistency property: whatever it returned, it matches what
        // `select` derives from the *current* environment (the CI
        // kernel-matrix sets TQ_GF256_FORCE before spawning the test
        // process, so the variable cannot have changed since the cache
        // was filled).
        let expected = select(std::env::var("TQ_GF256_FORCE").ok().as_deref());
        assert_eq!(active(), expected);
    }
}

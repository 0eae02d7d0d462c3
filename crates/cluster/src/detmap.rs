//! Deterministic hash containers for sim-reachable state.
//!
//! `std::collections::HashMap`'s default `RandomState` seeds SipHash from
//! OS entropy, so iteration order differs between *runs* — which breaks
//! the DST reproducibility contract (PR 3): two replays of the same seed
//! must make identical scheduling decisions, and any code that iterates a
//! map (version sweeps, recovery scans, stats) feeds those decisions.
//!
//! `DetHashMap`/[`DetHashSet`] keep std's table implementation but swap
//! the hasher for fixed-key FNV-1a, making layout a pure function of the
//! insertion sequence. Integers hash via their little-endian bytes so the
//! layout is also platform-independent. This is an *internal* container:
//! keys are trusted protocol identifiers (`OpId`, `BlockId`, node ids),
//! not attacker-controlled strings, so HashDoS resistance is not required.

use std::hash::{BuildHasherDefault, Hasher};

/// SplitMix64: a full-avalanche 64-bit mixer of `z` plus the golden
/// gamma. Neighbouring inputs come out unrelated, and the same input
/// always gives the same output, so a counter through it is a seeded
/// stream that replays bit for bit.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, 64-bit. Deterministic: no per-process seed.
pub struct DetHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for DetHasher {
    fn default() -> Self {
        DetHasher { state: FNV_OFFSET }
    }
}

impl Hasher for DetHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    // Fix the byte order for integer keys so the table layout does not
    // depend on host endianness (the default impls hash native-endian
    // bytes).
    fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }
    fn write_u16(&mut self, v: u16) {
        self.write(&v.to_le_bytes());
    }
    fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
    fn write_u128(&mut self, v: u128) {
        self.write(&v.to_le_bytes());
    }
    fn write_usize(&mut self, v: usize) {
        self.write(&(v as u64).to_le_bytes());
    }
}

/// `HashMap` with run-to-run deterministic layout.
#[expect(
    clippy::disallowed_types,
    reason = "the whole point of this alias: std's table with a fixed-key FNV hasher, layout is a pure function of insertion order"
)]
pub(crate) type DetHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<DetHasher>>;

/// `HashSet` with run-to-run deterministic layout.
#[expect(
    clippy::disallowed_types,
    reason = "same fixed-key hasher as DetHashMap; no OS entropy involved"
)]
pub type DetHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<DetHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(write: impl Fn(&mut DetHasher)) -> u64 {
        let mut h = DetHasher::default();
        write(&mut h);
        h.finish()
    }

    #[test]
    fn fnv1a_known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(hash_of(|h| h.write(b"")), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash_of(|h| h.write(b"a")), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_of(|h| h.write(b"foobar")), 0x85944171f73967e8);
    }

    #[test]
    fn integer_writes_are_endian_fixed() {
        // write_u32 must equal hashing the little-endian bytes explicitly,
        // whatever the host endianness.
        assert_eq!(
            hash_of(|h| h.write_u32(0xdead_beef)),
            hash_of(|h| h.write(&0xdead_beef_u32.to_le_bytes())),
        );
        assert_eq!(
            hash_of(|h| h.write_u64(7)),
            hash_of(|h| h.write(&7u64.to_le_bytes())),
        );
    }

    #[test]
    fn iteration_order_is_reproducible() {
        let build = || {
            let mut m = DetHashMap::default();
            for i in 0..1000u64 {
                m.insert(i.wrapping_mul(0x9e37_79b9_7f4a_7c15), i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}

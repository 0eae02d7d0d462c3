//! Seeded input generation: every key, op type and payload byte is a
//! pure function of the `--seed` argument, so the library only ever
//! sees generated requests and two runs with one seed see the same
//! ones.

/// SplitMix64 finalizer — the mixing step behind every generator here.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (multiply-shift, no modulo bias worth the name
    /// at these ranges).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// The bytes block `block` holds at `version` under `seed`: a SplitMix64
/// stream, so payloads are incompressible and (almost) free of zero
/// bytes. `tq_gf256::check::block_check` skips zero bytes, so a
/// zero-filled block would read ~8× faster than an overwritten one and
/// latency would drift with run length.
pub fn payload(seed: u64, block: u64, version: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(mix(seed ^ mix(block ^ mix(version))));
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// YCSB-style zipfian generator over `items` ranks, scrambled so the hot
/// ranks scatter over the block space (and so over stripes and home
/// nodes) instead of clustering in the first stripe.
#[derive(Debug, Clone)]
pub struct Zipf {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(items: u64, theta: f64) -> Self {
        let zeta = |n: u64| -> f64 { (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum() };
        let zetan = zeta(items);
        let zeta2 = zeta(2.min(items));
        Zipf {
            items,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// Draws a rank (0 = hottest) and scrambles it over the space; the
    /// scramble is fixed, so rank 0 stays one single hot block.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            ((self.items as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        mix(rank.min(self.items - 1)) % self.items
    }
}

/// How a workload picks the block an op addresses.
#[derive(Debug, Clone)]
pub enum Keys {
    /// Zipfian over all blocks (hot keys shared between ops).
    Zipf(Zipf),
    /// Uniform over all blocks (ops almost never share a block).
    Uniform { blocks: u64 },
    /// Uniform over stripes, always block 0 — every op's home node is
    /// `N_0`.
    HomeNodeZero { stripes: u64, k: u64 },
}

impl Keys {
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        match self {
            Keys::Zipf(z) => z.sample(rng),
            Keys::Uniform { blocks } => rng.below(*blocks),
            Keys::HomeNodeZero { stripes, k } => rng.below(*stripes) * k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_deterministic_and_version_sensitive() {
        let a = payload(7, 3, 1, 4096);
        assert_eq!(a, payload(7, 3, 1, 4096));
        assert_eq!(a.len(), 4096);
        assert_ne!(a, payload(7, 3, 2, 4096));
        assert_ne!(a, payload(7, 4, 1, 4096));
        assert_ne!(a, payload(8, 3, 1, 4096));
        // Pseudo-random bytes: about 1 in 256 is zero, never most.
        assert!(a.iter().filter(|&&b| b == 0).count() < 64);
        // Odd lengths truncate the last word.
        assert_eq!(payload(7, 3, 1, 13), a[..13]);
    }

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed() {
        let z = Zipf::new(6144, 0.99);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..10_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(1);
        assert_eq!(a, draw(1));
        assert_ne!(a, draw(2));
        assert!(a.iter().all(|&b| b < 6144));
        let hot = mix(0) % 6144;
        let hits = a.iter().filter(|&&b| b == hot).count();
        // theta = 0.99 over 6144 items puts ~11 % of draws on rank 0.
        assert!((600..1800).contains(&hits), "hot key drew {hits}");
    }

    #[test]
    fn home_node_zero_keys_are_block_zero_of_a_stripe() {
        let keys = Keys::HomeNodeZero { stripes: 128, k: 6 };
        let mut rng = Rng::new(3);
        for _ in 0..1000 {
            let b = keys.sample(&mut rng);
            assert_eq!(b % 6, 0);
            assert!(b / 6 < 128);
        }
    }
}

//! Stripe cross-checksum vectors — the metadata the integrity mode
//! stores alongside each stripe version.
//!
//! A stripe's cross-checksum is the vector of 8-lane GF(2⁸) block
//! checksums ([`tq_gf256::check::block_check`]) of its `k` *data*
//! blocks. Because the checksum is GF-linear and parity blocks are
//! linear combinations of data blocks (eq. 1), the data-block vector
//! determines every parity block's expected checksum too
//! ([`expected_parity_check`]) — a reader holding the vector can verify
//! any fetched shard, data or parity, before handing it to the decoder,
//! and a delta write updates exactly one vector entry.

use tq_gf256::check::{block_check, linear_check};

use crate::code::ReedSolomon;

/// The cross-checksum vector of a stripe's data blocks: entry `i` is
/// `block_check(blocks[i])`.
pub fn data_checks(blocks: &[&[u8]]) -> Vec<u64> {
    blocks.iter().map(|b| block_check(b)).collect()
}

/// The expected checksum of parity block `j` (`k ≤ j < n`), derived
/// from the data-block cross-checksum vector alone:
/// `Σ_i combine(α_{j,i}, checks[i])`.
///
/// # Panics
/// Panics if `j` is not a parity index of the codec or `checks` is not
/// `k` entries long.
pub fn expected_parity_check(rs: &ReedSolomon, j: usize, checks: &[u64]) -> u64 {
    let k = rs.params().k();
    assert_eq!(
        checks.len(),
        k,
        "expected_parity_check: cross-checksum vector has {} entries, stripe has k = {k}",
        checks.len()
    );
    // generator_row(j) panics (via the indexing) only on j ≥ n; reject
    // data rows explicitly so misuse fails loudly, not with an identity
    // row silently producing checks[j].
    assert!(
        rs.params().is_parity_index(j),
        "expected_parity_check: {j} is not a parity index of {}",
        rs.params()
    );
    linear_check(&rs.generator_row(j)[..k], checks)
}

/// The expected checksum of *any* block `j` of the stripe: entry `j` of
/// the vector for data blocks, the derived combination for parity
/// blocks.
///
/// # Panics
/// Panics if `j ≥ n` or `checks` is not `k` entries long.
pub fn expected_block_check(rs: &ReedSolomon, j: usize, checks: &[u64]) -> u64 {
    if rs.params().is_data_index(j) {
        checks[j]
    } else {
        expected_parity_check(rs, j, checks)
    }
}

/// Verifies fetched shard bytes against the cross-checksum vector.
/// Returns `true` iff `block_check(bytes)` matches the vector's
/// expectation for block `j`.
///
/// # Panics
/// As [`expected_block_check`].
pub fn verify_block(rs: &ReedSolomon, j: usize, bytes: &[u8], checks: &[u64]) -> bool {
    block_check(bytes) == expected_block_check(rs, j, checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CodeParams;

    fn stripe(rs: &ReedSolomon, len: usize, seed: u8) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let k = rs.params().k();
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| {
                (0..len)
                    .map(|b| seed.wrapping_add((i * 31 + b * 7) as u8))
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs);
        (data, parity)
    }

    #[test]
    fn every_parity_check_is_derivable_from_the_data_vector() {
        let rs = ReedSolomon::new(CodeParams::new(9, 6).unwrap());
        let (data, parity) = stripe(&rs, 96, 17);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let checks = data_checks(&refs);
        for (j, p) in parity.iter().enumerate() {
            let j = 6 + j;
            assert_eq!(
                block_check(p),
                expected_parity_check(&rs, j, &checks),
                "parity {j}"
            );
            assert!(verify_block(&rs, j, p, &checks));
        }
        for (i, d) in data.iter().enumerate() {
            assert!(verify_block(&rs, i, d, &checks));
        }
    }

    #[test]
    fn corruption_in_any_shard_is_flagged() {
        let rs = ReedSolomon::new(CodeParams::new(6, 4).unwrap());
        let (data, parity) = stripe(&rs, 48, 99);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let checks = data_checks(&refs);
        let all: Vec<Vec<u8>> = data.into_iter().chain(parity).collect();
        for (j, block) in all.iter().enumerate() {
            let mut bad = block.clone();
            let pos = j % bad.len();
            bad[pos] ^= 0x20;
            assert!(
                !verify_block(&rs, j, &bad, &checks),
                "bit flip in shard {j} not flagged"
            );
        }
    }

    #[test]
    fn delta_update_moves_exactly_one_vector_entry() {
        let rs = ReedSolomon::new(CodeParams::new(9, 6).unwrap());
        let (mut data, _) = stripe(&rs, 64, 3);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let old = data_checks(&refs);
        data[2] = vec![0xA5; 64];
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let new = data_checks(&refs);
        for i in 0..6 {
            if i == 2 {
                assert_ne!(old[i], new[i]);
            } else {
                assert_eq!(old[i], new[i]);
            }
        }
        // And the new parity expectations follow from the updated vector.
        let parity = rs.encode(&refs);
        for (j, p) in parity.iter().enumerate() {
            assert_eq!(block_check(p), expected_parity_check(&rs, 6 + j, &new));
        }
    }

    #[test]
    #[should_panic(expected = "not a parity index")]
    fn expected_parity_check_rejects_data_rows() {
        let rs = ReedSolomon::new(CodeParams::new(4, 2).unwrap());
        let _ = expected_parity_check(&rs, 1, &[0, 0]);
    }
}

//! In-place parity delta updates — the GF-commutativity trick of
//! Algorithm 1.
//!
//! When data block `b_i` changes from `c` to `x`, every parity block
//! `b_j = Σ α_{j,t}·b_t` changes by exactly `α_{j,i}·(x − c)`, because
//! addition commutes and no other term involves `b_i`. So a single-block
//! update costs `1 + (n−k)` block writes instead of a full re-encode —
//! this is the "(9,6)-MDS needs 8 read+write operations" arithmetic of
//! the paper's introduction.
//!
//! The paper's write algorithm sends each parity node the scaled
//! `α_{j,i}·(x − chunk)` (line 27). Here the client computes the raw
//! delta `x − c` once with [`block_delta`] and sends the same bytes to
//! every parity node; each node scales it by its own `α_{j,i}` while
//! folding it into the stored block (one dispatched
//! [`mul_add_slice`](tq_gf256::slice_ops::mul_add_slice), or
//! [`add_assign`](tq_gf256::slice_ops::add_assign) when `α_{j,i} = 1`).

use crate::CodeError;

/// Computes the raw block delta `x − c` (XOR in characteristic 2).
///
/// # Errors
/// [`CodeError::ShardSizeMismatch`] if old and new lengths differ.
pub fn block_delta(old: &[u8], new: &[u8]) -> Result<Vec<u8>, CodeError> {
    if old.len() != new.len() {
        return Err(CodeError::ShardSizeMismatch);
    }
    Ok(old.iter().zip(new).map(|(&o, &n)| o ^ n).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::ReedSolomon;
    use crate::params::CodeParams;
    use tq_gf256::{slice_ops, Gf256};

    fn setup(n: usize, k: usize) -> (ReedSolomon, Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let rs = ReedSolomon::new(CodeParams::new(n, k).unwrap());
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..32).map(|b| (i * 17 + b) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs);
        (rs, data, parity)
    }

    /// What every parity node runs on `AddParity`: scale the one raw
    /// delta by its own `α_{j,i}` while folding it in.
    fn fold(rs: &ReedSolomon, i: usize, raw: &[u8], parity: &mut [Vec<u8>]) {
        for (p, j) in parity.iter_mut().zip(rs.params().parity_indices()) {
            let coeff = rs.coefficient(j, i);
            if coeff == Gf256::ONE {
                slice_ops::add_assign(p, raw);
            } else {
                slice_ops::mul_add_slice(coeff, raw, p);
            }
        }
    }

    fn encode(rs: &ReedSolomon, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        rs.encode(&refs)
    }

    #[test]
    fn delta_update_equals_full_reencode() {
        for (n, k) in [(9, 6), (15, 8)] {
            let (rs, mut data, mut parity) = setup(n, k);
            for target in 0..k {
                let new_block: Vec<u8> = (0..32).map(|b| (b * 7 + target + 3) as u8).collect();
                let raw = block_delta(&data[target], &new_block).unwrap();
                fold(&rs, target, &raw, &mut parity);
                data[target] = new_block;
                assert_eq!(parity, encode(&rs, &data), "({n}, {k}) block {target}");
            }
        }
    }

    #[test]
    fn repeated_deltas_compose() {
        for (n, k) in [(9, 6), (15, 8)] {
            let (rs, mut data, mut parity) = setup(n, k);
            for round in 0..12u8 {
                let target = (round as usize * 5) % k;
                let new_block: Vec<u8> = (0..32)
                    .map(|b| round.wrapping_mul(b as u8 ^ 0x5A))
                    .collect();
                let raw = block_delta(&data[target], &new_block).unwrap();
                fold(&rs, target, &raw, &mut parity);
                data[target] = new_block;
            }
            assert_eq!(parity, encode(&rs, &data), "({n}, {k})");
        }
    }

    #[test]
    fn identity_update_produces_zero_deltas() {
        let (rs, data, parity) = setup(9, 6);
        let raw = block_delta(&data[1], &data[1]).unwrap();
        assert!(raw.iter().all(|&b| b == 0));
        let mut folded = parity.clone();
        fold(&rs, 1, &raw, &mut folded);
        assert_eq!(folded, parity);
    }

    #[test]
    fn error_cases() {
        let (_, data, _) = setup(5, 3);
        assert_eq!(
            block_delta(&data[0], &data[0][..8]),
            Err(CodeError::ShardSizeMismatch)
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn delta_path_always_matches_reencode(
                k in 1usize..9,
                extra in 1usize..8,
                target_raw in any::<usize>(),
                old_seed in any::<u8>(),
                new_seed in any::<u8>(),
                len in 1usize..40,
            ) {
                let n = k + extra;
                let rs = ReedSolomon::new(CodeParams::new(n, k).unwrap());
                let target = target_raw % k;
                let mut data: Vec<Vec<u8>> = (0..k)
                    .map(|i| (0..len).map(|b| old_seed.wrapping_add((i * 13 + b * 7) as u8)).collect())
                    .collect();
                let mut parity = encode(&rs, &data);
                let new_block: Vec<u8> = (0..len).map(|b| new_seed.wrapping_mul(b as u8 | 1)).collect();
                let raw = block_delta(&data[target], &new_block).unwrap();
                fold(&rs, target, &raw, &mut parity);
                data[target] = new_block;
                prop_assert_eq!(parity, encode(&rs, &data));
            }
        }
    }
}

//! The systematic Reed–Solomon codec.
//!
//! The generator is an `n × k` matrix `G` whose top `k × k` block is the
//! identity (systematic: data blocks are stored verbatim) and whose lower
//! `(n−k) × k` block holds the coefficients `α_{j,i}` of the paper's eq. 1.
//! Encoding multiplies `G` by the column of data blocks; any `k` rows of
//! `G` are linearly independent (MDS), so any `k` surviving blocks
//! reconstruct the data by inverting the corresponding `k × k` submatrix.

use tq_gf256::matrix::Matrix;
use tq_gf256::slice_ops;
use tq_gf256::Gf256;

use crate::params::CodeParams;
use crate::CodeError;

/// A systematic (n, k) MDS Reed–Solomon codec over GF(2⁸).
///
/// Construction cost is one `k × k` inversion; clone is cheap relative to
/// block work.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    params: CodeParams,
    /// Full `n × k` generator; rows `0..k` are the identity.
    generator: Matrix,
}

impl ReedSolomon {
    /// Builds the codec: `G = V · V_top⁻¹` for an `n × k` Vandermonde
    /// matrix `V`, so the top `k × k` block is the identity and any `k`
    /// rows stay independent.
    pub fn new(params: CodeParams) -> Self {
        let (n, k) = (params.n(), params.k());
        let v = Matrix::vandermonde(n, k);
        let top = v.select_rows(&(0..k).collect::<Vec<_>>());
        let top_inv = top
            .inverse()
            .expect("Vandermonde top block is always invertible");
        let generator = v.mul(&top_inv);
        debug_assert!({
            let id = generator.select_rows(&(0..k).collect::<Vec<_>>());
            id == Matrix::identity(k)
        });
        ReedSolomon { params, generator }
    }

    /// The (n, k) parameters.
    #[inline]
    pub fn params(&self) -> CodeParams {
        self.params
    }

    /// The coefficient `α_{j,i}` of eq. 1: the weight of data block `i`
    /// in parity block `j` (0-based: `k ≤ j < n`, `0 ≤ i < k`).
    ///
    /// # Panics
    /// Panics if `j` is not a parity index or `i` not a data index.
    #[inline]
    pub fn coefficient(&self, j: usize, i: usize) -> Gf256 {
        assert!(
            self.params.is_parity_index(j),
            "coefficient: j = {j} is not a parity index of {}",
            self.params
        );
        assert!(
            self.params.is_data_index(i),
            "coefficient: i = {i} is not a data index of {}",
            self.params
        );
        self.generator[(j, i)]
    }

    /// The full generator row for block `j` (identity row for data blocks,
    /// `α_{j,·}` for parity blocks).
    #[inline]
    pub fn generator_row(&self, j: usize) -> &[Gf256] {
        self.generator.row(j)
    }

    /// Encodes `k` data blocks into `n − k` parity blocks.
    ///
    /// # Panics
    /// Panics if `data.len() != k` or block lengths disagree — these are
    /// programmer errors, not runtime conditions.
    pub fn encode(&self, data: &[&[u8]]) -> Vec<Vec<u8>> {
        let k = self.params.k();
        assert_eq!(data.len(), k, "encode: expected {k} data blocks");
        let block_len = data[0].len();
        assert!(
            data.iter().all(|d| d.len() == block_len),
            "encode: data blocks must share one length"
        );
        let mut parity = vec![vec![0u8; block_len]; self.params.parity_count()];
        self.encode_into(data, &mut parity);
        parity
    }

    /// Encodes into caller-provided parity buffers (avoids allocation on
    /// re-encode paths — the scrub/repair workflows pool these).
    ///
    /// Each parity block is one fused
    /// [`mul_add_multi`](tq_gf256::slice_ops::mul_add_multi) pass over
    /// all `k` data blocks: the dispatched SIMD backend keeps the
    /// accumulator strip in registers, writing every output byte once.
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    pub fn encode_into(&self, data: &[&[u8]], parity: &mut [Vec<u8>]) {
        let k = self.params.k();
        assert_eq!(data.len(), k, "encode_into: expected {k} data blocks");
        assert_eq!(
            parity.len(),
            self.params.parity_count(),
            "encode_into: expected {} parity buffers",
            self.params.parity_count()
        );
        for (p, j) in parity.iter_mut().zip(self.params.parity_indices()) {
            slice_ops::linear_combination(self.generator.row(j), data, p);
        }
    }

    /// Verifies that a full stripe satisfies eq. 1.
    ///
    /// # Panics
    /// Panics if `shards.len() != n` or lengths disagree.
    pub fn verify(&self, shards: &[&[u8]]) -> bool {
        let (k, n) = (self.params.k(), self.params.n());
        assert_eq!(shards.len(), n, "verify: expected {n} shards");
        let data = &shards[..k];
        let expected = self.encode(data);
        expected
            .iter()
            .zip(&shards[k..])
            .all(|(e, s)| e.as_slice() == *s)
    }

    /// Reconstructs every missing shard in place from any `k` survivors.
    ///
    /// `shards` must have exactly `n` slots; `None` marks a lost block.
    /// On success every slot is `Some` and eq. 1 holds again.
    ///
    /// # Errors
    /// [`CodeError::TooFewShards`] if fewer than `k` survive,
    /// [`CodeError::WrongShardCount`] / [`CodeError::ShardSizeMismatch`]
    /// on malformed input.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), CodeError> {
        let (k, n) = (self.params.k(), self.params.n());
        if shards.len() != n {
            return Err(CodeError::WrongShardCount {
                got: shards.len(),
                expected: n,
            });
        }
        let present: Vec<usize> = (0..n).filter(|&i| shards[i].is_some()).collect();
        if present.len() < k {
            return Err(CodeError::TooFewShards {
                present: present.len(),
                needed: k,
            });
        }
        let block_len = shards[present[0]].as_ref().expect("present").len();
        if present
            .iter()
            .any(|&i| shards[i].as_ref().expect("present").len() != block_len)
        {
            return Err(CodeError::ShardSizeMismatch);
        }
        if present.len() == n {
            return Ok(()); // nothing to do
        }

        // Recover the k data blocks from the first k survivors, then
        // re-encode whatever parity is missing.
        let chosen = &present[..k];
        let data = self.solve_data(chosen, shards, block_len)?;
        for i in 0..k {
            if shards[i].is_none() {
                shards[i] = Some(data[i].clone());
            }
        }
        let data_refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        for j in self.params.parity_indices() {
            if shards[j].is_none() {
                let mut out = vec![0u8; block_len];
                slice_ops::linear_combination(self.generator.row(j), &data_refs, &mut out);
                shards[j] = Some(out);
            }
        }
        Ok(())
    }

    /// Decodes a single block `target` (data or parity) from at least `k`
    /// available `(index, bytes)` pairs, without materialising the rest of
    /// the stripe. This is the read path of Algorithm 2 Case 2: "the
    /// decode operation will be launched using any k updated nodes out of
    /// n nodes in order to reconstruct the original data block".
    ///
    /// # Errors
    /// [`CodeError::TooFewShards`], [`CodeError::IndexOutOfRange`],
    /// [`CodeError::ShardSizeMismatch`]; duplicate indices count once.
    pub fn decode_block(
        &self,
        target: usize,
        available: &[(usize, &[u8])],
    ) -> Result<Vec<u8>, CodeError> {
        let (k, n) = (self.params.k(), self.params.n());
        if target >= n {
            return Err(CodeError::IndexOutOfRange { index: target, n });
        }
        for &(idx, _) in available {
            if idx >= n {
                return Err(CodeError::IndexOutOfRange { index: idx, n });
            }
        }
        // Fast path: the target itself is among the survivors.
        if let Some(&(_, bytes)) = available.iter().find(|&&(i, _)| i == target) {
            return Ok(bytes.to_vec());
        }
        // Deduplicate indices, keep the first k distinct.
        let mut chosen: Vec<(usize, &[u8])> = Vec::with_capacity(k);
        for &(idx, bytes) in available {
            if chosen.iter().all(|&(c, _)| c != idx) {
                chosen.push((idx, bytes));
                if chosen.len() == k {
                    break;
                }
            }
        }
        if chosen.len() < k {
            return Err(CodeError::TooFewShards {
                present: chosen.len(),
                needed: k,
            });
        }
        let block_len = chosen[0].1.len();
        if chosen.iter().any(|&(_, b)| b.len() != block_len) {
            return Err(CodeError::ShardSizeMismatch);
        }

        // data = M⁻¹ · survivors, where M = generator rows of survivors.
        let indices: Vec<usize> = chosen.iter().map(|&(i, _)| i).collect();
        let sub = self.generator.select_rows(&indices);
        let inv = sub
            .inverse()
            .expect("any k generator rows are invertible (MDS)");
        // Target row of the *full* reconstruction map: for a data target
        // it is row `target` of M⁻¹; for a parity target it is
        // generator_row(target) · M⁻¹.
        let coeffs: Vec<Gf256> = if self.params.is_data_index(target) {
            inv.row(target).to_vec()
        } else {
            let grow = self.generator.row(target);
            (0..k)
                .map(|c| (0..k).fold(Gf256::ZERO, |acc, r| acc + grow[r] * inv[(r, c)]))
                .collect()
        };
        let blocks: Vec<&[u8]> = chosen.iter().map(|&(_, b)| b).collect();
        let mut out = vec![0u8; block_len];
        slice_ops::linear_combination(&coeffs, &blocks, &mut out);
        Ok(out)
    }

    /// Solves for all k data blocks given k survivor indices.
    fn solve_data(
        &self,
        chosen: &[usize],
        shards: &[Option<Vec<u8>>],
        block_len: usize,
    ) -> Result<Vec<Vec<u8>>, CodeError> {
        let k = self.params.k();
        debug_assert_eq!(chosen.len(), k);
        let sub = self.generator.select_rows(chosen);
        let inv = sub
            .inverse()
            .expect("any k generator rows are invertible (MDS)");
        let blocks: Vec<&[u8]> = chosen
            .iter()
            .map(|&i| shards[i].as_ref().expect("chosen are present").as_slice())
            .collect();
        let mut data = vec![vec![0u8; block_len]; k];
        for (i, out) in data.iter_mut().enumerate() {
            slice_ops::linear_combination(inv.row(i), &blocks, out);
        }
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_data(k: usize, len: usize, seed: u8) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|b| (seed ^ (i as u8)).wrapping_mul(31).wrapping_add(b as u8))
                    .collect()
            })
            .collect()
    }

    fn refs(data: &[Vec<u8>]) -> Vec<&[u8]> {
        data.iter().map(|d| d.as_slice()).collect()
    }

    #[test]
    fn systematic_top_block_is_identity() {
        let rs = ReedSolomon::new(CodeParams::new(9, 6).unwrap());
        for i in 0..6 {
            for c in 0..6 {
                let expect = if i == c { Gf256::ONE } else { Gf256::ZERO };
                assert_eq!(rs.generator_row(i)[c], expect);
            }
        }
    }

    #[test]
    fn coefficients_are_nonzero() {
        // A zero α_{j,i} would mean parity j ignores data block i, breaking
        // the delta-update path for that pair.
        let rs = ReedSolomon::new(CodeParams::new(15, 8).unwrap());
        for j in 8..15 {
            for i in 0..8 {
                assert!(!rs.coefficient(j, i).is_zero(), "α_{j},{i} = 0");
            }
        }
    }

    #[test]
    fn encode_then_verify() {
        let rs = ReedSolomon::new(CodeParams::new(9, 6).unwrap());
        let data = make_data(6, 128, 7);
        let parity = rs.encode(&refs(&data));
        let all: Vec<&[u8]> = refs(&data).into_iter().chain(refs(&parity)).collect();
        assert!(rs.verify(&all));
    }

    #[test]
    fn verify_detects_corruption() {
        let rs = ReedSolomon::new(CodeParams::new(6, 4).unwrap());
        let data = make_data(4, 32, 3);
        let mut parity = rs.encode(&refs(&data));
        parity[1][5] ^= 0x40;
        let all: Vec<&[u8]> = refs(&data).into_iter().chain(refs(&parity)).collect();
        assert!(!rs.verify(&all));
    }

    #[test]
    fn reconstruct_all_loss_patterns_exhaustively() {
        // (6, 4): C(6,2) = 15 double-loss patterns plus all single losses.
        let params = CodeParams::new(6, 4).unwrap();
        let rs = ReedSolomon::new(params);
        let data = make_data(4, 64, 11);
        let parity = rs.encode(&refs(&data));
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity.iter().cloned()).collect();
        for a in 0..6 {
            for b in a..6 {
                let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                shards[a] = None;
                shards[b] = None;
                rs.reconstruct(&mut shards).unwrap();
                for (i, s) in shards.iter().enumerate() {
                    assert_eq!(s.as_deref(), Some(full[i].as_slice()), "loss {a},{b}");
                }
            }
        }
    }

    #[test]
    fn reconstruct_fails_beyond_tolerance() {
        let rs = ReedSolomon::new(CodeParams::new(5, 3).unwrap());
        let data = make_data(3, 16, 1);
        let parity = rs.encode(&refs(&data));
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        shards[0] = None;
        shards[1] = None;
        shards[3] = None; // three losses > n - k = 2
        assert_eq!(
            rs.reconstruct(&mut shards),
            Err(CodeError::TooFewShards {
                present: 2,
                needed: 3
            })
        );
    }

    #[test]
    fn reconstruct_rejects_malformed_input() {
        let rs = ReedSolomon::new(CodeParams::new(4, 2).unwrap());
        let mut wrong_count: Vec<Option<Vec<u8>>> = vec![Some(vec![0; 8]); 3];
        assert_eq!(
            rs.reconstruct(&mut wrong_count),
            Err(CodeError::WrongShardCount {
                got: 3,
                expected: 4
            })
        );
        let mut ragged: Vec<Option<Vec<u8>>> =
            vec![Some(vec![0; 8]), Some(vec![0; 9]), None, Some(vec![0; 8])];
        assert_eq!(
            rs.reconstruct(&mut ragged),
            Err(CodeError::ShardSizeMismatch)
        );
    }

    #[test]
    fn reconstruct_noop_when_complete() {
        let rs = ReedSolomon::new(CodeParams::new(4, 2).unwrap());
        let data = make_data(2, 8, 5);
        let parity = rs.encode(&refs(&data));
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        let before = shards.clone();
        rs.reconstruct(&mut shards).unwrap();
        assert_eq!(shards, before);
    }

    #[test]
    fn decode_block_every_target_every_k_subset() {
        let params = CodeParams::new(6, 3).unwrap();
        let rs = ReedSolomon::new(params);
        let data = make_data(3, 48, 9);
        let parity = rs.encode(&refs(&data));
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity.iter().cloned()).collect();
        // All C(6,3) = 20 subsets of survivors, all 6 targets.
        for a in 0..6 {
            for b in a + 1..6 {
                for c in b + 1..6 {
                    let avail: Vec<(usize, &[u8])> =
                        [a, b, c].iter().map(|&i| (i, full[i].as_slice())).collect();
                    for (target, expect) in full.iter().enumerate().take(6) {
                        let got = rs.decode_block(target, &avail).unwrap();
                        assert_eq!(&got, expect, "target {target} from {a},{b},{c}");
                    }
                }
            }
        }
    }

    #[test]
    fn decode_block_fast_path_when_target_present() {
        let rs = ReedSolomon::new(CodeParams::new(4, 2).unwrap());
        let data = make_data(2, 8, 2);
        let parity = rs.encode(&refs(&data));
        let avail = vec![(1usize, data[1].as_slice()), (2, parity[0].as_slice())];
        assert_eq!(rs.decode_block(1, &avail).unwrap(), data[1]);
    }

    #[test]
    fn decode_block_errors() {
        let rs = ReedSolomon::new(CodeParams::new(4, 2).unwrap());
        let block = vec![0u8; 4];
        assert_eq!(
            rs.decode_block(9, &[(0, block.as_slice())]),
            Err(CodeError::IndexOutOfRange { index: 9, n: 4 })
        );
        assert_eq!(
            rs.decode_block(1, &[(0, block.as_slice())]),
            Err(CodeError::TooFewShards {
                present: 1,
                needed: 2
            })
        );
        // Duplicates only count once.
        assert_eq!(
            rs.decode_block(1, &[(0, block.as_slice()), (0, block.as_slice())]),
            Err(CodeError::TooFewShards {
                present: 1,
                needed: 2
            })
        );
    }

    #[test]
    fn k_equals_n_degenerate_code() {
        // No parity: encode returns nothing, reconstruct requires all.
        let rs = ReedSolomon::new(CodeParams::new(3, 3).unwrap());
        let data = make_data(3, 8, 4);
        assert!(rs.encode(&refs(&data)).is_empty());
        let mut shards: Vec<Option<Vec<u8>>> = data.iter().cloned().map(Some).collect();
        rs.reconstruct(&mut shards).unwrap();
        shards[1] = None;
        assert!(rs.reconstruct(&mut shards).is_err());
    }

    #[test]
    fn k_one_replication_code() {
        // (4, 1): parity blocks are scalar multiples of the single data
        // block; with Vandermonde normalisation they are exact copies.
        let rs = ReedSolomon::new(CodeParams::new(4, 1).unwrap());
        let data = vec![vec![1u8, 2, 3]];
        let parity = rs.encode(&refs(&data));
        assert_eq!(parity.len(), 3);
        for (j, p) in parity.iter().enumerate() {
            let c = rs.coefficient(1 + j, 0);
            let expect: Vec<u8> = data[0].iter().map(|&b| (Gf256(b) * c).value()).collect();
            assert_eq!(*p, expect);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        struct Case {
            n: usize,
            k: usize,
            block_len: usize,
            data: Vec<Vec<u8>>,
        }

        fn case() -> impl Strategy<Value = Case> {
            (2usize..10, 1usize..6, 1usize..64, any::<u8>()).prop_map(
                |(extra, k, block_len, seed)| {
                    let n = k + extra.min(10 - k);
                    let data = (0..k)
                        .map(|i| {
                            (0..block_len)
                                .map(|b| seed.wrapping_add((i * 37 + b * 101) as u8))
                                .collect()
                        })
                        .collect();
                    Case {
                        n,
                        k,
                        block_len,
                        data,
                    }
                },
            )
        }

        proptest! {
            #[test]
            fn round_trip_under_random_loss(case in case(), loss_seed in any::<u64>()) {
                let params = CodeParams::new(case.n, case.k).unwrap();
                let rs = ReedSolomon::new(params);
                let data_refs: Vec<&[u8]> = case.data.iter().map(|d| d.as_slice()).collect();
                let parity = rs.encode(&data_refs);
                let full: Vec<Vec<u8>> = case
                    .data
                    .iter()
                    .cloned()
                    .chain(parity.into_iter())
                    .collect();
                // Drop exactly n - k blocks chosen by the seed.
                let mut order: Vec<usize> = (0..case.n).collect();
                let mut s = loss_seed;
                for i in (1..order.len()).rev() {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    order.swap(i, (s >> 33) as usize % (i + 1));
                }
                let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                for &lost in order.iter().take(case.n - case.k) {
                    shards[lost] = None;
                }
                rs.reconstruct(&mut shards).unwrap();
                for (i, s) in shards.iter().enumerate() {
                    prop_assert_eq!(s.as_deref(), Some(full[i].as_slice()));
                }
                prop_assert_eq!(case.block_len, full[0].len());
            }

            #[test]
            fn parity_rows_mds(k in 1usize..8, extra in 1usize..8) {
                let params = CodeParams::new(k + extra, k).unwrap();
                let rs = ReedSolomon::new(params);
                let mut g = Matrix::zero(params.n(), k);
                for r in 0..params.n() {
                    for c in 0..k {
                        g[(r, c)] = rs.generator_row(r)[c];
                    }
                }
                prop_assert!(g.is_mds_generator());
            }
        }
    }
}

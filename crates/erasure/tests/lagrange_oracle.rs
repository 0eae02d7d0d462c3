//! An independent oracle for eq. 1's coefficients `α_{j,i}`.
//!
//! `ReedSolomon` derives its systematic generator as `V · V_top⁻¹`, with
//! `V = Matrix::vandermonde(n, k)`: row `r` of `V` evaluates a degree-< k
//! polynomial at the point `α^r`. Parity block `j` is therefore the value
//! at `α^j` of the polynomial that interpolates the data blocks at
//! `α^0..α^{k−1}`, and its weight on data block `i` is the Lagrange basis
//! value
//!
//! ```text
//! L_i(α^j) = Π_{m≠i} (α^j + α^m) / (α^i + α^m)    (char 2: − ≡ +)
//! ```
//!
//! The oracle below computes that product with `Gf256` scalar operations
//! only, so it shares no code with `Matrix::inverse` or the slice kernels.

use tq_erasure::{CodeParams, ReedSolomon};
use tq_gf256::{Gf256, Matrix};

/// `L_i(x)` over the interpolation points `points`.
fn lagrange_basis(points: &[Gf256], i: usize, x: Gf256) -> Gf256 {
    points
        .iter()
        .enumerate()
        .filter(|&(m, _)| m != i)
        .map(|(_, &p)| (x + p) / (points[i] + p))
        .product()
}

/// The `k` interpolation points `α^first..α^{first+k−1}`.
fn points(first: u32, k: usize) -> Vec<Gf256> {
    (first..first + k as u32).map(Gf256::alpha_pow).collect()
}

/// Every `(n, k)` with k ≤ 8 and n − k ≤ 7, the paper's (9, 6) and
/// (15, 8) among them.
fn shapes() -> Vec<(usize, usize)> {
    let shapes: Vec<_> = (1..=8)
        .flat_map(|k| (1..=7).map(move |parity| (k + parity, k)))
        .collect();
    assert!(shapes.contains(&(9, 6)) && shapes.contains(&(15, 8)));
    shapes
}

/// Every `(j, i, codec α_{j,i}, oracle value)` of the shape, with the
/// oracle interpolating at `α^first..α^{first+k−1}`.
fn compare(n: usize, k: usize, first: u32) -> Vec<(usize, usize, Gf256, Gf256)> {
    let rs = ReedSolomon::new(CodeParams::new(n, k).expect("valid shape"));
    let nodes = points(first, k);
    let mut rows = Vec::new();
    for j in k..n {
        let x = Gf256::alpha_pow(j as u32);
        for i in 0..k {
            rows.push((j, i, rs.coefficient(j, i), lagrange_basis(&nodes, i, x)));
        }
    }
    rows
}

#[test]
fn interpolation_points_are_the_vandermonde_rows() {
    // Row r of the Vandermonde matrix evaluates at α^r: column c is that
    // point to the c-th power. Pinned on its own because the basis values
    // alone cannot see the points: scaling every point by one constant
    // leaves each ratio (x + p) / (q + p) unchanged.
    let v = Matrix::vandermonde(15, 8);
    for (r, point) in points(0, 15).into_iter().enumerate() {
        for c in 0..8 {
            assert_eq!(v[(r, c)], point.pow(c as u32), "({r}, {c})");
        }
    }
}

#[test]
fn every_coefficient_is_the_lagrange_basis_value() {
    for (n, k) in shapes() {
        for (j, i, codec, oracle) in compare(n, k, 0) {
            assert_eq!(codec, oracle, "({n},{k}): α_{{{j},{i}}}");
        }
    }
}

#[test]
fn the_oracle_over_shifted_points_disagrees() {
    // Interpolating at α^1..α^k instead names a different code; if the
    // oracle agreed anyway, the positive test above would prove nothing.
    // k = 1 is exempt: every basis over one point is the constant 1.
    for (n, k) in shapes().into_iter().filter(|&(_, k)| k >= 2) {
        let rows = compare(n, k, 1);
        assert!(
            rows.iter().any(|&(_, _, codec, oracle)| codec != oracle),
            "({n},{k}): the shifted oracle matched every coefficient"
        );
    }
}

//! Dense matrices over GF(2⁸).
//!
//! The systematic (n, k) MDS generator used by `tq-erasure` is derived here:
//! a Vandermonde matrix is reduced so its top k×k block becomes
//! the identity; the remaining (n−k)×k block then holds exactly the
//! coefficients `α_{j,i}` of the paper's eq. 1. Decoding inverts the k×k
//! submatrix picked by whichever k blocks survived.
//!
//! Row-major storage, Gauss–Jordan elimination with partial "pivoting"
//! (any non-zero pivot works — there is no rounding in a finite field).

use core::fmt;
use core::ops::{Index, IndexMut};

use crate::field::Gf256;

/// A dense row-major matrix over GF(2⁸).
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Gf256>,
}

/// Error returned by [`Matrix::inverse`] when the matrix is singular.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrix;

impl fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is singular over GF(256)")
    }
}

impl std::error::Error for SingularMatrix {}

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zero(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![Gf256::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m[(i, i)] = Gf256::ONE;
        }
        m
    }

    /// Builds a matrix from a row-major closure.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Gf256) -> Self {
        let mut m = Matrix::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// `rows × cols` Vandermonde matrix: entry `(r, c) = α_r^c` where
    /// `α_r` is the r-th distinct non-zero evaluation point (`α^r` for the
    /// group generator α).
    ///
    /// Any k rows of an `n × k` Vandermonde matrix with distinct points are
    /// linearly independent, which is exactly the MDS property needed.
    ///
    /// # Panics
    /// Panics if `rows > 255` (not enough distinct non-zero points).
    pub fn vandermonde(rows: usize, cols: usize) -> Self {
        assert!(
            rows <= 255,
            "GF(256) Vandermonde supports at most 255 rows, got {rows}"
        );
        Matrix::from_fn(rows, cols, |r, c| Gf256::alpha_pow(r as u32).pow(c as u32))
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[Gf256] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self × rhs`.
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.rows`.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matrix product dimension mismatch: {}x{} times {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for r in 0..self.rows {
            for i in 0..self.cols {
                let a = self[(r, i)];
                if a.is_zero() {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(i, c)];
                }
            }
        }
        out
    }

    /// Extracts the submatrix formed by the given rows (all columns).
    ///
    /// # Panics
    /// Panics if any index is out of bounds or `rows` is empty.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        assert!(!rows.is_empty(), "select_rows: empty selection");
        Matrix::from_fn(rows.len(), self.cols, |r, c| {
            assert!(rows[r] < self.rows, "row index {} out of bounds", rows[r]);
            self[(rows[r], c)]
        })
    }

    /// Horizontal concatenation `[self | rhs]`.
    ///
    /// # Panics
    /// Panics if row counts differ.
    fn augment(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "augment: row count mismatch");
        Matrix::from_fn(self.rows, self.cols + rhs.cols, |r, c| {
            if c < self.cols {
                self[(r, c)]
            } else {
                rhs[(r, c - self.cols)]
            }
        })
    }

    /// Gauss–Jordan inverse.
    ///
    /// # Errors
    /// Returns [`SingularMatrix`] if no inverse exists.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn inverse(&self) -> Result<Matrix, SingularMatrix> {
        assert_eq!(self.rows, self.cols, "inverse of a non-square matrix");
        let n = self.rows;
        let mut work = self.augment(&Matrix::identity(n));
        work.gauss_jordan()?;
        Ok(Matrix::from_fn(n, n, |r, c| work[(r, c + n)]))
    }

    /// Reduces `self` (in place) to reduced row-echelon form, assuming the
    /// left square block is the system to eliminate. Fails if a pivot
    /// column is all-zero (singular left block).
    fn gauss_jordan(&mut self) -> Result<(), SingularMatrix> {
        let n = self.rows;
        for col in 0..n {
            // Find a non-zero pivot at or below the diagonal.
            let pivot = (col..n)
                .find(|&r| !self[(r, col)].is_zero())
                .ok_or(SingularMatrix)?;
            if pivot != col {
                self.swap_rows(pivot, col);
            }
            // Scale pivot row to make the pivot 1.
            let inv = self[(col, col)].inv();
            for c in 0..self.cols {
                self[(col, c)] *= inv;
            }
            // Eliminate the column from every other row.
            for r in 0..n {
                if r == col || self[(r, col)].is_zero() {
                    continue;
                }
                let factor = self[(r, col)];
                for c in 0..self.cols {
                    let sub = factor * self[(col, c)];
                    self[(r, c)] += sub;
                }
            }
        }
        Ok(())
    }

    /// Swaps two rows in place.
    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (a, b) = (a.min(b), a.max(b));
        let (top, bottom) = self.data.split_at_mut(b * self.cols);
        top[a * self.cols..(a + 1) * self.cols].swap_with_slice(&mut bottom[..self.cols]);
    }

    /// Checks the MDS property of an `n × k` generator matrix: every `k`
    /// rows must be linearly independent. Cost is `C(n, k)` inversions —
    /// intended for construction-time validation and tests, not hot paths.
    pub fn is_mds_generator(&self) -> bool {
        let k = self.cols;
        if self.rows < k {
            return false;
        }
        let mut selection: Vec<usize> = (0..k).collect();
        loop {
            if self.select_rows(&selection).inverse().is_err() {
                return false;
            }
            // Advance the combination (lexicographic).
            let mut i = k;
            loop {
                if i == 0 {
                    return true;
                }
                i -= 1;
                if selection[i] != i + self.rows - k {
                    selection[i] += 1;
                    for j in i + 1..k {
                        selection[j] = selection[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = Gf256;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Gf256 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Gf256 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A matrix literal from rows of raw bytes.
    fn from_rows(rows: &[&[u8]]) -> Matrix {
        Matrix::from_fn(rows.len(), rows[0].len(), |r, c| Gf256(rows[r][c]))
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let m = Matrix::vandermonde(4, 4);
        let i = Matrix::identity(4);
        assert_eq!(m.mul(&i), m);
        assert_eq!(i.mul(&m), m);
    }

    #[test]
    fn inverse_round_trip_small() {
        let m = from_rows(&[&[1, 2], &[3, 4]]);
        let inv = m.inverse().expect("invertible");
        assert_eq!(m.mul(&inv), Matrix::identity(2));
        assert_eq!(inv.mul(&m), Matrix::identity(2));
    }

    #[test]
    fn singular_matrix_detected() {
        // Two identical rows.
        let m = from_rows(&[&[1, 2], &[1, 2]]);
        assert_eq!(m.inverse(), Err(SingularMatrix));
    }

    #[test]
    fn zero_matrix_rank() {
        // Rank 0: singular, and no k rows of it are independent.
        assert_eq!(Matrix::zero(3, 3).inverse(), Err(SingularMatrix));
        assert!(!Matrix::zero(4, 2).is_mds_generator());
    }

    #[test]
    fn vandermonde_rows_independent() {
        // Any k rows of an n×k Vandermonde with distinct points form an
        // invertible matrix.
        let v = Matrix::vandermonde(8, 4);
        assert!(v.is_mds_generator());
    }

    #[test]
    fn select_rows_and_augment() {
        let m = from_rows(&[&[1, 2], &[3, 4], &[5, 6]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s, from_rows(&[&[5, 6], &[1, 2]]));
        let a = s.augment(&Matrix::identity(2));
        assert_eq!(a.cols(), 4);
        assert_eq!(a[(0, 2)], Gf256::ONE);
        assert_eq!(a[(1, 3)], Gf256::ONE);
    }

    #[test]
    fn swap_rows_works() {
        let mut m = from_rows(&[&[1, 2], &[3, 4]]);
        m.swap_rows(0, 1);
        assert_eq!(m, from_rows(&[&[3, 4], &[1, 2]]));
        m.swap_rows(1, 1); // no-op
        assert_eq!(m, from_rows(&[&[3, 4], &[1, 2]]));
    }

    #[test]
    #[should_panic(expected = "non-square")]
    fn inverse_non_square_panics() {
        let _ = Matrix::zero(2, 3).inverse();
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn random_matrix(n: usize) -> impl Strategy<Value = Matrix> {
            proptest::collection::vec(any::<u8>(), n * n)
                .prop_map(move |bytes| Matrix::from_fn(n, n, |r, c| Gf256(bytes[r * n + c])))
        }

        proptest! {
            #[test]
            fn inverse_round_trips(m in (2usize..7).prop_flat_map(random_matrix)) {
                if let Ok(inv) = m.inverse() {
                    prop_assert_eq!(m.mul(&inv), Matrix::identity(m.rows()));
                    prop_assert_eq!(inv.mul(&m), Matrix::identity(m.rows()));
                } else {
                    // Singular: so is the transpose.
                    let n = m.rows();
                    let t = Matrix::from_fn(n, n, |r, c| m[(c, r)]);
                    prop_assert!(t.inverse().is_err());
                }
            }

            #[test]
            fn product_associative(
                a in random_matrix(4),
                b in random_matrix(4),
                c in random_matrix(4),
            ) {
                prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
            }

            #[test]
            fn vandermonde_is_mds(
                k in 1usize..6,
                extra in 1usize..5,
            ) {
                let v = Matrix::vandermonde(k + extra, k);
                prop_assert!(v.is_mds_generator());
            }
        }
    }
}

//! The [`Gf256`] element type: GF(2⁸) with operator overloading.

// Clippy flags `^` inside Add/Sub impls as suspicious; in GF(2^8) XOR *is*
// field addition (and subtraction), so the operators are exactly right.
#![allow(clippy::suspicious_arithmetic_impl)]
#![allow(clippy::suspicious_op_assign_impl)]

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::tables;

/// An element of GF(2⁸) over the polynomial `0x11D`.
///
/// `Gf256` is a transparent wrapper over `u8`; it exists so the type system
/// distinguishes *field elements* (coding coefficients, matrix entries)
/// from *raw bytes* (block payloads). The bulk kernels in
/// [`crate::slice_ops`] deliberately work on `u8` slices instead — payloads
/// stay `[u8]`, coefficients become `Gf256`.
///
/// Addition and subtraction are both XOR (characteristic 2); the additive
/// inverse of any element is itself.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Gf256(pub u8);

impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);
    /// The generator α = 2 of the multiplicative group.
    pub const GENERATOR: Gf256 = Gf256(2);

    /// Wraps a raw byte as a field element.
    #[inline]
    pub const fn new(value: u8) -> Self {
        Gf256(value)
    }

    /// Returns the underlying byte.
    #[inline]
    pub const fn value(self) -> u8 {
        self.0
    }

    /// `true` iff this is the additive identity.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on [`Gf256::ZERO`] — zero has no inverse.
    #[inline]
    pub const fn inv(self) -> Self {
        Gf256(tables::inv(self.0))
    }

    /// Exponentiation `self^e`, with the conventions `x^0 = 1`, `0^e = 0`
    /// for `e > 0`.
    #[inline]
    pub const fn pow(self, e: u32) -> Self {
        Gf256(tables::pow(self.0, e))
    }

    /// `α^e` — the `e`-th power of the group generator.
    #[inline]
    pub const fn alpha_pow(e: u32) -> Self {
        Gf256(tables::pow(2, e))
    }
}

impl From<u8> for Gf256 {
    #[inline]
    fn from(v: u8) -> Self {
        Gf256(v)
    }
}

impl From<Gf256> for u8 {
    #[inline]
    fn from(v: Gf256) -> Self {
        v.0
    }
}

impl fmt::Debug for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf256(0x{:02x})", self.0)
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02x}", self.0)
    }
}

impl Add for Gf256 {
    type Output = Gf256;
    #[inline]
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf256 {
    #[inline]
    fn add_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf256 {
    type Output = Gf256;
    #[inline]
    fn sub(self, rhs: Gf256) -> Gf256 {
        // Characteristic 2: subtraction is addition.
        Gf256(self.0 ^ rhs.0)
    }
}

impl SubAssign for Gf256 {
    #[inline]
    fn sub_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Neg for Gf256 {
    type Output = Gf256;
    #[inline]
    fn neg(self) -> Gf256 {
        // -x = x in characteristic 2.
        self
    }
}

impl Mul for Gf256 {
    type Output = Gf256;
    #[inline]
    fn mul(self, rhs: Gf256) -> Gf256 {
        Gf256(tables::mul(self.0, rhs.0))
    }
}

impl MulAssign for Gf256 {
    #[inline]
    fn mul_assign(&mut self, rhs: Gf256) {
        self.0 = tables::mul(self.0, rhs.0);
    }
}

impl Div for Gf256 {
    type Output = Gf256;
    #[inline]
    fn div(self, rhs: Gf256) -> Gf256 {
        Gf256(tables::div(self.0, rhs.0))
    }
}

impl DivAssign for Gf256 {
    #[inline]
    fn div_assign(&mut self, rhs: Gf256) {
        self.0 = tables::div(self.0, rhs.0);
    }
}

impl Sum for Gf256 {
    fn sum<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ZERO, |acc, x| acc + x)
    }
}

impl<'a> Sum<&'a Gf256> for Gf256 {
    fn sum<I: Iterator<Item = &'a Gf256>>(iter: I) -> Gf256 {
        iter.copied().sum()
    }
}

impl Product for Gf256 {
    fn product<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ONE, |acc, x| acc * x)
    }
}

impl<'a> Product<&'a Gf256> for Gf256 {
    fn product<I: Iterator<Item = &'a Gf256>>(iter: I) -> Gf256 {
        iter.copied().product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        assert!(Gf256::ZERO.is_zero());
        assert_eq!(Gf256::ONE * Gf256::ONE, Gf256::ONE);
        assert_eq!(Gf256::GENERATOR.pow(255), Gf256::ONE);
    }

    #[test]
    fn add_is_xor_and_self_inverse() {
        for a in (0..=255).map(Gf256) {
            assert_eq!(a + a, Gf256::ZERO);
            assert_eq!(-a, a);
            assert_eq!(a - a, Gf256::ZERO);
        }
    }

    #[test]
    fn sum_and_product_impls() {
        let xs = [Gf256(3), Gf256(7), Gf256(11)];
        let s: Gf256 = xs.iter().sum();
        assert_eq!(s, Gf256(3 ^ 7 ^ 11));
        let p: Gf256 = xs.iter().product();
        assert_eq!(p, Gf256(3) * Gf256(7) * Gf256(11));
    }

    #[test]
    fn checked_inv() {
        for a in (1..=255).map(Gf256) {
            assert_eq!(a.inv() * a, Gf256::ONE);
        }
    }

    #[test]
    fn alpha_pow_cycles() {
        assert_eq!(Gf256::alpha_pow(0), Gf256::ONE);
        assert_eq!(Gf256::alpha_pow(255), Gf256::ONE);
        assert_eq!(Gf256::alpha_pow(1), Gf256::GENERATOR);
        // all powers distinct within one period
        let mut seen = std::collections::HashSet::new();
        for e in 0..255 {
            assert!(seen.insert(Gf256::alpha_pow(e)));
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Gf256(0xAB)), "ab");
        assert_eq!(format!("{:?}", Gf256(0x0F)), "Gf256(0x0f)");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn gf() -> impl Strategy<Value = Gf256> {
            any::<u8>().prop_map(Gf256)
        }

        proptest! {
            #[test]
            fn addition_commutative(a in gf(), b in gf()) {
                prop_assert_eq!(a + b, b + a);
            }

            #[test]
            fn addition_associative(a in gf(), b in gf(), c in gf()) {
                prop_assert_eq!((a + b) + c, a + (b + c));
            }

            #[test]
            fn multiplication_commutative(a in gf(), b in gf()) {
                prop_assert_eq!(a * b, b * a);
            }

            #[test]
            fn multiplication_associative(a in gf(), b in gf(), c in gf()) {
                prop_assert_eq!((a * b) * c, a * (b * c));
            }

            #[test]
            fn distributivity(a in gf(), b in gf(), c in gf()) {
                prop_assert_eq!(a * (b + c), a * b + a * c);
            }

            #[test]
            fn additive_identity(a in gf()) {
                prop_assert_eq!(a + Gf256::ZERO, a);
            }

            #[test]
            fn multiplicative_identity(a in gf()) {
                prop_assert_eq!(a * Gf256::ONE, a);
            }

            #[test]
            fn division_inverts_multiplication(a in gf(), b in gf()) {
                prop_assume!(!b.is_zero());
                prop_assert_eq!(a * b / b, a);
            }

            #[test]
            fn pow_adds_exponents(a in gf(), e1 in 0u32..512, e2 in 0u32..512) {
                prop_assert_eq!(a.pow(e1) * a.pow(e2), a.pow(e1 + e2));
            }
        }
    }
}

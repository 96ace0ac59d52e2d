//! Unsigned integers of a fixed number of limbs, for hot loops whose
//! values have a bit bound known before the loop starts.

use crate::uint::div_rem_limb;
use crate::BigUint;
use std::cmp::Ordering;
use std::fmt;

/// An unsigned integer in exactly `L` little-endian 64-bit limbs.
///
/// The QO_N engine's exact phase bounds the bits of every value it will
/// compute before it starts, and runs on the narrowest width that holds
/// them. A `FixedUint` lives inline, is `Copy`, and every operation runs
/// over all `L` limbs with no length bookkeeping and no allocation. An
/// operation whose result needs more than `L` limbs panics, as
/// [`BigUint::div_exact_assign`] does on a remainder: the caller's bound
/// is checked, never assumed.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedUint<const L: usize>([u64; L]);

impl<const L: usize> Default for FixedUint<L> {
    fn default() -> Self {
        FixedUint([0; L])
    }
}

impl<const L: usize> FixedUint<L> {
    /// `v` in `L` limbs; panics if it needs more.
    pub fn from_big(v: &BigUint) -> Self {
        let limbs = v.limbs();
        assert!(limbs.len() <= L, "FixedUint overflow: {} limbs into {L}", limbs.len());
        FixedUint(std::array::from_fn(|i| limbs.get(i).copied().unwrap_or(0)))
    }

    /// The same value as a [`BigUint`].
    pub fn to_big(&self) -> BigUint {
        BigUint::from_limb_slice(&self.0)
    }

    /// `self = a + b·c`; panics if the result needs more than `L` limbs.
    #[inline]
    pub fn set_mul_add(&mut self, a: &Self, b: &Self, c: u64) {
        let mut carry = 0u64;
        for ((out, &x), &y) in self.0.iter_mut().zip(&a.0).zip(&b.0) {
            // (2^64 − 1) + (2^64 − 1)² + (2^64 − 1) = 2^128 − 1.
            let v = u128::from(x) + u128::from(y) * u128::from(c) + u128::from(carry);
            *out = v as u64;
            carry = (v >> 64) as u64;
        }
        assert!(carry == 0, "FixedUint overflow in a multiply-add");
    }

    /// `self *= m`; panics if the product needs more than `L` limbs.
    #[inline]
    pub fn mul_assign_u64(&mut self, m: u64) {
        let mut carry = 0u64;
        for l in &mut self.0 {
            let v = u128::from(*l) * u128::from(m) + u128::from(carry);
            *l = v as u64;
            carry = (v >> 64) as u64;
        }
        assert!(carry == 0, "FixedUint overflow in a multiply");
    }

    /// `self /= d` for a `d` that divides `self`. Panics if `d` is zero or
    /// leaves a remainder.
    #[inline]
    pub fn div_exact_assign_u64(&mut self, d: u64) {
        assert!(d != 0, "FixedUint division by zero");
        assert!(div_rem_limb(&mut self.0, d) == 0, "inexact division");
    }
}

impl<const L: usize> Ord for FixedUint<L> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.0.iter().rev().zip(other.0.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => {}
                unequal => return unequal,
            }
        }
        Ordering::Equal
    }
}

impl<const L: usize> PartialOrd for FixedUint<L> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const L: usize> fmt::Debug for FixedUint<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FixedUint<{L}>({:?})", self.to_big())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_order() {
        let a = BigUint::one() << 130;
        let b = &a + &BigUint::one();
        let (fa, fb) = (FixedUint::<3>::from_big(&a), FixedUint::<3>::from_big(&b));
        assert_eq!(fa.to_big(), a);
        assert!(fa < fb);
        assert_eq!(fb.cmp(&fa), std::cmp::Ordering::Greater);
        assert_eq!(FixedUint::<3>::default().to_big(), BigUint::zero());
    }

    #[test]
    fn arithmetic_matches_biguint() {
        let a = BigUint::from(u64::MAX) << 70;
        let b = (BigUint::one() << 100) + BigUint::from(12345u64);
        let c = 0xDEAD_BEEF_u64;
        let mut out = FixedUint::<4>::default();
        out.set_mul_add(&FixedUint::from_big(&a), &FixedUint::from_big(&b), c);
        let want = &a + &(&b * &BigUint::from(c));
        assert_eq!(out.to_big(), want);
        out.mul_assign_u64(6);
        out.div_exact_assign_u64(6);
        assert_eq!(out.to_big(), want);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn carry_out_panics() {
        let mut x = FixedUint::<2>::from_big(&(BigUint::one() << 127));
        x.mul_assign_u64(2);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn multiply_add_carry_out_panics() {
        let top = FixedUint::<2>::from_big(&(BigUint::one() << 127));
        let mut x = FixedUint::<2>::default();
        x.set_mul_add(&top, &top, 1);
    }

    #[test]
    #[should_panic(expected = "inexact")]
    fn remainder_panics() {
        let mut x = FixedUint::<2>::from_big(&BigUint::from(10u64));
        x.div_exact_assign_u64(3);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn too_wide_a_value_panics() {
        FixedUint::<2>::from_big(&(BigUint::one() << 128));
    }
}

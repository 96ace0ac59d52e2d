//! Unsigned integers of a fixed number of limbs, for hot loops whose
//! values have a bit bound known before the loop starts: the QO_N
//! engine's exact phase and the QO_H exhaustive search run on them
//! through [`crate::ScaledInt`].

use crate::uint::div_rem_limb;
use crate::BigUint;
use std::cmp::Ordering;
use std::fmt;

/// An unsigned integer in exactly `L` little-endian 64-bit limbs.
///
/// An exact search bounds the bits of every value it will compute before
/// it starts, and runs on a width that holds them. A `FixedUint` lives
/// inline, is `Copy`, and every operation runs over all `L` limbs with no
/// length bookkeeping and no allocation. An operation whose result needs
/// more than `L` limbs, or falls below zero, panics, as
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

    /// The value as one limb; panics if it needs more.
    pub(crate) fn low_limb(&self) -> u64 {
        let (low, high) = self.0.split_first().unwrap_or((&0, &[]));
        assert!(high.iter().all(|&l| l == 0), "FixedUint overflow: more than one limb");
        *low
    }

    /// Whether the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&l| l == 0)
    }

    /// `self += x`; panics if the sum needs more than `L` limbs.
    #[inline]
    pub fn add_assign(&mut self, x: &Self) {
        let mut carry = false;
        for (l, &y) in self.0.iter_mut().zip(&x.0) {
            let (sum, c1) = l.overflowing_add(y);
            let (sum, c2) = sum.overflowing_add(u64::from(carry));
            (*l, carry) = (sum, c1 | c2);
        }
        assert!(!carry, "FixedUint overflow in an add");
    }

    /// `self −= x`; panics if `x > self`.
    #[inline]
    pub fn sub_assign(&mut self, x: &Self) {
        let mut borrow = false;
        for (l, &y) in self.0.iter_mut().zip(&x.0) {
            let (diff, b1) = l.overflowing_sub(y);
            let (diff, b2) = diff.overflowing_sub(u64::from(borrow));
            (*l, borrow) = (diff, b1 | b2);
        }
        assert!(!borrow, "FixedUint underflow in a subtraction");
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
    fn add_and_sub_match_biguint() {
        let a = (BigUint::one() << 191) + BigUint::from(u64::MAX);
        let b = (BigUint::one() << 130) + BigUint::one();
        let mut x = FixedUint::<4>::from_big(&a);
        x.add_assign(&FixedUint::from_big(&b));
        assert_eq!(x.to_big(), &a + &b);
        x.sub_assign(&FixedUint::from_big(&a));
        assert_eq!(x.to_big(), b);
        assert!(!x.is_zero() && FixedUint::<4>::default().is_zero());
        assert_eq!(FixedUint::<4>::from_big(&BigUint::from(7u64)).low_limb(), 7);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn add_carry_out_panics() {
        let mut x = FixedUint::<2>::from_big(&(BigUint::one() << 127));
        x.add_assign(&x.clone());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_below_zero_panics() {
        let mut x = FixedUint::<2>::from_big(&(BigUint::one() << 64));
        x.sub_assign(&FixedUint::from_big(&((BigUint::one() << 64) + BigUint::one())));
    }

    #[test]
    #[should_panic(expected = "more than one limb")]
    fn a_two_limb_low_limb_panics() {
        FixedUint::<2>::from_big(&(BigUint::one() << 64)).low_limb();
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

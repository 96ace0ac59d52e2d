//! The integers of the exact searches' scaled arithmetic.

use crate::{BigUint, FixedUint};

/// The integers an exact search computes in once one instance-wide scale
/// has made every value an integer: sums, differences, multiply-adds, and
/// multiplications and exact divisions by the instance's sizes, access
/// costs and selectivity terms. A search has one body, monomorphized per
/// implementation: [`FixedUint`] when a bit bound proved before it starts
/// fits the width, and [`BigUint`] past it.
///
/// Every `FixedUint` add, multiply and multiply-add panics on a carry-out,
/// every subtraction on a borrow, and every exact division on a
/// remainder, so a wrong bound cannot go unnoticed. Values and factors
/// are `Send + Sync`, so a search's workers can share them.
pub trait ScaledInt<'a>: Clone + Default + Ord + Send + Sync {
    /// A size, access cost or selectivity term of the instance: one limb
    /// on a fixed width, a borrowed value on `BigUint`.
    type Factor: Copy + Send + Sync;
    /// `v` as a factor; on a fixed width `v` must fit one limb.
    fn factor(v: &'a BigUint) -> Self::Factor;
    /// `f·g` as one factor, when it is one.
    fn combine(f: Self::Factor, g: Self::Factor) -> Option<Self::Factor>;
    /// `v`; on a fixed width it must fit.
    fn from_big(v: &BigUint) -> Self;
    /// The same value as a [`BigUint`].
    fn to_big(&self) -> BigUint;
    /// Whether the value is zero.
    fn is_zero(&self) -> bool;
    /// `self += x`.
    fn add_assign(&mut self, x: &Self);
    /// `self −= x` for an `x ≤ self`; panics otherwise.
    fn sub_assign(&mut self, x: &Self);
    /// `self = a + b·c`.
    fn set_mul_add(&mut self, a: &Self, b: &Self, c: Self::Factor);
    /// `self = a + b·c` for a computed `c` that fits a factor.
    fn set_mul_add_small(&mut self, a: &Self, b: &Self, c: &Self);
    /// `self *= m`.
    fn mul_factor(&mut self, m: Self::Factor);
    /// `self /= d` for a `d` that divides `self`; panics otherwise.
    fn div_exact_factor(&mut self, d: Self::Factor);
    /// `self /= d` for a computed `d` that fits a factor and divides
    /// `self`; panics otherwise.
    fn div_exact_small(&mut self, d: &Self);

    /// `self *= ∏ factors`.
    #[inline]
    fn mul_product(&mut self, factors: impl Iterator<Item = Self::Factor>) {
        apply_combined(self, factors, Self::mul_factor);
    }

    /// `self /= ∏ factors` for a product that divides `self`.
    #[inline]
    fn div_exact_product(&mut self, factors: impl Iterator<Item = Self::Factor>) {
        apply_combined(self, factors, Self::div_exact_factor);
    }
}

/// `op(x, f)` for the product of `factors`, applied in as few calls as
/// [`ScaledInt::combine`] allows: consecutive factors are multiplied
/// into one while their product is one factor.
#[inline]
fn apply_combined<'a, N: ScaledInt<'a>>(
    x: &mut N,
    factors: impl Iterator<Item = N::Factor>,
    op: impl Fn(&mut N, N::Factor),
) {
    let mut acc: Option<N::Factor> = None;
    for f in factors {
        acc = Some(match acc {
            None => f,
            Some(a) => N::combine(a, f).unwrap_or_else(|| {
                op(x, a);
                f
            }),
        });
    }
    if let Some(a) = acc {
        op(x, a);
    }
}

impl<'a> ScaledInt<'a> for BigUint {
    type Factor = &'a BigUint;

    #[inline]
    fn factor(v: &'a BigUint) -> &'a BigUint {
        v
    }

    /// Only a factor of one combines, into the other: a `BigUint` product
    /// would have nowhere to live.
    #[inline]
    fn combine(f: &'a BigUint, g: &'a BigUint) -> Option<&'a BigUint> {
        if g.is_one() {
            Some(f)
        } else if f.is_one() {
            Some(g)
        } else {
            None
        }
    }

    #[inline]
    fn from_big(v: &BigUint) -> BigUint {
        v.clone()
    }

    #[inline]
    fn to_big(&self) -> BigUint {
        self.clone()
    }

    #[inline]
    fn is_zero(&self) -> bool {
        BigUint::is_zero(self)
    }

    #[inline]
    fn add_assign(&mut self, x: &BigUint) {
        *self += x;
    }

    #[inline]
    fn sub_assign(&mut self, x: &BigUint) {
        *self -= x;
    }

    #[inline]
    fn set_mul_add(&mut self, a: &BigUint, b: &BigUint, c: &'a BigUint) {
        BigUint::set_mul_add(self, a, b, c);
    }

    #[inline]
    fn set_mul_add_small(&mut self, a: &BigUint, b: &BigUint, c: &BigUint) {
        BigUint::set_mul_add(self, a, b, c);
    }

    #[inline]
    fn mul_factor(&mut self, m: &'a BigUint) {
        *self *= m;
    }

    #[inline]
    fn div_exact_factor(&mut self, d: &'a BigUint) {
        self.div_exact_assign(d);
    }

    #[inline]
    fn div_exact_small(&mut self, d: &BigUint) {
        self.div_exact_assign(d);
    }
}

impl<'a, const L: usize> ScaledInt<'a> for FixedUint<L> {
    type Factor = u64;

    /// Only one-limb instances run on a fixed width.
    fn factor(v: &'a BigUint) -> u64 {
        let limbs = v.limbs();
        assert!(limbs.len() <= 1, "a fixed-width search needs one-limb factors");
        limbs.first().copied().unwrap_or(0)
    }

    fn combine(f: u64, g: u64) -> Option<u64> {
        f.checked_mul(g)
    }

    fn from_big(v: &BigUint) -> Self {
        FixedUint::from_big(v)
    }

    fn to_big(&self) -> BigUint {
        FixedUint::to_big(self)
    }

    #[inline]
    fn is_zero(&self) -> bool {
        FixedUint::is_zero(self)
    }

    #[inline]
    fn add_assign(&mut self, x: &Self) {
        FixedUint::add_assign(self, x);
    }

    #[inline]
    fn sub_assign(&mut self, x: &Self) {
        FixedUint::sub_assign(self, x);
    }

    #[inline]
    fn set_mul_add(&mut self, a: &Self, b: &Self, c: u64) {
        FixedUint::set_mul_add(self, a, b, c);
    }

    #[inline]
    fn set_mul_add_small(&mut self, a: &Self, b: &Self, c: &Self) {
        FixedUint::set_mul_add(self, a, b, c.low_limb());
    }

    #[inline]
    fn mul_factor(&mut self, m: u64) {
        self.mul_assign_u64(m);
    }

    #[inline]
    fn div_exact_factor(&mut self, d: u64) {
        self.div_exact_assign_u64(d);
    }

    #[inline]
    fn div_exact_small(&mut self, d: &Self) {
        self.div_exact_assign_u64(d.low_limb());
    }
}

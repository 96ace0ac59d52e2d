//! Always-reduced arbitrary-precision rationals.
//!
//! `BigRational` is the exact number type of the cost models: selectivities
//! in the paper's reductions are reciprocals `1/α`, so intermediate result
//! sizes `N(X) = (∏ tᵢ)·(∏ s_{ij})` and join costs are rationals whose
//! numerator/denominator are astronomically large powers of `α`.

use crate::{BigInt, BigUint, Sign};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number `num / den` with `den > 0` and `gcd(|num|, den) = 1`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigRational {
    num: BigInt,
    den: BigUint,
}

impl BigRational {
    /// The value `0`.
    pub fn zero() -> Self {
        BigRational { num: BigInt::zero(), den: BigUint::one() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigRational { num: BigInt::one(), den: BigUint::one() }
    }

    /// Builds `num / den`, reducing to lowest terms. Panics if `den` is zero.
    pub fn new(num: BigInt, den: BigUint) -> Self {
        assert!(!den.is_zero(), "BigRational with zero denominator");
        if num.is_zero() {
            return BigRational::zero();
        }
        let g = num.magnitude().gcd(&den);
        if g.is_one() {
            BigRational { num, den }
        } else {
            BigRational {
                num: BigInt::from_sign_mag(num.sign(), num.magnitude() / &g),
                den: &den / &g,
            }
        }
    }

    /// Builds the integer `v / 1`.
    pub fn from_int(v: impl Into<BigInt>) -> Self {
        BigRational { num: v.into(), den: BigUint::one() }
    }

    /// Builds the unit fraction `1 / d`. Panics if `d` is zero.
    pub fn recip_of(d: impl Into<BigUint>) -> Self {
        let d = d.into();
        assert!(!d.is_zero(), "reciprocal of zero");
        BigRational { num: BigInt::one(), den: d }
    }

    /// Numerator (signed, reduced).
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// Denominator (positive, reduced).
    pub fn denom(&self) -> &BigUint {
        &self.den
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Whether this is a (reduced) integer.
    pub fn is_integer(&self) -> bool {
        self.den.is_one()
    }

    /// Whether this is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// Whether this is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// Multiplicative inverse. Panics on zero.
    pub fn recip(&self) -> BigRational {
        assert!(!self.is_zero(), "reciprocal of zero");
        BigRational {
            num: BigInt::from_sign_mag(self.num.sign(), self.den.clone()),
            den: self.num.magnitude().clone(),
        }
    }

    /// `self^exp` for a signed exponent (negative exponents invert; panics on
    /// `0^negative`).
    pub fn pow(&self, exp: i64) -> BigRational {
        if exp >= 0 {
            BigRational {
                num: self.num.pow(exp as u64),
                den: self.den.pow(exp as u64),
            }
        } else {
            self.recip().pow(-exp)
        }
    }

    /// Floor to a [`BigInt`].
    pub fn floor(&self) -> BigInt {
        if self.is_integer() {
            return self.num.clone();
        }
        let q = self.num.magnitude() / &self.den;
        match self.num.sign() {
            Sign::Pos => BigInt::from(q),
            Sign::Neg => -(BigInt::from(q) + BigInt::one()),
            Sign::Zero => BigInt::zero(),
        }
    }

    /// Ceiling to a [`BigInt`].
    pub fn ceil(&self) -> BigInt {
        -((-self).floor())
    }

    /// Base-2 logarithm as `f64` (requires a positive value).
    // analyze:allow(no-float-in-exact) -- the explicit lossy bridge into
    // the log/float domain; exact arithmetic never consumes the result.
    pub fn log2(&self) -> f64 {
        assert!(self.is_positive(), "log2 of non-positive rational");
        self.num.magnitude().log2() - self.den.log2()
    }

    /// Lossy conversion to `f64`.
    // analyze:allow(no-float-in-exact) -- the explicit lossy bridge into
    // the log/float domain; exact arithmetic never consumes the result.
    pub fn to_f64(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        let sign = if self.is_negative() { -1.0 } else { 1.0 };
        let l = self.log2_signed();
        if l.abs() < 900.0 {
            sign * (self.num.magnitude().to_f64() / self.den.to_f64())
        } else {
            sign * l.exp2()
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> BigRational {
        BigRational { num: self.num.abs(), den: self.den.clone() }
    }

    /// `min` by value.
    pub fn min(self, other: BigRational) -> BigRational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// `max` by value.
    pub fn max(self, other: BigRational) -> BigRational {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for BigRational {
    fn default() -> Self {
        BigRational::zero()
    }
}

impl From<u64> for BigRational {
    fn from(v: u64) -> Self {
        BigRational::from_int(BigInt::from(v))
    }
}

impl From<i64> for BigRational {
    fn from(v: i64) -> Self {
        BigRational::from_int(BigInt::from(v))
    }
}

impl From<BigUint> for BigRational {
    fn from(v: BigUint) -> Self {
        BigRational::from_int(BigInt::from(v))
    }
}

impl From<BigInt> for BigRational {
    fn from(v: BigInt) -> Self {
        BigRational::from_int(v)
    }
}

impl PartialOrd for BigRational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// `n·d` for a signed `n` and unsigned `d`, without widening `d` to a
/// [`BigInt`] first.
fn scale(n: &BigInt, d: &BigUint) -> BigInt {
    BigInt::from_sign_mag(n.sign(), n.magnitude() * d)
}

impl Ord for BigRational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Equal positive denominators (both 1 for two integers) order the
        // values as their numerators.
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // Cross-multiply: num1/den1 <=> num2/den2  iff  num1*den2 <=> num2*den1.
        scale(&self.num, &other.den).cmp(&scale(&other.num, &self.den))
    }
}

impl Add<&BigRational> for &BigRational {
    type Output = BigRational;
    fn add(self, rhs: &BigRational) -> BigRational {
        // Integer operand c: a/b + c = (a + c·b)/b is already reduced, since
        // gcd(a + c·b, b) = gcd(a, b) = 1. No GCD needed; a zero sum can
        // only arise when b = 1, where `0/1` is the canonical zero.
        if self.den.is_one() || rhs.den.is_one() {
            let (frac, int) = if rhs.den.is_one() { (self, rhs) } else { (rhs, self) };
            let num = if frac.den.is_one() {
                &frac.num + &int.num
            } else {
                &frac.num + &scale(&int.num, &frac.den)
            };
            return BigRational { num, den: frac.den.clone() };
        }
        let num = &scale(&self.num, &rhs.den) + &scale(&rhs.num, &self.den);
        BigRational::new(num, &self.den * &rhs.den)
    }
}

impl Sub<&BigRational> for &BigRational {
    type Output = BigRational;
    fn sub(self, rhs: &BigRational) -> BigRational {
        self + &(-rhs)
    }
}

impl Mul<&BigRational> for &BigRational {
    type Output = BigRational;
    fn mul(self, rhs: &BigRational) -> BigRational {
        // Cross-reduce before multiplying to keep intermediates small.
        let g1 = self.num.magnitude().gcd(&rhs.den);
        let g2 = rhs.num.magnitude().gcd(&self.den);
        let n1 = if g1.is_one() { self.num.clone() } else { BigInt::from_sign_mag(self.num.sign(), self.num.magnitude() / &g1) };
        let n2 = if g2.is_one() { rhs.num.clone() } else { BigInt::from_sign_mag(rhs.num.sign(), rhs.num.magnitude() / &g2) };
        let d1 = if g2.is_one() { self.den.clone() } else { &self.den / &g2 };
        let d2 = if g1.is_one() { rhs.den.clone() } else { &rhs.den / &g1 };
        let num = &n1 * &n2;
        if num.is_zero() {
            return BigRational::zero();
        }
        BigRational { num, den: &d1 * &d2 }
    }
}

impl Div<&BigRational> for &BigRational {
    type Output = BigRational;
    // Division *is* multiplication by the reciprocal here.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: &BigRational) -> BigRational {
        self * &rhs.recip()
    }
}

impl Neg for &BigRational {
    type Output = BigRational;
    fn neg(self) -> BigRational {
        BigRational { num: -&self.num, den: self.den.clone() }
    }
}

impl Neg for BigRational {
    type Output = BigRational;
    fn neg(self) -> BigRational {
        BigRational { num: -self.num, den: self.den }
    }
}

macro_rules! forward_binop_rat {
    ($trait:ident, $method:ident) => {
        impl $trait<BigRational> for BigRational {
            type Output = BigRational;
            fn $method(self, rhs: BigRational) -> BigRational {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&BigRational> for BigRational {
            type Output = BigRational;
            fn $method(self, rhs: &BigRational) -> BigRational {
                (&self).$method(rhs)
            }
        }
        impl $trait<BigRational> for &BigRational {
            type Output = BigRational;
            fn $method(self, rhs: BigRational) -> BigRational {
                self.$method(&rhs)
            }
        }
    };
}

forward_binop_rat!(Add, add);
forward_binop_rat!(Sub, sub);
forward_binop_rat!(Mul, mul);
forward_binop_rat!(Div, div);

impl std::iter::Sum for BigRational {
    fn sum<I: Iterator<Item = BigRational>>(iter: I) -> Self {
        iter.fold(BigRational::zero(), |acc, x| acc + x)
    }
}

impl std::iter::Product for BigRational {
    fn product<I: Iterator<Item = BigRational>>(iter: I) -> Self {
        iter.fold(BigRational::one(), |acc, x| acc * x)
    }
}

impl fmt::Display for BigRational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_integer() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for BigRational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.num.magnitude().bits().max(self.den.bits()) <= 128 {
            write!(f, "BigRational({self})")
        } else {
            write!(f, "BigRational(~2^{:.2})", self.log2_signed())
        }
    }
}

impl BigRational {
    // analyze:allow(no-float-in-exact) -- Debug-formatting helper on the
    // same lossy log-domain bridge; never feeds exact arithmetic.
    fn log2_signed(&self) -> f64 {
        if self.is_zero() {
            f64::NEG_INFINITY
        } else {
            self.num.magnitude().log2() - self.den.log2()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rat(n: i64, d: u64) -> BigRational {
        BigRational::new(BigInt::from(n), BigUint::from(d))
    }

    #[test]
    fn reduction_invariant() {
        let r = rat(6, 8);
        assert_eq!(r.numer(), &BigInt::from(3i64));
        assert_eq!(r.denom(), &BigUint::from(4u64));
        let r = rat(-10, 5);
        assert_eq!(r, BigRational::from(-2i64));
        assert!(r.is_integer());
    }

    #[test]
    fn field_ops_match_f64_exactly_representable() {
        let a = rat(3, 4);
        let b = rat(-5, 6);
        assert_eq!(&a + &b, rat(-1, 12));
        assert_eq!(&a - &b, rat(19, 12));
        assert_eq!(&a * &b, rat(-5, 8));
        assert_eq!(&a / &b, rat(-9, 10));
    }

    #[test]
    fn pow_and_recip() {
        let half = rat(1, 2);
        assert_eq!(half.pow(10), rat(1, 1024));
        assert_eq!(half.pow(-3), rat(8, 1));
        assert_eq!(half.recip(), rat(2, 1));
        assert_eq!(rat(-2, 3).pow(3), rat(-8, 27));
        assert_eq!(rat(5, 7).pow(0), BigRational::one());
    }

    #[test]
    fn floor_ceil_all_sign_cases() {
        assert_eq!(rat(7, 2).floor(), BigInt::from(3i64));
        assert_eq!(rat(7, 2).ceil(), BigInt::from(4i64));
        assert_eq!(rat(-7, 2).floor(), BigInt::from(-4i64));
        assert_eq!(rat(-7, 2).ceil(), BigInt::from(-3i64));
        assert_eq!(rat(4, 2).floor(), BigInt::from(2i64));
        assert_eq!(rat(4, 2).ceil(), BigInt::from(2i64));
        assert_eq!(BigRational::zero().floor(), BigInt::zero());
    }

    #[test]
    fn ordering_cross_mul() {
        assert!(rat(1, 3) < rat(1, 2));
        assert!(rat(-1, 2) < rat(-1, 3));
        assert!(rat(2, 4) == rat(1, 2));
        let mut v = vec![rat(3, 2), rat(-1, 5), rat(0, 1), rat(7, 3)];
        v.sort();
        assert_eq!(v, vec![rat(-1, 5), rat(0, 1), rat(3, 2), rat(7, 3)]);
    }

    #[test]
    fn log2_of_powers() {
        let v = BigRational::recip_of(BigUint::from(2u64).pow(100));
        assert!((v.log2() + 100.0).abs() < 1e-9);
        let w = BigRational::from(BigUint::from(2u64).pow(64));
        assert!((w.log2() - 64.0).abs() < 1e-9);
    }

    #[test]
    fn to_f64_huge_values_via_log() {
        let huge = BigRational::from(BigUint::from(2u64).pow(2000));
        assert_eq!(huge.to_f64(), f64::INFINITY);
        let tiny = huge.recip();
        assert_eq!(tiny.to_f64(), 0.0);
        let normal = rat(-3, 4);
        assert_eq!(normal.to_f64(), -0.75);
    }

    #[test]
    fn sum_product_iters() {
        let xs = [rat(1, 2), rat(1, 3), rat(1, 6)];
        assert_eq!(xs.iter().cloned().sum::<BigRational>(), BigRational::one());
        assert_eq!(xs.iter().cloned().product::<BigRational>(), rat(1, 36));
    }

    #[test]
    fn min_max() {
        assert_eq!(rat(1, 2).min(rat(1, 3)), rat(1, 3));
        assert_eq!(rat(1, 2).max(rat(1, 3)), rat(1, 2));
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = BigRational::new(BigInt::one(), BigUint::zero());
    }
}

//! The scalar abstraction the cost models are generic over.

use aqo_bignum::{BigRational, BigUint, LogNum};

/// A non-negative cost scalar: exact ([`BigRational`]) or a fast float
/// with an unbounded exponent ([`LogNum`]).
///
/// The reductions produce costs like `α^{Θ(n²)}` with `α = 4^{n^{1/δ}}`;
/// the exact backend certifies inequalities, the float backend keeps the
/// subset-DP optimizer fast. Implementations must preserve the semiring
/// structure and the ordering.
pub trait CostScalar: Clone + PartialOrd {
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Embeds an integer count (relation cardinality, page count).
    fn from_count(v: &BigUint) -> Self;
    /// Embeds an exact non-negative rational (selectivity, intermediate size).
    fn from_ratio(r: &BigRational) -> Self;
    /// Addition.
    fn add(&self, other: &Self) -> Self;
    /// Multiplication.
    fn mul(&self, other: &Self) -> Self;
    /// Base-2 logarithm (`-inf` for zero) for reporting.
    fn log2(&self) -> f64;

    /// The smaller of two scalars (total order assumed on valid values).
    fn min_of(a: Self, b: Self) -> Self {
        if a <= b {
            a
        } else {
            b
        }
    }
}

impl CostScalar for BigRational {
    fn zero() -> Self {
        BigRational::zero()
    }
    fn one() -> Self {
        BigRational::one()
    }
    fn from_count(v: &BigUint) -> Self {
        BigRational::from(v.clone())
    }
    fn from_ratio(r: &BigRational) -> Self {
        assert!(!r.is_negative(), "cost scalars are non-negative");
        r.clone()
    }
    fn add(&self, other: &Self) -> Self {
        self + other
    }
    fn mul(&self, other: &Self) -> Self {
        self * other
    }
    fn log2(&self) -> f64 {
        if self.is_zero() {
            f64::NEG_INFINITY
        } else {
            BigRational::log2(self)
        }
    }
}

impl CostScalar for LogNum {
    fn zero() -> Self {
        LogNum::ZERO
    }
    fn one() -> Self {
        LogNum::ONE
    }
    fn from_count(v: &BigUint) -> Self {
        LogNum::from_uint(v)
    }
    fn from_ratio(r: &BigRational) -> Self {
        assert!(!r.is_negative(), "cost scalars are non-negative");
        LogNum::from_uint(r.numer().magnitude()) / LogNum::from_uint(r.denom())
    }
    fn add(&self, other: &Self) -> Self {
        *self + *other
    }
    fn mul(&self, other: &Self) -> Self {
        *self * *other
    }
    fn log2(&self) -> f64 {
        LogNum::log2(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_semiring<S: CostScalar + std::fmt::Debug>() {
        let two = S::from_count(&BigUint::from(2u64));
        let three = S::from_count(&BigUint::from(3u64));
        let five = two.add(&three);
        let six = two.mul(&three);
        assert!((five.log2() - 5f64.log2()).abs() < 1e-9);
        assert!((six.log2() - 6f64.log2()).abs() < 1e-9);
        assert!(S::zero() < S::one());
        assert_eq!(S::min_of(two.clone(), three.clone()).log2(), two.log2());
        assert!(S::zero().add(&two).log2() - two.log2() < 1e-12);
        assert!(S::one().mul(&three).log2() - three.log2() < 1e-12);
    }

    #[test]
    fn exact_backend_semiring() {
        check_semiring::<BigRational>();
    }

    #[test]
    fn log_backend_semiring() {
        check_semiring::<LogNum>();
    }

    #[test]
    fn backends_agree_on_ratio_embedding() {
        let r = BigRational::new(aqo_bignum::BigInt::from(3i64), BigUint::from(7u64));
        let exact = <BigRational as CostScalar>::from_ratio(&r);
        let log = <LogNum as CostScalar>::from_ratio(&r);
        assert!((CostScalar::log2(&exact) - CostScalar::log2(&log)).abs() < 1e-9);
    }
}

//! `f64` log₂-domain non-negative numbers.
//!
//! [`LogNum`] stores `log₂(x)` for a non-negative real `x`, with
//! `-inf` representing exact zero. Multiplication and division become
//! addition and subtraction; addition uses a stable log-sum-exp. This is the
//! fast companion of [`BigRational`](crate::BigRational): the subset-DP
//! optimizer and the heuristics run in log domain and the winners are
//! re-costed exactly.

use std::cmp::Ordering;
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, Div, Mul};

/// A non-negative real number stored as its base-2 logarithm.
#[derive(Clone, Copy, PartialEq)]
pub struct LogNum {
    log2: f64,
}

impl LogNum {
    /// Exact zero.
    pub const ZERO: LogNum = LogNum { log2: f64::NEG_INFINITY };
    /// One.
    pub const ONE: LogNum = LogNum { log2: 0.0 };
    /// Positive infinity (useful as an "unreached" optimizer sentinel).
    pub const INFINITY: LogNum = LogNum { log2: f64::INFINITY };

    /// Builds from a base-2 logarithm.
    #[inline]
    pub fn from_log2(log2: f64) -> Self {
        debug_assert!(!log2.is_nan());
        LogNum { log2 }
    }

    /// Builds from a plain value (must be non-negative and not NaN).
    pub fn from_value(v: f64) -> Self {
        assert!(v >= 0.0 && !v.is_nan(), "LogNum requires a non-negative value");
        LogNum { log2: v.log2() }
    }

    /// The stored base-2 logarithm (`-inf` for zero).
    #[inline]
    pub fn log2(self) -> f64 {
        self.log2
    }

    /// Back to a plain `f64` (may overflow to `inf`).
    pub fn to_f64(self) -> f64 {
        self.log2.exp2()
    }

    /// Whether this is exact zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.log2 == f64::NEG_INFINITY
    }

    /// Whether this is finite and nonzero.
    pub fn is_finite_positive(self) -> bool {
        self.log2.is_finite()
    }

    /// `self^k` for an integer power.
    pub fn powi(self, k: i64) -> LogNum {
        if self.is_zero() {
            return if k == 0 { LogNum::ONE } else { LogNum::ZERO };
        }
        LogNum { log2: self.log2 * k as f64 }
    }

    /// The smaller of two values.
    pub fn min(self, other: LogNum) -> LogNum {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two values.
    pub fn max(self, other: LogNum) -> LogNum {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for LogNum {
    fn default() -> Self {
        LogNum::ZERO
    }
}

impl From<u64> for LogNum {
    fn from(v: u64) -> Self {
        LogNum::from_value(v as f64)
    }
}

impl Mul for LogNum {
    type Output = LogNum;
    #[inline]
    fn mul(self, rhs: LogNum) -> LogNum {
        if self.is_zero() || rhs.is_zero() {
            return LogNum::ZERO;
        }
        LogNum { log2: self.log2 + rhs.log2 }
    }
}

impl Div for LogNum {
    type Output = LogNum;
    #[inline]
    fn div(self, rhs: LogNum) -> LogNum {
        assert!(!rhs.is_zero(), "LogNum division by zero");
        if self.is_zero() {
            return LogNum::ZERO;
        }
        LogNum { log2: self.log2 - rhs.log2 }
    }
}

impl Add for LogNum {
    type Output = LogNum;
    /// Stable log-sum-exp: `log₂(2^a + 2^b) = max + log₂(1 + 2^(min−max))`.
    fn add(self, rhs: LogNum) -> LogNum {
        if self.is_zero() {
            return rhs;
        }
        if rhs.is_zero() {
            return self;
        }
        let (hi, lo) = if self.log2 >= rhs.log2 { (self.log2, rhs.log2) } else { (rhs.log2, self.log2) };
        if hi.is_infinite() {
            return LogNum { log2: hi };
        }
        LogNum { log2: hi + (lo - hi).exp2().ln_1p() / std::f64::consts::LN_2 }
    }
}

impl Sum for LogNum {
    fn sum<I: Iterator<Item = LogNum>>(iter: I) -> Self {
        iter.fold(LogNum::ZERO, |a, b| a + b)
    }
}

impl Product for LogNum {
    fn product<I: Iterator<Item = LogNum>>(iter: I) -> Self {
        iter.fold(LogNum::ONE, |a, b| a * b)
    }
}

impl PartialOrd for LogNum {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for LogNum {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for LogNum {
    #[expect(clippy::expect_used, reason = "the NaN-free invariant is enforced at construction")]
    fn cmp(&self, other: &Self) -> Ordering {
        self.log2.partial_cmp(&other.log2).expect("LogNum is NaN-free")
    }
}

impl fmt::Debug for LogNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LogNum(2^{:.4})", self.log2)
    }
}

impl fmt::Display for LogNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            write!(f, "0")
        } else if self.log2.abs() < 40.0 {
            write!(f, "{:.4}", self.to_f64())
        } else {
            write!(f, "2^{:.2}", self.log2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: LogNum, v: f64) {
        assert!((a.to_f64() - v).abs() / v.max(1.0) < 1e-12, "{a:?} != {v}");
    }

    #[test]
    fn semiring_ops() {
        let a = LogNum::from_value(3.0);
        let b = LogNum::from_value(4.0);
        close(a * b, 12.0);
        close(a + b, 7.0);
        close(b / a, 4.0 / 3.0);
        close(a.powi(3), 27.0);
    }

    #[test]
    fn zero_behaviour() {
        let z = LogNum::ZERO;
        let a = LogNum::from_value(5.0);
        assert_eq!(z * a, LogNum::ZERO);
        assert_eq!(z + a, a);
        assert_eq!(a + z, a);
        assert!(z.is_zero());
        assert_eq!(z.powi(3), LogNum::ZERO);
        assert_eq!(z.powi(0), LogNum::ONE);
    }

    #[test]
    fn huge_values_no_overflow() {
        let big = LogNum::from_log2(1.0e6);
        let sum = big + big;
        assert!((sum.log2() - (1.0e6 + 1.0)).abs() < 1e-9);
        let prod = big * big;
        assert!((prod.log2() - 2.0e6).abs() < 1e-9);
    }

    #[test]
    fn ordering_total() {
        let mut v = [LogNum::from_value(2.0), LogNum::ZERO, LogNum::from_value(0.5), LogNum::INFINITY];
        v.sort();
        assert_eq!(v[0], LogNum::ZERO);
        assert_eq!(v[3], LogNum::INFINITY);
        assert!(v[1] < v[2]);
    }

    #[test]
    fn sum_product_iters() {
        let xs = [1.0, 2.0, 3.0, 4.0].map(LogNum::from_value);
        close(xs.iter().copied().sum(), 10.0);
        close(xs.iter().copied().product(), 24.0);
    }

    #[test]
    fn log_sum_exp_precision() {
        // Adding a tiny value to a huge one must not lose the huge one.
        let a = LogNum::from_log2(100.0);
        let b = LogNum::from_log2(-100.0);
        let s = a + b;
        assert!((s.log2() - 100.0).abs() < 1e-12);
    }
}

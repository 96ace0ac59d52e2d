//! Fast non-negative reals over an unbounded exponent range.
//!
//! [`LogNum`] stores a non-negative real as an `f64` mantissa `m` times a
//! *coarse* power of two: `x = m · 2^(512·e)` with `m ∈ [2^-256, 2^256)`
//! and an `i64` exponent `e`. Exact zero and `+∞` are the sentinels
//! `m = 0` and `m = +∞`, both with `e = 0`. The window is so wide that
//! the values the optimizers meet almost never leave `e = 0`, so `add`,
//! `mul`, `div` and `cmp` are one `f64` operation plus a range check on
//! the result's binary exponent. Aligning unequal exponents and moving a
//! result back into the window are exact rescales by `2^±512`, done on an
//! out-of-line slow path. Each of the three arithmetic operations
//! therefore rounds exactly once, to a relative error ≤ 2⁻⁵³, at every
//! magnitude; no operation calls `exp2`, `log2` or `ln_1p`. Those appear
//! only in the conversions [`LogNum::from_log2`], [`LogNum::log2`] and
//! [`LogNum::powi`].
//!
//! This is the fast companion of [`BigRational`](crate::BigRational): the
//! subset-DP optimizer and the heuristics run in it and the winners are
//! re-costed exactly.

use crate::BigUint;
use std::cmp::Ordering;
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, Div, Mul};

/// A non-negative real number: an `f64` mantissa in `[2^-256, 2^256)`
/// times `2^(512·e)` for an `i64` exponent `e`.
///
/// Every value has exactly one representation, so the derived equality is
/// value equality.
#[derive(Clone, Copy, PartialEq)]
pub struct LogNum {
    /// In `[2^-256, 2^256)`; `0` for zero and `+∞` for infinity.
    m: f64,
    /// The coarse exponent; `0` for both sentinels.
    e: i64,
}

/// `2^k` for `-1022 <= k <= 1023`, built from its bits.
const fn pow2(k: i32) -> f64 {
    f64::from_bits(((1023 + k) as u64) << 52)
}

/// Bits per coarse exponent step.
const STEP: i64 = 512;
/// The window's bounds and the exact rescale between adjacent exponents.
const LO: f64 = pow2(-256);
const HI: f64 = pow2(256);
const UP: f64 = pow2(512);
const DOWN: f64 = pow2(-512);
/// Coarse exponents beyond this saturate to zero or infinity in
/// [`LogNum::from_log2`], keeping every exponent sum far from overflow.
const E_MAX: i64 = 1 << 52;

/// Whether `m` lies in the window `[2^-256, 2^256)`: its biased binary
/// exponent in `[1023 − 256, 1023 + 256)`. Zero, `+∞`, NaN and negative
/// values all fail, so a single unsigned compare guards every fast path.
#[inline(always)]
fn in_window(m: f64) -> bool {
    (m.to_bits() >> 52).wrapping_sub(1023 - 256) < 512
}

/// `m · 2^(512·e)` for a finite positive `m`, moved into the window by
/// exact rescales (any finite `f64` is at most five steps away).
#[cold]
fn normalize(mut m: f64, mut e: i64) -> LogNum {
    while m >= HI {
        m *= DOWN;
        e += 1;
    }
    while m < LO {
        m *= UP;
        e -= 1;
    }
    LogNum { m, e }
}

impl LogNum {
    /// Exact zero.
    pub const ZERO: LogNum = LogNum { m: 0.0, e: 0 };
    /// One.
    pub const ONE: LogNum = LogNum { m: 1.0, e: 0 };
    /// Positive infinity (useful as an "unreached" optimizer sentinel).
    pub const INFINITY: LogNum = LogNum { m: f64::INFINITY, e: 0 };

    /// Builds from a base-2 logarithm (`-inf` gives zero, `+inf`
    /// infinity). One `exp2` of the fractional part within the window,
    /// so the value carries the logarithm's own rounding.
    pub fn from_log2(log2: f64) -> Self {
        debug_assert!(!log2.is_nan());
        let e = (log2 / STEP as f64).round();
        if e > E_MAX as f64 {
            return LogNum::INFINITY;
        }
        if e < -E_MAX as f64 {
            return LogNum::ZERO;
        }
        // Exact: `e·512` is a multiple of `log2`'s ulp at this magnitude.
        normalize((log2 - e * STEP as f64).exp2(), e as i64)
    }

    /// Builds from a plain value (must be non-negative and not NaN).
    pub fn from_value(v: f64) -> Self {
        assert!(v >= 0.0 && !v.is_nan(), "LogNum requires a non-negative value");
        if v == 0.0 || v == f64::INFINITY {
            return LogNum { m: v, e: 0 };
        }
        normalize(v, 0)
    }

    /// Builds from an arbitrary-precision integer, correctly rounded: its
    /// top 64 bits with a sticky bit for the rest, one `u64 → f64`
    /// rounding, then exact rescales.
    pub fn from_uint(v: &BigUint) -> Self {
        let (top, shift) = v.top_u64_sticky();
        if top == 0 {
            return LogNum::ZERO;
        }
        let e = (shift / STEP as u64) as i64;
        // `top < 2^64` and the remainder is below 512: `m < 2^576`.
        normalize(top as f64 * pow2((shift % STEP as u64) as i32), e)
    }

    /// The base-2 logarithm (`-inf` for zero, `+inf` for infinity).
    #[inline]
    pub fn log2(self) -> f64 {
        self.m.log2() + self.e as f64 * STEP as f64
    }

    /// Back to a plain `f64` (may overflow to `inf` or underflow to `0`).
    pub fn to_f64(self) -> f64 {
        match self.e {
            0 => self.m,
            1 => self.m * UP,
            2 => self.m * UP * UP,
            -1 => self.m * DOWN,
            -2 => self.m * DOWN * DOWN,
            e if e > 0 => f64::INFINITY,
            _ => 0.0,
        }
    }

    /// Whether this is exact zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.m == 0.0
    }

    /// Whether this is finite and nonzero.
    pub fn is_finite_positive(self) -> bool {
        self.m > 0.0 && self.m.is_finite()
    }

    /// `self^k` for an integer power, through the logarithm.
    pub fn powi(self, k: i64) -> LogNum {
        if k == 0 {
            return LogNum::ONE;
        }
        if self.is_zero() {
            return LogNum::ZERO;
        }
        LogNum::from_log2(self.log2() * k as f64)
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

/// The slow path of [`Mul`]: a sentinel operand or a product outside the
/// window.
#[cold]
#[inline(never)]
fn mul_slow(a: LogNum, b: LogNum) -> LogNum {
    if a.is_zero() || b.is_zero() {
        LogNum::ZERO
    } else if a.m == f64::INFINITY || b.m == f64::INFINITY {
        LogNum::INFINITY
    } else {
        normalize(a.m * b.m, a.e + b.e)
    }
}

impl Mul for LogNum {
    type Output = LogNum;
    #[inline]
    fn mul(self, rhs: LogNum) -> LogNum {
        let m = self.m * rhs.m;
        if in_window(m) {
            return LogNum { m, e: self.e + rhs.e };
        }
        mul_slow(self, rhs)
    }
}

/// The slow path of [`Div`]: a sentinel operand or a quotient outside the
/// window. `∞/∞` stays `∞`.
#[cold]
#[inline(never)]
fn div_slow(a: LogNum, b: LogNum) -> LogNum {
    if a.is_zero() {
        LogNum::ZERO
    } else if a.m == f64::INFINITY {
        LogNum::INFINITY
    } else if b.m == f64::INFINITY {
        LogNum::ZERO
    } else {
        normalize(a.m / b.m, a.e - b.e)
    }
}

impl Div for LogNum {
    type Output = LogNum;
    #[inline]
    fn div(self, rhs: LogNum) -> LogNum {
        assert!(!rhs.is_zero(), "LogNum division by zero");
        let m = self.m / rhs.m;
        if in_window(m) {
            return LogNum { m, e: self.e - rhs.e };
        }
        div_slow(self, rhs)
    }
}

/// The slow path of [`Add`]: a sentinel operand, unequal exponents, or a
/// sum outside the window. The smaller operand is aligned to the larger's
/// exponent by an exact `2^-512` rescale; two or more steps below, it is
/// under `2^-512` of the larger and vanishes in the rounding.
#[cold]
#[inline(never)]
fn add_slow(a: LogNum, b: LogNum) -> LogNum {
    if a.is_zero() {
        return b;
    }
    if b.is_zero() {
        return a;
    }
    if a.m == f64::INFINITY || b.m == f64::INFINITY {
        return LogNum::INFINITY;
    }
    let (hi, lo) = if a.e >= b.e { (a, b) } else { (b, a) };
    match hi.e - lo.e {
        0 => normalize(hi.m + lo.m, hi.e),
        1 => normalize(hi.m + lo.m * DOWN, hi.e),
        _ => hi,
    }
}

impl Add for LogNum {
    type Output = LogNum;
    #[inline]
    fn add(self, rhs: LogNum) -> LogNum {
        if self.e == rhs.e {
            let m = self.m + rhs.m;
            if in_window(m) {
                return LogNum { m, e: self.e };
            }
        }
        add_slow(self, rhs)
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

/// The slow path of [`Ord`]: unequal exponents. Zero and infinity carry
/// `e = 0`, so they rank by class; two finite positive values rank by
/// exponent, since their windows do not overlap.
#[cold]
#[inline(never)]
fn cmp_slow(a: LogNum, b: LogNum) -> Ordering {
    let class = |x: LogNum| match x.m {
        0.0 => 0u8,
        f64::INFINITY => 2,
        _ => 1,
    };
    class(a).cmp(&class(b)).then(a.e.cmp(&b.e))
}

impl PartialOrd for LogNum {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for LogNum {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for LogNum {
    /// Equal exponents compare mantissas: one `f64` compare on values
    /// that are never NaN.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        if self.e != other.e {
            return cmp_slow(*self, *other);
        }
        if self.m < other.m {
            Ordering::Less
        } else if self.m > other.m {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    }
}

impl fmt::Debug for LogNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LogNum(2^{:.4})", self.log2())
    }
}

impl fmt::Display for LogNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let log2 = self.log2();
        if self.is_zero() {
            write!(f, "0")
        } else if log2.abs() < 40.0 {
            write!(f, "{:.4}", self.to_f64())
        } else {
            write!(f, "2^{:.2}", log2)
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

//! Unsigned arbitrary-precision integers.
//!
//! Representation: little-endian `Vec<u64>` limbs with no trailing zero limb;
//! the value zero is the empty limb vector. All operations are implemented
//! from first principles: schoolbook and Karatsuba multiplication, Knuth
//! Algorithm D division, square-and-multiply exponentiation, and a GCD
//! that picks its path by operand size. `BigRational` normalizes every
//! result through that GCD, and the cost models' operands are mostly one
//! or two limbs, so those cases stay in machine words: a single-limb
//! operand reduces the other with one remainder pass (a mask for a power
//! of two) and finishes in `u64`, two-limb pairs run in `u128`, and longer
//! operands run binary GCD in place on two owned buffers until an operand
//! fits a word path.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, BitAnd, Div, Mul, MulAssign, Rem, Shl, Shr, Sub, SubAssign};
use std::str::FromStr;

/// Number of limbs above which multiplication switches to Karatsuba.
const KARATSUBA_THRESHOLD: usize = 32;

/// An unsigned arbitrary-precision integer.
///
/// Invariant: `limbs` never has a trailing (most-significant) zero limb, so
/// the representation of every value is unique and `Eq`/`Ord` can compare
/// limb vectors directly.
#[derive(PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl Clone for BigUint {
    fn clone(&self) -> Self {
        BigUint { limbs: self.limbs.clone() }
    }

    /// Copies into `self`'s limb buffer, which grows only when `source`
    /// has more limbs than it holds: a hot loop can refill one value
    /// without allocating (the derived `clone_from` is `*self = clone()`).
    fn clone_from(&mut self, source: &Self) {
        self.limbs.clone_from(&source.limbs);
    }
}

impl BigUint {
    /// The value `0`.
    #[inline]
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value `1`.
    #[inline]
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds a value from little-endian limbs, normalizing trailing zeros.
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        trim(&mut limbs);
        BigUint { limbs }
    }

    /// Borrows the little-endian limbs (no trailing zero limb).
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Whether this is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Whether this is one.
    #[inline]
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Whether the value is even (zero counts as even).
    #[inline]
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits; `0` for zero.
    pub fn bits(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u64 - 1) * 64 + (64 - top.leading_zeros() as u64),
        }
    }

    /// The top 64 significant bits and the shift they stand at:
    /// `self ≈ top · 2^shift`. Any nonzero bit below the window is folded
    /// into `top`'s lowest bit (a sticky bit), so rounding `top` to fewer
    /// bits rounds `self` itself correctly. A value of at most 64 bits
    /// comes back whole with shift `0`; zero is `(0, 0)`.
    pub(crate) fn top_u64_sticky(&self) -> (u64, u64) {
        let n = self.limbs.len();
        if n < 2 {
            return (self.limbs.first().copied().unwrap_or(0), 0);
        }
        let (hi, lo) = (self.limbs[n - 1], self.limbs[n - 2]);
        let lz = hi.leading_zeros();
        let top = if lz == 0 { hi } else { hi << lz | lo >> (64 - lz) };
        let dropped = lo << lz != 0 || self.limbs[..n - 2].iter().any(|&l| l != 0);
        (top | u64::from(dropped), (n as u64 - 1) * 64 - u64::from(lz))
    }

    /// Value of bit `i` (little-endian bit order).
    pub fn bit(&self, i: u64) -> bool {
        let limb = (i / 64) as usize;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Base-2 logarithm as `f64`; `-inf` for zero.
    ///
    /// Accurate to roughly one ULP of `f64` for any magnitude: the top 128
    /// bits dominate the mantissa and the rest shifts the exponent.
    // analyze:allow(no-float-in-exact) -- the explicit lossy bridge into
    // the log/float domain; exact arithmetic never consumes the result.
    pub fn log2(&self) -> f64 {
        let n = self.limbs.len();
        match n {
            0 => f64::NEG_INFINITY,
            1 => (self.limbs[0] as f64).log2(),
            _ => {
                let hi = self.limbs[n - 1] as u128;
                let lo = self.limbs[n - 2] as u128;
                let top = (hi << 64) | lo;
                (top as f64).log2() + ((n - 2) as f64) * 64.0
            }
        }
    }

    /// Lossy conversion to `f64` (`inf` on overflow).
    // analyze:allow(no-float-in-exact) -- the explicit lossy bridge into
    // the log/float domain; exact arithmetic never consumes the result.
    pub fn to_f64(&self) -> f64 {
        let n = self.limbs.len();
        match n {
            0 => 0.0,
            1 => self.limbs[0] as f64,
            2 => ((self.limbs[1] as u128) << 64 | self.limbs[0] as u128) as f64,
            _ => {
                let top = ((self.limbs[n - 1] as u128) << 64 | self.limbs[n - 2] as u128) as f64;
                top * ((n - 2) as f64 * 64.0).exp2()
            }
        }
    }

    /// Conversion to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Conversion to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some((self.limbs[1] as u128) << 64 | self.limbs[0] as u128),
            _ => None,
        }
    }

    /// `self - other`, or `None` if it would underflow.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut limbs = self.limbs.clone();
        sub_in_place(&mut limbs, &other.limbs);
        Some(BigUint { limbs })
    }

    /// Quotient and remainder; panics on division by zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "BigUint division by zero");
        match self.cmp(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_limb(divisor.limbs[0]);
            return (q, BigUint::from(r));
        }
        self.div_rem_knuth(divisor)
    }

    /// Division by a single limb.
    fn div_rem_limb(&self, d: u64) -> (BigUint, u64) {
        debug_assert!(d != 0);
        let mut q = self.limbs.clone();
        let r = div_rem_limb_in_place(&mut q, d);
        (BigUint { limbs: q }, r)
    }

    /// Knuth Algorithm D (TAOCP Vol. 2, 4.3.1) for multi-limb divisors.
    fn div_rem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        // Normalize so the divisor's top limb has its high bit set.
        #[expect(clippy::unwrap_used, reason = "div_rem sends only multi-limb divisors here")]
        let shift = divisor.limbs.last().unwrap().leading_zeros() as u64;
        let u = self << shift; // dividend
        let v = divisor << shift; // divisor
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        let mut un = u.limbs.clone();
        un.push(0); // u has m+n+1 limbs now
        let vn = &v.limbs;
        let v_top = vn[n - 1];
        let v_second = vn[n - 2];

        let mut q = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // Estimate q_hat from the top two limbs of the current remainder.
            let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut q_hat = num / v_top as u128;
            let mut r_hat = num % v_top as u128;
            while q_hat >> 64 != 0
                || q_hat * v_second as u128 > ((r_hat << 64) | un[j + n - 2] as u128)
            {
                q_hat -= 1;
                r_hat += v_top as u128;
                if r_hat >> 64 != 0 {
                    break;
                }
            }
            // Multiply-and-subtract: un[j..j+n+1] -= q_hat * vn.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = q_hat * vn[i] as u128 + carry;
                carry = p >> 64;
                let sub = (un[j + i] as i128) - ((p as u64) as i128) - borrow;
                un[j + i] = sub as u64;
                borrow = if sub < 0 { 1 } else { 0 };
            }
            let sub = (un[j + n] as i128) - (carry as i128) - borrow;
            un[j + n] = sub as u64;

            if sub < 0 {
                // q_hat was one too large: add the divisor back.
                q_hat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = un[j + i] as u128 + vn[i] as u128 + carry;
                    un[j + i] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
            q[j] = q_hat as u64;
        }
        un.truncate(n);
        let rem = BigUint::from_limbs(un) >> shift;
        (BigUint::from_limbs(q), rem)
    }

    /// Fused multiply-add: `self = a + b·c`, written into `self`'s existing
    /// limb buffer. Allocates nothing once that buffer has room for the
    /// result (Karatsuba-sized products excepted), so a hot loop can reuse
    /// one scratch value across calls.
    pub fn set_mul_add(&mut self, a: &BigUint, b: &BigUint, c: &BigUint) {
        let out = &mut self.limbs;
        out.clear();
        if b.is_zero() || c.is_zero() {
            out.extend_from_slice(&a.limbs);
            return;
        }
        let (long, short) = if b.limbs.len() >= c.limbs.len() {
            (&b.limbs, &c.limbs)
        } else {
            (&c.limbs, &b.limbs)
        };
        if short.len() >= KARATSUBA_THRESHOLD {
            *out = add_limbs(&a.limbs, &mul_limbs(long, short));
            trim(out);
            return;
        }
        // a + b·c < 2^(64·max(|a|, |b|+|c|) + 1): one spare limb suffices,
        // so no carry below runs off the end.
        out.resize((long.len() + short.len()).max(a.limbs.len()) + 1, 0);
        out[..a.limbs.len()].copy_from_slice(&a.limbs);
        for (i, &si) in short.iter().enumerate() {
            if si == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &lj) in long.iter().enumerate() {
                let cur = out[i + j] as u128 + si as u128 * lj as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + long.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        trim(out);
    }

    /// `self /= d` in place for a divisor known to divide `self`. A divisor
    /// of one limb costs one pass over `self` and no allocation (a power of
    /// two only a shift); longer divisors go through [`BigUint::div_rem`].
    ///
    /// Panics if `d` is zero or does not divide `self`: the caller's
    /// exactness claim is checked, never assumed.
    pub fn div_exact_assign(&mut self, d: &BigUint) {
        assert!(!d.is_zero(), "BigUint division by zero");
        match d.limbs[..] {
            [1] => {}
            [x] if x.is_power_of_two() => {
                let k = x.trailing_zeros();
                let low = self.limbs.first().map_or(u64::BITS, |l| l.trailing_zeros());
                assert!(low >= k, "inexact division");
                shr_in_place(&mut self.limbs, k as u64);
            }
            [x] => {
                let mut rem = 0u128;
                for l in self.limbs.iter_mut().rev() {
                    let cur = (rem << 64) | *l as u128;
                    *l = (cur / x as u128) as u64;
                    rem = cur % x as u128;
                }
                assert!(rem == 0, "inexact division");
                trim(&mut self.limbs);
            }
            _ => {
                let (q, r) = self.div_rem(d);
                assert!(r.is_zero(), "inexact division");
                *self = q;
            }
        }
    }

    /// `self^exp` by square-and-multiply.
    pub fn pow(&self, mut exp: u64) -> BigUint {
        if exp == 0 {
            return BigUint::one();
        }
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while exp > 1 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            base = &base * &base;
            exp >>= 1;
        }
        &acc * &base
    }

    /// Greatest common divisor; `gcd(0, x) = x`.
    ///
    /// Allocates only the result when an operand fits one limb or both fit
    /// two, and two working buffers otherwise (the paths are listed in the
    /// module docs).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_one() {
            return other.clone();
        }
        if other.is_zero() || self.is_one() {
            return self.clone();
        }
        gcd_nonzero(&self.limbs, &other.limbs)
    }

    /// Number of trailing zero bits; `0` for zero.
    pub fn trailing_zeros(&self) -> u64 {
        limbs_trailing_zeros(&self.limbs)
    }

    /// Integer square root (floor).
    pub fn isqrt(&self) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        if let Some(v) = self.to_u128() {
            return BigUint::from(u128_isqrt(v));
        }
        // Newton iteration starting above the root.
        let mut x = BigUint::one() << (self.bits().div_ceil(2));
        loop {
            // y = (x + self/x) / 2
            let y = (&x + &(self / &x)) >> 1u64;
            if y >= x {
                return x;
            }
            x = y;
        }
    }

    /// Ceiling of `self^(num/den)` for small rational exponents with
    /// `num <= den` (used for `hjmin(b) = ceil(b^η)`).
    ///
    /// Computed by binary search over candidates `c` with the exact test
    /// `c^den >= self^num`.
    pub fn root_pow_ceil(&self, num: u32, den: u32) -> BigUint {
        assert!(den > 0 && num <= den, "exponent must be in (0, 1]");
        if self.is_zero() {
            return BigUint::zero();
        }
        let target = self.pow(num as u64);
        // c is in [1, 2^(ceil(bits(target)/den))]
        let mut lo = BigUint::one();
        let mut hi = BigUint::one() << target.bits().div_ceil(den as u64);
        // Invariant: lo^den < target <= hi^den or lo == 1.
        if lo.pow(den as u64) >= target {
            return lo;
        }
        while &hi - &lo > BigUint::one() {
            let mid = (&lo + &hi) >> 1u64;
            if mid.pow(den as u64) >= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// Parses a decimal string: ASCII digits only (no sign, no
    /// separators, no whitespace).
    ///
    /// Up to 19 digits is one `u64`; longer strings fold 19-digit chunks
    /// into the limbs in place (`acc = acc·10^19 + chunk`).
    pub fn from_decimal(s: &str) -> Result<BigUint, ParseBigUintError> {
        let bytes = s.as_bytes();
        if bytes.is_empty() || !bytes.iter().all(u8::is_ascii_digit) {
            return Err(ParseBigUintError);
        }
        let digits = |chunk: &[u8]| chunk.iter().fold(0u64, |v, &d| v * 10 + u64::from(d - b'0'));
        // The leading chunk takes the remainder, so every later chunk is a
        // full 19 digits (10^19 < 2^64).
        let lead = match bytes.len() % DECIMAL_CHUNK_DIGITS {
            0 => DECIMAL_CHUNK_DIGITS,
            r => r,
        };
        let mut limbs = Vec::with_capacity(bytes.len() / DECIMAL_CHUNK_DIGITS + 1);
        mul_add_limb(&mut limbs, 0, digits(&bytes[..lead]));
        for chunk in bytes[lead..].chunks_exact(DECIMAL_CHUNK_DIGITS) {
            mul_add_limb(&mut limbs, DECIMAL_CHUNK, digits(chunk));
        }
        Ok(BigUint { limbs })
    }
}

/// Decimal digits per `u64` chunk in decimal parsing and formatting.
const DECIMAL_CHUNK_DIGITS: usize = 19;
/// `10^19`, the largest power of ten below `2^64`.
const DECIMAL_CHUNK: u64 = 10_000_000_000_000_000_000;

/// `limbs = limbs·m + a` in place, keeping the no-trailing-zero invariant
/// (an empty `limbs` is zero, so `m` is irrelevant there).
fn mul_add_limb(limbs: &mut Vec<u64>, m: u64, a: u64) {
    let mut carry = u128::from(a);
    for l in limbs.iter_mut() {
        let cur = u128::from(*l) * u128::from(m) + carry;
        *l = cur as u64;
        carry = cur >> 64;
    }
    if carry != 0 {
        limbs.push(carry as u64);
    }
}

/// Error parsing a [`BigUint`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigUintError;

impl fmt::Display for ParseBigUintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid decimal BigUint literal")
    }
}

impl std::error::Error for ParseBigUintError {}

impl FromStr for BigUint {
    type Err = ParseBigUintError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BigUint::from_decimal(s)
    }
}

fn u128_isqrt(v: u128) -> u128 {
    if v == 0 {
        return 0;
    }
    let mut x = 1u128 << ((128 - v.leading_zeros()).div_ceil(2));
    loop {
        let y = (x + v / x) >> 1;
        if y >= x {
            return x;
        }
        x = y;
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        BigUint::from(v as u64)
    }
}

impl From<usize> for BigUint {
    fn from(v: usize) -> Self {
        BigUint::from(v as u64)
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_limbs(&self.limbs, &other.limbs)
    }
}

/// Compares normalized limb slices (no trailing zero limb).
fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    a.len().cmp(&b.len()).then_with(|| a.iter().rev().cmp(b.iter().rev()))
}

fn limbs_trailing_zeros(limbs: &[u64]) -> u64 {
    for (i, &l) in limbs.iter().enumerate() {
        if l != 0 {
            return i as u64 * 64 + l.trailing_zeros() as u64;
        }
    }
    0
}

/// Pops trailing zero limbs so `limbs` is normalized again.
fn trim(limbs: &mut Vec<u64>) {
    while limbs.last() == Some(&0) {
        limbs.pop();
    }
}

// ---------------------------------------------------------------------------
// Greatest common divisor
// ---------------------------------------------------------------------------

/// `gcd(a, b)` for nonzero normalized limb slices, on the cheapest path
/// the operand sizes allow:
///
/// * one operand a single limb `x`: one remainder pass reduces the other
///   to `r < x`, then `gcd_u64(x, r)`; a power-of-two `x` needs only a
///   mask, so the reductions' `2^k` denominators cost nothing;
/// * both operands two limbs: binary GCD in `u128`;
/// * otherwise [`gcd_binary`] on owned copies.
fn gcd_nonzero(a: &[u64], b: &[u64]) -> BigUint {
    match (a, b) {
        (&[x], long) | (long, &[x]) => BigUint::from(gcd_u64(x, rem_limb(long, x))),
        _ if a.len() <= 2 && b.len() <= 2 => BigUint::from(gcd_u128(limbs_u128(a), limbs_u128(b))),
        _ => gcd_binary(a.to_vec(), b.to_vec()),
    }
}

/// Binary GCD in place on two owned nonzero buffers: each step subtracts
/// the smaller odd operand from the larger and shifts out the zeros,
/// allocating nothing, and hands over to [`gcd_nonzero`]'s word paths as
/// soon as an operand fits one.
fn gcd_binary(mut a: Vec<u64>, mut b: Vec<u64>) -> BigUint {
    let (za, zb) = (limbs_trailing_zeros(&a), limbs_trailing_zeros(&b));
    shr_in_place(&mut a, za);
    shr_in_place(&mut b, zb);
    let odd = loop {
        // Both operands are odd here.
        if a.len() == 1 || b.len() == 1 || (a.len() == 2 && b.len() == 2) {
            break gcd_nonzero(&a, &b);
        }
        if cmp_limbs(&a, &b) == Ordering::Greater {
            std::mem::swap(&mut a, &mut b);
        }
        sub_in_place(&mut b, &a);
        if b.is_empty() {
            break BigUint { limbs: a };
        }
        let z = limbs_trailing_zeros(&b);
        shr_in_place(&mut b, z);
    };
    let common = za.min(zb);
    if common == 0 {
        odd
    } else {
        odd << common
    }
}

/// `limbs mod d` for `d != 0`, most significant limb first.
fn rem_limb(limbs: &[u64], d: u64) -> u64 {
    if d.is_power_of_two() {
        return limbs.first().map_or(0, |&l| l & (d - 1));
    }
    limbs.iter().rev().fold(0u64, |r, &l| (((r as u128) << 64 | l as u128) % d as u128) as u64)
}

/// The value of at most two limbs.
fn limbs_u128(limbs: &[u64]) -> u128 {
    limbs.iter().rev().fold(0u128, |acc, &l| acc << 64 | l as u128)
}

/// Binary GCD on one machine word; `gcd(0, x) = x`.
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Binary GCD on two machine words, finishing in [`gcd_u64`] once both
/// operands fit one; `gcd(0, x) = x`.
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if (a | b) >> 64 == 0 {
            return (gcd_u64(a as u64, b as u64) as u128) << shift;
        }
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `b -= a` in place for normalized `b >= a`, renormalizing `b`.
fn sub_in_place(b: &mut Vec<u64>, a: &[u64]) {
    let mut borrow = false;
    for (i, x) in b.iter_mut().enumerate() {
        let y = a.get(i).copied().unwrap_or(0);
        if i >= a.len() && !borrow {
            break;
        }
        let (d1, b1) = x.overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        *x = d2;
        borrow = b1 || b2;
    }
    debug_assert!(!borrow, "sub_in_place requires b >= a");
    trim(b);
}

/// `v >>= bits` in place, renormalizing `v`.
fn shr_in_place(v: &mut Vec<u64>, bits: u64) {
    let limbs = ((bits / 64) as usize).min(v.len());
    v.drain(..limbs);
    let bit = bits % 64;
    if bit != 0 {
        for i in 0..v.len() {
            let hi = v.get(i + 1).map_or(0, |&h| h << (64 - bit));
            v[i] = v[i] >> bit | hi;
        }
    }
    trim(v);
}

// ---------------------------------------------------------------------------
// Addition / subtraction
// ---------------------------------------------------------------------------

fn add_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u128;
    for (i, &l) in long.iter().enumerate() {
        let s = l as u128 + short.get(i).copied().unwrap_or(0) as u128 + carry;
        out.push(s as u64);
        carry = s >> 64;
    }
    if carry != 0 {
        out.push(carry as u64);
    }
    out
}

impl Add<&BigUint> for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        BigUint::from_limbs(add_limbs(&self.limbs, &rhs.limbs))
    }
}

impl Sub<&BigUint> for &BigUint {
    type Output = BigUint;
    #[expect(
        clippy::expect_used,
        reason = "`-` on naturals is defined only for rhs <= self; checked_sub is the fallible form"
    )]
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.checked_sub(rhs).expect("BigUint subtraction underflow")
    }
}

// ---------------------------------------------------------------------------
// Multiplication
// ---------------------------------------------------------------------------

fn mul_schoolbook(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let cur = out[i + j] as u128 + ai as u128 * bj as u128 + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let cur = out[k] as u128 + carry;
            out[k] = cur as u64;
            carry = cur >> 64;
            k += 1;
        }
    }
    out
}

fn mul_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.len().min(b.len()) < KARATSUBA_THRESHOLD {
        return mul_schoolbook(a, b);
    }
    // Karatsuba: split at half of the shorter length.
    let split = a.len().min(b.len()) / 2;
    let (a0, a1) = a.split_at(split);
    let (b0, b1) = b.split_at(split);
    let a0 = BigUint::from_limbs(a0.to_vec());
    let a1 = BigUint::from_limbs(a1.to_vec());
    let b0 = BigUint::from_limbs(b0.to_vec());
    let b1 = BigUint::from_limbs(b1.to_vec());

    let z0 = BigUint::from_limbs(mul_limbs(&a0.limbs, &b0.limbs));
    let z2 = BigUint::from_limbs(mul_limbs(&a1.limbs, &b1.limbs));
    let sa = &a0 + &a1;
    let sb = &b0 + &b1;
    let z1 = BigUint::from_limbs(mul_limbs(&sa.limbs, &sb.limbs));
    let z1 = &(&z1 - &z0) - &z2;

    let shift = (split * 64) as u64;
    let r = &(&z2 << (2 * shift)) + &(&z1 << shift);
    (&r + &z0).limbs
}

impl Mul<&BigUint> for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        BigUint::from_limbs(mul_limbs(&self.limbs, &rhs.limbs))
    }
}

impl Div<&BigUint> for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).0
    }
}

impl Rem<&BigUint> for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).1
    }
}

impl BitAnd<u64> for &BigUint {
    type Output = u64;
    fn bitand(self, rhs: u64) -> u64 {
        self.limbs.first().copied().unwrap_or(0) & rhs
    }
}

// Shifts ---------------------------------------------------------------------

impl Shl<u64> for &BigUint {
    type Output = BigUint;
    fn shl(self, rhs: u64) -> BigUint {
        if self.is_zero() || rhs == 0 {
            return self.clone();
        }
        let limb_shift = (rhs / 64) as usize;
        let bit_shift = rhs % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }
}

impl Shr<u64> for &BigUint {
    type Output = BigUint;
    fn shr(self, rhs: u64) -> BigUint {
        if self.is_zero() || rhs == 0 {
            return self.clone();
        }
        let limb_shift = ((rhs / 64) as usize).min(self.limbs.len());
        let mut limbs = self.limbs[limb_shift..].to_vec();
        shr_in_place(&mut limbs, rhs % 64);
        BigUint { limbs }
    }
}

// Owned-operand forwarding ----------------------------------------------------

macro_rules! forward_binop {
    ($trait:ident, $method:ident) => {
        impl $trait<BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                (&self).$method(rhs)
            }
        }
        impl $trait<BigUint> for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                self.$method(&rhs)
            }
        }
    };
}

forward_binop!(Add, add);
forward_binop!(Sub, sub);
forward_binop!(Mul, mul);
forward_binop!(Div, div);
forward_binop!(Rem, rem);

impl Shl<u64> for BigUint {
    type Output = BigUint;
    fn shl(self, rhs: u64) -> BigUint {
        (&self) << rhs
    }
}

impl Shr<u64> for BigUint {
    type Output = BigUint;
    fn shr(self, rhs: u64) -> BigUint {
        (&self) >> rhs
    }
}

impl Shr<u32> for BigUint {
    type Output = BigUint;
    fn shr(self, rhs: u32) -> BigUint {
        (&self) >> rhs as u64
    }
}

impl AddAssign<&BigUint> for BigUint {
    /// Adds into `self`'s limb buffer, which grows only by the limbs the
    /// sum needs: no allocation once it has room.
    fn add_assign(&mut self, rhs: &BigUint) {
        let out = &mut self.limbs;
        if out.len() < rhs.limbs.len() {
            out.resize(rhs.limbs.len(), 0);
        }
        let mut carry = false;
        for (i, l) in out.iter_mut().enumerate() {
            let r = rhs.limbs.get(i).copied().unwrap_or(0);
            if i >= rhs.limbs.len() && !carry {
                break;
            }
            let (s, c1) = l.overflowing_add(r);
            let (s, c2) = s.overflowing_add(u64::from(carry));
            *l = s;
            carry = c1 || c2;
        }
        if carry {
            out.push(1);
        }
    }
}

impl SubAssign<&BigUint> for BigUint {
    /// Subtracts in place; panics on underflow.
    fn sub_assign(&mut self, rhs: &BigUint) {
        assert!(*self >= *rhs, "BigUint subtraction underflow");
        sub_in_place(&mut self.limbs, &rhs.limbs);
    }
}

impl MulAssign<&BigUint> for BigUint {
    /// A one-limb `rhs` multiplies in place (at most one limb appended);
    /// anything longer builds a new product.
    fn mul_assign(&mut self, rhs: &BigUint) {
        match rhs.limbs[..] {
            [] => self.limbs.clear(),
            [m] => {
                let mut carry = 0u128;
                for l in self.limbs.iter_mut() {
                    let cur = *l as u128 * m as u128 + carry;
                    *l = cur as u64;
                    carry = cur >> 64;
                }
                if carry != 0 {
                    self.limbs.push(carry as u64);
                }
            }
            _ => *self = &*self * rhs,
        }
    }
}

// ---------------------------------------------------------------------------
// Formatting
// ---------------------------------------------------------------------------

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.limbs[..] {
            [] => f.pad_integral(true, "", "0"),
            [v] => fmt::Display::fmt(&v, f),
            _ => {
                // Peel off 19 decimal digits at a time from a scratch copy,
                // writing them right to left into one digit buffer (a
                // limb is below 10^20, so 20 digits per limb always fit).
                let mut rest = self.limbs.clone();
                let mut buf = vec![0u8; 20 * rest.len()];
                let mut start = buf.len();
                loop {
                    let mut chunk = div_rem_limb_in_place(&mut rest, DECIMAL_CHUNK);
                    // Inner chunks are zero-padded to 19 digits; the most
                    // significant one (nonzero, as the value is) is not.
                    let width = if rest.is_empty() { 0 } else { DECIMAL_CHUNK_DIGITS };
                    let mut written = 0;
                    while chunk != 0 || written < width {
                        start -= 1;
                        buf[start] = b'0' + (chunk % 10) as u8;
                        chunk /= 10;
                        written += 1;
                    }
                    if rest.is_empty() {
                        break;
                    }
                }
                let digits = std::str::from_utf8(&buf[start..]).map_err(|_| fmt::Error)?;
                f.pad_integral(true, "", digits)
            }
        }
    }
}

/// `limbs /= d` in place (renormalized); returns the remainder.
fn div_rem_limb_in_place(limbs: &mut Vec<u64>, d: u64) -> u64 {
    let mut rem = 0u128;
    for l in limbs.iter_mut().rev() {
        let cur = (rem << 64) | u128::from(*l);
        *l = (cur / u128::from(d)) as u64;
        rem = cur % u128::from(d);
    }
    trim(limbs);
    rem as u64
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bits() <= 256 {
            write!(f, "BigUint({self})")
        } else {
            write!(f, "BigUint(~2^{:.2})", self.log2())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
        assert_eq!(BigUint::from(0u64), BigUint::zero());
    }

    #[test]
    fn add_small() {
        assert_eq!(big(2) + big(3), big(5));
        assert_eq!(big(u64::MAX as u128) + big(1), big(1u128 << 64));
    }

    #[test]
    fn sub_small() {
        assert_eq!(big(5) - big(3), big(2));
        assert_eq!(big(1u128 << 64) - big(1), big(u64::MAX as u128));
        assert_eq!(big(7).checked_sub(&big(8)), None);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = big(1) - big(2);
    }

    #[test]
    fn mul_small() {
        assert_eq!(big(7) * big(6), big(42));
        assert_eq!(big(u64::MAX as u128) * big(u64::MAX as u128), big(u64::MAX as u128 * u64::MAX as u128));
        assert_eq!(big(123) * BigUint::zero(), BigUint::zero());
    }

    #[test]
    fn div_rem_basics() {
        let (q, r) = big(100).div_rem(&big(7));
        assert_eq!((q, r), (big(14), big(2)));
        let (q, r) = big(5).div_rem(&big(7));
        assert_eq!((q, r), (BigUint::zero(), big(5)));
        let (q, r) = big(7).div_rem(&big(7));
        assert_eq!((q, r), (BigUint::one(), BigUint::zero()));
    }

    #[test]
    fn div_rem_multi_limb() {
        let a = BigUint::from(3u64).pow(300);
        let b = BigUint::from(7u64).pow(100);
        let (q, r) = a.div_rem(&b);
        assert_eq!(&q * &b + &r, a);
        assert!(r < b);
    }

    #[test]
    fn knuth_d_add_back_case() {
        // Exercise a dividend/divisor pair shaped to force q_hat corrections.
        let a = (BigUint::one() << 192) - BigUint::one();
        let b = (BigUint::one() << 128) - (BigUint::one() << 64);
        let (q, r) = a.div_rem(&b);
        assert_eq!(&q * &b + &r, a);
        assert!(r < b);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let mut acc = BigUint::one();
        let base = big(97);
        for e in 0..20u64 {
            assert_eq!(base.pow(e), acc);
            acc = &acc * &base;
        }
    }

    #[test]
    fn shifts_roundtrip() {
        let v = BigUint::from(0xDEAD_BEEF_u64);
        assert_eq!((&v << 67) >> 67u64, v);
        assert_eq!(&v << 0, v);
        assert_eq!((&v >> 200), BigUint::zero());
    }

    #[test]
    fn gcd_small() {
        assert_eq!(big(12).gcd(&big(18)), big(6));
        assert_eq!(big(17).gcd(&big(13)), big(1));
        assert_eq!(big(0).gcd(&big(5)), big(5));
        assert_eq!(big(5).gcd(&big(0)), big(5));
        let a = big(2 * 3 * 5 * 7) * big(1_000_003);
        let b = big(3 * 5 * 11) * big(1_000_003);
        assert_eq!(a.gcd(&b), big(15) * big(1_000_003));
    }

    #[test]
    fn display_parse_roundtrip() {
        for s in ["0", "1", "42", "18446744073709551616", "340282366920938463463374607431768211456"] {
            let v: BigUint = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
        let huge = BigUint::from(10u64).pow(100);
        let s = huge.to_string();
        assert_eq!(s.len(), 101);
        assert!(s.starts_with('1') && s[1..].bytes().all(|b| b == b'0'));
        assert_eq!(BigUint::from_decimal(&s).unwrap(), huge);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(BigUint::from_decimal("").is_err());
        assert!(BigUint::from_decimal("12a").is_err());
        assert!(BigUint::from_decimal("-5").is_err());
        assert!(BigUint::from_decimal(" 5").is_err());
        assert!(BigUint::from_decimal("٣").is_err(), "non-ASCII digit");
    }

    #[test]
    fn parse_rejects_plus_signs() {
        // `u64::from_str` takes a leading `+`; a decimal literal must not,
        // neither at the start nor at a 19-digit chunk boundary.
        assert!(BigUint::from_decimal("+5").is_err());
        assert!(BigUint::from_decimal("+").is_err());
        assert!(BigUint::from_decimal("1234567890123456789+5").is_err());
        assert!(BigUint::from_decimal("+1234567890123456789012").is_err());
        assert_eq!(
            BigUint::from_decimal("123456789012345678905").unwrap(),
            big(123_456_789_012_345_678_905)
        );
    }

    #[test]
    fn display_honours_width_and_sign_flags() {
        for v in [big(7), big(u128::MAX), big(1u128 << 64)] {
            let d = v.to_string();
            assert_eq!(format!("{v:>45}"), format!("{d:>45}"));
            assert_eq!(format!("{v:045}"), format!("{:045}", d.parse::<u128>().unwrap()));
            assert_eq!(format!("{v:+}"), format!("+{d}"));
        }
    }

    #[test]
    fn ordering() {
        assert!(big(5) < big(6));
        assert!(BigUint::from(3u64).pow(100) > BigUint::from(2u64).pow(150));
        assert!(BigUint::from(2u64).pow(151) > BigUint::from(2u64).pow(150));
    }

    #[test]
    fn bits_and_log2() {
        assert_eq!(big(1).bits(), 1);
        assert_eq!(big(255).bits(), 8);
        assert_eq!(big(256).bits(), 9);
        let v = BigUint::from(2u64).pow(777);
        assert_eq!(v.bits(), 778);
        assert!((v.log2() - 777.0).abs() < 1e-9);
        let w = BigUint::from(3u64).pow(100);
        assert!((w.log2() - 100.0 * 3f64.log2()).abs() < 1e-9);
    }

    #[test]
    fn to_f64_magnitudes() {
        assert_eq!(big(12345).to_f64(), 12345.0);
        let v = BigUint::from(2u64).pow(200);
        let rel = (v.to_f64() - 2f64.powi(200)).abs() / 2f64.powi(200);
        assert!(rel < 1e-12);
    }

    #[test]
    fn isqrt_exact_and_floor() {
        assert_eq!(big(0).isqrt(), big(0));
        assert_eq!(big(1).isqrt(), big(1));
        assert_eq!(big(15).isqrt(), big(3));
        assert_eq!(big(16).isqrt(), big(4));
        let n = BigUint::from(12345u64).pow(10);
        let r = n.isqrt();
        assert!(r.pow(2) <= n);
        assert!((&r + BigUint::one()).pow(2) > n);
    }

    #[test]
    fn root_pow_ceil_matches_f64_small() {
        for v in [1u64, 2, 3, 10, 100, 1000, 65536] {
            let got = BigUint::from(v).root_pow_ceil(1, 2);
            let want = (v as f64).sqrt().ceil() as u64;
            assert_eq!(got.to_u64().unwrap(), want, "sqrt ceil of {v}");
        }
        // b^(2/3) for perfect cubes is exact.
        assert_eq!(BigUint::from(8u64).root_pow_ceil(2, 3), big(4));
        assert_eq!(BigUint::from(27u64).root_pow_ceil(2, 3), big(9));
    }

    #[test]
    fn karatsuba_agrees_with_schoolbook() {
        // Construct operands big enough to trigger Karatsuba.
        let a = BigUint::from_limbs((0..80u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect());
        let b = BigUint::from_limbs((0..70u64).map(|i| (i + 3).wrapping_mul(0xC2B2AE3D27D4EB4F)).collect());
        let fast = &a * &b;
        let slow = BigUint::from_limbs(mul_schoolbook(a.limbs(), b.limbs()));
        assert_eq!(fast, slow);
    }

    #[test]
    fn trailing_zeros() {
        assert_eq!(big(8).trailing_zeros(), 3);
        assert_eq!((BigUint::one() << 130).trailing_zeros(), 130);
    }
}

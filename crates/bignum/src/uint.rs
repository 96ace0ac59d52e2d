//! Unsigned arbitrary-precision integers.
//!
//! Representation: little-endian `u64` limbs with no trailing zero limb;
//! the value zero has no limbs. A value of up to four limbs keeps them in
//! a fixed `[u64; 4]` inside itself and only a longer one spills to the
//! heap (the private `Limbs` type). So the one-limb sizes, selectivity
//! terms and access costs of a served instance never allocate, a
//! `BigRational` of them is two inline values, and `+=`, `-=` and
//! comparisons of two inline values run over the whole fixed array with
//! no length-dependent loop. All operations are implemented
//! from first principles: schoolbook and Karatsuba multiplication, Knuth
//! Algorithm D division, square-and-multiply exponentiation, and a GCD
//! that picks its path by operand size. `BigRational` normalizes every
//! result through that GCD, and the cost models' operands are mostly one
//! or two limbs, so those cases stay in machine words: a single-limb
//! operand reduces the other with one remainder pass (a mask for a power
//! of two) and finishes in `u64`, two-limb pairs run in `u128`, and longer
//! operands run binary GCD in place on two owned buffers until an operand
//! fits a word path. Multi-limb loops borrow the limb slice once per
//! operation, never per limb.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{
    Add, AddAssign, BitAnd, Deref, DerefMut, Div, Mul, MulAssign, Rem, Shl, Shr, Sub, SubAssign,
};
use std::str::FromStr;

/// Number of limbs above which multiplication switches to Karatsuba.
const KARATSUBA_THRESHOLD: usize = 32;

/// Limbs a [`BigUint`] holds in place before it spills to the heap.
const INLINE_LIMBS: usize = 4;

/// Limb storage with the small `Vec` surface the arithmetic uses: up to
/// [`INLINE_LIMBS`] limbs inline, more on the heap.
///
/// Constructors and clones store a value inline whenever it fits. A heap
/// buffer keeps its allocation when an in-place operation shrinks the
/// value below the inline size (so a hot loop can reuse one scratch
/// value), and so may a product whose top limb came out zero. The
/// representation of a value is therefore not unique: `BigUint`'s `Eq`,
/// `Ord` and `Hash` read the limb slice, never the variant.
enum Limbs {
    /// `len` limbs in `buf`; every slot from `len` on is zero, so whole
    /// arrays add, subtract and compare as the numbers they hold.
    Inline { len: u8, buf: [u64; INLINE_LIMBS] },
    Heap(Vec<u64>),
}

impl Default for Limbs {
    fn default() -> Self {
        Limbs::new()
    }
}

impl Limbs {
    /// No limbs (the value zero).
    const fn new() -> Self {
        Limbs::Inline { len: 0, buf: [0; INLINE_LIMBS] }
    }

    /// `limbs.len() <= INLINE_LIMBS` limbs, inline.
    #[inline]
    fn inline(limbs: &[u64]) -> Self {
        // One select per slot, which compiles to no `memcpy` call.
        let buf = std::array::from_fn(|i| limbs.get(i).copied().unwrap_or(0));
        Limbs::Inline { len: limbs.len() as u8, buf }
    }

    /// A copy of `limbs`, inline if it fits.
    #[inline]
    fn from_slice(limbs: &[u64]) -> Self {
        if limbs.len() <= INLINE_LIMBS {
            Limbs::inline(limbs)
        } else {
            Limbs::Heap(limbs.to_vec())
        }
    }

    /// `len` zero limbs, inline if they fit.
    #[inline]
    fn zeroed(len: usize) -> Self {
        if len <= INLINE_LIMBS {
            Limbs::Inline { len: len as u8, buf: [0; INLINE_LIMBS] }
        } else {
            Limbs::Heap(vec![0; len])
        }
    }

    // The hot paths below stay small enough to inline; moving inline limbs
    // to the heap is out of line.

    #[inline]
    fn push(&mut self, limb: u64) {
        match self {
            Limbs::Heap(v) => v.push(limb),
            Limbs::Inline { len, buf } if usize::from(*len) < INLINE_LIMBS => {
                buf[usize::from(*len)] = limb;
                *len += 1;
            }
            Limbs::Inline { .. } => {
                self.spill(INLINE_LIMBS + 1);
                if let Limbs::Heap(v) = self {
                    v.push(limb);
                }
            }
        }
    }

    /// Grows with zero limbs or shrinks to `new_len` limbs.
    #[inline]
    fn resize(&mut self, new_len: usize) {
        match self {
            Limbs::Heap(v) => v.resize(new_len, 0),
            Limbs::Inline { len, buf } if new_len <= INLINE_LIMBS => {
                if new_len < usize::from(*len) {
                    buf[new_len..usize::from(*len)].fill(0);
                }
                *len = new_len as u8;
            }
            Limbs::Inline { .. } => {
                self.spill(new_len);
                if let Limbs::Heap(v) = self {
                    v.resize(new_len, 0);
                }
            }
        }
    }

    #[inline]
    fn extend_from_slice(&mut self, limbs: &[u64]) {
        match self {
            Limbs::Heap(v) => v.extend_from_slice(limbs),
            Limbs::Inline { len, buf } if usize::from(*len) + limbs.len() <= INLINE_LIMBS => {
                for (slot, &l) in buf[usize::from(*len)..].iter_mut().zip(limbs) {
                    *slot = l;
                }
                *len += limbs.len() as u8;
            }
            Limbs::Inline { len, .. } => {
                let cap = usize::from(*len) + limbs.len();
                self.spill(cap);
                if let Limbs::Heap(v) = self {
                    v.extend_from_slice(limbs);
                }
            }
        }
    }

    #[inline]
    fn truncate(&mut self, new_len: usize) {
        match self {
            Limbs::Heap(v) => v.truncate(new_len),
            Limbs::Inline { len, buf } => {
                if new_len < usize::from(*len) {
                    buf[new_len..usize::from(*len)].fill(0);
                    *len = new_len as u8;
                }
            }
        }
    }

    /// The inline length and the whole array, unless the limbs are on the
    /// heap.
    #[inline(always)]
    fn fixed(&self) -> Option<(u8, &[u64; INLINE_LIMBS])> {
        match self {
            Limbs::Inline { len, buf } => Some((*len, buf)),
            Limbs::Heap(_) => None,
        }
    }

    /// The inline length and the whole array, unless the limbs are on the
    /// heap. A writer keeps every slot from the length on zero.
    #[inline(always)]
    fn fixed_mut(&mut self) -> Option<(&mut u8, &mut [u64; INLINE_LIMBS])> {
        match self {
            Limbs::Inline { len, buf } => Some((len, buf)),
            Limbs::Heap(_) => None,
        }
    }

    #[inline]
    fn clear(&mut self) {
        self.truncate(0);
    }

    /// Moves inline limbs to a heap buffer with room for `capacity` limbs,
    /// and at least twice the inline size.
    #[cold]
    #[inline(never)]
    fn spill(&mut self, capacity: usize) {
        let mut v = Vec::with_capacity(capacity.max(2 * INLINE_LIMBS));
        v.extend_from_slice(self);
        *self = Limbs::Heap(v);
    }

    /// [`Clone::clone_from`] for a heap buffer or a heap source.
    #[inline(never)]
    fn clone_from_limbs(&mut self, source: &[u64]) {
        match self {
            Limbs::Heap(v) => {
                v.clear();
                v.extend_from_slice(source);
            }
            Limbs::Inline { .. } => *self = Limbs::from_slice(source),
        }
    }
}

impl Clone for Limbs {
    #[inline]
    fn clone(&self) -> Self {
        match self {
            Limbs::Inline { len, buf } => Limbs::Inline { len: *len, buf: *buf },
            Limbs::Heap(v) => Limbs::from_slice(v),
        }
    }

    /// A heap buffer is refilled in place and grows only when `source` is
    /// longer than it holds; an inline one stays inline when `source` fits.
    #[inline(always)]
    fn clone_from(&mut self, source: &Self) {
        match (&mut *self, source) {
            (Limbs::Inline { len, buf }, Limbs::Inline { len: l, buf: b }) => {
                *len = *l;
                *buf = *b;
            }
            _ => self.clone_from_limbs(source),
        }
    }
}

// `len <= INLINE_LIMBS` always holds; the `min` says so to the compiler,
// so taking the slice has no bounds check.
impl Deref for Limbs {
    type Target = [u64];
    #[inline(always)]
    fn deref(&self) -> &[u64] {
        match self {
            Limbs::Inline { len, buf } => &buf[..usize::from(*len).min(INLINE_LIMBS)],
            Limbs::Heap(v) => v,
        }
    }
}

impl DerefMut for Limbs {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            Limbs::Inline { len, buf } => &mut buf[..usize::from(*len).min(INLINE_LIMBS)],
            Limbs::Heap(v) => v,
        }
    }
}

/// An unsigned arbitrary-precision integer.
///
/// Invariant: the limbs never have a trailing (most-significant) zero
/// limb, so the limb slice of every value is unique (where it is stored
/// is not) and `Eq`, `Ord` and `Hash` compare slices.
#[derive(Default)]
pub struct BigUint {
    limbs: Limbs,
}

// The hot operations on inline values (`clone_from`, `cmp`, `+=`) are
// `#[inline]`, so a caller's loop runs them without a call; their heap
// paths stay out of line.
impl Clone for BigUint {
    #[inline]
    fn clone(&self) -> Self {
        BigUint { limbs: self.limbs.clone() }
    }

    /// Copies into `self`'s limb buffer, which grows only when `source`
    /// has more limbs than it holds: a hot loop can refill one value
    /// without allocating (the derived `clone_from` is `*self = clone()`).
    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.limbs.clone_from(&source.limbs);
    }
}

impl PartialEq for BigUint {
    fn eq(&self, other: &Self) -> bool {
        let (a, b): (&[u64], &[u64]) = (&self.limbs, &other.limbs);
        // A loop: short slices compare faster than through `memcmp`.
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
    }
}

impl Eq for BigUint {}

impl Hash for BigUint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.limbs().hash(state);
    }
}

impl BigUint {
    /// The value `0`.
    #[inline]
    pub fn zero() -> Self {
        BigUint { limbs: Limbs::new() }
    }

    /// The value `1`.
    #[inline]
    pub fn one() -> Self {
        BigUint::from(1u64)
    }

    /// Builds a value from little-endian limbs, normalizing trailing zeros.
    /// A value that fits goes inline.
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut limbs = Limbs::Heap(limbs);
        trim(&mut limbs);
        if limbs.len() <= INLINE_LIMBS {
            limbs = Limbs::inline(&limbs);
        }
        BigUint { limbs }
    }

    /// A copy of little-endian `limbs` without their trailing zero limbs,
    /// inline if it fits.
    pub(crate) fn from_limb_slice(limbs: &[u64]) -> Self {
        let len = limbs.iter().rposition(|&l| l != 0).map_or(0, |top| top + 1);
        BigUint { limbs: Limbs::from_slice(&limbs[..len]) }
    }

    /// Wraps `limbs` after dropping their trailing zero limbs.
    fn normalized(mut limbs: Limbs) -> Self {
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
        *self.limbs == [1]
    }

    /// Whether the value is even (zero counts as even).
    #[inline]
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits; `0` for zero.
    pub fn bits(&self) -> u64 {
        limbs_bits(&self.limbs)
    }

    /// The top 64 significant bits and the shift they stand at:
    /// `self ≈ top · 2^shift`. Any nonzero bit below the window is folded
    /// into `top`'s lowest bit (a sticky bit), so rounding `top` to fewer
    /// bits rounds `self` itself correctly. A value of at most 64 bits
    /// comes back whole with shift `0`; zero is `(0, 0)`.
    pub(crate) fn top_u64_sticky(&self) -> (u64, u64) {
        let limbs = self.limbs();
        let n = limbs.len();
        if n < 2 {
            return (limbs.first().copied().unwrap_or(0), 0);
        }
        let (hi, lo) = (limbs[n - 1], limbs[n - 2]);
        let lz = hi.leading_zeros();
        let top = if lz == 0 { hi } else { hi << lz | lo >> (64 - lz) };
        let dropped = lo << lz != 0 || limbs[..n - 2].iter().any(|&l| l != 0);
        (top | u64::from(dropped), (n as u64 - 1) * 64 - u64::from(lz))
    }

    /// Value of bit `i` (little-endian bit order).
    pub fn bit(&self, i: u64) -> bool {
        let limb = (i / 64) as usize;
        self.limbs.get(limb).is_some_and(|l| (l >> (i % 64)) & 1 == 1)
    }

    /// Base-2 logarithm as `f64`; `-inf` for zero.
    ///
    /// Accurate to roughly one ULP of `f64` for any magnitude: the top 128
    /// bits dominate the mantissa and the rest shifts the exponent.
    // analyze:allow(no-float-in-exact) -- the explicit lossy bridge into
    // the log/float domain; exact arithmetic never consumes the result.
    pub fn log2(&self) -> f64 {
        match *self.limbs {
            [] => f64::NEG_INFINITY,
            [v] => (v as f64).log2(),
            [.., lo, hi] => {
                let top = (hi as u128) << 64 | lo as u128;
                (top as f64).log2() + ((self.limbs.len() - 2) as f64) * 64.0
            }
        }
    }

    /// Lossy conversion to `f64` (`inf` on overflow).
    // analyze:allow(no-float-in-exact) -- the explicit lossy bridge into
    // the log/float domain; exact arithmetic never consumes the result.
    pub fn to_f64(&self) -> f64 {
        match *self.limbs {
            [] => 0.0,
            [v] => v as f64,
            [lo, hi] => ((hi as u128) << 64 | lo as u128) as f64,
            [.., lo, hi] => {
                let top = ((hi as u128) << 64 | lo as u128) as f64;
                top * ((self.limbs.len() - 2) as f64 * 64.0).exp2()
            }
        }
    }

    /// Conversion to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match *self.limbs {
            [] => Some(0),
            [v] => Some(v),
            _ => None,
        }
    }

    /// Conversion to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        match *self.limbs {
            [] => Some(0),
            [v] => Some(v as u128),
            [lo, hi] => Some((hi as u128) << 64 | lo as u128),
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
        trim(&mut limbs);
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
        if let [d] = *divisor.limbs {
            let (q, r) = self.div_rem_limb(d);
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
        let vn: &[u64] = &v.limbs;
        let n = vn.len();
        let m = u.limbs.len() - n;

        let mut un_limbs = u.limbs;
        un_limbs.push(0); // u has m+n+1 limbs now
        let mut q_limbs = Limbs::zeroed(m + 1);
        let (un, q) = (&mut *un_limbs, &mut *q_limbs);
        let v_top = vn[n - 1];
        let v_second = vn[n - 2];

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
        un_limbs.truncate(n);
        shr_in_place(&mut un_limbs, shift);
        (BigUint::normalized(q_limbs), BigUint { limbs: un_limbs })
    }

    /// Fused multiply-add: `self = a + b·c`, written into `self`'s existing
    /// limb buffer. Allocates nothing once that buffer has room for the
    /// result (Karatsuba-sized products excepted), so a hot loop can reuse
    /// one scratch value across calls.
    pub fn set_mul_add(&mut self, a: &BigUint, b: &BigUint, c: &BigUint) {
        if b.is_zero() || c.is_zero() {
            self.limbs.clone_from(&a.limbs);
            return;
        }
        let (a, b, c): (&[u64], &[u64], &[u64]) = (&a.limbs, &b.limbs, &c.limbs);
        let (long, short) = if b.len() >= c.len() { (b, c) } else { (c, b) };
        let out = &mut self.limbs;
        if let (&[x], &[y], &[] | &[_]) = (long, short, a) {
            // One-limb factors and addend: (2^64 − 1)² + 2^64 − 1 < 2^128.
            let v = u128::from(x) * u128::from(y) + u128::from(a.first().copied().unwrap_or(0));
            out.clear();
            out.push(v as u64);
            if v >> 64 != 0 {
                out.push((v >> 64) as u64);
            }
            return;
        }
        if short.len() >= KARATSUBA_THRESHOLD {
            *out = add_limbs(a, &mul_limbs(long, short));
            trim(out);
            return;
        }
        // a + b·c < 2^(max(bits(a), bits(b) + bits(c)) + 1), so no carry
        // below runs off the end.
        let bits = limbs_bits(a).max(limbs_bits(b) + limbs_bits(c)) + 1;
        out.resize(bits.div_ceil(64) as usize);
        let (low, high) = out.split_at_mut(a.len());
        low.copy_from_slice(a);
        high.fill(0);
        mul_acc(out, long, short);
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
        match *d.limbs {
            [1] => {}
            [x] if x.is_power_of_two() => {
                let k = x.trailing_zeros();
                let low = self.limbs.first().map_or(u64::BITS, |l| l.trailing_zeros());
                assert!(low >= k, "inexact division");
                shr_in_place(&mut self.limbs, k as u64);
            }
            [x] => {
                let rem = div_rem_limb_in_place(&mut self.limbs, x);
                assert!(rem == 0, "inexact division");
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
    /// Allocates nothing when an operand fits one limb or both fit two,
    /// and at most two working buffers otherwise (the paths are listed in
    /// the module docs).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_one() {
            return other.clone();
        }
        if other.is_zero() || self.is_one() {
            return self.clone();
        }
        gcd_nonzero(&self.limbs, &other.limbs)
    }

    /// `gcd(self, d)` for a nonzero one-limb `d`: one remainder pass over
    /// `self` (a mask for a power of two), then a machine-word GCD.
    pub(crate) fn gcd_word(&self, d: u64) -> u64 {
        gcd_u64(rem_limb(&self.limbs, d), d)
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
    /// into the limbs in place (`acc = acc·10^19 + chunk`). Each chunk is
    /// checked and folded in one pass.
    pub fn from_decimal(s: &str) -> Result<BigUint, ParseBigUintError> {
        let bytes = s.as_bytes();
        if bytes.is_empty() {
            return Err(ParseBigUintError);
        }
        let digits = |chunk: &[u8]| {
            chunk.iter().try_fold(0u64, |v, &b| {
                let d = b.wrapping_sub(b'0');
                (d < 10).then(|| v * 10 + u64::from(d))
            })
        };
        // The leading chunk takes the remainder, so every later chunk is a
        // full 19 digits (10^19 < 2^64).
        let lead = match bytes.len() % DECIMAL_CHUNK_DIGITS {
            0 => DECIMAL_CHUNK_DIGITS,
            r => r,
        };
        let mut v = BigUint::from(digits(&bytes[..lead]).ok_or(ParseBigUintError)?);
        for chunk in bytes[lead..].chunks_exact(DECIMAL_CHUNK_DIGITS) {
            mul_add_limb(&mut v.limbs, DECIMAL_CHUNK, digits(chunk).ok_or(ParseBigUintError)?);
        }
        Ok(v)
    }

    /// Appends the decimal digits of `self` to `out`, the same digits
    /// [`Display`](fmt::Display) prints without flags. A one-limb value is
    /// one `u64` digit loop; a longer one peels 19-digit chunks off a
    /// scratch copy.
    pub fn write_decimal(&self, out: &mut String) {
        match *self.limbs {
            [] => out.push('0'),
            [v] => write_u64(out, v),
            _ => {
                // Chunks below 10^19, least significant first.
                let mut rest = self.limbs.clone();
                let mut chunks = Limbs::new();
                while !rest.is_empty() {
                    chunks.push(div_rem_limb_in_place(&mut rest, DECIMAL_CHUNK));
                }
                // Inner chunks are zero-padded to 19 digits; the most
                // significant one (nonzero, as the value is) is not.
                let mut chunks = chunks.iter().rev();
                if let Some(&top) = chunks.next() {
                    write_u64(out, top);
                }
                for &chunk in chunks {
                    push_digits(out, chunk, DECIMAL_CHUNK_DIGITS);
                }
            }
        }
    }
}

/// Appends the decimal digits of `v` to `out`, as `write!(out, "{v}")`
/// would, without going through `fmt`.
pub fn write_u64(out: &mut String, v: u64) {
    push_digits(out, v, 1);
}

/// Appends `v` in decimal, zero-padded on the left to `width` digits
/// (`width` ≤ 20).
fn push_digits(out: &mut String, mut v: u64, width: usize) {
    // u64::MAX has 20 digits.
    let mut buf = [b'0'; 20];
    let mut start = buf.len();
    while v != 0 {
        start -= 1;
        buf[start] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    start = start.min(buf.len() - width);
    // Every byte is an ASCII digit, so the conversion cannot fail.
    if let Ok(digits) = std::str::from_utf8(&buf[start..]) {
        out.push_str(digits);
    }
}

/// Decimal digits per `u64` chunk in decimal parsing and formatting.
const DECIMAL_CHUNK_DIGITS: usize = 19;
/// `10^19`, the largest power of ten below `2^64`.
const DECIMAL_CHUNK: u64 = 10_000_000_000_000_000_000;

/// `limbs = limbs·m + a` in place, keeping the no-trailing-zero invariant
/// (an empty `limbs` is zero, so `m` is irrelevant there).
fn mul_add_limb(limbs: &mut Limbs, m: u64, a: u64) {
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
        let mut buf = [0; INLINE_LIMBS];
        buf[0] = v;
        BigUint { limbs: Limbs::Inline { len: u8::from(v != 0), buf } }
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
        BigUint::normalized(Limbs::from_slice(&[v as u64, (v >> 64) as u64]))
    }
}

impl PartialOrd for BigUint {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.limbs.fixed(), other.limbs.fixed()) {
            (Some((la, a)), Some((lb, b))) => la.cmp(&lb).then_with(|| cmp_fixed(a, b)),
            _ => cmp_limbs(&self.limbs, &other.limbs),
        }
    }
}

// Fixed-width arithmetic on whole inline arrays (`Limbs::fixed`): each
// loop runs exactly `INLINE_LIMBS` times and unrolls into straight-line
// code, with no branch on the values' lengths.

/// `a += b` over whole arrays. The carry out of the top slot is dropped:
/// the caller makes sure there is none.
#[inline(always)]
fn add_fixed(a: &mut [u64; INLINE_LIMBS], b: &[u64; INLINE_LIMBS]) {
    let mut carry = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (s, c1) = x.overflowing_add(y);
        let (s, c2) = s.overflowing_add(u64::from(carry));
        *x = s;
        carry = c1 | c2;
    }
}

/// `a -= b` over whole arrays, for `a >= b`.
#[inline(always)]
fn sub_fixed(a: &mut [u64; INLINE_LIMBS], b: &[u64; INLINE_LIMBS]) {
    let mut borrow = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d, b1) = x.overflowing_sub(y);
        let (d, b2) = d.overflowing_sub(u64::from(borrow));
        *x = d;
        borrow = b1 | b2;
    }
}

/// The limb count of a whole array: one past its top nonzero slot.
#[inline(always)]
fn fixed_len(a: &[u64; INLINE_LIMBS]) -> u8 {
    a.iter().enumerate().fold(0, |len, (i, &l)| if l != 0 { i as u8 + 1 } else { len })
}

/// The order of two whole arrays: that of their top differing slot.
#[inline(always)]
fn cmp_fixed(a: &[u64; INLINE_LIMBS], b: &[u64; INLINE_LIMBS]) -> Ordering {
    a.iter().zip(b).fold(Ordering::Equal, |ord, (x, y)| x.cmp(y).then(ord))
}

/// Compares normalized limb slices (no trailing zero limb).
#[inline(never)]
fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    a.len().cmp(&b.len()).then_with(|| {
        let differ = a.iter().rev().zip(b.iter().rev()).find(|(x, y)| x != y);
        differ.map_or(Ordering::Equal, |(x, y)| x.cmp(y))
    })
}

/// Significant bits of normalized limbs; `0` for none.
fn limbs_bits(limbs: &[u64]) -> u64 {
    limbs.last().map_or(0, |&top| limbs.len() as u64 * 64 - u64::from(top.leading_zeros()))
}

fn limbs_trailing_zeros(limbs: &[u64]) -> u64 {
    for (i, &l) in limbs.iter().enumerate() {
        if l != 0 {
            return i as u64 * 64 + l.trailing_zeros() as u64;
        }
    }
    0
}

/// Drops trailing zero limbs so `limbs` is normalized again.
fn trim(limbs: &mut Limbs) {
    let len = limbs.iter().rposition(|&l| l != 0).map_or(0, |i| i + 1);
    limbs.truncate(len);
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
        _ => gcd_binary(Limbs::from_slice(a), Limbs::from_slice(b)),
    }
}

/// Binary GCD in place on two owned nonzero buffers: each step subtracts
/// the smaller odd operand from the larger and shifts out the zeros,
/// allocating nothing, and hands over to [`gcd_nonzero`]'s word paths as
/// soon as an operand fits one.
fn gcd_binary(mut a: Limbs, mut b: Limbs) -> BigUint {
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
        trim(&mut b);
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
    limbs.iter().rev().fold(0u64, |r, &l| wide_div_rem(r, l, d).1)
}

/// `(r·2^64 + l) / d` and its remainder, for `r < d`. A zero `r` divides
/// in `u64`, cheaper than the general `u128` division.
#[inline]
fn wide_div_rem(r: u64, l: u64, d: u64) -> (u64, u64) {
    if r == 0 {
        (l / d, l % d)
    } else {
        let cur = (r as u128) << 64 | l as u128;
        ((cur / d as u128) as u64, (cur % d as u128) as u64)
    }
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

/// `b -= a` in place for `b >= a` (`b` at least as long as `a`); the
/// caller renormalizes.
fn sub_in_place(b: &mut [u64], a: &[u64]) {
    let (low, high) = b.split_at_mut(a.len());
    let mut borrow = false;
    for (x, &y) in low.iter_mut().zip(a) {
        let (d, b1) = x.overflowing_sub(y);
        let (d, b2) = d.overflowing_sub(u64::from(borrow));
        *x = d;
        borrow = b1 | b2;
    }
    for x in high {
        if !borrow {
            break;
        }
        (*x, borrow) = x.overflowing_sub(1);
    }
    debug_assert!(!borrow, "sub_in_place requires b >= a");
}

/// `v >>= bits` in place, renormalizing `v`.
fn shr_in_place(v: &mut Limbs, bits: u64) {
    let drop = ((bits / 64) as usize).min(v.len());
    let keep = v.len() - drop;
    let bit = bits % 64;
    let s = &mut **v;
    if drop > 0 {
        s.copy_within(drop.., 0);
    }
    let s = &mut s[..keep];
    if bit != 0 {
        for i in 0..keep {
            let hi = s.get(i + 1).map_or(0, |&h| h << (64 - bit));
            s[i] = s[i] >> bit | hi;
        }
    }
    v.truncate(keep);
    trim(v);
}

// ---------------------------------------------------------------------------
// Addition / subtraction
// ---------------------------------------------------------------------------

fn add_limbs(a: &[u64], b: &[u64]) -> Limbs {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Limbs::from_slice(long);
    if add_in_place(&mut out, short) {
        out.push(1);
    }
    out
}

/// `acc += addend` over `acc`'s limbs (`acc` at least as long as
/// `addend`); returns the carry out of the top limb.
fn add_in_place(acc: &mut [u64], addend: &[u64]) -> bool {
    let (low, high) = acc.split_at_mut(addend.len());
    let mut carry = false;
    for (l, &a) in low.iter_mut().zip(addend) {
        let (s, c1) = l.overflowing_add(a);
        let (s, c2) = s.overflowing_add(u64::from(carry));
        *l = s;
        carry = c1 | c2;
    }
    for l in high {
        if !carry {
            break;
        }
        (*l, carry) = l.overflowing_add(1);
    }
    carry
}

impl Add<&BigUint> for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        BigUint { limbs: add_limbs(&self.limbs, &rhs.limbs) }
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

/// `out += long·short`, schoolbook. `out` must be long enough for the
/// result: no carry may run off its end.
fn mul_acc(out: &mut [u64], long: &[u64], short: &[u64]) {
    for (i, &si) in short.iter().enumerate() {
        if si == 0 {
            continue;
        }
        let (row, above) = out[i..].split_at_mut(long.len());
        let mut carry = 0u64;
        for (o, &lj) in row.iter_mut().zip(long) {
            let cur = u128::from(*o) + u128::from(si) * u128::from(lj) + u128::from(carry);
            *o = cur as u64;
            carry = (cur >> 64) as u64;
        }
        for o in above {
            if carry == 0 {
                break;
            }
            let (sum, c) = o.overflowing_add(carry);
            *o = sum;
            carry = u64::from(c);
        }
    }
}

/// `a·b`, schoolbook, in `ceil((bits(a) + bits(b)) / 64)` limbs: enough
/// for the product, so it stays inline whenever it fits.
fn mul_schoolbook(a: &[u64], b: &[u64]) -> Limbs {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Limbs::zeroed((limbs_bits(a) + limbs_bits(b)).div_ceil(64) as usize);
    mul_acc(&mut out, long, short);
    out
}

fn mul_limbs(a: &[u64], b: &[u64]) -> Limbs {
    if a.len().min(b.len()) < KARATSUBA_THRESHOLD {
        return mul_schoolbook(a, b);
    }
    // Karatsuba: split at half of the shorter length.
    let split = a.len().min(b.len()) / 2;
    let (a0, a1) = a.split_at(split);
    let (b0, b1) = b.split_at(split);
    let part = |limbs: &[u64]| BigUint::normalized(Limbs::from_slice(limbs));
    let (a0, a1, b0, b1) = (part(a0), part(a1), part(b0), part(b1));

    let z0 = BigUint::normalized(mul_limbs(&a0.limbs, &b0.limbs));
    let z2 = BigUint::normalized(mul_limbs(&a1.limbs, &b1.limbs));
    let sa = &a0 + &a1;
    let sb = &b0 + &b1;
    let z1 = BigUint::normalized(mul_limbs(&sa.limbs, &sb.limbs));
    let z1 = &(&z1 - &z0) - &z2;

    let shift = (split * 64) as u64;
    let r = &(&z2 << (2 * shift)) + &(&z1 << shift);
    (&r + &z0).limbs
}

impl Mul<&BigUint> for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        BigUint::normalized(mul_limbs(&self.limbs, &rhs.limbs))
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
    /// Writes the shifted limbs into exactly the `ceil((bits + rhs) / 64)`
    /// limbs the result has.
    fn shl(self, rhs: u64) -> BigUint {
        if self.is_zero() || rhs == 0 {
            return self.clone();
        }
        let src: &[u64] = &self.limbs;
        let limb_shift = (rhs / 64) as usize;
        let bit_shift = rhs % 64;
        let mut out = Limbs::zeroed((self.bits() + rhs).div_ceil(64) as usize);
        let dst = &mut out[limb_shift..];
        if bit_shift == 0 {
            dst.copy_from_slice(src);
        } else {
            let mut carry = 0u64;
            for (d, &l) in dst.iter_mut().zip(src) {
                *d = (l << bit_shift) | carry;
                carry = l >> (64 - bit_shift);
            }
            // The top limb exists exactly when the shift carries into it.
            if let Some(top) = dst.get_mut(src.len()) {
                *top = carry;
            }
        }
        BigUint { limbs: out }
    }
}

impl Shr<u64> for &BigUint {
    type Output = BigUint;
    fn shr(self, rhs: u64) -> BigUint {
        if self.is_zero() || rhs == 0 {
            return self.clone();
        }
        let limb_shift = ((rhs / 64) as usize).min(self.limbs.len());
        let mut limbs = Limbs::from_slice(&self.limbs[limb_shift..]);
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
    /// sum needs: no allocation once it has room. Limbs of `rhs` above
    /// `self`'s top are copied, not added to zeros.
    #[inline]
    fn add_assign(&mut self, rhs: &BigUint) {
        if let (Some((len, buf)), Some((rlen, r))) = (self.limbs.fixed_mut(), rhs.limbs.fixed()) {
            let top = usize::from((*len).max(rlen));
            if top < INLINE_LIMBS {
                // Both top slots are zero, so the carry stays in the array.
                add_fixed(buf, r);
                *len = fixed_len(buf);
                return;
            }
        }
        add_assign_limbs(&mut self.limbs, &rhs.limbs);
    }
}

/// `out += r` on limbs of any length (out of line, so the inline path of
/// `+=` stays a leaf).
#[inline(never)]
fn add_assign_limbs(out: &mut Limbs, r: &[u64]) {
    let n = out.len();
    let carry = if n < r.len() {
        out.extend_from_slice(&r[n..]);
        add_in_place(out, &r[..n])
    } else {
        add_in_place(out, r)
    };
    if carry {
        out.push(1);
    }
}

impl SubAssign<&BigUint> for BigUint {
    /// Subtracts in place; panics on underflow.
    fn sub_assign(&mut self, rhs: &BigUint) {
        assert!(*self >= *rhs, "BigUint subtraction underflow");
        match (self.limbs.fixed_mut(), rhs.limbs.fixed()) {
            (Some((len, buf)), Some((_, r))) => {
                sub_fixed(buf, r);
                *len = fixed_len(buf);
            }
            _ => {
                sub_in_place(&mut self.limbs, &rhs.limbs);
                trim(&mut self.limbs);
            }
        }
    }
}

impl MulAssign<&BigUint> for BigUint {
    /// A one-limb `rhs` multiplies in place (at most one limb appended);
    /// anything longer builds a new product.
    fn mul_assign(&mut self, rhs: &BigUint) {
        match *rhs.limbs {
            [] => self.limbs.clear(),
            [m] => mul_add_limb(&mut self.limbs, m, 0),
            _ => *self = &*self * rhs,
        }
    }
}

// ---------------------------------------------------------------------------
// Formatting
// ---------------------------------------------------------------------------

impl fmt::Display for BigUint {
    /// [`BigUint::write_decimal`]'s digits, padded as the flags ask.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self.limbs {
            [v] => fmt::Display::fmt(&v, f),
            _ => {
                let mut digits = String::new();
                self.write_decimal(&mut digits);
                f.pad_integral(true, "", &digits)
            }
        }
    }
}

/// `limbs /= d` in place (renormalized); returns the remainder.
fn div_rem_limb_in_place(limbs: &mut Limbs, d: u64) -> u64 {
    let rem = div_rem_limb(limbs, d);
    trim(limbs);
    rem
}

/// `limbs /= d` in place for a nonzero `d`, leaving any zero top limbs;
/// returns the remainder.
pub(crate) fn div_rem_limb(limbs: &mut [u64], d: u64) -> u64 {
    let mut rem = 0;
    for l in limbs.iter_mut().rev() {
        (*l, rem) = wide_div_rem(rem, *l, d);
    }
    rem
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
        let slow = BigUint::normalized(mul_schoolbook(a.limbs(), b.limbs()));
        assert_eq!(fast, slow);
    }

    #[test]
    fn trailing_zeros() {
        assert_eq!(big(8).trailing_zeros(), 3);
        assert_eq!((BigUint::one() << 130).trailing_zeros(), 130);
    }
}

//! Property-based tests for the bignum substrate: ring axioms, division
//! invariants, radix round-trips, and agreement between the exact types and
//! the log-domain companion.

use aqo_bignum::{BigInt, BigRational, BigUint, FixedUint, LogNum};
use proptest::prelude::*;

fn biguint() -> impl Strategy<Value = BigUint> {
    prop::collection::vec(any::<u64>(), 0..8).prop_map(BigUint::from_limbs)
}

fn bigint() -> impl Strategy<Value = BigInt> {
    (biguint(), any::<bool>()).prop_map(|(m, neg)| {
        let b = BigInt::from(m);
        if neg {
            -b
        } else {
            b
        }
    })
}

fn bigrational() -> impl Strategy<Value = BigRational> {
    (bigint(), prop::collection::vec(any::<u64>(), 1..4))
        .prop_map(|(n, d)| {
            let den = BigUint::from_limbs(d);
            let den = if den.is_zero() { BigUint::one() } else { den };
            BigRational::new(n, den)
        })
}

/// Operands on every boundary of `BigUint::gcd`'s size-dependent paths:
/// zero and one, one/two/many limbs, `2^k · odd`, and values next to
/// `u64::MAX` and `u128::MAX`.
fn gcd_operand() -> impl Strategy<Value = BigUint> {
    let parts = (0u8..8, any::<u128>(), prop::collection::vec(any::<u64>(), 1..7), 0u64..300);
    parts.prop_map(|(kind, word, limbs, k)| {
        let near = BigUint::from(word as u64 % 4);
        match kind {
            0 => BigUint::zero(),
            1 => BigUint::one(),
            2 => BigUint::from(word as u64),
            3 => BigUint::from(word),
            4 => BigUint::from_limbs(limbs),
            5 => ((BigUint::from_limbs(limbs) << 1) + BigUint::one()) << k,
            6 => BigUint::from(u64::MAX - (word >> 64) as u64 % 4) + near,
            _ => BigUint::from(u128::MAX - (word >> 64) % 4) + near,
        }
    })
}

/// A pair drawn independently, equal, or with one dividing the other, or
/// sharing a random common factor.
fn gcd_pair() -> impl Strategy<Value = (BigUint, BigUint)> {
    (0u8..4, gcd_operand(), gcd_operand(), gcd_operand()).prop_map(|(kind, a, b, c)| match kind {
        0 => (a, b),
        1 => (a.clone(), a),
        2 => (a.clone(), &a * &b),
        _ => (&c * &a, &c * &b),
    })
}

/// Operand pairs for `BigRational`'s add and cmp fast paths: integer +
/// fraction, fraction + integer, integer + integer, equal denominators,
/// and a value against its own negation (the sum cancels to zero), each
/// with mixed signs; plus `a/d` against `a/(d + 1)`, whose denominators
/// differ (the general path) while the numerators often match.
fn fast_path_pair() -> impl Strategy<Value = (BigRational, BigRational)> {
    let den = prop::collection::vec(any::<u64>(), 1..4);
    (0u8..6, bigint(), bigint(), den, any::<bool>()).prop_map(|(kind, a, c, d, int_first)| {
        let d = BigUint::from_limbs(d);
        let d = if d.is_zero() { BigUint::from(3u64) } else { d };
        let frac = |n: &BigInt| BigRational::new(n.clone(), d.clone());
        let int = |n: &BigInt| BigRational::from(n.clone());
        match kind {
            0 => (int(&a), frac(&c)),
            1 => (frac(&a), int(&c)),
            2 => (int(&a), int(&c)),
            // a/d and (a + c·d)/d reduce by the same gcd(a, d), so the two
            // denominators stay equal.
            3 => (frac(&a), frac(&(&a + &(&c * &BigInt::from(d.clone()))))),
            4 => (frac(&a), BigRational::new(a.clone(), &d + &BigUint::one())),
            _ => {
                let x = if int_first { int(&a) } else { frac(&a) };
                (x.clone(), -x)
            }
        }
    })
}

/// Euclid's algorithm on `div_rem`: a reference independent of `gcd`.
/// Operands for the in-place kernels: the gcd-boundary values plus, now
/// and then, one long enough (32+ limbs) to take `set_mul_add`'s
/// Karatsuba path.
fn kernel_operand() -> impl Strategy<Value = BigUint> {
    (0u8..8, gcd_operand(), prop::collection::vec(any::<u64>(), 32..40)).prop_map(
        |(kind, small, long)| if kind == 0 { BigUint::from_limbs(long) } else { small },
    )
}

fn euclid_gcd(a: &BigUint, b: &BigUint) -> BigUint {
    let (mut a, mut b) = (a.clone(), b.clone());
    while !b.is_zero() {
        let r = a.div_rem(&b).1;
        a = std::mem::replace(&mut b, r);
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_commutes(a in biguint(), b in biguint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associates(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn mul_commutes(a in biguint(), b in biguint()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_associates(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
    }

    #[test]
    fn distributive(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn sub_add_roundtrip(a in biguint(), b in biguint()) {
        let s = &a + &b;
        prop_assert_eq!(&s - &a, b.clone());
        prop_assert_eq!(&s - &b, a);
    }

    /// `clone_from` in both directions between two values, so the source
    /// is longer than the destination in one and shorter in the other.
    #[test]
    fn clone_from_matches_clone(a in biguint(), b in biguint()) {
        for (dst, src) in [(&a, &b), (&b, &a)] {
            let mut out = dst.clone();
            let buffer = out.limbs().as_ptr();
            out.clone_from(src);
            prop_assert_eq!(&out, src);
            prop_assert_eq!(out.limbs(), src.limbs());
            prop_assert!(out.limbs().last() != Some(&0), "trailing zero limb");
            if !dst.is_zero() && dst.limbs().len() >= src.limbs().len() {
                prop_assert_eq!(out.limbs().as_ptr(), buffer, "buffer not reused");
            }
        }
    }

    #[test]
    fn div_rem_invariant(a in biguint(), b in biguint()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&q * &b + &r, a);
    }

    #[test]
    fn decimal_roundtrip(a in biguint()) {
        let s = a.to_string();
        prop_assert_eq!(BigUint::from_decimal(&s).unwrap(), a);
    }

    #[test]
    fn decimal_roundtrip_at_chunk_widths(
        digits in prop::collection::vec(0u8..10, 1..4),
        width in 0usize..7,
    ) {
        // 19 digits is the largest one-chunk literal, 20 the first to
        // cross a chunk boundary; the rest straddle two and three chunks.
        let width = [19usize, 20, 38, 39, 40, 57, 58][width];
        let mut s: String =
            (0..width).map(|i| char::from(b'0' + digits[i % digits.len()])).collect();
        if s.starts_with('0') {
            s.replace_range(..1, "1");
        }
        let v = BigUint::from_decimal(&s).unwrap();
        prop_assert_eq!(v.to_string(), s);
    }

    #[test]
    fn decimal_roundtrip_multi_limb(limbs in prop::collection::vec(any::<u64>(), 2..12)) {
        let v = BigUint::from_limbs(limbs);
        let s = v.to_string();
        prop_assert_eq!(BigUint::from_decimal(&s).unwrap(), v);
    }

    #[test]
    fn decimal_display_of_two_limbs_matches_u128(x in any::<u128>()) {
        let v = BigUint::from(x);
        prop_assert_eq!(v.to_string(), x.to_string());
        prop_assert_eq!(BigUint::from_decimal(&x.to_string()).unwrap(), v);
    }

    #[test]
    fn shift_is_pow2_mul(a in biguint(), k in 0u64..200) {
        prop_assert_eq!(&a << k, &a * &BigUint::from(2u64).pow(k));
    }

    #[test]
    fn gcd_divides_both(a in biguint(), b in biguint()) {
        let g = a.gcd(&b);
        if !g.is_zero() {
            prop_assert!((&a % &g).is_zero());
            prop_assert!((&b % &g).is_zero());
        } else {
            prop_assert!(a.is_zero() && b.is_zero());
        }
    }

    #[test]
    fn gcd_matches_euclid((a, b) in gcd_pair()) {
        let want = euclid_gcd(&a, &b);
        prop_assert_eq!(a.gcd(&b), want.clone());
        prop_assert_eq!(b.gcd(&a), want);
    }

    #[test]
    fn isqrt_is_floor_sqrt(a in biguint()) {
        let r = a.isqrt();
        prop_assert!(r.pow(2) <= a);
        prop_assert!((&r + BigUint::one()).pow(2) > a);
    }

    #[test]
    fn log2_vs_bits(a in biguint()) {
        prop_assume!(!a.is_zero());
        let l = a.log2();
        let bits = a.bits() as f64;
        prop_assert!(l <= bits);
        prop_assert!(l >= bits - 1.0 - 1e-9);
    }

    #[test]
    fn bigint_add_neg_cancels(a in bigint()) {
        prop_assert_eq!(&a + &(-&a), BigInt::zero());
    }

    #[test]
    fn bigint_mul_sign(a in bigint(), b in bigint()) {
        let p = &a * &b;
        if a.is_zero() || b.is_zero() {
            prop_assert!(p.is_zero());
        } else {
            prop_assert_eq!(p.is_negative(), a.is_negative() != b.is_negative());
        }
    }

    #[test]
    fn rational_field_axioms(a in bigrational(), b in bigrational(), c in bigrational()) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn rational_ops_reduce_cross_products(a in bigrational(), b in bigrational()) {
        let (n1, d1) = (a.numer(), BigInt::from(a.denom().clone()));
        let (n2, d2) = (b.numer(), BigInt::from(b.denom().clone()));
        let den = a.denom() * b.denom();
        prop_assert_eq!(&a + &b, BigRational::new(&(n1 * &d2) + &(n2 * &d1), den.clone()));
        prop_assert_eq!(&a * &b, BigRational::new(n1 * n2, den));
    }

    #[test]
    fn rational_fast_paths_match_cross_multiplication((a, b) in fast_path_pair()) {
        let (n1, d1) = (a.numer(), BigInt::from(a.denom().clone()));
        let (n2, d2) = (b.numer(), BigInt::from(b.denom().clone()));
        let reference = BigRational::new(&(n1 * &d2) + &(n2 * &d1), a.denom() * b.denom());
        // Field-by-field equality: the fast paths return the reduced form.
        for sum in [&a + &b, &b + &a] {
            prop_assert_eq!(sum.numer(), reference.numer());
            prop_assert_eq!(sum.denom(), reference.denom());
            prop_assert!(sum.is_zero() || sum.numer().magnitude().gcd(sum.denom()).is_one());
        }
        prop_assert_eq!(a.cmp(&b), (n1 * &d2).cmp(&(n2 * &d1)));
        prop_assert_eq!(b.cmp(&a), (n2 * &d1).cmp(&(n1 * &d2)));
    }

    #[test]
    fn rational_reduced_invariant(a in bigrational()) {
        prop_assume!(!a.is_zero());
        let g = a.numer().magnitude().gcd(a.denom());
        prop_assert!(g.is_one());
    }

    #[test]
    fn rational_recip_involution(a in bigrational()) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a.recip().recip(), a);
    }

    #[test]
    fn rational_floor_ceil_bracket(a in bigrational()) {
        let f = BigRational::from(a.floor());
        let c = BigRational::from(a.ceil());
        prop_assert!(f <= a && a <= c);
        prop_assert!(&c - &f <= BigRational::one());
    }

    #[test]
    fn lognum_tracks_rational_products(xs in prop::collection::vec(1u64..1_000_000, 1..12)) {
        let exact: BigRational = xs.iter().map(|&v| BigRational::from(v)).product();
        let log: LogNum = xs.iter().map(|&v| LogNum::from(v)).product();
        prop_assert!((exact.log2() - log.log2()).abs() < 1e-6);
    }

    #[test]
    fn lognum_tracks_rational_sums(xs in prop::collection::vec(1u64..1_000_000, 1..12)) {
        let exact: BigRational = xs.iter().map(|&v| BigRational::from(v)).sum();
        let log: LogNum = xs.iter().map(|&v| LogNum::from(v)).sum();
        prop_assert!((exact.log2() - log.log2()).abs() < 1e-6);
    }

    #[test]
    fn root_pow_ceil_definition(a in biguint(), num in 1u32..4, den in 1u32..5) {
        prop_assume!(!a.is_zero());
        prop_assume!(num <= den);
        let c = a.root_pow_ceil(num, den);
        // c is the least integer with c^den >= a^num.
        prop_assert!(c.pow(den as u64) >= a.pow(num as u64));
        if !c.is_one() {
            let below = &c - &BigUint::one();
            prop_assert!(below.pow(den as u64) < a.pow(num as u64));
        }
    }

    #[test]
    fn set_mul_add_matches_operators(
        a in kernel_operand(),
        b in kernel_operand(),
        c in kernel_operand(),
        stale in kernel_operand(),
    ) {
        // The destination starts out holding an unrelated value: the
        // kernel must overwrite, not accumulate into, its buffer.
        let mut out = stale;
        out.set_mul_add(&a, &b, &c);
        prop_assert_eq!(&out, &(&a + &(&b * &c)));
        out.set_mul_add(&c, &a, &b);
        prop_assert_eq!(out, &c + &(&a * &b));
    }

    #[test]
    fn div_exact_assign_inverts_mul(a in kernel_operand(), d in kernel_operand()) {
        prop_assume!(!d.is_zero());
        let mut q = &a * &d;
        q.div_exact_assign(&d);
        prop_assert_eq!(&q, &a);
        // Agrees with the general quotient wherever the division is exact.
        let p = &a * &d;
        prop_assert_eq!(q, &p / &d);
    }

    #[test]
    fn div_exact_assign_rejects_a_remainder(a in kernel_operand(), d in kernel_operand()) {
        prop_assume!(!d.is_zero() && !d.is_one());
        let inexact = &(&a * &d) + &BigUint::one();
        let caught = std::panic::catch_unwind(|| {
            let mut v = inexact.clone();
            v.div_exact_assign(&d);
        });
        prop_assert!(caught.is_err());
    }

    #[test]
    fn mul_assign_matches_mul(a in kernel_operand(), b in kernel_operand()) {
        let mut v = a.clone();
        v *= &b;
        prop_assert_eq!(v, &a * &b);
    }

    #[test]
    fn add_sub_assign_match_operators(a in kernel_operand(), b in kernel_operand()) {
        let mut v = a.clone();
        v += &b;
        prop_assert_eq!(&v, &(&a + &b));
        v -= &b;
        prop_assert_eq!(&v, &a);
        let (hi, lo) = if a >= b { (&a, &b) } else { (&b, &a) };
        let mut w = hi.clone();
        w -= lo;
        prop_assert_eq!(w, hi - lo);
    }
}

/// A denominator factor for `BigRational::from_scaled`: one, small,
/// a power of two, `u64::MAX`, any word, or (rarely) two limbs.
fn scale_factor() -> impl Strategy<Value = BigUint> {
    (0u8..12, any::<u64>(), any::<u64>()).prop_map(|(kind, w, hi)| match kind {
        0 => BigUint::one(),
        1 | 2 => BigUint::from(2 + w % 1000),
        3 | 4 => BigUint::from(1u64 << (w % 64)),
        5 => BigUint::from(u64::MAX),
        6..=10 => BigUint::from(w.max(1)),
        _ => BigUint::from_limbs(vec![w, hi.max(1)]),
    })
}

/// A factor list with repeats (each entry may copy an earlier one), and a
/// numerator: zero, any value, or any value times a random sub-product of
/// the factors, so that they share factors with it.
fn scaled_fraction() -> impl Strategy<Value = (BigUint, Vec<BigUint>)> {
    let picks = prop::collection::vec((scale_factor(), any::<u8>()), 0..14);
    (picks, biguint(), 0u8..4, any::<u16>()).prop_map(|(picks, x, kind, keep)| {
        let mut factors: Vec<BigUint> = Vec::new();
        for (f, repeat) in picks {
            let f = match repeat % 4 {
                0 if !factors.is_empty() => factors[repeat as usize % factors.len()].clone(),
                _ => f,
            };
            factors.push(f);
        }
        let shared = factors
            .iter()
            .enumerate()
            .filter(|&(i, _)| keep >> (i % 16) & 1 == 1)
            .fold(BigUint::one(), |acc, (_, f)| &acc * f);
        let x = match kind {
            0 => BigUint::zero(),
            1 => x,
            _ => &x * &shared,
        };
        (x, factors)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The exit reduction by word-sized chunks of the denominator equals
    /// the GCD reduction of the whole fraction, bit for bit.
    #[test]
    fn from_scaled_matches_new((x, factors) in scaled_fraction()) {
        let den = factors.iter().fold(BigUint::one(), |acc, f| &acc * f);
        let want = BigRational::new(BigInt::from(x.clone()), den);
        let got = BigRational::from_scaled(x, &factors);
        prop_assert_eq!(got.numer(), want.numer());
        prop_assert_eq!(got.denom(), want.denom());
    }
}

#[test]
fn from_scaled_splits_a_product_across_words() {
    // 2^40 · 3^30 · 5^20 outgrows a word twice; the numerator shares some
    // of every prime and one of u64::MAX's factors (3·5·17·257·641·…).
    let factors: Vec<BigUint> = [1u64 << 40, 3u64.pow(30), 5u64.pow(20), u64::MAX, 1]
        .into_iter()
        .map(BigUint::from)
        .collect();
    let x = BigUint::from(6u64).pow(50) * BigUint::from(25u64 * 641);
    let den = factors.iter().fold(BigUint::one(), |acc, f| &acc * f);
    assert_eq!(
        BigRational::from_scaled(x.clone(), &factors),
        BigRational::new(BigInt::from(x), den)
    );
}

#[test]
fn add_assign_carries_into_a_new_limb() {
    let mut v = BigUint::from_limbs(vec![u64::MAX; 3]);
    v += &BigUint::one();
    assert_eq!(v, BigUint::one() << 192u64);
    let mut w = BigUint::one();
    w += &BigUint::from_limbs(vec![u64::MAX; 2]);
    assert_eq!(w, BigUint::one() << 128u64);
}

/// `2^k` as an exact [`BigRational`].
fn pow2_rational(k: i64) -> BigRational {
    let p = BigUint::one() << k.unsigned_abs();
    if k >= 0 {
        BigRational::from(p)
    } else {
        BigRational::new(BigInt::one(), p)
    }
}

/// `2^k` as a [`LogNum`], exactly: a power of two converts and divides
/// without rounding.
fn pow2_lognum(k: i64) -> LogNum {
    let p = LogNum::from_uint(&(BigUint::one() << k.unsigned_abs()));
    if k >= 0 {
        p
    } else {
        LogNum::ONE / p
    }
}

/// The exact value of a finite `LogNum`: divided by the power of two
/// nearest it (an exact rescale), it is an `f64` near one, whose bits are
/// read off exactly.
fn exact_of(x: LogNum) -> BigRational {
    if x.is_zero() {
        return BigRational::zero();
    }
    let k = x.log2().round() as i64;
    let y = (x / pow2_lognum(k)).to_f64();
    let bits = y.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1075;
    let mant = (bits & ((1 << 52) - 1)) | 1 << 52;
    &BigRational::from(mant) * &pow2_rational(exp + k)
}

/// Binary exponents around which a `LogNum` changes its coarse exponent
/// (`2^(512·e ± 256)`), and the middle of the first window.
const LOGNUM_EDGES: [i64; 7] = [0, 256, -256, 768, -768, 1280, -1280];

/// The `LogNum` `m·2^k` and its exact value (`m < 2^53`, so the value is
/// representable).
fn lognum_exact(m: u64, k: i64) -> (LogNum, BigRational) {
    let exact = &BigRational::from(m) * &pow2_rational(k);
    (LogNum::from_uint(&BigUint::from(m)) * pow2_lognum(k), exact)
}

/// A `LogNum` operand and its exact value, with magnitude `2^bits`:
/// `bits` within 40 of a coarse-exponent edge half the time, anywhere in
/// `±3000` otherwise; zero and `2^52·2^k` now and then.
fn lognum_operand() -> impl Strategy<Value = (LogNum, BigRational)> {
    let parts = (0u8..8, 1u64..1 << 53, 0usize..LOGNUM_EDGES.len(), -40i64..40, -3000i64..3000);
    parts.prop_map(|(kind, m, edge, near, far)| {
        let m = match kind {
            0 => 0,
            1 => 1 << 52,
            _ => m,
        };
        let bits = if kind % 2 == 0 { LOGNUM_EDGES[edge] + near } else { far };
        lognum_exact(m, bits - 64 + i64::from(m.leading_zeros()))
    })
}

/// Two operands straddling the same coarse-exponent edge, within 54 bits
/// of it: their sums, products and quotients cross between windows.
fn lognum_straddling_pair() -> impl Strategy<Value = [(LogNum, BigRational); 2]> {
    let parts = (0usize..LOGNUM_EDGES.len(), 1u64..1 << 53, 1u64..1 << 53, -54i64..54, -54i64..54);
    parts.prop_map(|(edge, ma, mb, da, db)| {
        let at = |m: u64, d: i64| LOGNUM_EDGES[edge] + d - 64 + i64::from(m.leading_zeros());
        [lognum_exact(ma, at(ma, da)), lognum_exact(mb, at(mb, db))]
    })
}

/// `|got − want| ≤ 2⁻⁵²·want`.
fn within_2_pow_52(got: LogNum, want: &BigRational) -> bool {
    let err = (&exact_of(got) - want).abs();
    &err * &pow2_rational(52) <= *want
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lognum_operands_are_exact((a, ea) in lognum_operand()) {
        prop_assert_eq!(exact_of(a), ea);
    }

    #[test]
    fn lognum_ops_round_once((a, ea) in lognum_operand(), (b, eb) in lognum_operand()) {
        prop_assert!(within_2_pow_52(a + b, &(&ea + &eb)));
        prop_assert!(within_2_pow_52(a * b, &(&ea * &eb)));
        if !b.is_zero() {
            prop_assert!(within_2_pow_52(a / b, &(&ea / &eb)));
        }
    }

    #[test]
    fn lognum_ops_round_once_across_window_edges([(a, ea), (b, eb)] in lognum_straddling_pair()) {
        prop_assert!(within_2_pow_52(a + b, &(&ea + &eb)));
        prop_assert!(within_2_pow_52(a * b, &(&ea * &eb)));
        prop_assert!(within_2_pow_52(a / b, &(&ea / &eb)));
        prop_assert_eq!(a.cmp(&b), ea.cmp(&eb));
    }

    #[test]
    fn lognum_order_agrees_with_exact_values(
        (a, ea) in lognum_operand(),
        (b, eb) in lognum_operand(),
        (c, ec) in lognum_operand(),
    ) {
        prop_assert_eq!(a.cmp(&b), ea.cmp(&eb));
        prop_assert_eq!(a == b, ea == eb);
        // A rounded result against an exact value: the order holds
        // whenever they differ by more than the rounding.
        for (got, want) in [(a + b, &ea + &eb), (a * b, &ea * &eb)] {
            let gap = &(&want - &ec).abs() * &pow2_rational(52);
            if gap > want && gap > ec {
                prop_assert_eq!(got.cmp(&c), want.cmp(&ec));
            }
        }
    }

    #[test]
    fn lognum_zero_and_infinity((a, _) in lognum_operand()) {
        let (zero, inf) = (LogNum::ZERO, LogNum::INFINITY);
        prop_assert_eq!(zero + a, a);
        prop_assert_eq!(a + zero, a);
        prop_assert_eq!(a * zero, zero);
        prop_assert_eq!(zero * inf, zero);
        prop_assert_eq!(a + inf, inf);
        prop_assert!(zero <= a && a < inf);
        if !a.is_zero() {
            prop_assert!(zero < a);
            prop_assert_eq!(a * inf, inf);
            prop_assert_eq!(zero / a, zero);
            prop_assert_eq!(a / inf, zero);
            prop_assert_eq!(inf / a, inf);
            prop_assert!(a.is_finite_positive());
        }
        prop_assert_eq!(zero.log2(), f64::NEG_INFINITY);
        prop_assert_eq!(inf.log2(), f64::INFINITY);
    }

    #[test]
    fn lognum_log2_round_trips(near in -2000.0f64..2000.0, far in -1e7f64..1e7, pick in 0u8..2) {
        let l = if pick == 0 { near } else { far };
        let back = LogNum::from_log2(l).log2();
        prop_assert!((back - l).abs() <= (l.abs() * 2f64.powi(-50)).max(1e-12), "{l} -> {back}");
    }

    #[test]
    fn lognum_log2_matches_exact_values((a, ea) in lognum_operand()) {
        prop_assume!(!a.is_zero());
        prop_assert!((a.log2() - ea.log2()).abs() < 1e-9);
    }

    #[test]
    fn lognum_from_uint_rounds_halfway_cases_correctly(
        m in 1u64 << 52..1 << 53,
        shift in 11u64..300,
        above in 0u8..2,
    ) {
        // Halfway between `m·2^(shift+1)` and `(m+1)·2^(shift+1)`, plus
        // one when `above`: that one bit lies below the top 64 and only
        // the sticky bit carries it.
        let v = (BigUint::from(2 * m + 1) << shift) + BigUint::from(u64::from(above));
        let up = above == 1 || m % 2 == 1;
        let want = BigRational::from(BigUint::from(m + u64::from(up)) << (shift + 1));
        prop_assert_eq!(exact_of(LogNum::from_uint(&v)), want);
    }

    #[test]
    fn lognum_from_uint_rounds_once(v in biguint()) {
        let got = LogNum::from_uint(&v);
        if v.is_zero() {
            prop_assert!(got.is_zero());
        } else {
            // Correct rounding: within half an ulp, 2⁻⁵³ relative.
            let want = BigRational::from(v);
            let err = (&exact_of(got) - &want).abs();
            prop_assert!(&err * &pow2_rational(53) <= want);
        }
    }
}

// ---------------------------------------------------------------------------
// The inline/heap boundary: a value of up to four limbs is stored inline,
// a longer one on the heap, and a heap value that shrinks keeps its buffer.
// ---------------------------------------------------------------------------

/// A value of 0–6 limbs, each all ones, zero, one or random, so that
/// carries and borrows run across the fourth limb in both directions.
fn boundary_operand() -> impl Strategy<Value = BigUint> {
    let limb = (0u8..4, any::<u64>()).prop_map(|(kind, x)| match kind {
        0 => u64::MAX,
        1 => 0,
        2 => 1,
        _ => x,
    });
    (0usize..7, prop::collection::vec(limb, 6..7))
        .prop_map(|(len, limbs)| BigUint::from_limbs(limbs[..len].to_vec()))
}

/// `v` held in a heap buffer of seven limbs, however short `v` is: a
/// spilled value refilled by `clone_from` keeps its buffer.
fn spilled(v: &BigUint) -> BigUint {
    let mut out = BigUint::from_limbs(vec![u64::MAX; 7]);
    out.clone_from(v);
    out
}

fn hash_of(v: &BigUint) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Equal as values, as limb slices, in order and in hash.
fn same_value(x: &BigUint, y: &BigUint) -> bool {
    x == y && x.limbs() == y.limbs() && x.cmp(y).is_eq() && hash_of(x) == hash_of(y)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn inline_values_equal_their_spilled_copies(a in boundary_operand(), b in boundary_operand()) {
        let (sa, sb) = (spilled(&a), spilled(&b));
        prop_assert!(same_value(&a, &sa));
        prop_assert_eq!(a.cmp(&b), sa.cmp(&sb));
        prop_assert_eq!(a.cmp(&b), sa.cmp(&b));
        prop_assert_eq!(a.cmp(&b), a.cmp(&sb));
        prop_assert_eq!(a == b, sa == b);
    }

    #[test]
    fn inline_operators_match_spilled_operands(a in boundary_operand(), b in boundary_operand()) {
        let (sa, sb) = (spilled(&a), spilled(&b));
        prop_assert!(same_value(&(&a + &b), &(&sa + &sb)));
        prop_assert!(same_value(&(&a * &b), &(&sa * &sb)));
        let (hi, lo) = if a >= b { (&a, &b) } else { (&b, &a) };
        prop_assert!(same_value(&(hi - lo), &(&spilled(hi) - &spilled(lo))));
        prop_assert!(same_value(&(&(hi - lo) + lo), hi));
        if !b.is_zero() {
            let (q, r) = a.div_rem(&b);
            let (sq, sr) = sa.div_rem(&sb);
            prop_assert!(same_value(&q, &sq) && same_value(&r, &sr));
            prop_assert!(same_value(&(&(&q * &b) + &r), &a));
        }
        prop_assert!(same_value(&a.gcd(&b), &sa.gcd(&sb)));
    }

    #[test]
    fn inline_shifts_cross_the_boundary(a in boundary_operand(), k in 0u64..200) {
        let sa = spilled(&a);
        let up = &a << k;
        prop_assert!(same_value(&up, &(&sa << k)));
        prop_assert!(same_value(&(&up >> k), &a));
        prop_assert!(same_value(&(&a >> k), &(&sa >> k)));
        prop_assert!(same_value(&up, &(&a * &BigUint::from(2u64).pow(k))));
    }

    #[test]
    fn inline_assign_ops_match_operators(a in boundary_operand(), b in boundary_operand()) {
        // Into an inline destination and into a spilled one.
        for mut v in [a.clone(), spilled(&a)] {
            v += &b;
            prop_assert!(same_value(&v, &(&a + &b)));
            v -= &b;
            prop_assert!(same_value(&v, &a));
            v *= &b;
            prop_assert!(same_value(&v, &(&a * &b)));
        }
        let (hi, lo) = if a >= b { (&a, &b) } else { (&b, &a) };
        for mut w in [hi.clone(), spilled(hi)] {
            w -= lo;
            prop_assert!(same_value(&w, &(hi - lo)));
            w -= &w.clone();
            prop_assert!(w.is_zero() && same_value(&w, &BigUint::zero()));
        }
    }

    #[test]
    fn inline_kernels_match_operators(
        a in boundary_operand(),
        b in boundary_operand(),
        c in boundary_operand(),
    ) {
        let want = &a + &(&b * &c);
        for mut out in [BigUint::zero(), spilled(&c), BigUint::from_limbs(vec![u64::MAX; 7])] {
            out.set_mul_add(&a, &b, &c);
            prop_assert!(same_value(&out, &want));
        }
        if !b.is_zero() {
            let p = &a * &b;
            for mut q in [p.clone(), spilled(&p)] {
                q.div_exact_assign(&b);
                prop_assert!(same_value(&q, &a));
            }
        }
    }

    #[test]
    fn inline_clone_from_crosses_the_boundary(a in boundary_operand(), b in boundary_operand()) {
        for mut dst in [a.clone(), spilled(&a)] {
            dst.clone_from(&b);
            prop_assert!(same_value(&dst, &b));
            dst.clone_from(&a);
            prop_assert!(same_value(&dst, &a));
        }
    }

    #[test]
    fn inline_small_values_match_u128(x in any::<u64>(), y in any::<u64>(), k in 0u64..64) {
        let (bx, by) = (BigUint::from(x), BigUint::from(y));
        let (x, y) = (u128::from(x), u128::from(y));
        prop_assert_eq!(&bx + &by, BigUint::from(x + y));
        prop_assert_eq!(&bx * &by, BigUint::from(x * y));
        prop_assert_eq!(&bx << k, BigUint::from(x << k));
        prop_assert_eq!((&bx * &by).to_u128(), Some(x * y));
        if let (Some(q), Some(r)) = (x.checked_div(y), x.checked_rem(y)) {
            prop_assert_eq!(bx.div_rem(&by), (BigUint::from(q), BigUint::from(r)));
        }
        prop_assert_eq!(bx.cmp(&by), x.cmp(&y));
    }
}

#[test]
fn inline_carry_and_borrow_at_four_limbs() {
    let four = BigUint::from_limbs(vec![u64::MAX; 4]);
    let one = BigUint::one();
    let five = &four + &one;
    assert_eq!(five, BigUint::one() << 256u64);
    assert_eq!(five.limbs(), [0, 0, 0, 0, 1]);
    let mut v = four.clone();
    v += &one;
    assert_eq!(v, five);
    // A spilled value shrinking back below five limbs keeps its buffer and
    // still equals, orders and hashes as the fresh value.
    v -= &one;
    assert!(same_value(&v, &four));
    v -= &four;
    assert!(same_value(&v, &BigUint::zero()));
    let three = BigUint::from_limbs(vec![u64::MAX; 3]);
    let mut w = &three + &one;
    assert_eq!(w.limbs(), [0, 0, 0, 1]);
    w -= &one;
    assert!(same_value(&w, &three));
}

/// A one-limb divisor of each kind `div_exact_assign` meets: odd, even
/// (`odd · 2^k`), a power of two (one included), and `u64::MAX`.
fn one_limb_divisor() -> impl Strategy<Value = u64> {
    (0u8..4, any::<u64>(), 0u32..64).prop_map(|(kind, word, k)| match kind {
        0 => word | 1,
        1 => ((word | 1) << (k % 63)).max(2),
        2 => 1u64 << k,
        _ => u64::MAX,
    })
}

/// A quotient of 1–12 limbs: random, all ones, or one limb above the
/// others (so a carry or borrow crosses every limb).
fn wide_quotient() -> impl Strategy<Value = BigUint> {
    (0u8..3, prop::collection::vec(any::<u64>(), 1..13)).prop_map(|(kind, mut limbs)| {
        match kind {
            0 => {}
            1 => limbs.fill(u64::MAX),
            _ => {
                let top = limbs.len() - 1;
                limbs[..top].fill(0);
                limbs[top] |= 1;
            }
        }
        BigUint::from_limbs(limbs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_limb_div_exact_assign_matches_div_rem(q in wide_quotient(), d in one_limb_divisor()) {
        let d = BigUint::from(d);
        let mut v = &q * &d;
        let (want, rem) = v.div_rem(&d);
        prop_assert!(rem.is_zero());
        v.div_exact_assign(&d);
        prop_assert_eq!(&v, &want);
        prop_assert_eq!(v, q);
    }

    #[test]
    fn one_limb_div_exact_assign_rejects_every_remainder(
        q in wide_quotient(),
        d in one_limb_divisor(),
        r in any::<u64>(),
    ) {
        prop_assume!(d > 1);
        // A remainder in 1..d, odd or even.
        let r = BigUint::from(1 + r % (d - 1));
        let d = BigUint::from(d);
        let inexact = &(&q * &d) + &r;
        let caught = std::panic::catch_unwind(|| {
            let mut v = inexact.clone();
            v.div_exact_assign(&d);
        });
        prop_assert!(caught.is_err());
    }

    #[test]
    fn fixed_uint_matches_biguint(
        a in wide_quotient(),
        b in wide_quotient(),
        c in any::<u64>(),
        d in one_limb_divisor(),
    ) {
        // 12-limb operands and a one-limb factor fit 26 limbs.
        let (fa, fb) = (FixedUint::<26>::from_big(&a), FixedUint::<26>::from_big(&b));
        let mut out = FixedUint::<26>::default();
        out.set_mul_add(&fa, &fb, c);
        let want = &a + &(&b * &BigUint::from(c));
        prop_assert_eq!(out.to_big(), want.clone());
        prop_assert_eq!(fa.cmp(&fb), a.cmp(&b));
        out.mul_assign_u64(d);
        prop_assert_eq!(out.to_big(), &want * &BigUint::from(d));
        out.div_exact_assign_u64(d);
        prop_assert_eq!(out.to_big(), want);
    }
}

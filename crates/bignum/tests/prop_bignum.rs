//! Property-based tests for the bignum substrate: ring axioms, division
//! invariants, radix round-trips, and agreement between the exact types and
//! the log-domain companion.

use aqo_bignum::{BigInt, BigRational, BigUint, LogNum};
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

#[test]
fn add_assign_carries_into_a_new_limb() {
    let mut v = BigUint::from_limbs(vec![u64::MAX; 3]);
    v += &BigUint::one();
    assert_eq!(v, BigUint::one() << 192u64);
    let mut w = BigUint::one();
    w += &BigUint::from_limbs(vec![u64::MAX; 2]);
    assert_eq!(w, BigUint::one() << 128u64);
}

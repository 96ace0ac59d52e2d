//! Microbenchmarks for the bignum substrate — the inner loop of every exact
//! certification (F3 component scaling).

use aqo_bignum::{BigRational, BigUint};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_mul(c: &mut Criterion) {
    let mut g = c.benchmark_group("biguint_mul");
    for bits in [256u64, 2048, 16384, 65536] {
        let a = (BigUint::one() << bits) - BigUint::from(12345u64);
        let b = (BigUint::one() << bits) - BigUint::from(987u64);
        g.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, _| {
            bench.iter(|| black_box(&a) * black_box(&b));
        });
    }
    g.finish();
}

fn bench_divrem(c: &mut Criterion) {
    let mut g = c.benchmark_group("biguint_divrem");
    for bits in [2048u64, 16384] {
        let a = (BigUint::one() << (2 * bits)) - BigUint::from(3u64);
        let b = (BigUint::one() << bits) - BigUint::from(7u64);
        g.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, _| {
            bench.iter(|| black_box(&a).div_rem(black_box(&b)));
        });
    }
    g.finish();
}

/// One case per `BigUint::gcd` path: single limb, two limbs, coprime
/// multi-limb operands, long operands, and a long odd value against a
/// power of two (the reductions' denominators).
fn bench_gcd(c: &mut Criterion) {
    let limbs = |n: u64, salt: u64| -> BigUint {
        BigUint::from_limbs(
            (0..n).map(|i| (i + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1).collect(),
        )
    };
    let common = limbs(2, 7);
    let cases = [
        ("1-limb", BigUint::from(0xF0E1_D2C3_B4A5_9687u64), BigUint::from(0x1234_5678_9ABCu64)),
        ("2-limb", limbs(2, 1), limbs(2, 2)),
        ("4-limb-coprime", BigUint::from(3u64).pow(160), BigUint::from(5u64).pow(110)),
        ("16-limb", &limbs(14, 3) * &common, &limbs(14, 4) * &common),
        ("4096-bit-odd-vs-2^k", BigUint::from(3u64).pow(2584), BigUint::one() << 3000),
    ];
    let mut g = c.benchmark_group("biguint_gcd");
    for (name, a, b) in &cases {
        g.bench_function(*name, |bench| bench.iter(|| black_box(a).gcd(black_box(b))));
    }
    g.finish();
}

fn bench_pow(c: &mut Criterion) {
    c.bench_function("biguint_pow_4^4096", |b| {
        let base = BigUint::from(4u64);
        b.iter(|| black_box(&base).pow(4096));
    });
}

fn bench_rational_reduce(c: &mut Criterion) {
    c.bench_function("bigrational_mul_reduced", |b| {
        let x = BigRational::new(
            aqo_bignum::BigInt::from(BigUint::from(3u64).pow(500)),
            BigUint::from(2u64).pow(800),
        );
        let y = BigRational::new(
            aqo_bignum::BigInt::from(BigUint::from(2u64).pow(700)),
            BigUint::from(3u64).pow(400),
        );
        b.iter(|| black_box(&x) * black_box(&y));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_mul, bench_divrem, bench_gcd, bench_pow, bench_rational_reduce
}
criterion_main!(benches);

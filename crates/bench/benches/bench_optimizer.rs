//! Exact optimizers (subset DP, two-phase engine; E5/E13, F3) and IKKBZ on trees.

use aqo_bignum::{BigInt, BigRational, BigUint, LogNum};
use aqo_core::qon::QoNInstance;
use aqo_core::workloads::{self, WorkloadParams};
use aqo_core::{AccessCostMatrix, SelectivityMatrix};
use aqo_graph::generators;
use aqo_core::budget::Budget;
use aqo_optimizer::engine::DpOptions;
use aqo_optimizer::{dp, engine, ikkbz};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn instance(n: usize, seed: u64) -> QoNInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::random_connected(n, n + n / 2, &mut rng);
    let sizes: Vec<BigUint> = (0..n).map(|_| BigUint::from(rng.gen_range(2u64..500))).collect();
    let mut s = SelectivityMatrix::new();
    let mut w = AccessCostMatrix::new();
    for (u, v) in g.edges().collect::<Vec<_>>() {
        let sel = BigRational::new(BigInt::one(), BigUint::from(rng.gen_range(2u64..50)));
        s.set(u, v, sel.clone());
        for (j, k) in [(u, v), (v, u)] {
            let lower = (BigRational::from(sizes[j].clone()) * &sel).ceil();
            w.set(j, k, lower.magnitude().clone());
        }
    }
    QoNInstance::new(g, sizes, s, w)
}

fn bench_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("subset_dp");
    for n in [10usize, 14, 18] {
        let inst = instance(n, 1);
        group.bench_with_input(BenchmarkId::new("lognum", n), &n, |b, _| {
            b.iter(|| dp::optimize::<LogNum>(black_box(&inst), true));
        });
        if n <= 14 {
            group.bench_with_input(BenchmarkId::new("exact", n), &n, |b, _| {
                b.iter(|| dp::optimize::<BigRational>(black_box(&inst), true));
            });
        }
    }
    group.finish();
}

/// The two-phase engine, sequential against one worker per hardware
/// thread: the request path's exact DP, so any speedup here is one a
/// `threads` request can see.
fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_engine");
    for n in [10usize, 14, 18] {
        let inst = instance(n, 1);
        for (label, threads) in [("seq", 1usize), ("auto", 0)] {
            let opts = DpOptions { allow_cartesian: true, threads };
            group.bench_with_input(
                BenchmarkId::new(format!("two_phase_exact_{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        engine::optimize_two_phase::<BigRational>(
                            black_box(&inst),
                            &opts,
                            &Budget::unlimited(),
                        )
                    });
                },
            );
        }
    }
    group.finish();
}

/// The two-phase engine over `qon-dense`'s shape, 64 distinct clique-9
/// instances cycled: one instance repeated lets caches and branch
/// predictors learn it and flatters every figure.
fn bench_engine_cycled(c: &mut Criterion) {
    let params = WorkloadParams::default();
    let pool: Vec<QoNInstance> = (0..64)
        .map(|seed| workloads::clique(9, &params, &mut StdRng::seed_from_u64(seed)))
        .collect();
    let opts = DpOptions { allow_cartesian: true, threads: 1 };
    let mut group = c.benchmark_group("engine");
    let mut next = pool.iter().cycle();
    group.bench_function("two_phase_cycled/clique9", |b| {
        b.iter(|| {
            let inst = next.next().expect("a cycled pool never ends");
            engine::optimize_two_phase::<BigRational>(black_box(inst), &opts, &Budget::unlimited())
        });
    });
    group.finish();
}

fn bench_ikkbz(c: &mut Criterion) {
    let mut group = c.benchmark_group("ikkbz_trees");
    for n in [20usize, 60, 120] {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::random_tree(n, &mut rng);
        let sizes: Vec<BigUint> =
            (0..n).map(|_| BigUint::from(rng.gen_range(2u64..500))).collect();
        let mut s = SelectivityMatrix::new();
        let mut w = AccessCostMatrix::new();
        for (u, v) in g.edges().collect::<Vec<_>>() {
            let sel = BigRational::new(BigInt::one(), BigUint::from(rng.gen_range(2u64..20)));
            s.set(u, v, sel.clone());
            for (j, k) in [(u, v), (v, u)] {
                let lower = (BigRational::from(sizes[j].clone()) * &sel).ceil();
                w.set(j, k, lower.magnitude().clone());
            }
        }
        let inst = QoNInstance::new(g, sizes, s, w);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| ikkbz::optimize(black_box(&inst)));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_dp, bench_engine, bench_engine_cycled, bench_ikkbz
}
criterion_main!(benches);

//! QO_H machinery: optimal memory allocation and the decomposition DP
//! (E7–E9, F3).

use aqo_bignum::{BigInt, BigRational, BigUint};
use aqo_core::qoh::QoHInstance;
use aqo_core::{JoinSequence, SelectivityMatrix};
use aqo_graph::Graph;
use aqo_optimizer::pipeline;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn path(n: usize, t: u64, mem: u64) -> QoHInstance {
    let mut g = Graph::new(n);
    let mut s = SelectivityMatrix::new();
    for v in 1..n {
        g.add_edge(v - 1, v);
        s.set(v - 1, v, BigRational::new(BigInt::one(), BigUint::from(8u64)));
    }
    QoHInstance::new(g, vec![BigUint::from(t); n], s, BigUint::from(mem))
}

fn bench_allocation(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimal_allocation");
    for n in [8usize, 16, 32] {
        let inst = path(n, 4096, 4096 * (n as u64) / 2);
        let z = JoinSequence::identity(n);
        let inter: Vec<BigRational> = inst.intermediates(&z);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| inst.optimal_allocation(black_box(&z), (1, n - 1), &inter));
        });
    }
    group.finish();
}

fn bench_decomposition_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("decomposition_dp");
    for n in [8usize, 16, 32] {
        let inst = path(n, 4096, 3 * 4096);
        let z = JoinSequence::identity(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| pipeline::best_decomposition(black_box(&inst), &z));
        });
    }
    group.finish();
}

fn bench_exhaustive_qoh(c: &mut Criterion) {
    let inst = path(6, 4096, 3 * 4096);
    c.bench_function("qoh_exhaustive_n6", |b| {
        b.iter(|| pipeline::optimize_exhaustive(black_box(&inst)));
    });
}

/// The `qoh-exhaustive` request shape: a 5-chain with log-uniform sizes
/// (`workloads::chain`, default parameters) and memory = the product of
/// all sizes, so every fragment fits and all 120 sequences are costed.
fn bench_exhaustive_chain5(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let base = aqo_core::workloads::chain(5, &Default::default(), &mut rng);
    let memory = base.sizes().iter().fold(BigUint::one(), |acc, t| &acc * t);
    let inst = QoHInstance::new(
        base.graph().clone(),
        base.sizes().to_vec(),
        base.selectivity().clone(),
        memory,
    );
    c.bench_function("qoh_exhaustive_chain5", |b| {
        b.iter(|| pipeline::optimize_exhaustive(black_box(&inst)));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_allocation, bench_decomposition_dp, bench_exhaustive_qoh,
        bench_exhaustive_chain5
}
criterion_main!(benches);

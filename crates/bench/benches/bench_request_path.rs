//! Microbenchmarks for the request front end `aqo serve` runs before any
//! optimizer work: the JSON request line, the instance text, and the
//! canonical cache key with its FNV-1a fingerprint. A cache hit costs
//! exactly these three plus the lookup, so their sum bounds a hit's
//! latency from below.
//!
//! `hit_front_end` times what a hit pays after the JSON line: parse the
//! instance, build its key, hash it, drop both. It cycles a pool of 64
//! distinct texts, as perfbench does, since a loop over one text lets
//! caches and branch predictors learn it.

use aqo_core::fingerprint::{fnv1a, write_canonical_qon};
use aqo_core::{textio, workloads};
use aqo_serve::{Op, Problem, Request};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// The served shapes: a dense clique n = 9 (36 edges, the `qon-dense`
/// workload) and a long chain n = 28 (~1 KB of text, `serve-hot`).
fn cases() -> Vec<(&'static str, String)> {
    let params = workloads::WorkloadParams::default();
    let mut rng = StdRng::seed_from_u64(1);
    vec![
        ("clique9", textio::qon_to_text(&workloads::clique(9, &params, &mut rng))),
        ("chain28", textio::qon_to_text(&workloads::chain(28, &params, &mut rng))),
    ]
}

/// Distinct texts of each served shape: cliques n = 9 (`qon-dense`, whose
/// key allows cartesian products) and chains and cycles n = 28
/// (`serve-hot`, whose key does not).
fn pools() -> Vec<(&'static str, &'static str, Vec<String>)> {
    const POOL: u64 = 64;
    let params = workloads::WorkloadParams::default();
    let text = |inst| textio::qon_to_text(&inst);
    let clique9 = (0..POOL)
        .map(|i| text(workloads::clique(9, &params, &mut StdRng::seed_from_u64(i))))
        .collect();
    let chain28 = (0..POOL)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(i);
            text(if i % 2 == 0 {
                workloads::chain(28, &params, &mut rng)
            } else {
                workloads::cycle(28, &params, &mut rng)
            })
        })
        .collect();
    vec![("clique9", "qon cart=1 ", clique9), ("chain28", "qon cart=0 ", chain28)]
}

fn bench_request_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("request_path");
    for (name, text) in cases() {
        let mut req = Request::new(Op::Optimize, Problem::Qon);
        req.id = 1;
        req.instance = Some(text.clone());
        let line = req.to_json_line();
        g.bench_function(format!("request_parse/{name}"), |b| {
            b.iter(|| Request::parse(black_box(&line)))
        });
        g.bench_function(format!("qon_from_text/{name}"), |b| {
            b.iter(|| textio::qon_from_text(black_box(&text)))
        });
        let inst = textio::qon_from_text(&text).expect("generated text parses");
        g.bench_function(format!("canonical_key_fnv1a/{name}"), |b| {
            b.iter(|| {
                // As the server builds its key: knob prefix, then the
                // canonical encoding in the same buffer.
                let mut key = String::with_capacity(text.len() + 16);
                key.push_str("qon cart=1 ");
                write_canonical_qon(&mut key, black_box(&inst));
                fnv1a(key.as_bytes())
            })
        });
    }
    for (name, prefix, pool) in pools() {
        let mut next = pool.iter().cycle();
        g.bench_function(format!("hit_front_end/{name}"), |b| {
            b.iter(|| {
                let text = next.next().expect("the pool is not empty");
                let inst = textio::qon_from_text(black_box(text)).expect("generated text parses");
                let mut key = String::with_capacity(text.len() + 16);
                key.push_str(prefix);
                write_canonical_qon(&mut key, &inst);
                fnv1a(key.as_bytes())
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_request_path
}
criterion_main!(benches);

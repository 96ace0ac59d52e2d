//! Microbenchmarks for the request front end `aqo serve` runs before any
//! optimizer work: the JSON request line, the instance text, and the
//! canonical cache key with its FNV-1a fingerprint. A cache hit costs
//! exactly these three plus the lookup, so their sum bounds a hit's
//! latency from below.

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

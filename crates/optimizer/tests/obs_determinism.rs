//! Thread-count invariance of the deterministic observability counters:
//! the two-phase engine's `optimizer.engine.*` counters are computed on
//! the coordinating thread from layer geometry and phase-A estimates, so
//! they must be *identical* for every `threads` setting — the property the
//! CLI's `--metrics` comparison across `--threads 1` / `--threads 4` rests
//! on. Each run reads its counters from a scope of its own, so runs on
//! concurrent test threads never see each other's counts.

use aqo_bignum::{BigInt, BigRational, BigUint};
use aqo_core::budget::{Budget, BudgetKind};
use aqo_core::qon::QoNInstance;
use aqo_core::{AccessCostMatrix, SelectivityMatrix};
use aqo_graph::Graph;
use aqo_obs::{journal, Scope};
use aqo_optimizer::{engine, pipeline};
use proptest::prelude::*;
use std::sync::Barrier;

/// A QO_N instance on `n` vertices; `connected = false` leaves the last
/// vertex isolated so the graph has two components.
fn random_instance(seed: u64, n: usize, connected: bool) -> QoNInstance {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut g = Graph::new(n);
    let limit = if connected { n } else { n - 1 };
    for v in 1..limit {
        g.add_edge((next() % v as u64) as usize, v);
    }
    for _ in 0..n / 2 {
        let u = (next() % limit as u64) as usize;
        let v = (next() % limit as u64) as usize;
        if u != v {
            g.add_edge(u, v);
        }
    }
    let sizes: Vec<BigUint> = (0..n).map(|_| BigUint::from(2 + next() % 60)).collect();
    let mut s = SelectivityMatrix::new();
    let mut w = AccessCostMatrix::new();
    for (u, v) in g.edges().collect::<Vec<_>>() {
        let sel = BigRational::new(BigInt::one(), BigUint::from(2 + next() % 12));
        s.set(u, v, sel.clone());
        for (j, k) in [(u, v), (v, u)] {
            let lower = (BigRational::from(sizes[j].clone()) * &sel).ceil();
            w.set(j, k, lower.magnitude().clone());
        }
    }
    QoNInstance::new(g, sizes, s, w)
}

/// Runs the two-phase engine with collection on in a fresh scope and
/// returns the `optimizer.engine.*` counters it produced.
fn engine_counters(
    inst: &QoNInstance,
    threads: usize,
    allow_cartesian: bool,
) -> Vec<(String, u64)> {
    let _scope = Scope::new().install();
    aqo_obs::set_enabled(true);
    let opts = engine::DpOptions { allow_cartesian, threads };
    let _ = engine::optimize_two_phase::<BigRational>(inst, &opts, &Budget::unlimited())
        .expect("unlimited budget cannot be exceeded");
    aqo_obs::counters_snapshot()
        .into_iter()
        .filter(|(name, _)| name.starts_with("optimizer.engine."))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engine_counters_invariant_under_thread_count(
        seed in any::<u64>(),
        n in 4usize..=8,
        connected in any::<bool>(),
        allow_cartesian in any::<bool>(),
    ) {
        let inst = random_instance(seed, n, connected);
        let base = engine_counters(&inst, 1, allow_cartesian);
        prop_assert!(
            base.iter().any(|(k, _)| k == "optimizer.engine.subsets_expanded"),
            "expansion counter missing: {base:?}"
        );
        for threads in [2usize, 4] {
            let got = engine_counters(&inst, threads, allow_cartesian);
            prop_assert_eq!(
                &base, &got,
                "connected={} allow={} threads={}", connected, allow_cartesian, threads
            );
        }
    }
}

#[test]
fn exact_recosts_counted_and_invariant() {
    let inst = random_instance(7, 9, true);
    let base = engine_counters(&inst, 1, true);
    let recosts = |cs: &[(String, u64)]| {
        cs.iter().find(|(k, _)| k == "optimizer.engine.exact_recosts").map(|(_, v)| *v)
    };
    let base_recosts = recosts(&base).expect("two-phase run recosts at least the optimum layer");
    assert!(base_recosts > 0);
    for threads in [2usize, 3, 4] {
        let got = engine_counters(&inst, threads, true);
        assert_eq!(recosts(&got), Some(base_recosts), "threads {threads}");
        assert_eq!(base, got, "full counter set diverged at threads {threads}");
    }
}

/// Two threads run the same engine call at the same moment, each under a
/// scope of its own: each sees exactly the single-run counters and only
/// the journal events of its own run.
#[test]
fn concurrent_runs_in_two_scopes_do_not_mix() {
    let inst = random_instance(11, 8, true);
    let single = engine_counters(&inst, 1, true);
    let start = Barrier::new(2);
    let lens: Vec<usize> = std::thread::scope(|t| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                t.spawn(|| {
                    let _scope = Scope::new().install();
                    aqo_obs::set_enabled(true);
                    start.wait();
                    let opts = engine::DpOptions { allow_cartesian: true, threads: 1 };
                    engine::optimize_two_phase::<BigRational>(&inst, &opts, &Budget::unlimited())
                        .expect("unlimited budget cannot be exceeded");
                    let counters: Vec<_> = aqo_obs::counters_snapshot()
                        .into_iter()
                        .filter(|(name, _)| name.starts_with("optimizer.engine."))
                        .collect();
                    assert_eq!(counters, single);
                    let events = journal::drain();
                    let bounds = events.iter().filter(|e| e.etype == "engine_bound").count();
                    assert_eq!(bounds, 1, "one run's journal: {events:?}");
                    assert!(events.windows(2).all(|w| w[0].seq + 1 == w[1].seq), "gap-free seq");
                    events.len()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(lens[0], lens[1], "both journals hold one run's events");
}

/// At threads 2 the engine's layers and the QO_H search run on spawned
/// workers; what the workers report lands in the caller's scope: the
/// expansion budget tripping inside a layer worker, and the per-worker
/// sequence counts, which sum to n!.
#[test]
fn parallel_workers_report_into_the_callers_scope() {
    let _scope = Scope::new().install();
    aqo_obs::set_enabled(true);
    let inst = random_instance(5, 10, true);
    let opts = engine::DpOptions { allow_cartesian: true, threads: 2 };
    let tight = Budget::unlimited().with_max_expansions(600);
    let err = engine::optimize_two_phase::<BigRational>(&inst, &opts, &tight).unwrap_err();
    assert_eq!(err.kind, BudgetKind::Expansions);
    let counter = |name: &str| {
        aqo_obs::counters_snapshot().into_iter().find(|(n, _)| n == name).map_or(0, |(_, v)| v)
    };
    assert!(counter("budget.exceeded.expansions") >= 1);
    assert!(journal::drain().iter().any(|e| e.etype == "budget_exceeded"));

    let qoh = aqo_core::textio::qoh_from_text(
        "qoh\nvertices 5\nmemory 64\nsize 0 8\nsize 1 8\nsize 2 8\nsize 3 8\nsize 4 8\n\
         edge 0 1 1/2\nedge 1 2 1/2\nedge 2 3 1/2\nedge 3 4 1/2\n",
    )
    .expect("valid qoh text");
    pipeline::optimize_exhaustive_par_with_budget(&qoh, 2, &Budget::unlimited())
        .expect("unlimited budget cannot be exceeded");
    let sequences = counter("optimizer.pipeline.sequences_costed")
        + counter("optimizer.pipeline.sequences_infeasible");
    assert_eq!(sequences, 120, "5! sequences, counted by both workers");
}

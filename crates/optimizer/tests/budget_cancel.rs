//! Budget cancellation under parallelism: a deadline or cancel token
//! tripping *inside* a parallel layer must surface `BudgetExceeded`
//! promptly, and `std::thread::scope` must join every worker before the
//! error returns — no leaked threads, and the process stays healthy enough
//! to run the same optimization again afterwards.

use aqo_bignum::{BigInt, BigRational, BigUint};
use aqo_core::budget::{Budget, BudgetKind, CancelToken};
use aqo_core::qon::QoNInstance;
use aqo_core::{AccessCostMatrix, SelectivityMatrix};
use aqo_graph::Graph;
use aqo_optimizer::engine;
use std::time::{Duration, Instant};

/// A clique-ish instance big enough that the DP has work spanning many
/// layers (n = 15 → 32768 subsets) without being slow when unbudgeted.
fn big_instance(n: usize) -> QoNInstance {
    let mut g = Graph::new(n);
    let mut s = SelectivityMatrix::new();
    let mut w = AccessCostMatrix::new();
    let sizes: Vec<BigUint> = (0..n).map(|i| BigUint::from(3 + (i as u64 % 7))).collect();
    for v in 1..n {
        for u in v.saturating_sub(3)..v {
            g.add_edge(u, v);
            let sel = BigRational::new(BigInt::one(), BigUint::from(3u64));
            s.set(u, v, sel.clone());
            for (j, k) in [(u, v), (v, u)] {
                let lower = (BigRational::from(sizes[j].clone()) * &sel).ceil();
                w.set(j, k, lower.magnitude().clone());
            }
        }
    }
    QoNInstance::new(g, sizes, s, w)
}

#[test]
fn deadline_mid_layer_trips_promptly() {
    let inst = big_instance(15);
    let opts = engine::DpOptions { allow_cartesian: true, threads: 4 };
    // A deadline far shorter than the full run: it expires while workers
    // are deep inside some layer.
    let budget = Budget::unlimited().with_timeout(Duration::from_millis(2));
    std::thread::sleep(Duration::from_millis(3));
    let start = Instant::now();
    let err = engine::optimize_two_phase::<BigRational>(&inst, &opts, &budget).unwrap_err();
    assert_eq!(err.kind, BudgetKind::Deadline);
    // Promptness: workers notice within their next clock-check period, not
    // after finishing the layer (the full unbudgeted run takes far longer).
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "cancellation took {:?}",
        start.elapsed()
    );
    // The scoped pool joined everything: the same instance still optimizes
    // to completion on a fresh budget in this very process.
    let ok = engine::optimize_two_phase::<BigRational>(&inst, &opts, &Budget::unlimited())
        .unwrap()
        .unwrap();
    let recost: BigRational = inst.total_cost(&ok.sequence);
    assert_eq!(recost, ok.cost);
}

#[test]
fn cancel_token_from_another_thread_stops_parallel_layers() {
    let inst = big_instance(16);
    let opts = engine::DpOptions { allow_cartesian: true, threads: 4 };
    let token = CancelToken::new();
    let budget = Budget::unlimited().with_cancel_token(token.clone());
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            token.cancel();
        })
    };
    let result = engine::optimize_two_phase::<BigRational>(&inst, &opts, &budget);
    canceller.join().expect("canceller thread");
    match result {
        // The usual outcome: the token fires mid-DP and every worker
        // unwinds with `Cancelled`.
        Err(err) => assert_eq!(err.kind, BudgetKind::Cancelled),
        // On a very fast machine the DP may legitimately finish first;
        // then the answer must be a valid optimum.
        Ok(Some(opt)) => {
            let recost: BigRational = inst.total_cost(&opt.sequence);
            assert_eq!(recost, opt.cost);
        }
        Ok(None) => panic!("connected instance reported infeasible"),
    }
}

#[test]
fn expansion_cap_shared_by_workers_trips_once() {
    let inst = big_instance(12);
    let opts = engine::DpOptions { allow_cartesian: true, threads: 4 };
    let cap = 500;
    let budget = Budget::unlimited().with_max_expansions(cap);
    let err = engine::optimize_two_phase::<BigRational>(&inst, &opts, &budget).unwrap_err();
    assert_eq!(err.kind, BudgetKind::Expansions);
    // The counter is shared across workers: the recorded total reflects
    // all of them and sits just past the cap, not `threads ×` past it.
    assert!(err.expansions > cap);
    assert!(
        err.expansions < cap + 4 * 16,
        "expansion accounting drifted: {} for cap {cap}",
        err.expansions
    );
}

/// A completed clique-9 two-phase run's expansions (`qon-dense`'s shape):
/// one per subset of phase A's `k`-layers times `k`, then in phase B one
/// per pruned target and `k` per recosted one. Pruned ticks are added in
/// blocks, so the cap must still trip exactly at the total.
#[test]
fn expansion_cap_at_the_total_succeeds_and_one_below_fails() {
    use aqo_core::workloads::{self, WorkloadParams};
    use rand::{rngs::StdRng, SeedableRng};
    // Totals of the engine that recosted and ticked every phase-B target
    // one by one.
    const TOTALS: [u64; 4] = [2903, 2949, 2908, 2951];
    let opts = engine::DpOptions { allow_cartesian: true, threads: 1 };
    for (seed, total) in (0u64..).zip(TOTALS) {
        let inst =
            workloads::clique(9, &WorkloadParams::default(), &mut StdRng::seed_from_u64(seed));
        let budget = Budget::unlimited();
        let want = engine::optimize_two_phase::<BigRational>(&inst, &opts, &budget)
            .expect("unlimited budget")
            .expect("a clique has a plan");
        assert_eq!(budget.expansions_used(), total, "seed {seed}");
        let exact = Budget::unlimited().with_max_expansions(total);
        let got = engine::optimize_two_phase::<BigRational>(&inst, &opts, &exact)
            .expect("a cap at the total suffices")
            .expect("a clique has a plan");
        assert_eq!((got.cost, got.sequence), (want.cost, want.sequence), "seed {seed}");
        let short = Budget::unlimited().with_max_expansions(total - 1);
        let err = engine::optimize_two_phase::<BigRational>(&inst, &opts, &short).unwrap_err();
        assert_eq!(err.kind, BudgetKind::Expansions, "seed {seed}");
    }
}

//! The engine against the reference `dp`, on the shapes the service is
//! timed on. The serving benchmark checks its `qon-dense` answers (QO_N
//! cliques, n = 9, cartesian products allowed) against the engine itself,
//! so this file is that shape's independent oracle: the exact cost and
//! the plan must equal `dp::optimize::<BigRational>` at threads 1 and 2.
//! The second test covers what the catalog generator never emits —
//! selectivity numerators `p_e > 1` and edges with `q_e = 1` — which the
//! engine's integer scaling (`D = ∏_e q_e`) must get right too. Neither
//! run may need the engine's unpruned fallback.

use aqo_bignum::{BigInt, BigRational, BigUint};
use aqo_core::budget::Budget;
use aqo_core::qon::QoNInstance;
use aqo_core::workloads::{self, WorkloadParams};
use aqo_core::{AccessCostMatrix, SelectivityMatrix};
use aqo_graph::Graph;
use aqo_optimizer::{dp, engine};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Asserts the engine returns `dp`'s exact cost and plan at threads 1 and
/// 2, in both cartesian modes.
fn assert_engine_matches_dp(inst: &QoNInstance, label: &str) {
    for allow_cartesian in [true, false] {
        let want = dp::optimize::<BigRational>(inst, allow_cartesian);
        for threads in [1usize, 2] {
            let opts = engine::DpOptions { allow_cartesian, threads };
            let got = engine::optimize_two_phase::<BigRational>(inst, &opts, &Budget::unlimited())
                .expect("unlimited budget");
            match (&want, &got) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.cost, b.cost, "{label} allow {allow_cartesian} threads {threads}");
                    assert_eq!(
                        a.sequence.order(),
                        b.sequence.order(),
                        "{label} allow {allow_cartesian} threads {threads}"
                    );
                }
                (None, None) => {}
                other => panic!("{label}: feasibility mismatch {other:?}"),
            }
        }
    }
}

/// The engine's unpruned-rerun counter. Every test in this file turns
/// collection on before its runs, so the counter sees all of them.
fn prune_fallbacks() -> u64 {
    aqo_obs::counter("optimizer.engine.prune_fallbacks").get()
}

#[test]
fn engine_matches_dp_on_the_qon_dense_shape() {
    aqo_obs::set_enabled(true);
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = workloads::clique(9, &WorkloadParams::default(), &mut rng);
        assert_engine_matches_dp(&inst, &format!("clique 9 seed {seed}"));
    }
    assert_eq!(prune_fallbacks(), 0);
}

/// A random connected graph whose selectivities are general fractions
/// `p/q ≤ 1`: numerators above one, and every fourth edge `1/1`. Access
/// costs are drawn anywhere in the model's range `[⌈t_j·s⌉, t_j]`.
fn fractional_instance(seed: u64, n: usize) -> QoNInstance {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge((next() % v as u64) as usize, v);
    }
    for _ in 0..n {
        let u = (next() % n as u64) as usize;
        let v = (next() % n as u64) as usize;
        if u != v {
            g.add_edge(u, v);
        }
    }
    let sizes: Vec<BigUint> = (0..n).map(|_| BigUint::from(2 + next() % 5000)).collect();
    let mut s = SelectivityMatrix::new();
    let mut w = AccessCostMatrix::new();
    for (i, (u, v)) in g.edges().collect::<Vec<_>>().into_iter().enumerate() {
        let sel = if i % 4 == 0 {
            BigRational::one()
        } else {
            let q = 2 + next() % 300;
            let p = 1 + next() % q;
            BigRational::new(BigInt::from(p), BigUint::from(q))
        };
        s.set(u, v, sel.clone());
        for (j, k) in [(u, v), (v, u)] {
            let lower = (BigRational::from(sizes[j].clone()) * &sel).ceil();
            let lower = lower.magnitude().clone().max(BigUint::one());
            let room = (&sizes[j] - &lower).to_u64().expect("small sizes");
            w.set(j, k, &lower + &BigUint::from(next() % (room + 1)));
        }
    }
    QoNInstance::new(g, sizes, s, w)
}

#[test]
fn engine_matches_dp_with_general_selectivity_fractions() {
    aqo_obs::set_enabled(true);
    let mut numerators = 0usize;
    let mut unit = 0usize;
    for seed in 0..16u64 {
        let inst = fractional_instance(seed, 6 + seed as usize % 4);
        for (_, _, s, _) in inst.edges() {
            numerators += usize::from(!s.numer().magnitude().is_one());
            unit += usize::from(s.denom().is_one());
        }
        assert_engine_matches_dp(&inst, &format!("fractional seed {seed}"));
    }
    assert!(numerators > 0 && unit > 0, "p > 1 and q = 1 edges both exercised");
    assert_eq!(prune_fallbacks(), 0);
}

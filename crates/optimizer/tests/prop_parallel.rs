//! Property tests for the parallel subset-DP engine: for every thread
//! count it must return the sequential optimum — bit-identical cost and a
//! valid plan achieving it — on random connected AND disconnected
//! instances, with and without cartesian products.

use aqo_bignum::{BigInt, BigRational, BigUint};
use aqo_core::budget::Budget;
use aqo_core::qon::QoNInstance;
use aqo_core::{AccessCostMatrix, SelectivityMatrix};
use aqo_graph::Graph;
use aqo_optimizer::{dp, engine};
use proptest::prelude::*;

/// Strategy: a QO_N instance on 3..=7 vertices, tagged with whether it is
/// connected. In the disconnected variant the graph is split into two
/// components (so the no-cartesian optimum does not exist and the DP must
/// report `None` in every mode).
fn qon_any() -> impl Strategy<Value = (QoNInstance, bool)> {
    (3usize..=7, any::<u64>(), any::<bool>()).prop_map(|(n, seed, connected)| {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut g = Graph::new(n);
        // A spanning tree; in the disconnected variant, vertex `n - 1`
        // stays isolated (edges only among 0..n-1) so the graph has at
        // least two components.
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
        (QoNInstance::new(g, sizes, s, w), connected)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn two_phase_engine_matches_sequential_dp(
        (inst, connected) in qon_any(),
        threads in 1usize..=4,
        allow_cartesian in any::<bool>(),
    ) {
        let seq = dp::optimize::<BigRational>(&inst, allow_cartesian);
        let opts = engine::DpOptions { allow_cartesian, threads };
        let par = engine::optimize_two_phase::<BigRational>(&inst, &opts, &Budget::unlimited())
            .expect("unlimited budget cannot be exceeded");
        match (&seq, &par) {
            (Some(a), Some(b)) => {
                // Bit-identical exact optimum.
                prop_assert_eq!(&a.cost, &b.cost);
                // The parallel plan is valid and achieves that cost.
                let recost: BigRational = inst.total_cost(&b.sequence);
                prop_assert_eq!(&recost, &b.cost);
                if !allow_cartesian {
                    prop_assert!(!inst.has_cartesian_product(&b.sequence));
                }
            }
            (None, None) => prop_assert!(!connected && !allow_cartesian),
            other => prop_assert!(false, "feasibility mismatch: {other:?}"),
        }
    }

    #[test]
    fn engine_cost_is_thread_count_invariant(
        (inst, _) in qon_any(),
        allow_cartesian in any::<bool>(),
    ) {
        let opts1 = engine::DpOptions { allow_cartesian, threads: 1 };
        let base = engine::optimize_two_phase::<BigRational>(&inst, &opts1, &Budget::unlimited())
            .expect("unlimited");
        for threads in 2..=5 {
            let opts = engine::DpOptions { allow_cartesian, threads };
            let other =
                engine::optimize_two_phase::<BigRational>(&inst, &opts, &Budget::unlimited())
                    .expect("unlimited");
            match (&base, &other) {
                (Some(a), Some(b)) => {
                    prop_assert_eq!(&a.cost, &b.cost);
                    // The engine's canonical tie-breaking makes even the
                    // *plan* thread-count-invariant.
                    prop_assert_eq!(a.sequence.order(), b.sequence.order());
                }
                (None, None) => {}
                other => prop_assert!(false, "feasibility mismatch: {other:?}"),
            }
        }
    }
}

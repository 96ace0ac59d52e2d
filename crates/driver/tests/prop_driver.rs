//! Properties of the driver (satellite of the robustness PR):
//!
//! * whenever the dp tier completes within budget, the driver's cost equals
//!   the DP optimum exactly;
//! * a forced first-tier failure still yields a valid, feasible join
//!   sequence from a lower tier.

use aqo_bignum::BigRational;
use aqo_core::qon::QoNInstance;
use aqo_core::workloads;
use aqo_driver::{optimize_qon, QonDriverConfig};
use aqo_obs::faults;
use aqo_optimizer::dp;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn instance(shape: u8, n: usize, seed: u64) -> QoNInstance {
    let params = workloads::WorkloadParams::default();
    let mut rng = StdRng::seed_from_u64(seed);
    match shape % 4 {
        0 => workloads::chain(n, &params, &mut rng),
        1 => workloads::star(n, &params, &mut rng),
        2 => workloads::cycle(n.max(3), &params, &mut rng),
        _ => workloads::clique(n, &params, &mut rng),
    }
}

fn is_permutation(order: &[usize], n: usize) -> bool {
    let mut seen = vec![false; n];
    order.len() == n
        && order.iter().all(|&v| {
            if v >= n || seen[v] {
                return false;
            }
            seen[v] = true;
            true
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Within budget, the driver *is* the DP: same cost, bit for bit.
    #[test]
    fn dp_tier_within_budget_matches_dp_optimum(
        shape in any::<u8>(),
        n in 4usize..9,
        seed in any::<u64>(),
    ) {
        let inst = instance(shape, n, seed);
        let outcome = optimize_qon(&inst, &QonDriverConfig::default())
            .expect("default chain ends in greedy");
        if outcome.report.tier == "dp" {
            let direct = dp::optimize::<BigRational>(&inst, true).unwrap();
            prop_assert_eq!(&outcome.optimum.cost, &direct.cost);
            prop_assert!(outcome.report.exact);
            prop_assert!(outcome.report.failures.is_empty());
        }
    }

    /// Kill the first tier: whatever answers instead must produce a valid
    /// permutation whose recomputed cost matches the reported one.
    #[test]
    fn forced_first_tier_failure_still_yields_valid_sequence(
        shape in any::<u8>(),
        n in 4usize..9,
        seed in any::<u64>(),
        kind in any::<bool>(),
    ) {
        let _scope = aqo_obs::Scope::new().install();
        let fault =
            if kind { faults::FaultKind::Panic } else { faults::FaultKind::Error };
        faults::arm("qon::dp", fault, u64::MAX);
        let inst = instance(shape, n, seed);
        let outcome = optimize_qon(&inst, &QonDriverConfig::default())
            .expect("lower tiers answer");
        prop_assert!(outcome.report.tier != "dp");
        prop_assert!(!outcome.report.failures.is_empty());
        prop_assert!(is_permutation(outcome.optimum.sequence.order(), inst.n()));
        let recost: BigRational = inst.total_cost(&outcome.optimum.sequence);
        prop_assert_eq!(&recost, &outcome.optimum.cost);
    }
}

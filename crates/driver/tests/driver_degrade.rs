//! Integration: the acceptance scenarios for the budgeted driver.
//!
//! (a) a clique instance that exhausts a tiny deadline returns a heuristic
//!     plan with a report naming the fallback tier instead of hanging;
//! (b) a fault-injected panic in the DP tier still yields a valid plan
//!     from the next tier;
//! (c) a generous budget reproduces `dp::optimize` bit for bit.
//!
//! Tests that arm fault sites arm them in a scope of their own, so one
//! test's armed `qon::dp` never fires inside another test's driver call.

use aqo_bignum::{BigInt, BigRational, BigUint};
use aqo_core::budget::CancelToken;
use aqo_core::qoh::QoHInstance;
use aqo_core::qon::QoNInstance;
use aqo_core::{workloads, SelectivityMatrix};
use aqo_driver::{
    optimize_qoh, optimize_qon, BudgetSpec, QohDriverConfig, QohTier, QonDriverConfig, QonTier,
    RetryPolicy,
};
use aqo_graph::Graph;
use aqo_obs::faults;
use aqo_optimizer::dp;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn clique_instance(n: usize, seed: u64) -> QoNInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    workloads::clique(n, &workloads::WorkloadParams::default(), &mut rng)
}

fn assert_valid_sequence(inst: &QoNInstance, outcome: &aqo_driver::QonOutcome) {
    let order = outcome.optimum.sequence.order();
    assert_eq!(order.len(), inst.n());
    let mut seen = vec![false; inst.n()];
    for &v in order {
        assert!(!seen[v], "duplicate relation {v}");
        seen[v] = true;
    }
    let recost: BigRational = inst.total_cost(&outcome.optimum.sequence);
    assert_eq!(recost, outcome.optimum.cost, "reported cost must be the sequence's cost");
}

#[test]
fn clique_with_tiny_deadline_degrades_to_heuristic() {
    let inst = clique_instance(14, 7);
    let cfg = QonDriverConfig {
        budget: BudgetSpec { timeout: Some(Duration::ZERO), ..BudgetSpec::unlimited() },
        ..QonDriverConfig::default()
    };
    let outcome = optimize_qon(&inst, &cfg).expect("greedy tier always answers");
    assert_eq!(outcome.report.tier, "greedy");
    assert!(!outcome.report.exact);
    // Every stronger tier's failure is on the record: dp tripped the
    // deadline, ikkbz panicked on the cyclic graph.
    let failed: Vec<&str> = outcome.report.failures.iter().map(|a| a.tier).collect();
    assert_eq!(failed, ["dp", "ikkbz"]);
    assert!(matches!(
        outcome.report.failures[0].failure,
        aqo_driver::TierFailure::Budget(_)
    ));
    assert!(matches!(
        outcome.report.failures[1].failure,
        aqo_driver::TierFailure::Panic(_)
    ));
    assert_valid_sequence(&inst, &outcome);
}

#[test]
fn injected_dp_panic_degrades_to_the_polynomial_tiers() {
    let _scope = aqo_obs::Scope::new().install();
    faults::arm("qon::dp", faults::FaultKind::Panic, 1);
    let inst = clique_instance(8, 3);
    let outcome = optimize_qon(&inst, &QonDriverConfig::default()).expect("greedy answers");
    // ikkbz panics on the cyclic graph, so greedy answers.
    assert_eq!(outcome.report.tier, "greedy");
    assert!(!outcome.report.exact);
    let failed: Vec<(&str, &str)> =
        outcome.report.failures.iter().map(|a| (a.tier, a.failure.kind_str())).collect();
    assert_eq!(failed, [("dp", "panic"), ("ikkbz", "panic")]);
    assert_valid_sequence(&inst, &outcome);
    // A heuristic answer can only be weakly worse than the DP optimum.
    let direct = dp::optimize::<BigRational>(&inst, true).unwrap();
    assert!(outcome.optimum.cost >= direct.cost);
}

#[test]
fn chain_past_the_dp_cap_goes_straight_to_ikkbz() {
    // n = 26 with cartesian products admissible is past the exact DP's
    // cap: the DP declines at once and the deadline is left to the
    // polynomial tiers. IKKBZ answers the acyclic chain.
    let inst = chain_qon_instance(aqo_optimizer::dp::MAX_N + 1, 21);
    let cfg = QonDriverConfig {
        budget: BudgetSpec { timeout: Some(Duration::from_secs(5)), ..BudgetSpec::unlimited() },
        ..QonDriverConfig::default()
    };
    let outcome = optimize_qon(&inst, &cfg).expect("ikkbz answers");
    assert_eq!(outcome.report.tier, "ikkbz");
    let failed: Vec<(&str, &str)> =
        outcome.report.failures.iter().map(|a| (a.tier, a.failure.kind_str())).collect();
    assert_eq!(failed, [("dp", "unsupported")]);
    assert_valid_sequence(&inst, &outcome);
}

#[test]
fn generous_budget_is_bit_identical_to_direct_dp() {
    let inst = clique_instance(10, 11);
    let cfg = QonDriverConfig {
        budget: BudgetSpec {
            timeout: Some(Duration::from_secs(600)),
            max_expansions: Some(1_000_000_000),
            max_memory_bytes: Some(1 << 32),
        },
        ..QonDriverConfig::default()
    };
    let outcome = optimize_qon(&inst, &cfg).expect("dp fits the budget");
    assert_eq!(outcome.report.tier, "dp");
    assert!(outcome.report.exact);
    assert!(outcome.report.failures.is_empty());
    let direct = dp::optimize::<BigRational>(&inst, true).unwrap();
    assert_eq!(outcome.optimum.cost, direct.cost);
    assert_eq!(outcome.optimum.sequence.order(), direct.sequence.order());
}

#[test]
fn transient_injected_error_is_retried_then_succeeds() {
    let _scope = aqo_obs::Scope::new().install();
    // Two spurious errors, then the site passes: with two retries allowed,
    // the dp tier itself still answers.
    faults::arm("qon::dp", faults::FaultKind::Error, 2);
    let inst = clique_instance(7, 5);
    let cfg = QonDriverConfig {
        retry: RetryPolicy { max_retries: 2, initial_backoff: Duration::from_millis(1) },
        ..QonDriverConfig::default()
    };
    let outcome = optimize_qon(&inst, &cfg).expect("third attempt succeeds");
    assert_eq!(faults::hits("qon::dp"), 3);
    assert_eq!(outcome.report.tier, "dp");
    assert_eq!(outcome.report.retries, 2);
    assert_eq!(outcome.report.failures.len(), 2);
    assert!(outcome
        .report
        .failures
        .iter()
        .all(|a| matches!(a.failure, aqo_driver::TierFailure::Injected(_))));
}

#[test]
fn exhausted_retries_degrade_instead_of_failing() {
    let _scope = aqo_obs::Scope::new().install();
    faults::arm("qon::dp", faults::FaultKind::Error, 100);
    let inst = clique_instance(7, 6);
    let cfg = QonDriverConfig {
        retry: RetryPolicy { max_retries: 1, initial_backoff: Duration::from_millis(1) },
        ..QonDriverConfig::default()
    };
    let outcome = optimize_qon(&inst, &cfg).expect("greedy answers");
    // ikkbz panics on the cyclic graph, so greedy answers.
    assert_eq!(outcome.report.tier, "greedy");
    // dp was attempted twice (initial + one retry), then abandoned.
    let dp_attempts =
        outcome.report.failures.iter().filter(|a| a.tier == "dp").count();
    assert_eq!(dp_attempts, 2);
}

#[test]
fn every_tier_armed_means_driver_error() {
    let _scope = aqo_obs::Scope::new().install();
    for site in ["qon::dp", "qon::ikkbz", "qon::greedy"] {
        faults::arm(site, faults::FaultKind::Panic, 100);
    }
    let inst = clique_instance(6, 2);
    let err = optimize_qon(&inst, &QonDriverConfig::default()).unwrap_err();
    assert_eq!(err.failures.len(), 3);
    let msg = err.to_string();
    assert!(msg.contains("every tier failed"), "unexpected message: {msg}");
}

#[test]
fn pre_cancelled_token_skips_budgeted_tiers() {
    let token = CancelToken::new();
    token.cancel();
    let inst = clique_instance(9, 4);
    let cfg = QonDriverConfig {
        cancel: Some(token),
        chain: vec![QonTier::Dp, QonTier::Greedy],
        ..QonDriverConfig::default()
    };
    let outcome = optimize_qon(&inst, &cfg).expect("greedy ignores the budget");
    assert_eq!(outcome.report.tier, "greedy");
    assert!(matches!(
        outcome.report.failures[0].failure,
        aqo_driver::TierFailure::Budget(ref e)
            if e.kind == aqo_core::budget::BudgetKind::Cancelled
    ));
}

fn chain_qon_instance(n: usize, seed: u64) -> QoNInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    workloads::chain(n, &workloads::WorkloadParams::default(), &mut rng)
}

#[test]
fn ccp_tier_answers_past_the_dp_cap_on_sparse_no_cartesian() {
    // n = 26 is over dp::MAX_N, but without cartesian products the exact
    // tier enumerates connected subgraphs only: it answers at once,
    // exactly, and reports itself as ccp.
    let n = aqo_optimizer::dp::MAX_N + 1;
    let inst = chain_qon_instance(n, 21);
    let cfg = QonDriverConfig { allow_cartesian: false, ..QonDriverConfig::default() };
    let outcome = optimize_qon(&inst, &cfg).expect("ccp answers");
    assert_eq!(outcome.report.tier, "ccp");
    assert!(outcome.report.exact);
    assert!(outcome.report.failures.is_empty());
    assert_valid_sequence(&inst, &outcome);
    assert!(!inst.has_cartesian_product(&outcome.optimum.sequence));
}

#[test]
fn dp_and_ccp_name_one_tier_reported_by_mode() {
    assert_eq!(QonTier::parse_chain("dp,ccp,greedy").unwrap(), [QonTier::Dp, QonTier::Greedy]);
    assert_eq!(QonTier::parse_chain("ccp").unwrap(), [QonTier::Dp]);
    let inst = chain_qon_instance(8, 22);
    for (allow, name) in [(true, "dp"), (false, "ccp")] {
        let cfg = QonDriverConfig {
            chain: vec![QonTier::Dp],
            allow_cartesian: allow,
            threads: 2,
            ..QonDriverConfig::default()
        };
        let outcome = optimize_qon(&inst, &cfg).expect("the exact tier answers");
        assert_eq!(outcome.report.tier, name);
        assert!(outcome.report.exact);
        let oracle = dp::optimize::<BigRational>(&inst, allow).unwrap();
        assert_eq!(outcome.optimum.cost, oracle.cost);
        assert_eq!(outcome.optimum.sequence.order(), oracle.sequence.order());
    }
}

#[test]
fn n_over_mask_width_degrades_every_mask_tier_with_unsupported() {
    // n = 33 overflows the u32 masks of the exact DP in both modes; the
    // chain must degrade to the polynomial tiers with structured
    // failures, not wrap masks or hit an assert-turned-panic.
    let inst = chain_qon_instance(33, 23);
    for allow in [true, false] {
        let cfg = QonDriverConfig {
            chain: vec![QonTier::Dp, QonTier::Greedy],
            allow_cartesian: allow,
            ..QonDriverConfig::default()
        };
        let outcome = optimize_qon(&inst, &cfg).expect("greedy answers");
        assert_eq!(outcome.report.tier, "greedy");
        assert_eq!(outcome.report.failures.len(), 1);
        match &outcome.report.failures[0].failure {
            aqo_driver::TierFailure::Unsupported(msg) => {
                assert!(msg.contains("n = 33"), "boundary in message: {msg}");
            }
            other => panic!("expected unsupported, got {other:?}"),
        }
        assert_valid_sequence(&inst, &outcome);
    }
}

#[test]
fn mask_tiers_accept_exactly_their_documented_caps() {
    // Boundary: n == ccp::MAX_N (32) is in range for the connected mode
    // and out of range for all subsets; n == dp::MAX_N is in range for
    // all subsets. Tiny deadline keeps the in-range attempts cheap — a
    // budget trip proves the tier *ran*.
    let cases = [
        (aqo_optimizer::ccp::MAX_N, false, ("ccp", "budget")),
        (aqo_optimizer::ccp::MAX_N, true, ("dp", "unsupported")),
        (aqo_optimizer::dp::MAX_N, true, ("dp", "budget")),
    ];
    for (n, allow, expect) in cases {
        let inst = chain_qon_instance(n, 24);
        let cfg = QonDriverConfig {
            budget: BudgetSpec { timeout: Some(Duration::ZERO), ..BudgetSpec::unlimited() },
            chain: vec![QonTier::Dp, QonTier::Greedy],
            allow_cartesian: allow,
            ..QonDriverConfig::default()
        };
        let outcome = optimize_qon(&inst, &cfg).expect("greedy answers");
        let by_tier: Vec<(&str, &str)> =
            outcome.report.failures.iter().map(|a| (a.tier, a.failure.kind_str())).collect();
        assert_eq!(by_tier, [expect], "n = {n}, allow_cartesian = {allow}");
    }
}

fn qoh_chain_instance(n: usize) -> QoHInstance {
    let mut g = Graph::new(n);
    let mut s = SelectivityMatrix::new();
    let sizes: Vec<BigUint> = (0..n).map(|i| BigUint::from(8u64 << i)).collect();
    for v in 1..n {
        g.add_edge(v - 1, v);
        s.set(v - 1, v, BigRational::new(BigInt::one(), BigUint::from(4u64)));
    }
    QoHInstance::new(g, sizes, s, BigUint::from(1u64 << 20))
}

#[test]
fn qoh_driver_degrades_from_exhaustive_to_greedy() {
    let inst = qoh_chain_instance(6);
    // Unlimited: the exhaustive tier answers and is exact.
    let exact = optimize_qoh(&inst, &QohDriverConfig::default()).expect("feasible");
    assert_eq!(exact.report.tier, "exhaustive");
    assert!(exact.report.exact);

    // One expansion allowed: exhaustive trips, greedy answers, and the
    // heuristic cost can only be weakly worse.
    let cfg = QohDriverConfig {
        budget: BudgetSpec { max_expansions: Some(1), ..BudgetSpec::unlimited() },
        chain: vec![QohTier::Exhaustive, QohTier::Greedy],
        ..QohDriverConfig::default()
    };
    let degraded = optimize_qoh(&inst, &cfg).expect("greedy answers");
    assert_eq!(degraded.report.tier, "greedy");
    assert!(!degraded.report.exact);
    assert!(degraded.plan.cost >= exact.plan.cost);
}

#[test]
fn qoh_exhaustive_over_its_cap_degrades_with_unsupported() {
    // n = 10 is past the exhaustive search's cap: a structured failure, not
    // a caught panic, and greedy answers.
    let n = aqo_optimizer::pipeline::MAX_N + 1;
    let inst = qoh_chain_instance(n);
    let outcome = optimize_qoh(&inst, &QohDriverConfig::default()).expect("greedy answers");
    assert_eq!(outcome.report.tier, "greedy");
    assert_eq!(outcome.report.failures.len(), 1);
    let failure = &outcome.report.failures[0];
    assert_eq!((failure.tier, failure.failure.kind_str()), ("exhaustive", "unsupported"));
    match &failure.failure {
        aqo_driver::TierFailure::Unsupported(msg) => {
            assert!(msg.contains("handles n <= 9"), "cap in message: {msg}");
            assert!(msg.contains("n = 10"), "instance size in message: {msg}");
        }
        other => panic!("expected unsupported, got {other:?}"),
    }
    assert_eq!(outcome.plan.sequence.len(), n);
}

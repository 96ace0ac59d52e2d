//! Exact optimization of SQO−CP star plans (paper Appendix A/B).
//!
//! After the second position of a feasible sequence, the state of the plan
//! is fully captured by the *set* of satellites already joined: the running
//! intermediate `n(W)` is a set function, and each later join's cost depends
//! only on `n(W)` and the incoming satellite. A DP over satellite subsets is
//! therefore exact; the exponential part is `2^m`, fine for the appendix's
//! experiment sizes. An exhaustive enumerator over all
//! `(m+1)! · 2^m` plans serves as the test oracle.

use aqo_bignum::BigRational;
use aqo_core::budget::{run_unlimited, Budget, BudgetExceeded};
use aqo_core::sqo::{JoinMethod, SqoCpInstance, StarPlan};

/// The exact optimum: best feasible plan and its cost.
pub fn optimize(inst: &SqoCpInstance) -> (StarPlan, BigRational) {
    run_unlimited(|b| optimize_with_budget(inst, b))
}

/// As [`optimize`], under a cooperative [`Budget`]: the `2^m`-entry tables
/// are charged against the memory cap and each DP transition ticks.
pub fn optimize_with_budget(
    inst: &SqoCpInstance,
    budget: &Budget,
) -> Result<(StarPlan, BigRational), BudgetExceeded> {
    let m = inst.m();
    assert!(m >= 1, "need a satellite");
    assert!(m <= 24, "subset DP is for m <= 24");
    let full: usize = (1 << m) - 1;
    let entry = std::mem::size_of::<Option<BigRational>>() + 2 * std::mem::size_of::<usize>();
    budget.charge_memory(((full + 1) * entry) as u64)?;
    budget.checkpoint()?;
    // dp[set]: best cost with R_0 and satellites `set` (1-based ids mapped
    // to bits 0..m) joined; parents for reconstruction.
    let mut dp: Vec<Option<BigRational>> = vec![None; full + 1];
    // How the state was reached: either an initial pair or (prev_set, sat,
    // method).
    #[derive(Clone)]
    enum From {
        Start { order: [usize; 2], method: JoinMethod },
        Step { sat: usize, method: JoinMethod },
    }
    let mut from: Vec<Option<From>> = vec![None; full + 1];

    // n(set) precomputed incrementally.
    let mut nsize: Vec<BigRational> = vec![BigRational::zero(); full + 1];
    nsize[0] = BigRational::from(inst.tuples(0).clone());
    for set in 1..=full {
        let b = set.trailing_zeros() as usize;
        let sat = b + 1;
        nsize[set] = &nsize[set & (set - 1)]
            * &(BigRational::from(inst.tuples(sat).clone()) * inst.selectivity(sat));
    }

    // Initial pairs: R_0 with satellite t (four ways; SM is symmetric).
    for t in 1..=m {
        let bit = 1usize << (t - 1);
        let candidates = [
            // Start R_0, nested-loops join of R_t: b_0 + w_t·n_0.
            (
                BigRational::from(inst.pages(0).clone())
                    + BigRational::from(inst.w(t).clone())
                        * BigRational::from(inst.tuples(0).clone()),
                From::Start { order: [0, t], method: JoinMethod::NestedLoops },
            ),
            // Start R_t, nested-loops access of R_0: b_t + w_{0,t}·n_t.
            (
                BigRational::from(inst.pages(t).clone())
                    + BigRational::from(inst.w0(t).clone())
                        * BigRational::from(inst.tuples(t).clone()),
                From::Start { order: [t, 0], method: JoinMethod::NestedLoops },
            ),
            // Sort-merge either way: A_0 + A_t.
            (
                BigRational::from(inst.sort_cost(0).clone())
                    + BigRational::from(inst.sort_cost(t).clone()),
                From::Start { order: [0, t], method: JoinMethod::SortMerge },
            ),
        ];
        for (cost, f) in candidates {
            if dp[bit].as_ref().is_none_or(|cur| cost < *cur) {
                dp[bit] = Some(cost);
                from[bit] = Some(f);
            }
        }
    }

    // Transitions. Counted in a plain local and flushed once below.
    let mut transitions = 0u64;
    let ks_minus_1 = BigRational::from(inst.ks() - 1);
    for set in 1..=full {
        let Some(base) = dp[set].clone() else { continue };
        let nx = &nsize[set];
        for t in 1..=m {
            let bit = 1usize << (t - 1);
            if set & bit != 0 {
                continue;
            }
            budget.tick()?;
            transitions += 1;
            let nl = nx * &BigRational::from(inst.w(t).clone());
            let sm = nx * &ks_minus_1 + BigRational::from(inst.sort_cost(t).clone());
            for (step, method) in [(nl, JoinMethod::NestedLoops), (sm, JoinMethod::SortMerge)] {
                let cand = &base + &step;
                let ns = set | bit;
                if dp[ns].as_ref().is_none_or(|cur| cand < *cur) {
                    dp[ns] = Some(cand);
                    from[ns] = Some(From::Step { sat: t, method });
                }
            }
        }
    }

    if aqo_obs::enabled() {
        aqo_obs::counter_handle!("optimizer.star.transitions").add(transitions);
    }

    // Reconstruct.
    #[expect(
        clippy::expect_used,
        reason = "each satellite can join any state, so the full state is reached"
    )]
    let cost = dp[full].clone().expect("full state reachable");
    let mut order_rev: Vec<usize> = Vec::new();
    let mut methods_rev: Vec<JoinMethod> = Vec::new();
    let mut set = full;
    loop {
        #[expect(clippy::expect_used, reason = "every reached state records its provenance")]
        match from[set].clone().expect("reached state has provenance") {
            From::Step { sat, method } => {
                order_rev.push(sat);
                methods_rev.push(method);
                set &= !(1 << (sat - 1));
            }
            From::Start { order, method } => {
                order_rev.push(order[1]);
                methods_rev.push(method);
                order_rev.push(order[0]);
                break;
            }
        }
    }
    order_rev.reverse();
    methods_rev.reverse();
    let plan = StarPlan::new(order_rev, methods_rev);
    debug_assert_eq!(inst.plan_cost(&plan), cost);
    Ok((plan, cost))
}

/// Exhaustive oracle: every feasible order and every method vector
/// (`m ≤ 7`).
pub fn optimize_exhaustive(inst: &SqoCpInstance) -> (StarPlan, BigRational) {
    run_unlimited(|b| optimize_exhaustive_with_budget(inst, b))
}

/// As [`optimize_exhaustive`], under a cooperative [`Budget`] ticked once
/// per (order, method-vector) candidate.
#[expect(
    clippy::expect_used,
    reason = "m >= 1 is asserted, so some order starts at R_0 and is costed"
)]
pub fn optimize_exhaustive_with_budget(
    inst: &SqoCpInstance,
    budget: &Budget,
) -> Result<(StarPlan, BigRational), BudgetExceeded> {
    let m = inst.m();
    assert!((1..=7).contains(&m), "exhaustive star search is for m in 1..=7");
    let mut best: Option<(StarPlan, BigRational)> = None;
    let mut plans_costed = 0u64;
    for perm in aqo_core::join::permutations(m + 1) {
        #[expect(clippy::expect_used, reason = "a permutation of 0..=m contains 0")]
        let pos0 = perm.iter().position(|&v| v == 0).expect("0 present");
        if pos0 > 1 {
            continue; // cartesian product
        }
        for mask in 0u32..(1 << m) {
            budget.tick()?;
            plans_costed += 1;
            let methods: Vec<JoinMethod> = (0..m)
                .map(|i| {
                    if mask >> i & 1 == 1 {
                        JoinMethod::SortMerge
                    } else {
                        JoinMethod::NestedLoops
                    }
                })
                .collect();
            let plan = StarPlan::new(perm.clone(), methods);
            let cost = inst.plan_cost(&plan);
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((plan, cost));
            }
        }
    }
    if aqo_obs::enabled() {
        aqo_obs::counter_handle!("optimizer.star.plans_costed").add(plans_costed);
    }
    Ok(best.expect("at least one feasible plan"))
}

/// The SQO−CP decision problem: is there a feasible plan of cost `≤ bound`?
pub fn decide(inst: &SqoCpInstance, bound: &BigRational) -> bool {
    optimize(inst).1 <= *bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqo_bignum::{BigInt, BigUint};

    fn instance(seed: u64, m: usize) -> SqoCpInstance {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let ks = 4;
        let len = m + 1;
        let tuples: Vec<BigUint> = (0..len).map(|_| BigUint::from(4 + next() % 60)).collect();
        let pages = tuples.clone();
        let sort_cost: Vec<BigUint> = pages.iter().map(|b| b * &BigUint::from(ks)).collect();
        let mut selectivity = vec![BigRational::one()];
        for t in tuples.iter().skip(1) {
            // s_i = p_i / n_i with p_i small.
            let p = 1 + next() % 4;
            selectivity
                .push(BigRational::new(BigInt::from(p.min(t.to_u64().unwrap())), t.clone()));
        }
        let w: Vec<BigUint> = (0..len).map(|_| BigUint::from(1 + next() % 20)).collect();
        let w0: Vec<BigUint> = (0..len).map(|_| BigUint::from(1 + next() % 20)).collect();
        SqoCpInstance::new(ks, tuples, pages, sort_cost, selectivity, w, w0)
    }

    #[test]
    fn dp_matches_exhaustive() {
        for seed in 0..10u64 {
            for m in 2..=4usize {
                let inst = instance(seed, m);
                let (plan_dp, cost_dp) = optimize(&inst);
                let (_, cost_ex) = optimize_exhaustive(&inst);
                assert_eq!(cost_dp, cost_ex, "seed={seed} m={m}");
                assert_eq!(inst.plan_cost(&plan_dp), cost_dp);
            }
        }
    }

    #[test]
    fn decide_thresholds() {
        let inst = instance(3, 3);
        let (_, opt) = optimize(&inst);
        assert!(decide(&inst, &opt));
        let below = &opt - &BigRational::one();
        assert!(!decide(&inst, &below));
        let above = &opt + &BigRational::one();
        assert!(decide(&inst, &above));
    }

    #[test]
    fn budget_trips_in_dp_and_exhaustive() {
        let inst = instance(5, 6);
        let tiny = Budget::unlimited().with_max_expansions(4);
        let err = optimize_with_budget(&inst, &tiny).unwrap_err();
        assert_eq!(err.kind, aqo_core::budget::BudgetKind::Expansions);

        let inst_small = instance(5, 4);
        let tiny = Budget::unlimited().with_max_expansions(4);
        let err = optimize_exhaustive_with_budget(&inst_small, &tiny).unwrap_err();
        assert_eq!(err.kind, aqo_core::budget::BudgetKind::Expansions);

        let roomy = Budget::unlimited().with_max_expansions(10_000_000);
        let (_, cost_b) = optimize_with_budget(&inst, &roomy).unwrap();
        let (_, cost_free) = optimize(&inst);
        assert_eq!(cost_b, cost_free);
    }

    #[test]
    fn single_satellite() {
        let inst = instance(9, 1);
        let (plan, cost) = optimize(&inst);
        assert_eq!(plan.order.len(), 2);
        assert_eq!(inst.plan_cost(&plan), cost);
    }
}

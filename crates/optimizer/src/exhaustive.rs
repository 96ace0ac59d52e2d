//! Exhaustive QO_N optimization over all `n!` join sequences: a reference
//! oracle for tests and experiments (nothing on the request path calls it).

use crate::Optimum;
use aqo_core::budget::{run_unlimited, Budget, BudgetExceeded};
use aqo_core::join::permutations;
use aqo_core::qon::QoNInstance;
use aqo_core::{CostScalar, JoinSequence};

/// Maximum `n` accepted; `12! ≈ 4.8·10⁸` is already past the point of sanity.
pub const MAX_N: usize = 10;

/// Flush a locally accumulated permutation count to the metrics registry,
/// once on successful completion, so a sweep that trips the budget
/// contributes nothing (see docs/OBSERVABILITY.md).
fn flush_perms_costed(costed: u64) {
    if aqo_obs::enabled() && costed > 0 {
        aqo_obs::counter_handle!("optimizer.exhaustive.perms_costed").add(costed);
    }
}

/// Finds an optimal sequence by trying every permutation. Panics for
/// `n > `[`MAX_N`] — use [`crate::dp`] instead.
pub fn optimize<S: CostScalar>(inst: &QoNInstance) -> Optimum<S> {
    run_unlimited(|b| optimize_with_budget(inst, b))
}

/// As [`optimize`], under a cooperative [`Budget`] ticked once per
/// permutation.
#[expect(clippy::expect_used, reason = "n >= 1 is asserted, so there is at least one permutation")]
pub fn optimize_with_budget<S: CostScalar>(
    inst: &QoNInstance,
    budget: &Budget,
) -> Result<Optimum<S>, BudgetExceeded> {
    let n = inst.n();
    assert!((1..=MAX_N).contains(&n), "exhaustive search is for n in 1..={MAX_N}");
    let mut best: Option<Optimum<S>> = None;
    let mut costed = 0u64;
    for perm in permutations(n) {
        budget.tick()?;
        costed += 1;
        let z = JoinSequence::new(perm);
        let cost: S = inst.total_cost(&z);
        let better = match &best {
            None => true,
            Some(b) => cost < b.cost,
        };
        if better {
            best = Some(Optimum { sequence: z, cost });
        }
    }
    flush_perms_costed(costed);
    Ok(best.expect("at least one permutation"))
}

/// As [`optimize`], restricted to sequences without cartesian products.
/// Returns `None` when every sequence has one (disconnected query graph).
pub fn optimize_no_cartesian<S: CostScalar>(inst: &QoNInstance) -> Option<Optimum<S>> {
    run_unlimited(|b| optimize_no_cartesian_with_budget(inst, b))
}

/// As [`optimize_no_cartesian`], under a cooperative [`Budget`] ticked
/// once per permutation.
pub fn optimize_no_cartesian_with_budget<S: CostScalar>(
    inst: &QoNInstance,
    budget: &Budget,
) -> Result<Option<Optimum<S>>, BudgetExceeded> {
    let n = inst.n();
    assert!((1..=MAX_N).contains(&n), "exhaustive search is for n in 1..={MAX_N}");
    let mut best: Option<Optimum<S>> = None;
    let mut costed = 0u64;
    for perm in permutations(n) {
        budget.tick()?;
        let z = JoinSequence::new(perm);
        if n > 1 && inst.has_cartesian_product(&z) {
            continue;
        }
        costed += 1;
        let cost: S = inst.total_cost(&z);
        if best.as_ref().is_none_or(|b| cost < b.cost) {
            best = Some(Optimum { sequence: z, cost });
        }
    }
    flush_perms_costed(costed);
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqo_bignum::{BigInt, BigRational, BigUint};
    use aqo_core::{AccessCostMatrix, SelectivityMatrix};
    use aqo_graph::Graph;

    fn chain(n: usize) -> QoNInstance {
        let mut g = Graph::new(n);
        let mut s = SelectivityMatrix::new();
        let mut w = AccessCostMatrix::new();
        let sizes: Vec<BigUint> = (0..n).map(|i| BigUint::from(4 + 2 * i as u64)).collect();
        for v in 1..n {
            g.add_edge(v - 1, v);
            let sel = BigRational::new(BigInt::one(), BigUint::from(2u64));
            s.set(v - 1, v, sel.clone());
            for (j, k) in [(v - 1, v), (v, v - 1)] {
                let lower = (BigRational::from(sizes[j].clone()) * &sel).ceil();
                w.set(j, k, lower.magnitude().clone());
            }
        }
        QoNInstance::new(g, sizes, s, w)
    }

    #[test]
    fn single_relation() {
        let inst = chain(1);
        let opt: Optimum<BigRational> = optimize(&inst);
        assert_eq!(opt.sequence.order(), &[0]);
        assert!(opt.cost.is_zero());
    }

    #[test]
    fn optimum_is_minimal_over_all() {
        let inst = chain(5);
        let opt: Optimum<BigRational> = optimize(&inst);
        for perm in permutations(5) {
            let z = JoinSequence::new(perm);
            let c: BigRational = inst.total_cost(&z);
            assert!(opt.cost <= c);
        }
    }

    #[test]
    fn no_cartesian_restriction_is_weakly_worse() {
        let inst = chain(5);
        let free: Optimum<BigRational> = optimize(&inst);
        let restricted = optimize_no_cartesian::<BigRational>(&inst).unwrap();
        assert!(free.cost <= restricted.cost);
        assert!(!inst.has_cartesian_product(&restricted.sequence));
    }

    #[test]
    fn budget_limits_enumeration() {
        let inst = chain(6);
        let budget = Budget::unlimited().with_max_expansions(10);
        let err = optimize_with_budget::<BigRational>(&inst, &budget).unwrap_err();
        assert_eq!(err.kind, aqo_core::budget::BudgetKind::Expansions);
        assert_eq!(err.expansions, 11);
    }

    #[test]
    fn disconnected_graph_has_no_cartesian_free_sequence() {
        let g = Graph::new(3);
        let sizes = vec![BigUint::from(2u64); 3];
        let inst = QoNInstance::new(g, sizes, SelectivityMatrix::new(), AccessCostMatrix::new());
        assert!(optimize_no_cartesian::<BigRational>(&inst).is_none());
        // But the unrestricted optimum exists.
        let opt: Optimum<BigRational> = optimize(&inst);
        assert!(opt.cost.is_positive());
    }
}

//! Exact QO_N optimization by depth-first branch-and-bound.
//!
//! Costs are sums of non-negative join costs, so the accumulated prefix cost
//! is an admissible lower bound on any completion; the search prunes a
//! prefix as soon as it meets the incumbent. A greedy warm start makes the
//! incumbent strong from the first node. On the paper's reduction instances,
//! where costs explode by `α` factors per misstep, pruning is ferocious.

use crate::{greedy, Optimum};
use aqo_bignum::BigUint;
use aqo_core::budget::{Budget, BudgetExceeded};
use aqo_core::qon::QoNInstance;
use aqo_core::{CostScalar, JoinSequence};
use aqo_graph::BitSet;

/// Per-search tallies, accumulated in plain locals (nothing shared in the
/// DFS) and flushed to the metrics registry once.
#[derive(Clone, Copy, Debug, Default)]
struct SearchStats {
    nodes: u64,
    incumbent_improvements: u64,
    bound_prunes: u64,
}

impl SearchStats {
    fn flush(&self) {
        if !aqo_obs::enabled() {
            return;
        }
        aqo_obs::counter_handle!("optimizer.bnb.nodes").add(self.nodes);
        aqo_obs::counter_handle!("optimizer.bnb.incumbent_improvements")
            .add(self.incumbent_improvements);
        aqo_obs::counter_handle!("optimizer.bnb.bound_prunes").add(self.bound_prunes);
        aqo_obs::journal::event(
            "bnb_done",
            vec![
                ("nodes", self.nodes.into()),
                ("incumbent_improvements", self.incumbent_improvements.into()),
                ("bound_prunes", self.bound_prunes.into()),
            ],
        );
    }
}

/// Exact optimum by branch-and-bound. `allow_cartesian = false` searches
/// only cartesian-product-free sequences (returns `None` when none exists).
pub fn optimize<S: CostScalar>(inst: &QoNInstance, allow_cartesian: bool) -> Option<Optimum<S>> {
    optimize_with_budget(inst, allow_cartesian, &Budget::unlimited())
        .expect("unlimited budget cannot be exceeded")
}

/// As [`optimize`], under a cooperative [`Budget`] ticked once per DFS
/// node. The search unwinds promptly when the budget trips; the incumbent
/// found so far is discarded (the driver layer decides what to fall back
/// to).
pub fn optimize_with_budget<S: CostScalar>(
    inst: &QoNInstance,
    allow_cartesian: bool,
    budget: &Budget,
) -> Result<Option<Optimum<S>>, BudgetExceeded> {
    let _span = aqo_obs::span("bnb.optimize");
    let n = inst.n();
    if n == 1 {
        return Ok(Some(Optimum { sequence: JoinSequence::identity(1), cost: S::zero() }));
    }
    budget.checkpoint()?;
    let mut best = greedy::min_intermediate(inst, allow_cartesian)
        .map(|z| Optimum { cost: inst.total_cost(&z), sequence: z });
    let mut stats = SearchStats::default();
    let mut prefix = Vec::with_capacity(n);
    let mut in_prefix = BitSet::new(n);
    for start in 0..n {
        prefix.push(start);
        in_prefix.insert(start);
        let outcome = dfs(
            inst,
            allow_cartesian,
            &mut prefix,
            &mut in_prefix,
            S::from_count(&inst.sizes()[start]),
            S::zero(),
            &mut best,
            budget,
            &mut stats,
        );
        in_prefix.remove(start);
        prefix.pop();
        outcome?;
    }
    stats.flush();
    Ok(best)
}

/// One DFS transition: the cost delta and new intermediate size of
/// joining `j` into the current prefix, or `None` when that join would be
/// a cartesian product and those are not admissible.
fn step<S: CostScalar>(
    inst: &QoNInstance,
    allow_cartesian: bool,
    in_prefix: &BitSet,
    prefix_len: usize,
    n_x: &S,
    j: usize,
) -> Option<(S, S)> {
    let mut w_min: Option<BigUint> = None;
    let mut nbr_count = 0usize;
    let mut new_n = n_x.mul(&S::from_count(&inst.sizes()[j]));
    for k in inst.graph().neighbors(j).iter() {
        if in_prefix.contains(k) {
            nbr_count += 1;
            let w = inst.w(j, k);
            w_min = Some(match w_min {
                None => w,
                Some(cur) => cur.min(w),
            });
            new_n = new_n.mul(&S::from_ratio(&inst.selectivity().get(j, k)));
        }
    }
    if nbr_count == 0 && !allow_cartesian {
        return None;
    }
    if nbr_count < prefix_len {
        let tj = inst.sizes()[j].clone();
        w_min = Some(match w_min {
            None => tj,
            Some(cur) => cur.min(tj),
        });
    }
    // analyze:allow(no-unwrap-in-lib) -- a nonempty prefix always yields a
    // w_min: either a neighbour contributed or the default branch fired.
    let delta = n_x.mul(&S::from_count(&w_min.expect("prefix nonempty")));
    Some((new_n, delta))
}

#[allow(clippy::too_many_arguments)]
fn dfs<S: CostScalar>(
    inst: &QoNInstance,
    allow_cartesian: bool,
    prefix: &mut Vec<usize>,
    in_prefix: &mut BitSet,
    n_x: S,
    cost: S,
    best: &mut Option<Optimum<S>>,
    budget: &Budget,
    stats: &mut SearchStats,
) -> Result<(), BudgetExceeded> {
    let n = inst.n();
    budget.tick()?;
    stats.nodes += 1;
    if let Some(b) = best {
        if cost >= b.cost {
            stats.bound_prunes += 1;
            return Ok(());
        }
    }
    if prefix.len() == n {
        // Strictly below the incumbent: the prune above let it through.
        stats.incumbent_improvements += 1;
        *best = Some(Optimum { sequence: JoinSequence::new(prefix.clone()), cost });
        return Ok(());
    }
    for j in 0..n {
        if in_prefix.contains(j) {
            continue;
        }
        let Some((new_n, delta)) = step(inst, allow_cartesian, in_prefix, prefix.len(), &n_x, j)
        else {
            continue;
        };
        let new_cost = cost.add(&delta);
        prefix.push(j);
        in_prefix.insert(j);
        let outcome = dfs(
            inst,
            allow_cartesian,
            prefix,
            in_prefix,
            new_n,
            new_cost,
            best,
            budget,
            stats,
        );
        in_prefix.remove(j);
        prefix.pop();
        outcome?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dp, exhaustive};
    use aqo_bignum::{BigInt, BigRational};
    use aqo_core::{AccessCostMatrix, SelectivityMatrix};
    use aqo_graph::Graph;

    fn cycle(n: usize) -> QoNInstance {
        let mut g = Graph::new(n);
        let mut s = SelectivityMatrix::new();
        let mut w = AccessCostMatrix::new();
        let sizes: Vec<BigUint> = (0..n).map(|i| BigUint::from(3 + i as u64)).collect();
        for v in 0..n {
            let u = (v + 1) % n;
            g.add_edge(u.min(v), u.max(v));
            let sel = BigRational::new(BigInt::one(), BigUint::from(3u64));
            s.set(u, v, sel.clone());
            for (j, k) in [(u, v), (v, u)] {
                let lower = (BigRational::from(sizes[j].clone()) * &sel).ceil();
                w.set(j, k, lower.magnitude().clone());
            }
        }
        QoNInstance::new(g, sizes, s, w)
    }

    #[test]
    fn bnb_matches_exhaustive() {
        let inst = cycle(6);
        let bb = optimize::<BigRational>(&inst, true).unwrap();
        let ex: Optimum<BigRational> = exhaustive::optimize(&inst);
        assert_eq!(bb.cost, ex.cost);
        let recost: BigRational = inst.total_cost(&bb.sequence);
        assert_eq!(recost, bb.cost);
    }

    #[test]
    fn bnb_matches_dp_no_cartesian() {
        let inst = cycle(7);
        let bb = optimize::<BigRational>(&inst, false).unwrap();
        let d = dp::optimize::<BigRational>(&inst, false).unwrap();
        assert_eq!(bb.cost, d.cost);
        assert!(!inst.has_cartesian_product(&bb.sequence));
    }

    #[test]
    fn budget_trips_and_generous_budget_agrees() {
        let inst = cycle(7);
        let tiny = Budget::unlimited().with_max_expansions(2);
        let err = optimize_with_budget::<BigRational>(&inst, true, &tiny).unwrap_err();
        assert_eq!(err.kind, aqo_core::budget::BudgetKind::Expansions);

        let roomy = Budget::unlimited().with_max_expansions(10_000_000);
        let bb = optimize_with_budget::<BigRational>(&inst, true, &roomy).unwrap().unwrap();
        let free = optimize::<BigRational>(&inst, true).unwrap();
        assert_eq!(bb.cost, free.cost);
    }

    #[test]
    fn disconnected_no_cartesian_none() {
        let inst = QoNInstance::new(
            Graph::new(3),
            vec![BigUint::from(2u64); 3],
            SelectivityMatrix::new(),
            AccessCostMatrix::new(),
        );
        assert!(optimize::<BigRational>(&inst, false).is_none());
        assert!(optimize::<BigRational>(&inst, true).is_some());
    }
}

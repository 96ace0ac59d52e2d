//! Selinger-style dynamic programming over vertex subsets for QO_N.
//!
//! The QO_N cost model is *prefix-set determined*: both the intermediate
//! size `N(X)` and the access cost `min_{v_k ∈ X} w_{jk}` depend on the
//! prefix `X` only through its set of vertices, never their order. Hence the
//! optimal left-deep sequence satisfies Bellman's principle over subsets and
//! the DP below is exact:
//!
//! ```text
//! dp[{v}]      = 0
//! dp[S ∪ {j}]  = min_{j ∉ S} dp[S] + N(S)·min_{k ∈ S} w_{jk}
//! ```
//!
//! This is the reference oracle. The driver, the service and
//! `aqo optimize --method dp` run [`crate::engine::optimize_two_phase`],
//! which returns the same cost and the same plan; tests and benches check
//! it against this module.

use crate::engine::{nbr_masks, AccessRows};
use crate::Optimum;
use aqo_core::budget::{run_unlimited, Budget, BudgetExceeded};
use aqo_core::qon::QoNInstance;
use aqo_core::{CostScalar, JoinSequence};

/// Hard cap on `n` (a `2^n` table is allocated).
pub const MAX_N: usize = 25;

/// Exact optimum by subset DP.
///
/// With `allow_cartesian = false`, only sequences whose every join has a
/// query-graph edge into the prefix are considered; returns `None` when no
/// such sequence exists (disconnected query graph).
pub fn optimize<S: CostScalar>(inst: &QoNInstance, allow_cartesian: bool) -> Option<Optimum<S>> {
    run_unlimited(|b| optimize_with_budget(inst, allow_cartesian, b))
}

/// As [`optimize`], under a cooperative [`Budget`]: the transition loop
/// ticks the budget and the `3·2^n`-entry tables are charged against the
/// memory cap before allocation, so oversized instances fail fast instead
/// of hanging or OOMing.
pub fn optimize_with_budget<S: CostScalar>(
    inst: &QoNInstance,
    allow_cartesian: bool,
    budget: &Budget,
) -> Result<Option<Optimum<S>>, BudgetExceeded> {
    let _span = aqo_obs::span!("dp.optimize");
    let n = inst.n();
    assert!((1..=MAX_N).contains(&n), "subset DP is for n in 1..={MAX_N}");
    if n == 1 {
        return Ok(Some(Optimum { sequence: JoinSequence::identity(1), cost: S::zero() }));
    }
    let full: usize = (1usize << n) - 1;
    let table_bytes =
        (full + 1) * (2 * std::mem::size_of::<Option<S>>() + std::mem::size_of::<u8>());
    budget.charge_memory(table_bytes as u64)?;
    budget.checkpoint()?;
    let nbr = nbr_masks(inst);
    let view = ExactView::<S>::build(inst, &nbr);
    // dp cost, intermediate size N(S), and the last vertex added.
    let mut dp: Vec<Option<S>> = vec![None; full + 1];
    let mut nsize: Vec<Option<S>> = vec![None; full + 1];
    let mut parent: Vec<u8> = vec![u8::MAX; full + 1];
    for v in 0..n {
        let m = 1usize << v;
        dp[m] = Some(S::zero());
        nsize[m] = Some(view.size(v).clone());
    }
    // Plain locals in the hot loop, flushed to the metrics registry once
    // at the end — counting costs nothing per transition.
    let mut subsets_expanded = 0u64;
    let mut transitions = 0u64;
    for mask in 1..=full {
        // Every successor mask | 1 << j is strictly greater than mask, so
        // splitting the tables at mask + 1 lets us read the source state by
        // reference while mutating successors — no per-state clones.
        let (dp_lo, dp_hi) = dp.split_at_mut(mask + 1);
        let (ns_lo, ns_hi) = nsize.split_at_mut(mask + 1);
        let Some(cost_s) = dp_lo[mask].as_ref() else { continue };
        #[expect(clippy::expect_used, reason = "N(S) is set together with dp[S]")]
        let n_s = ns_lo[mask].as_ref().expect("N(S) set with dp");
        subsets_expanded += 1;
        let s = mask as u32;
        for (j, &nbr_j) in nbr.iter().enumerate() {
            if mask >> j & 1 == 1 {
                continue;
            }
            budget.tick()?;
            transitions += 1;
            if !allow_cartesian && nbr_j & s == 0 {
                continue;
            }
            let cand = cost_s.add(&n_s.mul(view.wmin(j, s)));
            let nm = mask | 1 << j;
            let slot = &mut dp_hi[nm - (mask + 1)];
            if slot.is_none() {
                // First transition into S ∪ {j}: N is prefix-set
                // determined, so this value is final.
                ns_hi[nm - (mask + 1)] = Some(view.extend_n(n_s, j, s));
            }
            if slot.as_ref().is_none_or(|cur| cand < *cur) {
                *slot = Some(cand);
                parent[nm] = j as u8;
            }
        }
    }
    if aqo_obs::enabled() {
        aqo_obs::counter_handle!("optimizer.dp.subsets_expanded").add(subsets_expanded);
        aqo_obs::counter_handle!("optimizer.dp.transitions").add(transitions);
        aqo_obs::journal::event(
            "dp_done",
            vec![
                ("subsets_expanded", subsets_expanded.into()),
                ("transitions", transitions.into()),
            ],
        );
    }
    let Some(cost) = dp[full].clone() else { return Ok(None) };
    // Reconstruct the sequence.
    let mut order = Vec::with_capacity(n);
    let mut mask = full;
    while mask.count_ones() > 1 {
        let j = parent[mask] as usize;
        order.push(j);
        mask &= !(1 << j);
    }
    order.push(mask.trailing_zeros() as usize);
    order.reverse();
    Ok(Some(Optimum { sequence: JoinSequence::new(order), cost }))
}

/// Precomputed exact-scalar view of an instance: the engine's
/// [`AccessRows`] plus `w*(j,k)` and the edge selectivities embedded into
/// `S` once, so the transition loop clones nothing and compares no big
/// numbers.
struct ExactView<'a, S> {
    rows: AccessRows<'a>,
    /// `rows.w` embedded into `S`.
    wexs: Vec<S>,
    /// Selectivities row-major; `1` off the query graph.
    sels: Vec<S>,
}

impl<'a, S: CostScalar> ExactView<'a, S> {
    fn build(inst: &'a QoNInstance, nbr: &'a [u32]) -> ExactView<'a, S> {
        let n = inst.n();
        let rows = AccessRows::build(inst, nbr);
        let wexs = rows.w.iter().map(|w| S::from_count(w)).collect();
        let mut sels = vec![S::one(); n * n];
        for (u, v, s, _) in inst.edges() {
            let s = S::from_ratio(s);
            sels[v * n + u] = s.clone();
            sels[u * n + v] = s;
        }
        ExactView { rows, wexs, sels }
    }

    /// `t_j` in `S`.
    fn size(&self, j: usize) -> &S {
        &self.wexs[j * self.rows.n + j]
    }

    /// `min_{k ∈ s} w*(j,k)` for a nonempty `s ∌ j`.
    #[inline]
    fn wmin(&self, j: usize, s: u32) -> &S {
        &self.wexs[self.rows.wmin_at(j, s)]
    }

    /// `N(s ∪ {j})` from `ns = N(s)`: times `t_j` and the selectivity of
    /// every edge from `j` into `s`.
    #[inline]
    fn extend_n(&self, ns: &S, j: usize, s: u32) -> S {
        let mut nn = ns.mul(self.size(j));
        let mut bits = self.rows.nbr[j] & s;
        while bits != 0 {
            let v = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            nn = nn.mul(&self.sels[j * self.rows.n + v]);
        }
        nn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive;
    use aqo_bignum::{BigInt, BigRational, BigUint, LogNum};
    use aqo_core::{AccessCostMatrix, SelectivityMatrix};
    use aqo_graph::Graph;

    fn random_instance(seed: u64, n: usize) -> QoNInstance {
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
        let sizes: Vec<BigUint> = (0..n).map(|_| BigUint::from(2 + next() % 40)).collect();
        let mut s = SelectivityMatrix::new();
        let mut w = AccessCostMatrix::new();
        for (u, v) in g.edges().collect::<Vec<_>>() {
            let sel = BigRational::new(BigInt::one(), BigUint::from(2 + next() % 9));
            s.set(u, v, sel.clone());
            for (j, k) in [(u, v), (v, u)] {
                let lower = (BigRational::from(sizes[j].clone()) * &sel).ceil();
                w.set(j, k, lower.magnitude().clone());
            }
        }
        QoNInstance::new(g, sizes, s, w)
    }

    #[test]
    fn dp_matches_exhaustive_small() {
        for seed in 0..8u64 {
            let inst = random_instance(seed, 6);
            let dp_opt = optimize::<BigRational>(&inst, true).unwrap();
            let ex_opt: Optimum<BigRational> = exhaustive::optimize(&inst);
            assert_eq!(dp_opt.cost, ex_opt.cost, "seed {seed}");
            // The DP's sequence must achieve its claimed cost.
            let recost: BigRational = inst.total_cost(&dp_opt.sequence);
            assert_eq!(recost, dp_opt.cost);
        }
    }

    #[test]
    fn dp_no_cartesian_matches_exhaustive() {
        for seed in 0..6u64 {
            let inst = random_instance(seed + 100, 6);
            let dp_opt = optimize::<BigRational>(&inst, false).unwrap();
            let ex_opt = exhaustive::optimize_no_cartesian::<BigRational>(&inst).unwrap();
            assert_eq!(dp_opt.cost, ex_opt.cost, "seed {seed}");
            assert!(!inst.has_cartesian_product(&dp_opt.sequence));
        }
    }

    #[test]
    fn log_backend_finds_same_optimum_on_wellseparated_instances() {
        let inst = random_instance(7, 7);
        let exact = optimize::<BigRational>(&inst, true).unwrap();
        let log = optimize::<LogNum>(&inst, true).unwrap();
        let log_recost: BigRational = inst.total_cost(&log.sequence);
        // The log optimum might differ by a float hair; costs must agree to
        // float precision.
        let d = (CostScalar::log2(&exact.cost) - CostScalar::log2(&log_recost)).abs();
        assert!(d < 1e-6, "log-domain DP diverged: {d}");
    }

    #[test]
    fn disconnected_no_cartesian_is_none() {
        let g = Graph::new(4);
        let inst = QoNInstance::new(
            g,
            vec![BigUint::from(3u64); 4],
            SelectivityMatrix::new(),
            AccessCostMatrix::new(),
        );
        assert!(optimize::<BigRational>(&inst, false).is_none());
        assert!(optimize::<BigRational>(&inst, true).is_some());
    }

    #[test]
    fn tiny_expansion_budget_trips() {
        let inst = random_instance(1, 8);
        let budget = Budget::unlimited().with_max_expansions(3);
        let err = optimize_with_budget::<BigRational>(&inst, true, &budget).unwrap_err();
        assert_eq!(err.kind, aqo_core::budget::BudgetKind::Expansions);
        assert!(err.expansions >= 3);
    }

    #[test]
    fn generous_budget_matches_unbudgeted() {
        let inst = random_instance(2, 7);
        let budget = Budget::unlimited().with_max_expansions(1_000_000);
        let budgeted =
            optimize_with_budget::<BigRational>(&inst, true, &budget).unwrap().unwrap();
        let free = optimize::<BigRational>(&inst, true).unwrap();
        assert_eq!(budgeted.cost, free.cost);
        assert_eq!(budgeted.sequence.order(), free.sequence.order());
    }

    #[test]
    fn memory_cap_rejects_table_upfront() {
        let inst = random_instance(3, 12);
        let budget = Budget::unlimited().with_max_memory_bytes(64);
        let err = optimize_with_budget::<BigRational>(&inst, true, &budget).unwrap_err();
        assert_eq!(err.kind, aqo_core::budget::BudgetKind::Memory);
        // Nothing was expanded: the charge precedes the allocation.
        assert_eq!(err.expansions, 0);
    }

    #[test]
    fn single_vertex() {
        let inst = QoNInstance::new(
            Graph::new(1),
            vec![BigUint::from(9u64)],
            SelectivityMatrix::new(),
            AccessCostMatrix::new(),
        );
        let opt = optimize::<BigRational>(&inst, false).unwrap();
        assert!(opt.cost.is_zero());
    }
}

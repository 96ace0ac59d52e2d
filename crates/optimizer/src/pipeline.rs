//! QO_H plan optimization: optimal pipeline decomposition of a given join
//! sequence, and exhaustive search over sequences at small `n`.
//!
//! For a fixed sequence the decomposition problem is an interval partition:
//! `dp[k]` = cheapest way to execute joins `J_1 … J_k` with a fragment
//! ending at `k`, where each candidate fragment is costed under its optimal
//! memory allocation. Fragment costs are independent of the decomposition
//! around them, so the DP is exact — and `dp[k]` depends only on the
//! prefix `z_0 … z_k`. The exhaustive search therefore walks prefixes depth
//! first and extends the DP by one row per prefix, instead of redoing it
//! for each of the `n!` sequences. The DP runs on integers scaled by one
//! instance-wide `K` ([`aqo_core::qoh::ScaledView`]); the reported cost is
//! the one rational `K·C/K`.

use aqo_bignum::{BigRational, BigUint};
use aqo_core::budget::{run_unlimited, Budget, BudgetExceeded};
use aqo_core::qoh::{FragmentScratch, PipelineDecomposition, QoHInstance, ScaledStep, ScaledView};
use aqo_core::JoinSequence;

/// Largest `n` the exhaustive search accepts (`9! = 362,880` sequences).
pub const MAX_N: usize = 9;

/// Flush locally accumulated sequence tallies to the metrics registry.
/// Called once per worker, on successful completion, so a budget-tripped
/// worker contributes nothing (see docs/OBSERVABILITY.md).
fn flush_sequence_counts(costed: u64, infeasible: u64) {
    if !aqo_obs::enabled() {
        return;
    }
    if costed > 0 {
        aqo_obs::counter_handle!("optimizer.pipeline.sequences_costed").add(costed);
    }
    if infeasible > 0 {
        aqo_obs::counter_handle!("optimizer.pipeline.sequences_infeasible").add(infeasible);
    }
}

/// A fully resolved QO_H plan.
#[derive(Clone, Debug)]
pub struct QohPlan {
    /// The join sequence.
    pub sequence: JoinSequence,
    /// Its optimal pipeline decomposition.
    pub decomposition: PipelineDecomposition,
    /// Exact cost under per-fragment optimal memory allocation.
    pub cost: BigRational,
}

/// A plan whose cost is still scaled by the view's `K`.
struct ScaledPlan {
    cost: BigUint,
    order: Vec<usize>,
    fragments: Vec<(usize, usize)>,
}

impl ScaledPlan {
    fn unscale(self, view: &ScaledView) -> QohPlan {
        let n = self.order.len();
        QohPlan {
            sequence: JoinSequence::new(self.order),
            decomposition: PipelineDecomposition::new(n, self.fragments),
            cost: view.unscale(self.cost),
        }
    }
}

/// The decomposition DP along a sequence prefix `z_0 … z_d`, extended and
/// shortened one relation at a time. `steps` and `dp` keep one entry per
/// depth ever reached, past the live depth `order.len()` too: a `push`
/// refills the entry of its depth in place and a `pop` only shortens the
/// prefix, so a search allocates its big numbers once per depth, not once
/// per prefix.
struct PrefixDp<'v, 'a> {
    view: &'v ScaledView<'a>,
    order: Vec<usize>,
    /// `K·N_j`, `K·weight_j` and `K·slope_j` of every position.
    steps: Vec<ScaledStep>,
    /// `K·dp[k]`: the cheapest execution of `J_1 … J_k` (`dp[0] = 0`), and
    /// the start of its last fragment.
    dp: Vec<(BigUint, usize)>,
    scratch: FragmentScratch,
}

impl<'v, 'a> PrefixDp<'v, 'a> {
    fn new(view: &'v ScaledView<'a>) -> Self {
        let scratch = FragmentScratch::default();
        PrefixDp { view, order: vec![], steps: vec![], dp: vec![], scratch }
    }

    /// Appends `v` as `z_d` and computes `dp[d] = min_i dp[i−1] + frag(i, d)`,
    /// the lowest `i` winning ties. Past the first position `v` must be
    /// buildable, which makes the singleton fragment `(d, d)` feasible.
    #[expect(
        clippy::expect_used,
        reason = "the singleton fragment of a buildable relation is feasible"
    )]
    fn push(&mut self, v: usize) {
        let d = self.order.len();
        if self.steps.len() == d {
            self.steps.push(ScaledStep::default());
            self.dp.push((BigUint::zero(), 0));
        }
        let (done, step) = self.steps.split_at_mut(d);
        self.view.step_into(&mut step[0], done.last(), v, &self.order);
        self.order.push(v);
        let (dp, slot) = self.dp.split_at_mut(d);
        let slot = &mut slot[0];
        if d == 0 {
            *slot = (BigUint::zero(), 0);
            return;
        }
        let mut won = None;
        let steps = &self.steps[..=d];
        self.view.last_fragments(&self.order, steps, &mut self.scratch, |i, cost| {
            *cost += &dp[i - 1].0;
            // `i` falls, so `<=` leaves the lowest `i` of equal cost. The
            // slot's old buffer goes back to the scratch for the next `i`.
            if won.is_none() || *cost <= slot.0 {
                std::mem::swap(cost, &mut slot.0);
                won = Some(i);
            }
        });
        slot.1 = won.expect("the singleton fragment of a buildable relation is feasible");
    }

    fn pop(&mut self) {
        self.order.pop();
    }

    /// Makes the prefix `order`, keeping the positions it shares with the
    /// current one.
    fn set(&mut self, order: &[usize]) {
        let keep = self.order.iter().zip(order).take_while(|(a, b)| a == b).count();
        self.order.truncate(keep);
        order[keep..].iter().for_each(|&v| self.push(v));
    }

    /// `K·` the cost of the full prefix.
    fn cost(&self) -> &BigUint {
        &self.dp[self.order.len() - 1].0
    }

    /// The plan of the full prefix: its sequence, decomposition and cost.
    fn plan(&self) -> ScaledPlan {
        let mut fragments = Vec::new();
        let mut k = self.order.len() - 1;
        while k >= 1 {
            fragments.insert(0, (self.dp[k].1, k));
            k = self.dp[k].1 - 1;
        }
        ScaledPlan { cost: self.cost().clone(), order: self.order.clone(), fragments }
    }
}

/// Optimal pipeline decomposition of `z` — the exhaustive search's prefix
/// DP along this one sequence; `None` if some join is infeasible under any
/// decomposition (inner relation too big for `M`).
pub fn best_decomposition(
    inst: &QoHInstance,
    z: &JoinSequence,
) -> Option<(PipelineDecomposition, BigRational)> {
    best_decompositions(inst, std::slice::from_ref(z)).pop().flatten()
}

/// [`best_decomposition`] of each of `orders` in turn, all on one prefix
/// DP: a sequence keeps the DP rows of the prefix it shares with the
/// feasible sequence before it, and every row reuses its buffers.
pub fn best_decompositions(
    inst: &QoHInstance,
    orders: &[JoinSequence],
) -> Vec<Option<(PipelineDecomposition, BigRational)>> {
    let view = ScaledView::new(inst);
    let mut dp = PrefixDp::new(&view);
    let decompose = |z: &JoinSequence| {
        assert!(z.len() >= 2, "need at least one join");
        if !inst.sequence_feasible(z) {
            return None;
        }
        dp.set(z.order());
        let plan = dp.plan().unscale(&view);
        Some((plan.decomposition, plan.cost))
    };
    orders.iter().map(decompose).collect()
}

/// Exhaustive QO_H optimum: every sequence (`n ≤ `[`MAX_N`]), each with its
/// optimal decomposition. Returns `None` when no sequence is feasible.
pub fn optimize_exhaustive(inst: &QoHInstance) -> Option<QohPlan> {
    run_unlimited(|b| optimize_exhaustive_with_budget(inst, b))
}

/// As [`optimize_exhaustive`], under a cooperative [`Budget`] ticked once
/// per candidate sequence, so a full run ticks exactly `n!` times.
pub fn optimize_exhaustive_with_budget(
    inst: &QoHInstance,
    budget: &Budget,
) -> Result<Option<QohPlan>, BudgetExceeded> {
    optimize_exhaustive_par_with_budget(inst, 1, budget)
}

/// [`optimize_exhaustive`] on `threads` workers (`0` = one per hardware
/// thread): worker `t` searches the sequences whose first relation is
/// `≡ t (mod threads)`, and workers are reduced by `(cost, sequence)` —
/// the winner is the lexicographically lowest sequence of minimal cost,
/// exactly what one worker returns, for every thread count.
pub fn optimize_exhaustive_par_with_budget(
    inst: &QoHInstance,
    threads: usize,
    budget: &Budget,
) -> Result<Option<QohPlan>, BudgetExceeded> {
    use aqo_core::parallel::{resolve_threads, run_workers};
    let n = inst.n();
    assert!((2..=MAX_N).contains(&n), "exhaustive QO_H search is for n in 2..={MAX_N}");
    let threads = resolve_threads(threads).min(n);
    let view = ScaledView::new(inst);
    let outcomes = run_workers(threads, |t| -> Result<Option<ScaledPlan>, BudgetExceeded> {
        let (mut dp, mut best, mut tally) = (PrefixDp::new(&view), None, (0, 0));
        for root in (t..n).step_by(threads) {
            dp.push(root);
            search(&mut dp, budget, &mut best, &mut tally)?;
            dp.pop();
        }
        flush_sequence_counts(tally.0, tally.1);
        Ok(best)
    });
    let mut best: Option<ScaledPlan> = None;
    for plan in outcomes.into_iter().filter_map(Result::transpose) {
        let plan = plan?;
        if best.as_ref().is_none_or(|b| (&plan.cost, &plan.order) < (&b.cost, &b.order)) {
            best = Some(plan);
        }
    }
    Ok(best.map(|plan| plan.unscale(&view)))
}

/// Visits every completion of `dp`'s prefix in lexicographic order, keeping
/// the first cheapest in `best` and counting `(costed, infeasible)`
/// sequences in `tally`. A relation that cannot be built (`hjmin > M`) cuts
/// its subtree of `(n−1−d)!` sequences, all ticked and counted infeasible.
fn search(
    dp: &mut PrefixDp,
    budget: &Budget,
    best: &mut Option<ScaledPlan>,
    tally: &mut (u64, u64),
) -> Result<(), BudgetExceeded> {
    let inst = dp.view.instance();
    let (n, d) = (inst.n(), dp.order.len());
    if d == n {
        budget.tick()?;
        tally.0 += 1;
        if best.as_ref().is_none_or(|b| *dp.cost() < b.cost) {
            *best = Some(dp.plan());
        }
        return Ok(());
    }
    for v in 0..n {
        if dp.order.contains(&v) {
            continue;
        }
        if inst.buildable(v) {
            dp.push(v);
            search(dp, budget, best, tally)?;
            dp.pop();
        } else {
            let subtree = (1..n - d).product::<usize>() as u64;
            budget.tick_n(subtree)?;
            tally.1 += subtree;
        }
    }
    Ok(())
}

/// Polynomial-time QO_H heuristic: a greedy min-intermediate sequence
/// (respecting feasibility — relations whose `hjmin` exceeds `M` must come
/// first) followed by the exact decomposition DP, then improved by 2-opt
/// position swaps until a local optimum.
///
/// Returns `None` when no feasible sequence exists at all.
// analyze:allow(budget-hook-coverage) -- greedy + 2-opt does polynomial
// work (O(n^3) DP re-evaluations at worst); only the exponential searches
// take a Budget.
pub fn optimize_greedy(inst: &QoHInstance) -> Option<QohPlan> {
    let n = inst.n();
    assert!(n >= 2);
    // Unbuildable relations (hjmin > M) can only ever be the outermost; more
    // than one of them means no feasible sequence.
    let unbuildable: Vec<usize> = (0..n).filter(|&v| !inst.buildable(v)).collect();
    if unbuildable.len() > 1 {
        return None;
    }
    let mut order: Vec<usize> = Vec::with_capacity(n);
    #[expect(clippy::expect_used, reason = "n >= 2 is asserted above")]
    let start = unbuildable.first().copied().unwrap_or_else(|| {
        (0..n).min_by(|&a, &b| inst.sizes()[a].cmp(&inst.sizes()[b])).expect("n >= 2")
    });
    order.push(start);
    let mut used = vec![false; n];
    used[start] = true;
    // Greedy: append the relation minimizing the resulting intermediate
    // (log-domain), among adjacency-connected candidates when any exist.
    let mut log_n = inst.sizes()[start].log2();
    // Each vertex's edges as `(k, log₂ s_jk)`, `k` ascending.
    let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (u, v, s) in inst.edges() {
        adj[u].push((v, s.log2()));
        adj[v].push((u, s.log2()));
    }
    while order.len() < n {
        let mut best: Option<(f64, usize)> = None;
        let connected_exists = (0..n).any(|j| {
            !used[j] && inst.graph().neighbors(j).iter().any(|k| used[k])
        });
        for j in 0..n {
            if used[j] || (unbuildable.contains(&j)) {
                continue;
            }
            let adjacent = inst.graph().neighbors(j).iter().any(|k| used[k]);
            if connected_exists && !adjacent {
                continue;
            }
            let linked = adj[j].iter().filter(|&&(k, _)| used[k]);
            let cand = linked.fold(log_n + inst.sizes()[j].log2(), |c, &(_, s)| c + s);
            if best.is_none_or(|(b, _)| cand < b) {
                best = Some((cand, j));
            }
        }
        let (new_log, j) = best?;
        order.push(j);
        used[j] = true;
        log_n = new_log;
    }
    // Only the unbuildable relation, if any, sits at position 0, and the
    // swaps below never move it: every sequence they try is feasible.
    // One view and one prefix DP serve every candidate; a swap at `i < j`
    // keeps the DP rows of positions before `i`.
    let view = ScaledView::new(inst);
    let mut dp = PrefixDp::new(&view);
    dp.set(&order);
    let mut best = dp.plan();
    let lo = usize::from(!unbuildable.is_empty());
    loop {
        let mut improved = false;
        for i in lo..n {
            for j in i + 1..n {
                let mut cand = best.order.clone();
                cand.swap(i, j);
                dp.set(&cand);
                if *dp.cost() < best.cost {
                    best = dp.plan();
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    Some(best.unscale(&view))
}

/// Brute-force check helper: the best decomposition found by trying *every*
/// interval partition (exponential; test oracle only, `n ≤ 12`).
pub fn best_decomposition_bruteforce(
    inst: &QoHInstance,
    z: &JoinSequence,
) -> Option<(PipelineDecomposition, BigRational)> {
    let n = z.len();
    let joins = n - 1;
    let mut best: Option<(PipelineDecomposition, BigRational)> = None;
    // Each bit of `mask` decides whether a fragment boundary follows join i.
    for mask in 0u32..(1 << (joins.saturating_sub(1))) {
        let mut fragments = Vec::new();
        let mut start = 1usize;
        for j in 1..joins {
            if mask >> (j - 1) & 1 == 1 {
                fragments.push((start, j));
                start = j + 1;
            }
        }
        fragments.push((start, joins));
        let decomp = PipelineDecomposition::new(n, fragments);
        if let Some(cost) = inst.plan_cost_optimal_alloc(z, &decomp) {
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((decomp, cost));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqo_bignum::{BigInt, BigUint};
    use aqo_core::SelectivityMatrix;
    use aqo_graph::Graph;

    fn path(n: usize, mem: u64) -> QoHInstance {
        let mut g = Graph::new(n);
        let mut s = SelectivityMatrix::new();
        for v in 1..n {
            g.add_edge(v - 1, v);
            s.set(v - 1, v, BigRational::new(BigInt::one(), BigUint::from(8u64)));
        }
        QoHInstance::new(g, vec![BigUint::from(256u64); n], s, BigUint::from(mem))
    }

    #[test]
    fn dp_matches_bruteforce() {
        for mem in [40u64, 100, 300, 600] {
            let inst = path(5, mem);
            let z = JoinSequence::identity(5);
            let dp = best_decomposition(&inst, &z);
            let brute = best_decomposition_bruteforce(&inst, &z);
            match (dp, brute) {
                (Some((_, c1)), Some((_, c2))) => assert_eq!(c1, c2, "mem={mem}"),
                (None, None) => {}
                other => panic!("feasibility mismatch at mem={mem}: {other:?}"),
            }
        }
    }

    #[test]
    fn tight_memory_forces_materialization() {
        // With memory for only one inner relation's hjmin at a time plus a
        // little, long pipelines become infeasible and the DP must split.
        let inst = path(5, 17); // hjmin(256) = 16
        let z = JoinSequence::identity(5);
        let (decomp, _) = best_decomposition(&inst, &z).unwrap();
        assert_eq!(decomp.fragments().len(), 4, "every join in its own fragment");
    }

    #[test]
    fn ample_memory_prefers_single_pipeline() {
        let inst = path(5, 4 * 256);
        let z = JoinSequence::identity(5);
        let (decomp, cost) = best_decomposition(&inst, &z).unwrap();
        assert_eq!(decomp.fragments().len(), 1);
        let single = inst
            .plan_cost_optimal_alloc(&z, &PipelineDecomposition::single_pipeline(5))
            .unwrap();
        assert_eq!(cost, single);
    }

    #[test]
    fn exhaustive_finds_feasible_optimum() {
        let inst = path(4, 200);
        let plan = optimize_exhaustive(&inst).unwrap();
        // Every other sequence/decomposition must cost at least as much.
        for perm in aqo_core::join::permutations(4) {
            let z = JoinSequence::new(perm);
            if let Some((_, c)) = best_decomposition(&inst, &z) {
                assert!(plan.cost <= c);
            }
        }
    }

    #[test]
    fn budget_limits_sequence_enumeration() {
        let inst = path(6, 300);
        let budget = Budget::unlimited().with_max_expansions(4);
        let err = optimize_exhaustive_with_budget(&inst, &budget).unwrap_err();
        assert_eq!(err.kind, aqo_core::budget::BudgetKind::Expansions);

        let roomy = Budget::unlimited().with_max_expansions(1_000_000);
        let budgeted = optimize_exhaustive_with_budget(&inst, &roomy).unwrap().unwrap();
        let free = optimize_exhaustive(&inst).unwrap();
        assert_eq!(budgeted.cost, free.cost);
    }

    #[test]
    fn parallel_exhaustive_matches_sequential_exactly() {
        for mem in [60u64, 200, 700] {
            let inst = path(5, mem);
            let seq = optimize_exhaustive(&inst);
            for threads in [1usize, 2, 4] {
                let par =
                    optimize_exhaustive_par_with_budget(&inst, threads, &Budget::unlimited())
                        .unwrap();
                match (&seq, &par) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.cost, b.cost, "mem={mem} threads={threads}");
                        assert_eq!(a.sequence.order(), b.sequence.order());
                        assert_eq!(a.decomposition.fragments(), b.decomposition.fragments());
                    }
                    (None, None) => {}
                    other => panic!("feasibility mismatch: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn infeasible_instance_returns_none() {
        // Memory below hjmin of every relation: no join can ever run.
        let inst = path(3, 2);
        assert!(optimize_exhaustive(&inst).is_none());
        assert!(optimize_greedy(&inst).is_none());
    }

    #[test]
    fn greedy_matches_or_trails_exhaustive() {
        for mem in [60u64, 200, 700] {
            let inst = path(5, mem);
            let greedy = optimize_greedy(&inst);
            let exact = optimize_exhaustive(&inst);
            match (greedy, exact) {
                (Some(g), Some(e)) => {
                    assert!(g.cost >= e.cost, "greedy beat the exhaustive optimum?!");
                    // On a symmetric path with uniform sizes it should tie.
                    assert_eq!(g.cost, e.cost, "mem={mem}");
                }
                (None, None) => {}
                other => panic!("feasibility disagreement at mem={mem}: {other:?}"),
            }
        }
    }

    #[test]
    fn greedy_respects_unbuildable_front() {
        // One giant relation that cannot be built: it must lead.
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let mut s = SelectivityMatrix::new();
        s.set(0, 1, BigRational::new(BigInt::one(), BigUint::from(4u64)));
        s.set(1, 2, BigRational::new(BigInt::one(), BigUint::from(4u64)));
        let inst = QoHInstance::new(
            g,
            vec![BigUint::from(1_000_000u64), BigUint::from(100u64), BigUint::from(100u64)],
            s,
            BigUint::from(50u64), // hjmin(10^6) = 1000 > 50
        );
        let plan = optimize_greedy(&inst).expect("feasible with big relation first");
        assert_eq!(plan.sequence.at(0), 0);
    }
}

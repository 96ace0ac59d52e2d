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
//! instance-wide `K` ([`aqo_core::qoh::ScaledView`]): `FixedUint<4>` limbs
//! when the bit bound [`qoh::scaled_bits`] fits them and every size and
//! selectivity term fits one limb, `BigUint` otherwise, in one body. The
//! reported cost is the one rational `K·C/K`.

use aqo_bignum::{BigRational, BigUint, FixedUint, ScaledInt};
use aqo_core::budget::{run_unlimited, Budget, BudgetExceeded};
use aqo_core::qoh::{self, FragmentScratch, PipelineDecomposition, QoHInstance, ScaledView};
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

/// The [`FixedUint`] width of the scaled search, in limbs. Every instance
/// of the `qoh-exhaustive` pools at seeds 1 and 7 (chain 5, memory the
/// product of the sizes) bounds at 128–222 bits; reduction instances,
/// whose `K` reaches ~1,600 bits, run on [`BigUint`].
const QOH_LIMBS: usize = 4;

/// `K`, and whether the search runs on `FixedUint<QOH_LIMBS>`: its `64·L`
/// bits hold [`qoh::scaled_bits`] and every size and selectivity term fits
/// one limb. Otherwise it runs on [`BigUint`].
fn scale_and_width(inst: &QoHInstance) -> (BigUint, bool) {
    let scale = qoh::scale_of(inst);
    let fits = qoh::one_limb_factors(inst)
        && qoh::scaled_bits(inst, &scale) <= 64 * QOH_LIMBS as u64;
    (scale, fits)
}

/// A plan whose cost is still scaled by the view's `K`.
struct ScaledPlan<N> {
    cost: N,
    order: Vec<usize>,
    fragments: Vec<(usize, usize)>,
}

impl<N> ScaledPlan<N> {
    fn unscale<'a>(self, view: &ScaledView<'a, N>) -> QohPlan
    where
        N: ScaledInt<'a>,
    {
        let n = self.order.len();
        QohPlan {
            sequence: JoinSequence::new(self.order),
            decomposition: PipelineDecomposition::new(n, self.fragments),
            cost: view.unscale(&self.cost),
        }
    }
}

/// The decomposition DP along a sequence prefix `z_0 … z_d`, extended and
/// shortened one relation at a time. `steps` and `dp` keep one entry per
/// depth ever reached, past the live depth `order.len()` too: a `push`
/// refills the entry of its depth in place and a `pop` only shortens the
/// prefix, so a search on `BigUint` allocates its big numbers once per
/// depth, not once per prefix.
struct PrefixDp<'v, 'a, N: ScaledInt<'a>> {
    view: &'v ScaledView<'a, N>,
    order: Vec<usize>,
    /// `K·N_j` of every position.
    steps: Vec<N>,
    /// `K·dp[k]`: the cheapest execution of `J_1 … J_k` (`dp[0] = 0`), and
    /// the start of its last fragment.
    dp: Vec<(N, usize)>,
    scratch: FragmentScratch<N>,
}

impl<'v, 'a, N: ScaledInt<'a>> PrefixDp<'v, 'a, N> {
    fn new(view: &'v ScaledView<'a, N>) -> Self {
        let n = view.instance().n();
        PrefixDp {
            view,
            order: Vec::with_capacity(n),
            steps: Vec::with_capacity(n),
            dp: Vec::with_capacity(n),
            scratch: FragmentScratch::default(),
        }
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
            self.steps.push(N::default());
            self.dp.push((N::default(), 0));
        }
        let (done, step) = self.steps.split_at_mut(d);
        self.view.step_into(&mut step[0], done.last(), v, &self.order);
        self.order.push(v);
        let (dp, slot) = self.dp.split_at_mut(d);
        let slot = &mut slot[0];
        if d == 0 {
            *slot = (N::default(), 0);
            return;
        }
        let mut won = None;
        let steps = &self.steps[..=d];
        self.view.last_fragments(&self.order, steps, &mut self.scratch, |i, cost| {
            cost.add_assign(&dp[i - 1].0);
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
    fn cost(&self) -> &N {
        &self.dp[self.order.len() - 1].0
    }

    /// The plan of the full prefix: its sequence, decomposition and cost.
    fn plan(&self) -> ScaledPlan<N> {
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
    let (scale, fits) = scale_and_width(inst);
    if fits {
        decompositions_in(&ScaledView::<FixedUint<QOH_LIMBS>>::new(inst, scale), orders)
    } else {
        decompositions_in(&ScaledView::<BigUint>::new(inst, scale), orders)
    }
}

/// [`best_decompositions`] on `view`.
fn decompositions_in<'a, N: ScaledInt<'a>>(
    view: &ScaledView<'a, N>,
    orders: &[JoinSequence],
) -> Vec<Option<(PipelineDecomposition, BigRational)>> {
    let mut dp = PrefixDp::new(view);
    let decompose = |z: &JoinSequence| {
        assert!(z.len() >= 2, "need at least one join");
        if !view.instance().sequence_feasible(z) {
            return None;
        }
        dp.set(z.order());
        let plan = dp.plan().unscale(view);
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
    use aqo_core::parallel::resolve_threads;
    let n = inst.n();
    assert!((2..=MAX_N).contains(&n), "exhaustive QO_H search is for n in 2..={MAX_N}");
    let threads = resolve_threads(threads).min(n);
    let (scale, fits) = scale_and_width(inst);
    if fits {
        exhaustive_in(&ScaledView::<FixedUint<QOH_LIMBS>>::new(inst, scale), threads, budget)
    } else {
        exhaustive_in(&ScaledView::<BigUint>::new(inst, scale), threads, budget)
    }
}

/// [`optimize_exhaustive_par_with_budget`] on `view`, with `threads`
/// resolved.
fn exhaustive_in<'a, N: ScaledInt<'a>>(
    view: &ScaledView<'a, N>,
    threads: usize,
    budget: &Budget,
) -> Result<Option<QohPlan>, BudgetExceeded> {
    use aqo_core::parallel::run_workers;
    let n = view.instance().n();
    let outcomes = run_workers(threads, |t| -> Result<Option<ScaledPlan<N>>, BudgetExceeded> {
        let (mut dp, mut best, mut tally) = (PrefixDp::new(view), None, (0, 0));
        for root in (t..n).step_by(threads) {
            dp.push(root);
            search(&mut dp, budget, &mut best, &mut tally)?;
            dp.pop();
        }
        flush_sequence_counts(tally.0, tally.1);
        Ok(best)
    });
    let mut best: Option<ScaledPlan<N>> = None;
    for plan in outcomes.into_iter().filter_map(Result::transpose) {
        let plan = plan?;
        if best.as_ref().is_none_or(|b| (&plan.cost, &plan.order) < (&b.cost, &b.order)) {
            best = Some(plan);
        }
    }
    Ok(best.map(|plan| plan.unscale(view)))
}

/// Visits every completion of `dp`'s prefix in lexicographic order, keeping
/// the first cheapest in `best` and counting `(costed, infeasible)`
/// sequences in `tally`. A relation that cannot be built (`hjmin > M`) cuts
/// its subtree of `(n−1−d)!` sequences, all ticked and counted infeasible.
fn search<'a, N: ScaledInt<'a>>(
    dp: &mut PrefixDp<'_, 'a, N>,
    budget: &Budget,
    best: &mut Option<ScaledPlan<N>>,
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
    let (order, lo) = greedy_order(inst)?;
    let (scale, fits) = scale_and_width(inst);
    Some(if fits {
        two_opt(&ScaledView::<FixedUint<QOH_LIMBS>>::new(inst, scale), &order, lo)
    } else {
        two_opt(&ScaledView::<BigUint>::new(inst, scale), &order, lo)
    })
}

/// The greedy min-intermediate sequence of [`optimize_greedy`], and the
/// first position its 2-opt may move.
fn greedy_order(inst: &QoHInstance) -> Option<(Vec<usize>, usize)> {
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
    // 2-opt never moves it: every sequence it tries is feasible.
    Some((order, usize::from(!unbuildable.is_empty())))
}

/// The greedy's 2-opt from `order`: position swaps at `lo..n` until none
/// improves. One prefix DP serves every candidate; a swap at `i < j`
/// keeps the DP rows of positions before `i`.
fn two_opt<'a, N: ScaledInt<'a>>(
    view: &ScaledView<'a, N>,
    order: &[usize],
    lo: usize,
) -> QohPlan {
    let n = order.len();
    let mut dp = PrefixDp::new(view);
    dp.set(order);
    let mut best = dp.plan();
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
    best.unscale(view)
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
    use proptest::prelude::*;

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

    /// A random connected instance on `n` relations. With a `target`, its
    /// [`qoh::scaled_bits`] is exactly that: sizes take about half of the
    /// bits left after small denominators, and the first edge's
    /// denominator makes `bits(K)` up to the rest. Without one, sizes
    /// have up to 40 bits. With `wide`, one size or one denominator needs
    /// two limbs. With `spill`, memory lies between `Σ hjmin` and `Σ t`,
    /// so fragments hand out their leftover by slope; otherwise it is the
    /// product of the sizes and every fragment fits.
    fn qoh_with_bound(
        seed: u64,
        n: usize,
        target: Option<u64>,
        wide: bool,
        spill: bool,
    ) -> QoHInstance {
        // SplitMix64: every output bit is usable, low ones included.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ state >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ z >> 27).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ z >> 31
        };
        // A `b`-bit value with random low bits.
        let with_bits = |r: u64, b: u64| 1u64 << (b - 1) | r & ((1u64 << (b - 1)) - 1);
        let mut g = Graph::new(n);
        for v in 1..n {
            g.add_edge((next() % v as u64) as usize, v);
        }
        if next() % 2 == 0 && !g.has_edge(0, n - 1) {
            g.add_edge(0, n - 1);
        }
        let edges: Vec<(usize, usize)> = g.edges().collect();
        let mut qs: Vec<BigUint> =
            edges.iter().map(|_| BigUint::from(with_bits(next(), 1 + next() % 12))).collect();
        let size_bits = match target {
            Some(t) => {
                let n_bits = u64::from(u64::BITS - (4 * n as u64).leading_zeros());
                let q_bits: u64 = qs[1..].iter().map(BigUint::bits).sum();
                t.saturating_sub(n_bits + q_bits + 32) / 2
            }
            None => (0..n).map(|_| next() % 40 + 1).sum(),
        };
        let mut sizes: Vec<BigUint> = (0..n)
            .map(|v| {
                let b = (size_bits / n as u64 + u64::from((v as u64) < size_bits % n as u64))
                    .clamp(1, 63);
                BigUint::from(with_bits(next(), b))
            })
            .collect();
        if wide {
            let big = |x: &BigUint, low: u64| (x << 64) + BigUint::from(low);
            if next() % 2 == 0 {
                sizes[0] = big(&sizes[0], next());
            } else {
                qs[0] = big(&qs[0], next());
            }
        }
        let build = |qs: &[BigUint], sizes: &[BigUint], memory: BigUint| {
            let mut s = SelectivityMatrix::new();
            for (&(u, v), q) in edges.iter().zip(qs) {
                // `p` is 1 or `q − 1`, coprime to `q`.
                let p = if q > &BigUint::from(2u64) && q.bits() % 2 == 0 {
                    q - &BigUint::one()
                } else {
                    BigUint::one()
                };
                s.set(u, v, BigRational::new(BigInt::from(p), q.clone()));
            }
            QoHInstance::new(g.clone(), sizes.to_vec(), s, memory)
        };
        if let Some(t) = target {
            // `K` without the first edge's `q`, which is 1 for now: pick
            // `q` with `bits(K·q) = t − Σ bits(t_v) − bits(4n)`.
            qs[0] = BigUint::one();
            let draft = build(&qs, &sizes, BigUint::one());
            let k0 = qoh::scale_of(&draft);
            // `bits(1) = 1`.
            let rest = t + 1 - qoh::scaled_bits(&draft, &BigUint::one());
            let low = &(&(BigUint::one() << (rest - 1)) + &(&k0 - &BigUint::one())) / &k0;
            let high = &(&(BigUint::one() << rest) - &BigUint::one()) / &k0;
            let span = &(&high - &low) + &BigUint::one();
            qs[0] = &low + &(&BigUint::from(next()) % &span);
        }
        let hjmin = |t: &BigUint| t.root_pow_ceil(1, 2);
        let memory = if spill {
            let lo = sizes.iter().fold(BigUint::zero(), |a, t| &a + &hjmin(t));
            let hi = sizes.iter().fold(BigUint::zero(), |a, t| &a + t);
            &lo + &(&BigUint::from(next()) % &(&(&hi - &lo) + &BigUint::one()))
        } else {
            sizes.iter().fold(BigUint::one(), |a, t| &a * t)
        };
        build(&qs, &sizes, memory)
    }

    /// `(order, fragments, cost)` of a plan.
    type Parts = (Vec<usize>, Vec<(usize, usize)>, BigRational);

    fn parts(plan: QohPlan) -> Parts {
        (plan.sequence.order().to_vec(), plan.decomposition.fragments().to_vec(), plan.cost)
    }

    /// `(fragments, cost)` of a sequence's decomposition, if it has one.
    type Decomposed = Option<(Vec<(usize, usize)>, BigRational)>;

    fn decomposition_parts(d: Option<(PipelineDecomposition, BigRational)>) -> Decomposed {
        d.map(|(d, c)| (d.fragments().to_vec(), c))
    }

    /// The exhaustive optimum, the greedy's plan and the decomposition of
    /// every sequence in `perms`, all on `view`.
    fn searches_in<'a, N: ScaledInt<'a>>(
        view: &ScaledView<'a, N>,
        perms: &[JoinSequence],
    ) -> (Option<Parts>, Option<Parts>, Vec<Decomposed>) {
        let exhaustive = exhaustive_in(view, 1, &Budget::unlimited()).unwrap().map(parts);
        let greedy =
            greedy_order(view.instance()).map(|(order, lo)| parts(two_opt(view, &order, lo)));
        let each = decompositions_in(view, perms).into_iter().map(decomposition_parts).collect();
        (exhaustive, greedy, each)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The scaled search on `FixedUint<QOH_LIMBS>`, where its bound
        /// allows, and on `BigUint`, against the every-partition reference:
        /// the exhaustive optimum, the greedy's decomposition and every
        /// sequence's. Bounds of exactly `64·L` and `64·L + 1` land on both
        /// sides of the width, a two-limb size or `q` forces `BigUint`, and
        /// a memory between `Σ hjmin` and `Σ t` spills.
        #[test]
        fn scaled_width_matches_biguint_and_bruteforce(
            seed in any::<u64>(),
            n in 3usize..=5,
            kind in 0usize..4,
        ) {
            let edge = 64 * QOH_LIMBS as u64;
            let (target, wide, spill) = match kind {
                0 => (Some(edge), false, seed % 2 == 0),
                1 => (Some(edge + 1), false, seed % 2 == 0),
                2 => (None, true, seed % 2 == 0),
                _ => (None, false, true),
            };
            let inst = qoh_with_bound(seed, n, target, wide, spill);
            let (scale, fits) = scale_and_width(&inst);
            let bits = qoh::scaled_bits(&inst, &scale);
            if let Some(target) = target {
                prop_assert_eq!(bits, target);
            }
            prop_assert_eq!(fits, !wide && bits <= edge);
            let perms: Vec<JoinSequence> =
                aqo_core::join::permutations(n).map(JoinSequence::new).collect();
            let each: Vec<_> = perms
                .iter()
                .map(|z| decomposition_parts(best_decomposition_bruteforce(&inst, z)))
                .collect();
            let mut optimum: Option<Parts> = None;
            for (z, d) in perms.iter().zip(&each) {
                if let Some((fragments, cost)) = d {
                    if optimum.as_ref().is_none_or(|b| *cost < b.2) {
                        optimum = Some((z.order().to_vec(), fragments.clone(), cost.clone()));
                    }
                }
            }
            prop_assert!(optimum.is_some());
            let big = ScaledView::<BigUint>::new(&inst, scale.clone());
            let mut runs = vec![searches_in(&big, &perms)];
            if fits {
                let view = ScaledView::<FixedUint<QOH_LIMBS>>::new(&inst, scale);
                runs.push(searches_in(&view, &perms));
            }
            for (exhaustive, greedy, got) in runs {
                prop_assert_eq!(&exhaustive, &optimum);
                let (order, fragments, cost) = greedy.expect("a feasible sequence exists");
                let at = perms.iter().position(|z| z.order() == order.as_slice()).unwrap();
                prop_assert_eq!(Some((fragments, cost)), each[at].clone());
                prop_assert_eq!(&got, &each);
            }
        }
    }
}

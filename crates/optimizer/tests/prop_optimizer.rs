//! Property tests for the optimizer crate: optimizer agreement, plan
//! validity, and dominance relations, over randomized instances.

use aqo_bignum::{BigInt, BigRational, BigUint, LogNum};
use aqo_core::budget::{Budget, BudgetKind};
use aqo_core::qoh::QoHInstance;
use aqo_core::qon::QoNInstance;
use aqo_core::{AccessCostMatrix, CostScalar, JoinSequence, SelectivityMatrix};
use aqo_graph::Graph;
use aqo_optimizer::{dp, engine, exhaustive, greedy, pipeline, star};
use proptest::prelude::*;

/// Strategy: a connected QO_N instance on 3..=7 vertices.
fn qon_instance() -> impl Strategy<Value = QoNInstance> {
    (3usize..=7, any::<u64>()).prop_map(|(n, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut g = Graph::new(n);
        for v in 1..n {
            g.add_edge((next() % v as u64) as usize, v);
        }
        for _ in 0..n / 2 {
            let u = (next() % n as u64) as usize;
            let v = (next() % n as u64) as usize;
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
        QoNInstance::new(g, sizes, s, w)
    })
}

/// Strategy: a path QO_H instance with random memory.
fn qoh_instance() -> impl Strategy<Value = QoHInstance> {
    (3usize..=6, 2u64..12, 30u64..3000).prop_map(|(n, den, mem)| {
        let mut g = Graph::new(n);
        let mut s = SelectivityMatrix::new();
        for v in 1..n {
            g.add_edge(v - 1, v);
            s.set(v - 1, v, BigRational::new(BigInt::one(), BigUint::from(den)));
        }
        QoHInstance::new(g, vec![BigUint::from(256u64); n], s, BigUint::from(mem))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn dp_equals_exhaustive(inst in qon_instance()) {
        let ex = exhaustive::optimize::<BigRational>(&inst);
        let d = dp::optimize::<BigRational>(&inst, true).unwrap();
        prop_assert_eq!(&ex.cost, &d.cost);
        // The reported sequences achieve the reported costs.
        let d_recost: BigRational = inst.total_cost(&d.sequence);
        prop_assert_eq!(&d_recost, &d.cost);
    }

    #[test]
    fn no_cartesian_optimum_dominates(inst in qon_instance()) {
        let free = dp::optimize::<BigRational>(&inst, true).unwrap();
        let restricted = dp::optimize::<BigRational>(&inst, false).unwrap();
        prop_assert!(free.cost <= restricted.cost);
        prop_assert!(!inst.has_cartesian_product(&restricted.sequence));
    }

    #[test]
    fn greedy_and_random_never_beat_optimum(inst in qon_instance(), seed in any::<u64>()) {
        let opt = dp::optimize::<BigRational>(&inst, true).unwrap();
        if let Some(z) = greedy::min_intermediate(&inst, true) {
            let c: BigRational = inst.total_cost(&z);
            prop_assert!(c >= opt.cost);
        }
        if let Some(z) = greedy::min_incremental_cost(&inst, true) {
            let c: BigRational = inst.total_cost(&z);
            prop_assert!(c >= opt.cost);
        }
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let z = greedy::random_sequence(inst.n(), &mut rng);
        let c: BigRational = inst.total_cost(&z);
        prop_assert!(c >= opt.cost);
    }

    #[test]
    fn log_dp_tracks_exact_dp(inst in qon_instance()) {
        let exact = dp::optimize::<BigRational>(&inst, true).unwrap();
        let log = dp::optimize::<LogNum>(&inst, true).unwrap();
        let recost: BigRational = inst.total_cost(&log.sequence);
        let diff = CostScalar::log2(&recost) - CostScalar::log2(&exact.cost);
        prop_assert!(diff.abs() < 1e-6, "diverged by {diff} bits");
    }

    #[test]
    fn qoh_decomposition_dp_is_exact(inst in qoh_instance()) {
        let z = JoinSequence::identity(inst.n());
        let dp_res = pipeline::best_decomposition(&inst, &z);
        let brute = pipeline::best_decomposition_bruteforce(&inst, &z);
        match (dp_res, brute) {
            (Some((_, a)), Some((_, b))) => prop_assert_eq!(a, b),
            (None, None) => {}
            other => prop_assert!(false, "feasibility mismatch: {other:?}"),
        }
    }

    #[test]
    fn qoh_greedy_never_beats_exhaustive(inst in qoh_instance()) {
        let greedy = pipeline::optimize_greedy(&inst);
        let exact = pipeline::optimize_exhaustive(&inst);
        match (greedy, exact) {
            (Some(g), Some(e)) => prop_assert!(g.cost >= e.cost),
            (None, Some(_)) => {} // heuristic may give up where search succeeds
            (Some(_), None) => prop_assert!(false, "greedy found a plan the search missed"),
            (None, None) => {}
        }
    }

    #[test]
    fn star_dp_plan_prices_correctly(seed in any::<u64>(), m in 1usize..5) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let len = m + 1;
        let tuples: Vec<BigUint> = (0..len).map(|_| BigUint::from(4 + next() % 60)).collect();
        let pages = tuples.clone();
        let ks = 4u64;
        let sort_cost: Vec<BigUint> = pages.iter().map(|b| b * &BigUint::from(ks)).collect();
        let mut selectivity = vec![BigRational::one()];
        for t in tuples.iter().skip(1) {
            let p = 1 + next() % 3;
            selectivity
                .push(BigRational::new(BigInt::from(p.min(t.to_u64().unwrap())), t.clone()));
        }
        let w: Vec<BigUint> = (0..len).map(|_| BigUint::from(1 + next() % 15)).collect();
        let w0: Vec<BigUint> = (0..len).map(|_| BigUint::from(1 + next() % 15)).collect();
        let inst = aqo_core::sqo::SqoCpInstance::new(ks, tuples, pages, sort_cost, selectivity, w, w0);
        let (plan, cost) = star::optimize(&inst);
        prop_assert_eq!(inst.plan_cost(&plan), cost);
        if m <= 4 {
            let (_, ex) = star::optimize_exhaustive(&inst);
            prop_assert_eq!(ex, star::optimize(&inst).1);
        }
    }
}

/// A QO_H instance on `n` relations shaped as a chain (`shape` 0), a star
/// (1) or a cycle (2), with η = 1/2, random sizes and selectivities, and
/// memory in one of four regimes: 0 the product of all sizes (every
/// fragment fits); 1 tight (the largest `hjmin` plus a little, so long
/// pipelines split); 2 tight with one relation grown until `hjmin > M`;
/// 3 the same with two such relations, where no sequence is feasible.
fn qoh_shaped(n: usize, shape: u8, regime: u8, seed: u64) -> QoHInstance {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge(if shape == 1 { 0 } else { v - 1 }, v);
    }
    if shape == 2 && n >= 3 {
        g.add_edge(n - 1, 0);
    }
    let mut s = SelectivityMatrix::new();
    for (u, v) in g.edges().collect::<Vec<_>>() {
        s.set(u, v, BigRational::new(BigInt::one(), BigUint::from(2 + next() % 11)));
    }
    let mut sizes: Vec<BigUint> = (0..n).map(|_| BigUint::from(2 + next() % 400)).collect();
    let memory = if regime == 0 {
        sizes.iter().fold(BigUint::one(), |acc, t| &acc * t)
    } else {
        let max_hj = sizes.iter().map(|t| t.root_pow_ceil(1, 2)).max().expect("n >= 2");
        let slack = BigUint::from(next() % (max_hj.to_u64().expect("small") + 1));
        let m = &max_hj + &slack;
        let unbuildable = (&m + &BigUint::one()).pow(2);
        let first = (next() % n as u64) as usize;
        for v in [first, (first + 1) % n].into_iter().take(usize::from(regime.saturating_sub(1))) {
            sizes[v] = unbuildable.clone();
        }
        m
    };
    QoHInstance::new(g, sizes, s, memory)
}

/// A QO_H plan as (sequence, fragments, cost), compared field by field.
type PlanParts = (Vec<usize>, Vec<(usize, usize)>, BigRational);

/// The exhaustive search as it was before the prefix DP: every permutation
/// in lexicographic order, each decomposed from scratch with the
/// allocate-then-cost pair, the first cheapest winning.
fn per_permutation_reference(inst: &QoHInstance) -> Option<PlanParts> {
    let n = inst.n();
    let mut best: Option<PlanParts> = None;
    for perm in aqo_core::join::permutations(n) {
        let z = JoinSequence::new(perm);
        if !inst.sequence_feasible(&z) {
            continue;
        }
        let inter: Vec<BigRational> = inst.intermediates(&z);
        let mut dp: Vec<Option<(BigRational, usize)>> = vec![None; n];
        dp[0] = Some((BigRational::zero(), 0));
        for k in 1..n {
            for i in 1..=k {
                let Some((prev, _)) = dp[i - 1].clone() else { continue };
                let Some(alloc) = inst.optimal_allocation(&z, (i, k), &inter) else { continue };
                let frag = inst.fragment_cost(&z, (i, k), &alloc, &inter).expect("feasible");
                let cand = &prev + &frag;
                if dp[k].as_ref().is_none_or(|(cur, _)| cand < *cur) {
                    dp[k] = Some((cand, i));
                }
            }
        }
        let (cost, _) = dp[n - 1].clone().expect("feasible sequence");
        if best.as_ref().is_none_or(|(_, _, b)| cost < *b) {
            let mut fragments = Vec::new();
            let mut k = n - 1;
            while k >= 1 {
                let i = dp[k].as_ref().expect("reached").1;
                fragments.insert(0, (i, k));
                k = i - 1;
            }
            best = Some((z.order().to_vec(), fragments, cost));
        }
    }
    best
}

/// Runs the exhaustive search with metrics on in a fresh scope; returns
/// the plan and the `(sequences_costed, sequences_infeasible)` counters,
/// which the workers report into that scope at any thread count.
fn exhaustive_with_counters(
    inst: &QoHInstance,
    threads: usize,
) -> (Option<pipeline::QohPlan>, (u64, u64)) {
    let _scope = aqo_obs::Scope::new().install();
    aqo_obs::set_enabled(true);
    let plan = pipeline::optimize_exhaustive_par_with_budget(inst, threads, &Budget::unlimited())
        .expect("unlimited budget cannot be exceeded");
    let counter = |name: &str| {
        aqo_obs::counters_snapshot().into_iter().find(|(n, _)| n == name).map_or(0, |(_, v)| v)
    };
    let tally = (
        counter("optimizer.pipeline.sequences_costed"),
        counter("optimizer.pipeline.sequences_infeasible"),
    );
    (plan, tally)
}

/// The prefix search against the reference and, when `brute` is set, the
/// every-partition oracle (2^(n−2) decompositions of each of the n!
/// sequences); at 1, 2 and 4 threads; counting n! sequences; and ticking
/// the budget exactly n! times.
fn check_prefix_search(inst: &QoHInstance, regime: u8, brute: bool) {
    let n = inst.n();
    let fact: u64 = (1..=n as u64).product();
    let expect = per_permutation_reference(inst);
    if regime == 3 {
        assert!(expect.is_none(), "two unbuildable relations admit no sequence");
    }
    if brute {
        // Each sequence's single-path DP against the oracle, then the
        // search's optimum against the cheapest of them.
        let mut brute_min: Option<BigRational> = None;
        for perm in aqo_core::join::permutations(n) {
            let z = JoinSequence::new(perm);
            let oracle = pipeline::best_decomposition_bruteforce(inst, &z).map(|(_, c)| c);
            assert_eq!(pipeline::best_decomposition(inst, &z).map(|(_, c)| c), oracle);
            brute_min = brute_min.into_iter().chain(oracle).min();
        }
        assert_eq!(expect.as_ref().map(|e| e.2.clone()), brute_min);
    }
    for threads in [1usize, 2, 4] {
        let (plan, (costed, infeasible)) = exhaustive_with_counters(inst, threads);
        let got = plan
            .map(|p| (p.sequence.order().to_vec(), p.decomposition.fragments().to_vec(), p.cost));
        assert_eq!(got, expect, "regime {regime} threads {threads}");
        assert_eq!(costed + infeasible, fact, "threads {threads}");
    }
    let tight = Budget::unlimited().with_max_expansions(fact - 1);
    let err = pipeline::optimize_exhaustive_with_budget(inst, &tight).unwrap_err();
    assert_eq!(err.kind, BudgetKind::Expansions);
    let exact = Budget::unlimited().with_max_expansions(fact);
    assert!(pipeline::optimize_exhaustive_with_budget(inst, &exact).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn qoh_prefix_search_is_exact_and_ticks_n_factorial(
        n in 2usize..=6,
        shape in 0u8..3,
        regime in 0u8..4,
        seed in any::<u64>(),
    ) {
        check_prefix_search(&qoh_shaped(n, shape, regime, seed), regime, true);
    }
}

#[test]
fn qoh_prefix_search_is_exact_at_seven_relations() {
    // A cycle in tight memory, so fragments both split and run out of
    // room. The reference carries it alone: the every-partition oracle
    // would cost 32 decompositions of each of 5,040 sequences.
    check_prefix_search(&qoh_shaped(7, 2, 1, 5), 1, false);
}

#[test]
fn qoh_decomposition_ties_go_to_the_lowest_fragment_start() {
    // t = (4, 4, 4), s = 1/4, M = 6: one pipeline J_1..J_2 and two
    // singleton fragments both cost 24. The DP keeps the lowest fragment
    // start, i.e. the single pipeline, in the search as in the reference.
    let mut g = Graph::new(3);
    let mut s = SelectivityMatrix::new();
    for v in 1..3 {
        g.add_edge(v - 1, v);
        s.set(v - 1, v, BigRational::new(BigInt::one(), BigUint::from(4u64)));
    }
    let inst = QoHInstance::new(g, vec![BigUint::from(4u64); 3], s, BigUint::from(6u64));
    let (decomp, cost) = pipeline::best_decomposition(&inst, &JoinSequence::identity(3)).unwrap();
    assert_eq!((decomp.fragments(), cost), (&[(1, 2)][..], BigRational::from(24u64)));
    check_prefix_search(&inst, 1, true);
}

/// A QO_H instance for checking the scaled decomposition DP against the
/// `BigRational` reference, on `n` relations shaped as a chain (`shape`
/// 0), a star (1), a cycle (2) or a random tree (3), with
/// `η = (1/3, 1/2, 2/3)[eta]`. Sizes include 1 and the small sizes whose
/// `hjmin` is the whole relation (`room = 0`); selectivities are 1, `1/q`
/// or `p/q` with `p > 1`. With `ties` every size and every selectivity is
/// the same. Memory `regime`: 0 the product of all sizes (every fragment
/// fits); 1 tight (the largest `hjmin` plus a little, so fragments split
/// and joins fill partly); 2 between `Σ hjmin` and `Σ t` (long fragments
/// with partial fills); 3 tight with one or two relations grown until
/// `hjmin > M`.
fn qoh_varied(n: usize, shape: u8, regime: u8, eta: u8, ties: bool, seed: u64) -> QoHInstance {
    let mut state = seed | 1;
    let mut next = move |m: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let eta = [(1u32, 3u32), (1, 2), (2, 3)][usize::from(eta)];
    let mut g = Graph::new(n);
    for v in 1..n {
        let u = match shape {
            0 | 2 => v - 1,
            1 => 0,
            _ => next(v as u64) as usize,
        };
        g.add_edge(u, v);
    }
    if shape == 2 && n >= 3 {
        g.add_edge(n - 1, 0);
    }
    let mut sel = || match next(5) {
        0 => BigRational::one(),
        1 | 2 => BigRational::new(BigInt::one(), BigUint::from(2 + next(11))),
        _ => {
            let q = 3 + next(10);
            BigRational::new(BigInt::from(2 + next(q - 2)), BigUint::from(q))
        }
    };
    let size = |next: &mut dyn FnMut(u64) -> u64| match next(6) {
        0 => BigUint::one(),
        1 => BigUint::from(2 + next(2)),
        _ => BigUint::from(4 + next(400)),
    };
    let tied_sel = sel();
    let mut s = SelectivityMatrix::new();
    for (u, v) in g.edges().collect::<Vec<_>>() {
        s.set(u, v, if ties { tied_sel.clone() } else { sel() });
    }
    let tied_size = size(&mut next);
    let mut sizes: Vec<BigUint> =
        (0..n).map(|_| if ties { tied_size.clone() } else { size(&mut next) }).collect();
    let hjmin = |t: &BigUint| t.root_pow_ceil(eta.0, eta.1);
    let max_hj = sizes.iter().map(hjmin).max().expect("n >= 2");
    let sum = |f: &dyn Fn(&BigUint) -> BigUint| sizes.iter().fold(BigUint::zero(), |a, t| &a + &f(t));
    let memory = match regime {
        0 => sizes.iter().fold(BigUint::one(), |acc, t| &acc * t),
        2 => {
            let (lo, hi) = (sum(&hjmin), sum(&|t| t.clone()));
            let span = (&hi - &lo).to_u64().expect("small") + 1;
            &lo + &BigUint::from(next(span))
        }
        _ => &max_hj + &BigUint::from(next(max_hj.to_u64().expect("small") + 1)),
    };
    if regime == 3 {
        // `t = (M + 1)^den` has `hjmin(t) = (M + 1)^num > M`.
        let unbuildable = (&memory + &BigUint::one()).pow(u64::from(eta.1));
        let first = next(n as u64) as usize;
        for v in [first, (first + 1) % n].into_iter().take(1 + next(2) as usize) {
            sizes[v] = unbuildable.clone();
        }
    }
    QoHInstance::with_eta(g, sizes, s, memory, eta)
}

/// The exhaustive optimum from the reference alone: every permutation in
/// lexicographic order, each with its every-partition decomposition, the
/// first cheapest winning.
fn bruteforce_optimum(inst: &QoHInstance) -> Option<PlanParts> {
    let mut best: Option<PlanParts> = None;
    for perm in aqo_core::join::permutations(inst.n()) {
        let z = JoinSequence::new(perm);
        if let Some((decomp, cost)) = pipeline::best_decomposition_bruteforce(inst, &z) {
            if best.as_ref().is_none_or(|b| cost < b.2) {
                best = Some((z.order().to_vec(), decomp.fragments().to_vec(), cost));
            }
        }
    }
    best
}

fn parts(plan: pipeline::QohPlan) -> PlanParts {
    (plan.sequence.order().to_vec(), plan.decomposition.fragments().to_vec(), plan.cost)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scaled_decomposition_matches_bruteforce(
        n in 2usize..=7,
        shape in 0u8..4,
        regime in 0u8..4,
        eta in 0u8..3,
        ties in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let inst = qoh_varied(n, shape, regime, eta, ties, seed);
        // The identity and one seeded permutation; the lowest fragment
        // start wins ties in the DP, the lowest boundary mask in the
        // reference: the same decomposition.
        let mut orders = vec![(0..n).collect::<Vec<_>>()];
        let mut shuffled = orders[0].clone();
        shuffled.rotate_left((seed % n as u64) as usize);
        shuffled.swap(0, n - 1);
        orders.push(shuffled);
        for order in orders {
            let z = JoinSequence::new(order);
            let got = pipeline::best_decomposition(&inst, &z);
            let want = pipeline::best_decomposition_bruteforce(&inst, &z);
            prop_assert_eq!(
                got.map(|(d, c)| (d.fragments().to_vec(), c)),
                want.map(|(d, c)| (d.fragments().to_vec(), c))
            );
        }
    }

    #[test]
    fn scaled_exhaustive_matches_bruteforce_minimum(
        n in 2usize..=6,
        shape in 0u8..4,
        regime in 0u8..4,
        eta in 0u8..3,
        ties in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let inst = qoh_varied(n, shape, regime, eta, ties, seed);
        let want = bruteforce_optimum(&inst);
        prop_assert_eq!(pipeline::optimize_exhaustive(&inst).map(parts), want);
        // The greedy reuses one prefix DP across its swaps; the plan it
        // reports must be its sequence's true optimal decomposition.
        if let Some(g) = pipeline::optimize_greedy(&inst) {
            let reference = pipeline::best_decomposition_bruteforce(&inst, &g.sequence)
                .map(|(d, c)| (d.fragments().to_vec(), c));
            prop_assert_eq!(Some((g.decomposition.fragments().to_vec(), g.cost)), reference);
        }
    }
}

/// A series of `len` permutations of `0..n`, each keeping a prefix of
/// random length of the one before and shuffling the rest: one prefix DP
/// walking it moves forward and back, reusing rows a longer or a shorter
/// prefix left behind.
fn prefix_walk(n: usize, len: usize, seed: u64) -> Vec<JoinSequence> {
    let mut state = seed | 1;
    let mut next = move |m: usize| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize % m
    };
    let mut order: Vec<usize> = (0..n).collect();
    let mut walk = Vec::with_capacity(len);
    for _ in 0..len {
        let keep = next(n + 1);
        for i in (keep + 1..n).rev() {
            let j = keep + next(i - keep + 1);
            order.swap(i, j);
        }
        walk.push(JoinSequence::new(order.clone()));
    }
    walk
}

type Decomposition = Option<(Vec<(usize, usize)>, BigRational)>;

fn decomposition(d: Option<(aqo_core::qoh::PipelineDecomposition, BigRational)>) -> Decomposition {
    d.map(|(d, c)| (d.fragments().to_vec(), c))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scaled_reuse_prefix_dp_matches_fresh_runs(
        n in 2usize..=7,
        shape in 0u8..4,
        regime in 0u8..4,
        eta in 0u8..3,
        ties in any::<bool>(),
        seed in any::<u64>(),
        len in 1usize..8,
    ) {
        let inst = qoh_varied(n, shape, regime, eta, ties, seed);
        let walk = prefix_walk(n, len, seed.rotate_left(17));
        let reused = pipeline::best_decompositions(&inst, &walk);
        prop_assert_eq!(reused.len(), walk.len());
        for (z, got) in walk.iter().zip(reused) {
            let got = decomposition(got);
            prop_assert_eq!(&got, &decomposition(pipeline::best_decomposition(&inst, z)));
            prop_assert_eq!(
                &got,
                &decomposition(pipeline::best_decomposition_bruteforce(&inst, z))
            );
        }
    }

    #[test]
    fn scaled_reuse_engine_interleaves_instances(
        a in qon_instance(),
        b in qon_instance(),
        allow_cartesian in any::<bool>(),
        threads in 1usize..=2,
    ) {
        let instances = [&a, &b];
        let plan = |o: aqo_optimizer::Optimum<BigRational>| (o.sequence.order().to_vec(), o.cost);
        let want =
            instances.map(|inst| dp::optimize::<BigRational>(inst, allow_cartesian).map(plan));
        let opts = engine::DpOptions { allow_cartesian, threads };
        for i in [0usize, 1, 1, 0, 1, 0] {
            let got = engine::optimize_two_phase::<BigRational>(
                instances[i],
                &opts,
                &Budget::unlimited(),
            )
            .expect("unlimited budget cannot be exceeded");
            prop_assert_eq!(&got.map(plan), &want[i], "instance {}", i);
        }
    }
}

#[test]
fn fh_reduction_optima_are_pinned() {
    // E9b's two families (ω = 4 and the Turán graph T(6, 3), b = 2^12):
    // n = 7 and a scale `K` of over a thousand bits. The costs are the
    // ones the `BigRational` search returned.
    use aqo_graph::generators;
    use aqo_reductions::fh_reduction;
    let b = BigUint::from(2u64).pow(12);
    let cases = [
        (
            generators::dense_known_omega(6, 4),
            "11779303984949684258943348363023394207835581952512169754318934925974525269/357913941",
        ),
        (
            generators::turan(6, 3),
            "72398546384629361236104171445138129149390067488824829234456251126851523575807/\
             1073741823",
        ),
    ];
    for (g, cost) in cases {
        let red = fh_reduction::reduce(&g, &b);
        let plan = pipeline::optimize_exhaustive(&red.instance).expect("feasible");
        assert_eq!(plan.cost.to_string(), cost);
        assert_eq!(plan.sequence.order(), &[6, 0, 1, 2, 3, 4, 5]);
        assert_eq!(plan.decomposition.fragments(), &[(1, 1), (2, 6)]);
    }
}

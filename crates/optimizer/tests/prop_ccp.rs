//! Properties of the engine's connected mode (DPccp: connected-subgraph
//! enumeration correctness).
//!
//! Two families of checks:
//!
//! 1. **Enumeration exactness** — `optimizer.engine.subsets_expanded` after
//!    a cartesian-free run (and
//!    [`aqo_optimizer::ccp::connected_subset_count`]) must equal a
//!    brute-force scan that tests every one of the `2^n − 1` nonempty
//!    subsets for induced connectivity; with cartesian products it is
//!    `2^n − 1` itself. The DP is only exact because the
//!    frontier covers *every* connected subgraph; an off-by-one here is a
//!    silent wrong answer, not a crash.
//! 2. **Cost agreement** — the plan cost returned by `ccp` equals the
//!    sequential `dp` oracle and the all-subsets `engine` on chains,
//!    cycles, cliques, and random sparse graphs, at 1/2/4 threads.

use aqo_bignum::{BigInt, BigRational, BigUint};
use aqo_core::budget::Budget;
use aqo_core::qon::QoNInstance;
use aqo_core::{AccessCostMatrix, SelectivityMatrix};
use aqo_graph::Graph;
use aqo_optimizer::{ccp, dp, engine};
use proptest::prelude::*;

fn instance_from_graph(g: Graph, seed: u64) -> QoNInstance {
    let n = g.n();
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let sizes: Vec<BigUint> = (0..n).map(|_| BigUint::from(2 + next() % 50)).collect();
    let mut s = SelectivityMatrix::new();
    let mut w = AccessCostMatrix::new();
    for (u, v) in g.edges().collect::<Vec<_>>() {
        let sel = BigRational::new(BigInt::one(), BigUint::from(2 + next() % 11));
        s.set(u, v, sel.clone());
        for (j, k) in [(u, v), (v, u)] {
            let lower = (BigRational::from(sizes[j].clone()) * &sel).ceil();
            w.set(j, k, lower.magnitude().clone());
        }
    }
    QoNInstance::new(g, sizes, s, w)
}

fn chain(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge(v - 1, v);
    }
    g
}

fn cycle(n: usize) -> Graph {
    let mut g = chain(n);
    g.add_edge(n - 1, 0);
    g
}

fn clique(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in u + 1..n {
            g.add_edge(u, v);
        }
    }
    g
}

/// Random sparse graph: a spanning tree (random parent per vertex) plus a
/// few extra edges — connected, with edge count well below the clique's.
fn sparse(n: usize, seed: u64) -> Graph {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge((next() % v as u64) as usize, v);
    }
    for _ in 0..n / 3 {
        let u = (next() % n as u64) as usize;
        let v = (next() % n as u64) as usize;
        if u != v {
            g.add_edge(u, v);
        }
    }
    g
}

/// Brute force: count nonempty vertex subsets whose induced subgraph is
/// connected, by scanning all `2^n − 1` masks and flood-filling each.
fn brute_force_connected_count(g: &Graph) -> u64 {
    let n = g.n();
    assert!(n <= 20, "brute force scans 2^n masks");
    let nbr: Vec<u32> = (0..n)
        .map(|v| g.neighbors(v).iter().fold(0u32, |m, k| m | (1 << k)))
        .collect();
    let mut count = 0u64;
    for mask in 1u32..(1u32 << n) {
        let start = mask.trailing_zeros() as usize;
        let mut reached = 1u32 << start;
        loop {
            let mut grown = reached;
            let mut rest = reached;
            while rest != 0 {
                let v = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                grown |= nbr[v] & mask;
            }
            if grown == reached {
                break;
            }
            reached = grown;
        }
        if reached == mask {
            count += 1;
        }
    }
    count
}

/// Runs the engine with metrics collection on in a fresh scope; returns
/// the plan (if feasible) and the `optimizer.engine.subsets_expanded`
/// counter.
fn run_with_counter(
    inst: &QoNInstance,
    allow_cartesian: bool,
    threads: usize,
) -> (Option<aqo_optimizer::Optimum<BigRational>>, u64) {
    let _scope = aqo_obs::Scope::new().install();
    aqo_obs::set_enabled(true);
    let opts = engine::DpOptions { allow_cartesian, threads };
    let opt = engine::optimize_two_phase::<BigRational>(inst, &opts, &Budget::unlimited())
        .expect("unlimited budget cannot be exceeded");
    let expanded = aqo_obs::counters_snapshot()
        .into_iter()
        .find(|(name, _)| name == "optimizer.engine.subsets_expanded")
        .map(|(_, v)| v)
        .expect("an engine run emits its expansion counter");
    (opt, expanded)
}

#[test]
fn subsets_expanded_equals_brute_force_on_fixed_families() {
    let cases: Vec<(Graph, u64)> = vec![
        (chain(9), 45),           // n(n+1)/2
        (chain(11), 66),
        (cycle(9), 73),           // n(n−1)+1
        (clique(8), 255),         // 2^n − 1
        (sparse(10, 3), 0),       // closed form unknown: brute force below
        (sparse(12, 17), 0),
    ];
    for (g, closed_form) in cases {
        let expect = brute_force_connected_count(&g);
        if closed_form != 0 {
            assert_eq!(expect, closed_form, "closed form disagrees with scan");
        }
        let inst = instance_from_graph(g, 23);
        assert_eq!(ccp::connected_subset_count(&inst), expect);
        let (_, expanded) = run_with_counter(&inst, false, 2);
        assert_eq!(expanded, expect, "counter diverged from brute force");
        // With cartesian products every nonempty subset is a state.
        let (_, expanded) = run_with_counter(&inst, true, 2);
        assert_eq!(expanded, (1u64 << inst.n()) - 1, "all-subsets count");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn subsets_expanded_equals_brute_force_on_random_sparse(
        seed in any::<u64>(),
        n in 3usize..=11,
    ) {
            let g = sparse(n, seed);
        let expect = brute_force_connected_count(&g);
        let inst = instance_from_graph(g, seed ^ 0xabcd);
        prop_assert_eq!(ccp::connected_subset_count(&inst), expect);
        let (opt, expanded) = run_with_counter(&inst, false, 1);
        prop_assert_eq!(expanded, expect);
        // The generator always builds a spanning tree, so a cartesian-free
        // sequence exists and the tier must find one.
        prop_assert!(opt.is_some());
    }

    #[test]
    fn ccp_cost_equals_dp_and_engine_on_all_families(
        seed in any::<u64>(),
        n in 3usize..=9,
        family in 0usize..4,
    ) {
            let g = match family {
            0 => chain(n),
            1 => cycle(n),
            2 => clique(n),
            _ => sparse(n, seed),
        };
        let inst = instance_from_graph(g, seed);
        let oracle = dp::optimize::<BigRational>(&inst, false);
        let opts = engine::DpOptions { allow_cartesian: false, threads: 2 };
        let eng = engine::optimize_two_phase::<BigRational>(&inst, &opts, &Budget::unlimited())
            .expect("unlimited budget cannot be exceeded");
        for threads in [1usize, 2, 4] {
            let got = ccp::optimize_two_phase::<BigRational>(&inst, threads, &Budget::unlimited())
                .expect("unlimited budget cannot be exceeded");
            match (&oracle, &got) {
                (Some(a), Some(b)) => {
                    prop_assert_eq!(&a.cost, &b.cost, "family {} threads {}", family, threads);
                    prop_assert!(!inst.has_cartesian_product(&b.sequence));
                    let recost: BigRational = inst.total_cost(&b.sequence);
                    prop_assert_eq!(&recost, &b.cost);
                }
                (None, None) => {}
                other => prop_assert!(false, "feasibility mismatch: {:?}", other),
            }
        }
        match (&oracle, &eng) {
            (Some(a), Some(e)) => prop_assert_eq!(&a.cost, &e.cost),
            (None, None) => {}
            other => prop_assert!(false, "engine mismatch: {:?}", other),
        }
    }
}

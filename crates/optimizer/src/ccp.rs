//! DPccp's state space: the connected subgraphs of the query graph.
//!
//! Moerkotte & Neumann's DPccp observation, specialized to QO_N's
//! left-deep sequences: under the no-cartesian-product rule a join
//! sequence is feasible exactly when every prefix induces a *connected*
//! subgraph of the query graph, so the subset DP only ever needs DP states
//! for connected subgraphs. [`crate::engine`] enumerates them directly
//! (`FrontierMode::Connected`) whenever a request disallows cartesian
//! products. A chain has `n(n+1)/2` connected subsets and a cycle
//! `n(n−1)+1`, versus `2^n − 1` subsets overall: on the paper's §6 sparse
//! families the state space collapses from exponential to quadratic, which
//! is what pushes exact optimization past n=25.
//!
//! This module keeps the connected mode's cap, [`connected_subset_count`]
//! (the mode's exact DP state count, and so the value of
//! `optimizer.engine.subsets_expanded` after a cartesian-free run), and
//! [`optimize_two_phase`], a forward to the engine.

use crate::engine::{self, nbr_masks, FrontierMode, Frontiers};
use crate::Optimum;
use aqo_core::budget::{run_unlimited, Budget, BudgetExceeded};
use aqo_core::qon::QoNInstance;
use aqo_core::CostScalar;

/// Hard cap on `n`: subset masks are `u32`. Unlike the all-subsets
/// engine, nothing here is sized `2^n`, so the full mask width is usable
/// — a 32-chain has 528 connected subsets. Larger instances need wider
/// masks and a structured rejection upstream (driver/CLI), not silent
/// wraparound.
pub const MAX_N: usize = 32;

/// [`engine::optimize_two_phase`] over the cartesian-free sequence space.
pub fn optimize_two_phase<S: CostScalar + Send + Sync>(
    inst: &QoNInstance,
    threads: usize,
    budget: &Budget,
) -> Result<Option<Optimum<S>>, BudgetExceeded> {
    engine::optimize_two_phase(inst, &engine::DpOptions { allow_cartesian: false, threads }, budget)
}

/// Number of connected subgraphs of the instance's query graph
/// (singletons included) — the exact DP state count of the connected
/// mode, and the value `optimizer.engine.subsets_expanded` reports after
/// a cartesian-free run.
pub fn connected_subset_count(inst: &QoNInstance) -> u64 {
    let nbr = nbr_masks(inst);
    run_unlimited(|b| Frontiers::build(inst.n(), &nbr, FrontierMode::Connected, b))
        .total_subsets()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp;
    use aqo_bignum::{BigInt, BigRational, BigUint, LogNum};
    use aqo_core::{AccessCostMatrix, SelectivityMatrix};
    use aqo_graph::Graph;

    fn instance_from_graph(g: Graph, seed: u64) -> QoNInstance {
        let n = g.n();
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
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

    #[test]
    fn connected_counts_on_closed_forms() {
        // Chain: intervals only, n(n+1)/2. Cycle: n(n−1)+1. Clique: 2^n−1.
        for n in [2usize, 5, 9, 14] {
            let inst = instance_from_graph(chain(n), 1);
            assert_eq!(connected_subset_count(&inst), (n * (n + 1) / 2) as u64);
        }
        for n in [3usize, 5, 9, 14] {
            let inst = instance_from_graph(cycle(n), 1);
            assert_eq!(connected_subset_count(&inst), (n * (n - 1) + 1) as u64);
        }
        let mut k = Graph::new(5);
        for u in 0..5 {
            for v in u + 1..5 {
                k.add_edge(u, v);
            }
        }
        assert_eq!(connected_subset_count(&instance_from_graph(k, 1)), 31);
    }

    #[test]
    fn matches_sequential_dp_on_chain_cycle_random() {
        let mut graphs = vec![chain(7), cycle(7)];
        for seed in 0..4u64 {
            let mut state = seed * 9973 + 1;
            let mut next = move || {
                state =
                    state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state >> 33
            };
            let mut g = chain(7);
            for _ in 0..3 {
                let u = (next() % 7) as usize;
                let v = (next() % 7) as usize;
                if u != v {
                    g.add_edge(u, v);
                }
            }
            graphs.push(g);
        }
        for (gi, g) in graphs.into_iter().enumerate() {
            let inst = instance_from_graph(g, gi as u64 + 3);
            let oracle = dp::optimize::<BigRational>(&inst, false);
            for threads in [1usize, 2, 4] {
                let got =
                    optimize_two_phase::<BigRational>(&inst, threads, &Budget::unlimited())
                        .unwrap();
                match (&oracle, &got) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.cost, b.cost, "graph {gi} threads {threads}");
                        assert!(!inst.has_cartesian_product(&b.sequence));
                        let recost: BigRational = inst.total_cost(&b.sequence);
                        assert_eq!(recost, b.cost);
                    }
                    (None, None) => {}
                    other => panic!("feasibility mismatch: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn disconnected_graph_is_infeasible() {
        let mut g = Graph::new(6);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        g.add_edge(4, 5);
        let inst = instance_from_graph(g, 11);
        assert!(optimize_two_phase::<BigRational>(&inst, 2, &Budget::unlimited())
            .unwrap()
            .is_none());
        assert_eq!(connected_subset_count(&inst), 9); // 6 singletons + 3 edges
    }

    #[test]
    fn single_vertex_and_lognum_backend() {
        let inst = instance_from_graph(Graph::new(1), 5);
        let opt = optimize_two_phase::<BigRational>(&inst, 1, &Budget::unlimited())
            .unwrap()
            .unwrap();
        assert!(opt.cost.is_zero());
        let inst = instance_from_graph(chain(10), 7);
        let log = optimize_two_phase::<LogNum>(&inst, 2, &Budget::unlimited())
            .unwrap()
            .unwrap();
        let seq = dp::optimize::<LogNum>(&inst, false).unwrap();
        assert!((log.cost.log2() - seq.cost.log2()).abs() < 1e-9);
    }

    #[test]
    fn expansion_cap_trips() {
        let inst = instance_from_graph(chain(16), 13);
        let budget = Budget::unlimited().with_max_expansions(50);
        let err = optimize_two_phase::<BigRational>(&inst, 2, &budget).unwrap_err();
        assert_eq!(err.kind, aqo_core::budget::BudgetKind::Expansions);
    }

    #[test]
    fn large_chain_stays_cheap() {
        // n=30 would be hopeless for the 2^n engine; the connected
        // frontier holds only 465 states.
        let inst = instance_from_graph(chain(30), 17);
        let budget = Budget::unlimited();
        let opt = optimize_two_phase::<BigRational>(&inst, 1, &budget).unwrap().unwrap();
        let recost: BigRational = inst.total_cost(&opt.sequence);
        assert_eq!(recost, opt.cost);
        assert_eq!(connected_subset_count(&inst), 465);
        // Frontier-sized tables: far below even one dense layer of 2^30.
        assert!(budget.memory_charged() < 1 << 20, "{}", budget.memory_charged());
    }
}

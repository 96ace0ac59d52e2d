//! Quickstart: build a QO_N instance by hand, evaluate join sequences under
//! the paper's nested-loops cost model, and find the optimum two ways.
//!
//! ```text
//! cargo run --release -p aqo-bench --example quickstart
//! ```

use aqo_bignum::{BigInt, BigRational, BigUint};
use aqo_core::qon::QoNInstance;
use aqo_core::{AccessCostMatrix, CostScalar, JoinSequence, SelectivityMatrix};
use aqo_graph::Graph;
use aqo_optimizer::{dp, exhaustive, greedy};

fn main() {
    // A 5-relation cycle query: orders ⋈ customers ⋈ items ⋈ suppliers ⋈ regions,
    // with a predicate closing the cycle.
    let names = ["orders", "customers", "items", "suppliers", "regions"];
    let n = names.len();
    let mut graph = Graph::new(n);
    let mut sel = SelectivityMatrix::new();
    let mut acc = AccessCostMatrix::new();
    let sizes: Vec<BigUint> =
        [50_000u64, 5_000, 200_000, 1_000, 25].iter().map(|&t| BigUint::from(t)).collect();

    // Edges with selectivities 1/d; access costs at the model's lower bound
    // w(j,k) = ceil(t_j·s_jk) (an index lookup).
    let edges = [(0, 1, 5_000u64), (0, 2, 200_000), (2, 3, 1_000), (3, 4, 25), (4, 1, 5_000)];
    for &(u, v, d) in &edges {
        graph.add_edge(u, v);
        let s = BigRational::new(BigInt::one(), BigUint::from(d));
        sel.set(u, v, s.clone());
        for (j, k) in [(u, v), (v, u)] {
            let w = (BigRational::from(sizes[j].clone()) * &s).ceil();
            acc.set(j, k, w.magnitude().clone());
        }
    }
    let inst = QoNInstance::new(graph, sizes, sel, acc);

    println!("Query graph: {} relations, {} predicates\n", inst.n(), inst.graph().m());

    // Cost a hand-written plan.
    let naive = JoinSequence::identity(n);
    let report = inst.cost::<BigRational>(&naive);
    println!("naive order {:?}:", names);
    for (i, h) in report.per_join.iter().enumerate() {
        println!("  J{} brings {:10}  H = {}", i + 1, names[naive.at(i + 1)], h);
    }
    println!("  total C(Z) = {}\n", report.total);

    // Exact optimization two ways: exhaustive and subset DP.
    let best_exh = exhaustive::optimize::<BigRational>(&inst);
    let best_dp = dp::optimize::<BigRational>(&inst, true).unwrap();
    assert_eq!(best_exh.cost, best_dp.cost);
    let order: Vec<&str> = best_dp.sequence.order().iter().map(|&v| names[v]).collect();
    println!("optimal order  : {order:?}");
    println!("optimal cost   : {}", best_dp.cost);
    println!(
        "naive/optimal  : {:.1}x\n",
        (CostScalar::log2(&report.total) - CostScalar::log2(&best_dp.cost)).exp2()
    );

    // A polynomial-time heuristic for comparison.
    let g = greedy::min_intermediate(&inst, true).unwrap();
    let g_cost: BigRational = inst.total_cost(&g);
    let g_order: Vec<&str> = g.order().iter().map(|&v| names[v]).collect();
    println!("greedy order   : {g_order:?}");
    println!("greedy cost    : {g_cost}  ({:+.1} bits vs optimal)",
        CostScalar::log2(&g_cost) - CostScalar::log2(&best_dp.cost));
}

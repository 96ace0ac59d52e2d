//! The Ibaraki–Kameda / Krishnamurthy–Boral–Zaniolo (IKKBZ) algorithm:
//! polynomial-time *optimal* join ordering for acyclic query graphs.
//!
//! The paper's §6.3 contrasts its hardness results with [1] (Ibaraki–Kameda)
//! and [6] (KBZ), which optimize tree queries in polynomial time: hardness
//! needs `e(m) ≥ m + Θ(m^τ)` edges, while trees have `m − 1`. This module
//! implements that easy side.
//!
//! For a tree query rooted at `r`, every cartesian-product-free sequence is
//! a topological order; joining node `j` (parent `p(j)` already present)
//! costs `N(X)·w_{j,p(j)}` and multiplies the running intermediate by
//! `f_j = t_j·s_{j,p(j)}`. This cost function has the *adjacent sequence
//! interchange* (ASI) property with rank `rank(M) = (T(M) − 1)/C(M)` where,
//! for a module (subsequence) `M`, `C(AB) = C(A) + T(A)·C(B)` and
//! `T(AB) = T(A)·T(B)`. IKKBZ linearizes the precedence tree bottom-up,
//! merging child chains by rank and contracting rank violations into
//! compound modules; trying each root gives the global optimum in
//! `O(n² log n)`.

use crate::Optimum;
use aqo_bignum::BigRational;
use aqo_core::qon::QoNInstance;
use aqo_core::JoinSequence;
use std::collections::VecDeque;

/// A (possibly compound) module of the precedence chain.
#[derive(Clone, Debug)]
struct Module {
    nodes: Vec<usize>,
    /// Relative cost `C(M)` (to be scaled by `t_root`).
    c: BigRational,
    /// Size factor `T(M)`.
    t: BigRational,
}

impl Module {
    fn single(node: usize, c: BigRational, t: BigRational) -> Self {
        Module { nodes: vec![node], c, t }
    }

    /// `rank(A) ≤ rank(B)` via cross-multiplication (`C > 0` always).
    fn rank_le(&self, other: &Module) -> bool {
        let lhs = (&self.t - &BigRational::one()) * &other.c;
        let rhs = (&other.t - &BigRational::one()) * &self.c;
        lhs <= rhs
    }

    fn merge(self, other: Module) -> Module {
        let c = &self.c + &(&self.t * &other.c);
        let t = &self.t * &other.t;
        let mut nodes = self.nodes;
        nodes.extend(other.nodes);
        Module { nodes, c, t }
    }
}

/// Runs IKKBZ for every root and returns the best sequence with its exact
/// cost. Panics unless the query graph is a connected tree.
// analyze:allow(budget-hook-coverage) -- IKKBZ is O(n^2 log n) per root
// (polynomial, no search-space explosion); a cancel hook would cost more
// than the longest possible run.
#[expect(clippy::expect_used, reason = "n >= 1 is asserted, so some root sets best")]
pub fn optimize(inst: &QoNInstance) -> Optimum<BigRational> {
    let n = inst.n();
    assert!(n >= 1, "empty instance");
    assert!(inst.graph().is_connected(), "IKKBZ requires a connected query graph");
    assert_eq!(inst.graph().m(), n - 1, "IKKBZ requires an acyclic (tree) query graph");
    let mut best: Option<Optimum<BigRational>> = None;
    for root in 0..n {
        let z = linearize(inst, root);
        let cost: BigRational = inst.total_cost(&z);
        if best.as_ref().is_none_or(|b| cost < b.cost) {
            best = Some(Optimum { sequence: z, cost });
        }
    }
    best.expect("n >= 1")
}

/// Optimal sequence among those starting at `root`; the query graph must
/// be a tree, as [`optimize`] checks.
pub fn linearize(inst: &QoNInstance, root: usize) -> JoinSequence {
    let n = inst.n();
    if n == 1 {
        return JoinSequence::identity(1);
    }
    // Root the tree: `parent[v]` is `v`'s neighbour towards `root`.
    let mut parent = vec![usize::MAX; n];
    parent[root] = root;
    let mut stack = vec![root];
    while let Some(u) = stack.pop() {
        for v in inst.graph().neighbors(u).iter() {
            if parent[v] == usize::MAX {
                parent[v] = u;
                stack.push(v);
            }
        }
    }
    // Each edge gives its child `c` its own module, `w(c, p(c))` and
    // `f_c = t_c·s_{c,p(c)}`; child lists come out ascending, as edges do.
    let mut children: Vec<Vec<Module>> = vec![Vec::new(); n];
    for (u, v, s, [w_uv, w_vu]) in inst.edges() {
        let (c, p, w) = if parent[v] == u { (v, u, w_vu) } else { (u, v, w_uv) };
        let f = &BigRational::from(inst.sizes()[c].clone()) * s;
        children[p].push(Module::single(c, BigRational::from(w.clone()), f));
    }
    let chain = linearize_subtrees(&mut children, root);
    let mut order = Vec::with_capacity(n);
    order.push(root);
    for m in chain {
        order.extend(m.nodes);
    }
    JoinSequence::new(order)
}

/// Linearizes the children subtrees of `v` into one rank-ascending chain;
/// `children[c]` holds the modules of `c`'s children, taken on the way.
fn linearize_subtrees(children: &mut [Vec<Module>], v: usize) -> VecDeque<Module> {
    let own = std::mem::take(&mut children[v]);
    let mut chains: Vec<VecDeque<Module>> = Vec::with_capacity(own.len());
    for mut head in own {
        let mut chain = linearize_subtrees(children, head.nodes[0]);
        // Prepend the child's own module and normalize rank violations.
        while let Some(first) = chain.front() {
            if head.rank_le(first) {
                break;
            }
            #[expect(clippy::expect_used, reason = "front() returned Some on the loop condition")]
            let first = chain.pop_front().expect("front exists");
            head = head.merge(first);
        }
        chain.push_front(head);
        chains.push(chain);
    }
    // Merge the (rank-ascending) child chains by rank.
    let mut merged: VecDeque<Module> = VecDeque::new();
    for chain in chains {
        merged = merge_by_rank(merged, chain);
    }
    merged
}

fn merge_by_rank(mut a: VecDeque<Module>, mut b: VecDeque<Module>) -> VecDeque<Module> {
    let mut out = VecDeque::with_capacity(a.len() + b.len());
    loop {
        match (a.front(), b.front()) {
            (None, _) => {
                out.extend(b);
                return out;
            }
            (_, None) => {
                out.extend(a);
                return out;
            }
            #[expect(clippy::expect_used, reason = "both fronts were just matched as Some")]
            (Some(x), Some(y)) => {
                if x.rank_le(y) {
                    out.push_back(a.pop_front().expect("front"));
                } else {
                    out.push_back(b.pop_front().expect("front"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp;
    use aqo_bignum::{BigInt, BigUint};
    use aqo_core::{AccessCostMatrix, SelectivityMatrix};
    use aqo_graph::{generators, Graph};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tree_instance(g: Graph, rng: &mut StdRng) -> QoNInstance {
        let n = g.n();
        let sizes: Vec<BigUint> = (0..n).map(|_| BigUint::from(rng.gen_range(2u64..50))).collect();
        let mut s = SelectivityMatrix::new();
        let mut w = AccessCostMatrix::new();
        for (u, v) in g.edges().collect::<Vec<_>>() {
            let sel = BigRational::new(BigInt::one(), BigUint::from(rng.gen_range(2u64..12)));
            s.set(u, v, sel.clone());
            for (j, k) in [(u, v), (v, u)] {
                let lower = (BigRational::from(sizes[j].clone()) * &sel).ceil();
                w.set(j, k, lower.magnitude().clone());
            }
        }
        QoNInstance::new(g, sizes, s, w)
    }

    #[test]
    fn matches_dp_on_random_trees() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..12 {
            let n = rng.gen_range(2usize..9);
            let g = generators::random_tree(n, &mut rng);
            let inst = tree_instance(g, &mut rng);
            let ik = optimize(&inst);
            let exact = dp::optimize::<BigRational>(&inst, false).unwrap();
            assert_eq!(ik.cost, exact.cost, "trial {trial}, n={n}");
            assert!(!inst.has_cartesian_product(&ik.sequence));
        }
    }

    #[test]
    fn chain_query_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let inst = tree_instance(g, &mut rng);
        let ik = optimize(&inst);
        let exact = dp::optimize::<BigRational>(&inst, false).unwrap();
        assert_eq!(ik.cost, exact.cost);
    }

    #[test]
    fn star_query() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut g = Graph::new(6);
        for v in 1..6 {
            g.add_edge(0, v);
        }
        let inst = tree_instance(g, &mut rng);
        let ik = optimize(&inst);
        let exact = dp::optimize::<BigRational>(&inst, false).unwrap();
        assert_eq!(ik.cost, exact.cost);
    }

    #[test]
    fn single_and_pair() {
        let mut rng = StdRng::seed_from_u64(4);
        let inst1 = tree_instance(Graph::new(1), &mut rng);
        assert!(optimize(&inst1).cost.is_zero());
        let inst2 = tree_instance(Graph::from_edges(2, &[(0, 1)]), &mut rng);
        let ik = optimize(&inst2);
        let exact = dp::optimize::<BigRational>(&inst2, false).unwrap();
        assert_eq!(ik.cost, exact.cost);
    }

    #[test]
    #[should_panic(expected = "acyclic")]
    fn cyclic_graph_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let inst = tree_instance(g, &mut rng);
        let _ = optimize(&inst);
    }
}

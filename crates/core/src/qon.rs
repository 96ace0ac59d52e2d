//! **QO_N** — query optimization under nested-loops joins (paper §2.1).
//!
//! An instance is the five-tuple `(n, Q = (V, E), S, T, W)`. A plan is a
//! join sequence `Z` (permutation of `V`); its cost is
//!
//! ```text
//! C(Z) = Σ_{i=1}^{n−1} H_i(Z),   H_i(Z) = N(X) · min_{v_k ∈ X} w_{j,k}
//! ```
//!
//! where `X` is the length-`i` prefix of `Z`, `v_j` the vertex at position
//! `i+1`, and `N(X)` the estimated intermediate cardinality
//! `N(Xv_j) = N(X)·t_j·∏_{v_i ∈ X} s_{ij}` (§2.1.2).

use crate::{CostScalar, JoinSequence};
use aqo_bignum::BigUint;
use aqo_graph::{BitSet, Graph};

/// An instance of the QO_N problem.
#[derive(Clone, Debug)]
pub struct QoNInstance {
    graph: Graph,
    sizes: Vec<BigUint>,
    selectivity: crate::SelectivityMatrix,
    access_cost: crate::AccessCostMatrix,
}

/// The first invariant of §2.1.1 a candidate QO_N instance violates
/// ([`QoNInstance::try_new`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvalidQonInstance {
    /// `sizes` does not have one entry per vertex.
    SizesLength {
        /// Entries in `sizes`.
        sizes: usize,
        /// Vertices in the graph.
        vertices: usize,
    },
    /// Relation `i` has `t_i = 0`.
    ZeroCardinality(usize),
    /// Edge `(u,v)` has no selectivity entry.
    MissingSelectivity(usize, usize),
    /// Edge `(j,k)` has no access cost `w(j,k)`.
    MissingAccessCost(usize, usize),
    /// `w(j,k) < t_j·s_jk`.
    AccessCostBelow(usize, usize),
    /// `w(j,k) > t_j`.
    AccessCostAbove(usize, usize),
}

impl std::fmt::Display for InvalidQonInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            InvalidQonInstance::SizesLength { sizes, vertices } => write!(
                f,
                "sizes length must equal vertex count ({sizes} sizes, {vertices} vertices)"
            ),
            InvalidQonInstance::ZeroCardinality(i) => {
                write!(f, "relation {i} has zero cardinality")
            }
            InvalidQonInstance::MissingSelectivity(u, v) => {
                write!(f, "edge ({u},{v}) lacks a selectivity entry")
            }
            InvalidQonInstance::MissingAccessCost(j, k) => {
                write!(f, "edge ({j},{k}) lacks an access-cost entry")
            }
            InvalidQonInstance::AccessCostBelow(j, k) => write!(f, "w({j},{k}) below t_j*s_jk"),
            InvalidQonInstance::AccessCostAbove(j, k) => write!(f, "w({j},{k}) above t_j"),
        }
    }
}

impl std::error::Error for InvalidQonInstance {}

/// Full cost accounting for one join sequence.
#[derive(Clone, Debug)]
pub struct QonCost<S> {
    /// `H_1 … H_{n−1}`: `per_join[i]` is the cost of join `J_{i+1}` (the
    /// join bringing in the vertex at 0-based position `i+1`).
    pub per_join: Vec<S>,
    /// `N_0 … N_{n−1}`: `intermediates[i]` is `N(prefix of length i+1)`;
    /// index `i` matches the paper's `N_i`.
    pub intermediates: Vec<S>,
    /// `C(Z) = Σ H_i`.
    pub total: S,
}

impl QoNInstance {
    /// Builds and validates an instance, panicking with the violated
    /// invariant's message (see [`QoNInstance::try_new`]).
    pub fn new(
        graph: Graph,
        sizes: Vec<BigUint>,
        selectivity: crate::SelectivityMatrix,
        access_cost: crate::AccessCostMatrix,
    ) -> Self {
        QoNInstance::try_new(graph, sizes, selectivity, access_cost)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds an instance, or returns the first invariant it violates.
    ///
    /// Requirements checked (all from §2.1.1):
    /// * `sizes.len() == graph.n()` and every `t_i ≥ 1`;
    /// * every graph edge has an explicit selectivity (the matrix itself
    ///   keeps every entry in `(0, 1]`);
    /// * every graph edge `{j,k}` has both directional access costs, with
    ///   `t_j·s_{jk} ≤ w(j,k) ≤ t_j` (and symmetrically);
    /// * non-edges take the defaults `s = 1`, `w(j,k) = t_j`.
    pub fn try_new(
        graph: Graph,
        sizes: Vec<BigUint>,
        selectivity: crate::SelectivityMatrix,
        access_cost: crate::AccessCostMatrix,
    ) -> Result<Self, InvalidQonInstance> {
        let n = graph.n();
        if sizes.len() != n {
            return Err(InvalidQonInstance::SizesLength { sizes: sizes.len(), vertices: n });
        }
        if let Some(i) = sizes.iter().position(BigUint::is_zero) {
            return Err(InvalidQonInstance::ZeroCardinality(i));
        }
        for (u, v) in graph.edges() {
            let s = selectivity.entry(u, v).ok_or(InvalidQonInstance::MissingSelectivity(u, v))?;
            for (j, k) in [(u, v), (v, u)] {
                let w = access_cost
                    .get(j, k)
                    .ok_or(InvalidQonInstance::MissingAccessCost(j, k))?;
                // t_j·p/q ≤ w ≤ t_j in integers, for s = p/q > 0.
                if w * s.denom() < &sizes[j] * s.numer().magnitude() {
                    return Err(InvalidQonInstance::AccessCostBelow(j, k));
                }
                if w > &sizes[j] {
                    return Err(InvalidQonInstance::AccessCostAbove(j, k));
                }
            }
        }
        Ok(QoNInstance { graph, sizes, selectivity, access_cost })
    }

    /// Number of relations `n`.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// The query graph `Q`.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Relation cardinalities `T`.
    pub fn sizes(&self) -> &[BigUint] {
        &self.sizes
    }

    /// The selectivity matrix `S`.
    pub fn selectivity(&self) -> &crate::SelectivityMatrix {
        &self.selectivity
    }

    /// `w(j, k)` with the non-edge default `t_j`, borrowed.
    pub fn w(&self, j: usize, k: usize) -> &BigUint {
        self.access_cost.get(j, k).unwrap_or(&self.sizes[j])
    }

    /// Evaluates the full cost accounting of `z` over scalar backend `S`.
    pub fn cost<S: CostScalar>(&self, z: &JoinSequence) -> QonCost<S> {
        let n = self.n();
        assert_eq!(z.len(), n, "sequence length mismatch");
        assert!(n >= 1, "empty instance");
        let mut prefix = BitSet::new(n);
        prefix.insert(z.at(0));
        let mut nx = S::from_count(&self.sizes[z.at(0)]);
        let mut intermediates = Vec::with_capacity(n);
        intermediates.push(nx.clone());
        let mut per_join = Vec::with_capacity(n.saturating_sub(1));
        let mut total = S::zero();
        for i in 1..n {
            let j = z.at(i);
            // min_{v_k ∈ X} w_{j,k}: stored entries on edges, t_j otherwise.
            let nbrs_in_prefix: Vec<usize> =
                self.graph.neighbors(j).iter().filter(|&k| prefix.contains(k)).collect();
            let mut w_min: Option<&BigUint> = if nbrs_in_prefix.len() < i {
                // Some prefix member is a non-neighbour: default w = t_j.
                Some(&self.sizes[j])
            } else {
                None
            };
            for &k in &nbrs_in_prefix {
                let w = self.w(j, k);
                w_min = Some(match w_min {
                    None => w,
                    Some(cur) => cur.min(w),
                });
            }
            let w_min = w_min.expect("prefix nonempty");
            let h = nx.mul(&S::from_count(w_min));
            total = total.add(&h);
            per_join.push(h);
            // N(Xv_j) = N(X)·t_j·∏ s_{jk}.
            nx = nx.mul(&S::from_count(&self.sizes[j]));
            for &k in &nbrs_in_prefix {
                nx = nx.mul(&S::from_ratio(&self.selectivity.get(j, k)));
            }
            intermediates.push(nx.clone());
            prefix.insert(j);
        }
        QonCost { per_join, intermediates, total }
    }

    /// `C(Z)` only.
    pub fn total_cost<S: CostScalar>(&self, z: &JoinSequence) -> S {
        self.cost::<S>(z).total
    }

    /// Back-edge counts `B_i` (paper §4): `back_edges(z)[i]` is the number of
    /// query-graph edges from the vertex at 0-based position `i` to earlier
    /// vertices. `B_1 = 0` by definition; the paper indexes positions from 1,
    /// so its `B_i` is `back_edges(z)[i−1]`.
    pub fn back_edges(&self, z: &JoinSequence) -> Vec<usize> {
        let n = self.n();
        let mut prefix = BitSet::new(n);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let v = z.at(i);
            out.push(self.graph.neighbors(v).intersection_len(&prefix));
            prefix.insert(v);
        }
        out
    }

    /// Prefix densities `D_i` (paper §4): `prefix_densities(z)[i]` is the
    /// number of query-graph edges among the first `i+1` vertices of `z`;
    /// the paper's `D_i` is `prefix_densities(z)[i−1]`.
    pub fn prefix_densities(&self, z: &JoinSequence) -> Vec<usize> {
        let mut acc = 0usize;
        self.back_edges(z)
            .into_iter()
            .map(|b| {
                acc += b;
                acc
            })
            .collect()
    }

    /// Whether any join `J_i` of `z` is a cartesian product (the incoming
    /// vertex has no query-graph edge into the prefix).
    pub fn has_cartesian_product(&self, z: &JoinSequence) -> bool {
        self.back_edges(z).iter().skip(1).any(|&b| b == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessCostMatrix, SelectivityMatrix};
    use aqo_bignum::{BigInt, BigRational, LogNum};

    /// Chain query R0 — R1 — R2 with hand-computable numbers.
    ///
    /// t = (10, 20, 30); s01 = 1/2, s12 = 1/10;
    /// w(0,1)=w(1,0)=5 (within [t·s, t]), w(1,2)=2, w(2,1)=3.
    fn chain() -> QoNInstance {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let sizes = vec![BigUint::from(10u64), BigUint::from(20u64), BigUint::from(30u64)];
        let mut s = SelectivityMatrix::new();
        s.set(0, 1, BigRational::new(BigInt::one(), BigUint::from(2u64)));
        s.set(1, 2, BigRational::new(BigInt::one(), BigUint::from(10u64)));
        let mut w = AccessCostMatrix::new();
        w.set(0, 1, BigUint::from(5u64));
        w.set(1, 0, BigUint::from(10u64));
        w.set(1, 2, BigUint::from(2u64));
        w.set(2, 1, BigUint::from(3u64));
        QoNInstance::new(g, sizes, s, w)
    }

    #[test]
    fn hand_computed_cost_chain() {
        let inst = chain();
        // Z = (0, 1, 2):
        //   N(X)=10. J1 brings v1: w_min = w(1,0)=10 → H1 = 100.
        //   N = 10·20·(1/2) = 100. J2 brings v2: w_min = w(2,1)=3 → H2=300.
        //   N = 100·30·(1/10) = 300. Total = 400.
        let z = JoinSequence::new(vec![0, 1, 2]);
        let c: QonCost<BigRational> = inst.cost(&z);
        assert_eq!(c.per_join.len(), 2);
        assert_eq!(c.per_join[0], BigRational::from(100u64));
        assert_eq!(c.per_join[1], BigRational::from(300u64));
        assert_eq!(c.intermediates[1], BigRational::from(100u64));
        assert_eq!(c.intermediates[2], BigRational::from(300u64));
        assert_eq!(c.total, BigRational::from(400u64));
    }

    #[test]
    fn cartesian_product_uses_default_w() {
        let inst = chain();
        // Z = (0, 2, 1): joining v2 onto {v0} is a cartesian product, so
        // w_min = t_2 = 30 → H1 = 10·30 = 300. N = 10·30 = 300 (s=1).
        // J2 brings v1 adjacent to both: w_min = min(w(1,0), w(1,2)) = 2.
        // H2 = 300·2 = 600. Total 900.
        let z = JoinSequence::new(vec![0, 2, 1]);
        assert!(inst.has_cartesian_product(&z));
        let c: QonCost<BigRational> = inst.cost(&z);
        assert_eq!(c.per_join[0], BigRational::from(300u64));
        assert_eq!(c.per_join[1], BigRational::from(600u64));
        // Final intermediate: 300·20·(1/2)·(1/10) = 300.
        assert_eq!(c.intermediates[2], BigRational::from(300u64));
    }

    #[test]
    fn final_intermediate_is_sequence_invariant() {
        // N(full set) must not depend on the order.
        let inst = chain();
        let mut finals = Vec::new();
        for p in crate::join::permutations(3) {
            let z = JoinSequence::new(p);
            let c: QonCost<BigRational> = inst.cost(&z);
            finals.push(c.intermediates[2].clone());
        }
        assert!(finals.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn log_backend_agrees_with_exact() {
        let inst = chain();
        for p in crate::join::permutations(3) {
            let z = JoinSequence::new(p);
            let exact: BigRational = inst.total_cost(&z);
            let log: LogNum = inst.total_cost(&z);
            assert!(
                (CostScalar::log2(&exact) - CostScalar::log2(&log)).abs() < 1e-9,
                "mismatch on {z:?}"
            );
        }
    }

    #[test]
    fn back_edges_and_densities() {
        let inst = chain();
        let z = JoinSequence::new(vec![1, 0, 2]);
        assert_eq!(inst.back_edges(&z), vec![0, 1, 1]);
        assert_eq!(inst.prefix_densities(&z), vec![0, 1, 2]);
        assert!(!inst.has_cartesian_product(&z));
    }

    #[test]
    #[should_panic(expected = "lacks a selectivity entry")]
    fn missing_selectivity_rejected() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let sizes = vec![BigUint::from(2u64), BigUint::from(2u64)];
        let mut w = AccessCostMatrix::new();
        w.set(0, 1, BigUint::from(2u64));
        w.set(1, 0, BigUint::from(2u64));
        QoNInstance::new(g, sizes, SelectivityMatrix::new(), w);
    }

    #[test]
    #[should_panic(expected = "above t_j")]
    fn w_above_tj_rejected() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let sizes = vec![BigUint::from(2u64), BigUint::from(2u64)];
        let mut s = SelectivityMatrix::new();
        s.set(0, 1, BigRational::new(BigInt::one(), BigUint::from(2u64)));
        let mut w = AccessCostMatrix::new();
        w.set(0, 1, BigUint::from(3u64));
        w.set(1, 0, BigUint::from(2u64));
        QoNInstance::new(g, sizes, s, w);
    }

    #[test]
    #[should_panic(expected = "below t_j*s_jk")]
    fn w_below_lower_bound_rejected() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let sizes = vec![BigUint::from(8u64), BigUint::from(8u64)];
        let mut s = SelectivityMatrix::new();
        s.set(0, 1, BigRational::new(BigInt::one(), BigUint::from(2u64)));
        let mut w = AccessCostMatrix::new();
        w.set(0, 1, BigUint::from(3u64)); // below 8·(1/2) = 4
        w.set(1, 0, BigUint::from(4u64));
        QoNInstance::new(g, sizes, s, w);
    }
}

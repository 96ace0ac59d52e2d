//! Catalog-style workload generators: the query shapes that motivate the
//! paper (chain/star/snowflake/cycle/clique joins) with plausible
//! cardinalities and matching access-path costs.
//!
//! Every generator returns a valid [`QoNInstance`] whose access costs sit at
//! the model's lower bound `w(j,k) = ⌈t_j·s_{jk}⌉` (an index lookup per
//! outer tuple), the regime in which join order matters most.

use crate::qon::QoNInstance;
use crate::{AccessCostMatrix, SelectivityMatrix};
use aqo_bignum::{BigInt, BigRational, BigUint};
use aqo_graph::Graph;
use rand::Rng;

/// Shared parameters for the workload generators.
#[derive(Clone, Debug)]
pub struct WorkloadParams {
    /// Smallest relation cardinality.
    pub min_rows: u64,
    /// Largest relation cardinality.
    pub max_rows: u64,
    /// Smallest selectivity denominator (`s = 1/d`).
    pub min_sel_den: u64,
    /// Largest selectivity denominator.
    pub max_sel_den: u64,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams { min_rows: 100, max_rows: 1_000_000, min_sel_den: 10, max_sel_den: 100_000 }
    }
}

impl WorkloadParams {
    fn rows(&self, rng: &mut impl Rng) -> BigUint {
        // Log-uniform cardinalities: real catalogs span orders of magnitude.
        let lo = (self.min_rows as f64).ln();
        let hi = (self.max_rows as f64).ln();
        BigUint::from(rng.gen_range(lo..=hi).exp() as u64)
    }

    fn selectivity(&self, rng: &mut impl Rng) -> BigRational {
        let lo = (self.min_sel_den as f64).ln();
        let hi = (self.max_sel_den as f64).ln();
        let d = rng.gen_range(lo..=hi).exp() as u64;
        BigRational::new(BigInt::one(), BigUint::from(d.max(2)))
    }
}

fn finish(g: Graph, sizes: Vec<BigUint>, sels: Vec<(usize, usize, BigRational)>) -> QoNInstance {
    let mut s = SelectivityMatrix::new();
    let mut w = AccessCostMatrix::new();
    for (u, v, sel) in sels {
        s.set(u, v, sel.clone());
        for (j, k) in [(u, v), (v, u)] {
            let lower = (BigRational::from(sizes[j].clone()) * &sel).ceil();
            w.set(j, k, lower.magnitude().clone().max(BigUint::one()));
        }
    }
    QoNInstance::new(g, sizes, s, w)
}

fn build(g: Graph, params: &WorkloadParams, rng: &mut impl Rng) -> QoNInstance {
    let n = g.n();
    let sizes: Vec<BigUint> = (0..n).map(|_| params.rows(rng)).collect();
    let sels: Vec<(usize, usize, BigRational)> =
        g.edges().map(|(u, v)| (u, v, params.selectivity(rng))).collect();
    finish(g, sizes, sels)
}

/// A chain (linear) query `R₀ ⋈ R₁ ⋈ … ⋈ R_{n−1}`: OLTP lookup pipelines.
pub fn chain(n: usize, params: &WorkloadParams, rng: &mut impl Rng) -> QoNInstance {
    assert!(n >= 2);
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge(v - 1, v);
    }
    build(g, params, rng)
}

/// A star query: fact table `R₀` joined with `n − 1` dimensions — the
/// data-warehousing shape (and the shape of Appendix A).
pub fn star(n: usize, params: &WorkloadParams, rng: &mut impl Rng) -> QoNInstance {
    assert!(n >= 2);
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge(0, v);
    }
    // Fact table big, dimensions drawn normally.
    let mut inst = build(g, params, rng);
    let mut sizes = inst.sizes().to_vec();
    sizes[0] = BigUint::from(params.max_rows);
    // Rebuild with the adjusted fact size (access costs must re-lower-bound).
    let sels: Vec<(usize, usize, BigRational)> =
        inst.edges().map(|(u, v, s, _)| (u, v, s.clone())).collect();
    inst = finish(inst.graph().clone(), sizes, sels);
    inst
}

/// A snowflake: a star whose each dimension carries a short outrigger chain.
pub fn snowflake(
    dimensions: usize,
    chain_len: usize,
    params: &WorkloadParams,
    rng: &mut impl Rng,
) -> QoNInstance {
    assert!(dimensions >= 1 && chain_len >= 1);
    let n = 1 + dimensions * chain_len;
    let mut g = Graph::new(n);
    for d in 0..dimensions {
        let first = 1 + d * chain_len;
        g.add_edge(0, first);
        for i in 1..chain_len {
            g.add_edge(first + i - 1, first + i);
        }
    }
    build(g, params, rng)
}

/// A cycle query (the smallest shape with a non-tree edge — already outside
/// the IKKBZ-easy class).
pub fn cycle(n: usize, params: &WorkloadParams, rng: &mut impl Rng) -> QoNInstance {
    assert!(n >= 3);
    let mut g = Graph::new(n);
    for v in 0..n {
        g.add_edge(v, (v + 1) % n);
    }
    build(g, params, rng)
}

/// A clique query: every pair predicated — the dense end of the spectrum
/// (the shape the §4 reduction emits).
pub fn clique(n: usize, params: &WorkloadParams, rng: &mut impl Rng) -> QoNInstance {
    assert!(n >= 2);
    build(Graph::complete(n), params, rng)
}

/// A grid query `rows × cols` (join graphs of multi-way equi-joins over
/// composite keys).
pub fn grid(rows: usize, cols: usize, params: &WorkloadParams, rng: &mut impl Rng) -> QoNInstance {
    assert!(rows >= 1 && cols >= 1 && rows * cols >= 2);
    let idx = |r: usize, c: usize| r * cols + c;
    let mut g = Graph::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(idx(r, c), idx(r, c + 1));
            }
            if r + 1 < rows {
                g.add_edge(idx(r, c), idx(r + 1, c));
            }
        }
    }
    build(g, params, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn shapes_have_expected_edges() {
        let p = WorkloadParams::default();
        let mut r = rng();
        assert_eq!(chain(5, &p, &mut r).graph().m(), 4);
        assert_eq!(star(6, &p, &mut r).graph().m(), 5);
        assert_eq!(snowflake(3, 2, &p, &mut r).graph().m(), 6);
        assert_eq!(cycle(5, &p, &mut r).graph().m(), 5);
        assert_eq!(clique(5, &p, &mut r).graph().m(), 10);
        assert_eq!(grid(2, 3, &p, &mut r).graph().m(), 7);
    }

    #[test]
    fn all_shapes_connected_and_costable() {
        let p = WorkloadParams::default();
        let mut r = rng();
        let instances = vec![
            chain(5, &p, &mut r),
            star(5, &p, &mut r),
            snowflake(2, 2, &p, &mut r),
            cycle(5, &p, &mut r),
            clique(4, &p, &mut r),
            grid(2, 2, &p, &mut r),
        ];
        for inst in instances {
            assert!(inst.graph().is_connected());
            let z = crate::JoinSequence::identity(inst.n());
            let c: BigRational = inst.total_cost(&z);
            assert!(c.is_positive());
        }
    }

    #[test]
    fn star_fact_table_is_biggest() {
        let p = WorkloadParams::default();
        let mut r = rng();
        let inst = star(6, &p, &mut r);
        let fact = &inst.sizes()[0];
        assert!(inst.sizes().iter().skip(1).all(|t| t <= fact));
    }

    #[test]
    fn sizes_within_bounds() {
        let p = WorkloadParams { min_rows: 50, max_rows: 500, min_sel_den: 5, max_sel_den: 50 };
        let mut r = rng();
        let inst = chain(8, &p, &mut r);
        for t in inst.sizes() {
            let v = t.to_u64().unwrap();
            assert!((50..=500).contains(&v), "cardinality {v} out of bounds");
        }
    }

    #[test]
    fn trees_are_ikkbz_compatible() {
        // chain / star / snowflake are trees: m == n − 1.
        let p = WorkloadParams::default();
        let mut r = rng();
        for inst in [chain(6, &p, &mut r), star(6, &p, &mut r), snowflake(2, 3, &p, &mut r)] {
            assert_eq!(inst.graph().m(), inst.n() - 1);
        }
    }
}

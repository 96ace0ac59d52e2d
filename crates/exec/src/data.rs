//! Synthetic data generation matched to a QO_N instance.
//!
//! For every query-graph edge `{i, j}` with selectivity `s = 1/d`, relations
//! `R_i` and `R_j` each get a join column whose values are uniform over
//! `0..d`. Two independent uniform draws collide with probability exactly
//! `1/d`, so the *expected* join sizes equal the model's independence
//! products `N(X)` — the assumption under which §2.1's estimates are exact.

use aqo_core::qon::QoNInstance;
use rand::Rng;
use std::collections::HashMap;

/// A materialized database for one QO_N instance.
#[derive(Clone, Debug)]
pub struct Database {
    /// `columns[(i, j)]` is `R_i`'s join column for the predicate with
    /// `R_j` (one entry per tuple of `R_i`).
    columns: HashMap<(usize, usize), Vec<u64>>,
    /// Tuple counts per relation.
    sizes: Vec<usize>,
    /// Per-edge domain sizes `d ≈ 1/s`.
    domains: HashMap<(usize, usize), u64>,
}

/// Largest relation the engine will materialize.
pub const MAX_TUPLES: usize = 5_000_000;

impl Database {
    /// Generates data for `inst`. Panics if a relation size or a
    /// selectivity reciprocal does not fit comfortably in machine range
    /// (the engine is for *calibration-sized* instances, not the reduction
    /// monsters).
    pub fn generate(inst: &QoNInstance, rng: &mut impl Rng) -> Database {
        let sizes: Vec<usize> = inst
            .sizes()
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let v = t
                    .to_u64()
                    .unwrap_or_else(|| panic!("relation {i} too large to materialize"))
                    as usize;
                assert!(v <= MAX_TUPLES, "relation {i} exceeds MAX_TUPLES");
                v
            })
            .collect();
        let mut columns = HashMap::new();
        let mut domains = HashMap::new();
        for (u, v, s, _) in inst.edges() {
            // d = round(1/s); the declared selectivity is then exactly 1/d
            // when s is a unit fraction (the common case in this repo).
            let d = s.recip().to_f64().round() as u64;
            assert!(d >= 1, "selectivity > 1?");
            domains.insert((u, v), d);
            domains.insert((v, u), d);
            for (owner, _) in [(u, v), (v, u)] {
                let col: Vec<u64> = (0..sizes[owner]).map(|_| rng.gen_range(0..d)).collect();
                columns.insert((owner, if owner == u { v } else { u }), col);
            }
        }
        Database { columns, sizes, domains }
    }

    /// Tuple count of relation `i`.
    pub fn size(&self, i: usize) -> usize {
        self.sizes[i]
    }

    /// `R_i`'s join column for the predicate with `R_j`.
    pub fn column(&self, i: usize, j: usize) -> &[u64] {
        &self.columns[&(i, j)]
    }

    /// Domain size of the `{i, j}` predicate.
    pub fn domain(&self, i: usize, j: usize) -> u64 {
        self.domains[&(i, j)]
    }

    /// Whether tuple `ti` of `R_i` joins tuple `tj` of `R_j`.
    pub fn matches(&self, i: usize, ti: usize, j: usize, tj: usize) -> bool {
        self.columns[&(i, j)][ti] == self.columns[&(j, i)][tj]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqo_bignum::{BigInt, BigRational, BigUint};
    use aqo_core::{AccessCostMatrix, SelectivityMatrix};
    use aqo_graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pair(t0: u64, t1: u64, d: u64) -> QoNInstance {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let mut s = SelectivityMatrix::new();
        s.set(0, 1, BigRational::new(BigInt::one(), BigUint::from(d)));
        let mut w = AccessCostMatrix::new();
        w.set(0, 1, BigUint::from(t0.div_ceil(d).max(1)));
        w.set(1, 0, BigUint::from(t1.div_ceil(d).max(1)));
        QoNInstance::new(g, vec![BigUint::from(t0), BigUint::from(t1)], s, w)
    }

    #[test]
    fn generated_shapes() {
        let inst = pair(100, 200, 10);
        let mut rng = StdRng::seed_from_u64(1);
        let db = Database::generate(&inst, &mut rng);
        assert_eq!(db.size(0), 100);
        assert_eq!(db.size(1), 200);
        assert_eq!(db.column(0, 1).len(), 100);
        assert_eq!(db.column(1, 0).len(), 200);
        assert_eq!(db.domain(0, 1), 10);
        assert!(db.column(0, 1).iter().all(|&v| v < 10));
    }

    #[test]
    fn match_probability_tracks_selectivity() {
        // Empirical collision rate over *every* tuple pair ≈ 1/d. Sampling
        // pairs as (k % 1000, k·7919 % 1000) visited only 1000 distinct
        // pairs — k % 1000 determines both coordinates — leaving enough
        // variance that the verdict depended on the RNG stream.
        let inst = pair(1000, 1000, 8);
        let mut rng = StdRng::seed_from_u64(2);
        let db = Database::generate(&inst, &mut rng);
        let c0 = db.column(0, 1);
        let c1 = db.column(1, 0);
        let hits: usize =
            c0.iter().map(|a| c1.iter().filter(|&b| a == b).count()).sum();
        let rate = hits as f64 / (c0.len() * c1.len()) as f64;
        assert!((rate - 0.125).abs() < 0.02, "rate {rate} vs expected 0.125");
    }
}

//! Sparse symmetric selectivity and access-path cost storage.
//!
//! Instances produced by the sparse reductions (§6) can have thousands of
//! vertices; dense `n × n` matrices of rationals would dwarf the actual
//! instance. Both matrices therefore store only edge entries and answer the
//! paper's defaults for non-edges: selectivity `1`, access cost `t_j`.

use aqo_bignum::{BigRational, BigUint};
use std::collections::HashMap;

fn key(u: usize, v: usize) -> (usize, usize) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

/// The symmetric selectivity matrix `S`: `s_{ij} = s_{ji}`, defaulting to `1`
/// for pairs without a predicate.
#[derive(Clone, Debug, Default)]
pub struct SelectivityMatrix {
    entries: HashMap<(usize, usize), BigRational>,
}

impl SelectivityMatrix {
    /// Empty matrix (every pair has selectivity 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `s_{uv} = s_{vu} = s`. Panics unless `0 < s ≤ 1` and `u ≠ v`.
    pub fn set(&mut self, u: usize, v: usize, s: BigRational) {
        assert!(u != v, "selectivity of a vertex with itself");
        // The denominator is positive, so `s ≤ 1` is `numer ≤ denom`.
        assert!(
            s.is_positive() && s.numer().magnitude() <= s.denom(),
            "selectivity must be in (0, 1]"
        );
        self.entries.insert(key(u, v), s);
    }

    /// `s_{uv}` (`1` if unset).
    pub fn get(&self, u: usize, v: usize) -> BigRational {
        self.entry(u, v).cloned().unwrap_or_else(BigRational::one)
    }

    /// The explicit entry for `{u, v}`, borrowed; `None` if unset.
    pub fn entry(&self, u: usize, v: usize) -> Option<&BigRational> {
        self.entries.get(&key(u, v))
    }

    /// Whether an explicit entry exists for `{u, v}`.
    pub fn has_entry(&self, u: usize, v: usize) -> bool {
        self.entries.contains_key(&key(u, v))
    }

    /// Number of explicit entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no explicit entries exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The access-path cost matrix `W`.
///
/// For an edge `{v_j, v_k}`, `w(j, k)` is the least cost of solving the
/// predicate for one tuple carrying `R_k`'s join attributes against relation
/// `R_j` (the paper constrains `t_j·s_{jk} ≤ w_{jk} ≤ t_j`). For a non-edge
/// the paper fixes `w(j, k) = t_j` — every tuple of `R_j` qualifies. Entries
/// are directional: `w(j, k)` and `w(k, j)` are stored independently.
#[derive(Clone, Debug, Default)]
pub struct AccessCostMatrix {
    entries: HashMap<(usize, usize), BigUint>,
}

impl AccessCostMatrix {
    /// Empty matrix (all pairs defaulted).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the directional entry `w(j, k) = w`.
    pub fn set(&mut self, j: usize, k: usize, w: BigUint) {
        assert!(j != k, "access cost of a vertex with itself");
        self.entries.insert((j, k), w);
    }

    /// The stored directional entry, if any (a non-edge's `w(j, k)` is
    /// `t_j`, which only the instance knows: see `QoNInstance::w`).
    pub fn get(&self, j: usize, k: usize) -> Option<&BigUint> {
        self.entries.get(&(j, k))
    }

    /// Number of explicit entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no explicit entries exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqo_bignum::BigInt;

    #[test]
    fn selectivity_defaults_to_one() {
        let m = SelectivityMatrix::new();
        assert_eq!(m.get(3, 7), BigRational::one());
        assert!(!m.has_entry(3, 7));
    }

    #[test]
    fn selectivity_symmetric() {
        let mut m = SelectivityMatrix::new();
        let s = BigRational::new(BigInt::from(1i64), BigUint::from(4u64));
        m.set(2, 5, s.clone());
        assert_eq!(m.get(2, 5), s);
        assert_eq!(m.get(5, 2), s);
        assert!(m.has_entry(5, 2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    #[should_panic(expected = "selectivity must be in (0, 1]")]
    fn selectivity_range_checked() {
        SelectivityMatrix::new().set(0, 1, BigRational::from(2u64));
    }

    #[test]
    fn access_cost_directional() {
        let mut w = AccessCostMatrix::new();
        w.set(1, 2, BigUint::from(10u64));
        w.set(2, 1, BigUint::from(99u64));
        assert_eq!(w.get(1, 2), Some(&BigUint::from(10u64)));
        assert_eq!(w.get(2, 1), Some(&BigUint::from(99u64)));
        assert_eq!(w.get(1, 3), None);
    }
}

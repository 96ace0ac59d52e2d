//! Builders for the selectivity and access-path costs of an instance.
//!
//! The paper defines both only on the query edges, with fixed defaults off
//! them: selectivity `1`, access cost `t_j`. The builders collect entries
//! in `set` order; an instance sorts them once into an edge table aligned
//! with `Graph::edges()` and answers lookups by binary search on it. Only
//! the instances search, so a builder in `set` order never is.

use aqo_bignum::{BigRational, BigUint};
use aqo_graph::Graph;

/// The symmetric selectivity matrix `S`: `s_{ij} = s_{ji}`, defaulting to `1`
/// for pairs without a predicate.
#[derive(Clone, Debug, Default)]
pub struct SelectivityMatrix {
    /// `(u, v, s_uv)` with `u < v`: in `set` order in a builder; sorted,
    /// one per query edge, once an instance owns the matrix.
    entries: Vec<(usize, usize, BigRational)>,
}

impl SelectivityMatrix {
    /// Empty matrix (every pair has selectivity 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty matrix with room for `edges` entries.
    pub fn with_capacity(edges: usize) -> Self {
        SelectivityMatrix { entries: Vec::with_capacity(edges) }
    }

    /// Sets `s_{uv} = s_{vu} = s`; a later `set` of the same pair wins.
    /// Panics unless `0 < s ≤ 1` and `u ≠ v`.
    pub fn set(&mut self, u: usize, v: usize, s: BigRational) {
        assert!(u != v, "selectivity of a vertex with itself");
        // The denominator is positive, so `s ≤ 1` is `numer ≤ denom`.
        assert!(
            s.is_positive() && s.numer().magnitude() <= s.denom(),
            "selectivity must be in (0, 1]"
        );
        self.entries.push((u.min(v), u.max(v), s));
    }

    /// Turns the builder into `graph`'s edge table: one stable sort by
    /// `(u, v)`, the last `set` of each pair kept, pairs off the graph
    /// dropped. Entry `e` is then edge `e`, unless an edge lacks an entry.
    pub(crate) fn align_to(&mut self, graph: &Graph) {
        // Text lists edges in order, and an ordered table needs no
        // sort (nor the scratch buffer a stable sort allocates).
        if !self.entries.is_sorted_by_key(|&(u, v, _)| (u, v)) {
            self.entries.sort_by_key(|&(u, v, _)| (u, v));
        }
        // `dedup_by` keeps the first of a run; swapping moves the later
        // `set` into the kept slot.
        self.entries.dedup_by(|later, kept| {
            let same = (later.0, later.1) == (kept.0, kept.1);
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        self.entries.retain(|&(u, v, _)| graph.has_edge(u, v));
    }

    /// Whether entry `e` of an aligned table is edge `(u, v)`. The table
    /// holds a subset of the edges in edge order, so the first edge `e` for
    /// which this fails is the first edge without an entry.
    pub(crate) fn covers(&self, e: usize, (u, v): (usize, usize)) -> bool {
        self.entries.get(e).is_some_and(|x| (x.0, x.1) == (u, v))
    }

    /// The aligned table's entries, in edge order.
    pub(crate) fn entries(&self) -> &[(usize, usize, BigRational)] {
        &self.entries
    }

    /// The index of edge `{u, v}` in an aligned table; `None` off the
    /// query graph.
    pub(crate) fn index(&self, u: usize, v: usize) -> Option<usize> {
        let key = (u.min(v), u.max(v));
        self.entries.binary_search_by_key(&key, |&(a, b, _)| (a, b)).ok()
    }
}

/// The access-path cost matrix `W`.
///
/// For an edge `{v_j, v_k}`, `w(j, k)` is the least cost of solving the
/// predicate for one tuple carrying `R_k`'s join attributes against relation
/// `R_j` (the paper constrains `t_j·s_{jk} ≤ w_{jk} ≤ t_j`). For a non-edge
/// the paper fixes `w(j, k) = t_j` — every tuple of `R_j` qualifies, and an
/// entry set there is dropped. Entries are directional: `w(j, k)` and
/// `w(k, j)` are set independently. The instance folds them into its edge
/// table ([`crate::qon::QoNInstance::w`]).
#[derive(Clone, Debug, Default)]
pub struct AccessCostMatrix {
    /// `(j, k, w(j, k))` in `set` order.
    pub(crate) entries: Vec<(usize, usize, BigUint)>,
}

impl AccessCostMatrix {
    /// Empty matrix (all pairs defaulted).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty matrix with room for `entries` directional entries.
    pub fn with_capacity(entries: usize) -> Self {
        AccessCostMatrix { entries: Vec::with_capacity(entries) }
    }

    /// Sets the directional entry `w(j, k) = w`; a later `set` of the same
    /// pair wins.
    pub fn set(&mut self, j: usize, k: usize, w: BigUint) {
        assert!(j != k, "access cost of a vertex with itself");
        self.entries.push((j, k, w));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qon::QoNInstance;
    use aqo_bignum::BigInt;

    fn ratio(p: u64, q: u64) -> BigRational {
        BigRational::new(BigInt::from(p as i64), BigUint::from(q))
    }

    fn entry(m: &SelectivityMatrix, u: usize, v: usize) -> Option<&BigRational> {
        m.index(u, v).map(|e| &m.entries()[e].2)
    }

    #[test]
    fn selectivity_defaults_to_one() {
        // No entry off the query graph: every reader takes that as `s = 1`.
        let mut m = SelectivityMatrix::new();
        m.align_to(&Graph::from_edges(8, &[(3, 4)]));
        assert_eq!(entry(&m, 3, 7), None);
    }

    #[test]
    fn selectivity_symmetric() {
        let mut m = SelectivityMatrix::new();
        m.set(5, 2, ratio(1, 4));
        m.align_to(&Graph::from_edges(6, &[(2, 5)]));
        assert_eq!(entry(&m, 2, 5), Some(&ratio(1, 4)));
        assert_eq!(entry(&m, 5, 2), Some(&ratio(1, 4)));
        assert_eq!(m.entries().len(), 1);
    }

    #[test]
    fn aligned_table_is_sorted_last_write_wins_and_edges_only() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut m = SelectivityMatrix::new();
        m.set(3, 2, ratio(1, 2));
        m.set(1, 0, ratio(1, 3));
        m.set(0, 2, ratio(1, 4)); // not an edge
        m.set(2, 3, ratio(1, 5));
        m.align_to(&g);
        let keys: Vec<_> = m.entries().iter().map(|&(u, v, _)| (u, v)).collect();
        assert_eq!(keys, vec![(0, 1), (2, 3)]);
        assert_eq!(entry(&m, 3, 2), Some(&ratio(1, 5)));
        assert_eq!(entry(&m, 0, 2), None);
        // (1, 2) has no entry: the first edge the table does not cover.
        assert!(m.covers(0, (0, 1)) && !m.covers(1, (1, 2)));
    }

    #[test]
    #[should_panic(expected = "selectivity must be in (0, 1]")]
    fn selectivity_range_checked() {
        SelectivityMatrix::new().set(0, 1, BigRational::from(2u64));
    }

    /// A 4-relation instance with the one edge `{1, 2}`, `s = 1/100`, and
    /// the access costs `set` in order.
    fn one_edge(costs: &[(usize, usize, u64)]) -> QoNInstance {
        let mut s = SelectivityMatrix::new();
        s.set(1, 2, ratio(1, 100));
        let mut w = AccessCostMatrix::new();
        for &(j, k, c) in costs {
            w.set(j, k, BigUint::from(c));
        }
        let sizes = [100u64, 100, 100, 7].map(BigUint::from).to_vec();
        QoNInstance::new(Graph::from_edges(4, &[(1, 2)]), sizes, s, w)
    }

    #[test]
    fn access_cost_directional() {
        let inst = one_edge(&[(2, 1, 50), (1, 2, 10), (2, 1, 99)]);
        assert_eq!(inst.w(1, 2), &BigUint::from(10u64));
        assert_eq!(inst.w(2, 1), &BigUint::from(99u64));
        assert_eq!(inst.w(1, 3), &BigUint::from(100u64));
        assert_eq!(inst.w(3, 1), &BigUint::from(7u64));
    }

    #[test]
    fn access_cost_off_the_graph_is_dropped() {
        // w(0, 3) = 1 is below t_0·s = 100 for any s < 1 it could have;
        // off the query graph it is not an entry and `w` stays `t_0`.
        let inst = one_edge(&[(1, 2, 10), (2, 1, 99), (0, 3, 1), (3, 0, 1)]);
        assert_eq!(inst.w(0, 3), &BigUint::from(100u64));
        assert_eq!(inst.w(3, 0), &BigUint::from(7u64));
        let plain = one_edge(&[(1, 2, 10), (2, 1, 99)]);
        assert_eq!(
            crate::fingerprint::canonical_qon(&inst),
            crate::fingerprint::canonical_qon(&plain)
        );
    }
}

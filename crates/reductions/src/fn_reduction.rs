//! §4 — the reduction `f_N` from CLIQUE to QO_N, with the paper's bound
//! expressions in exact arithmetic.
//!
//! Given a CLIQUE instance `G` on `n` vertices, `f_N` produces the QO_N
//! instance with
//!
//! * query graph `Q = G`;
//! * selectivity `s = 1/a` on every edge;
//! * relation sizes `t = a^e` where `e = (c − d/2)·n` (we take the integer
//!   exponent `e` as the parameter — the paper's `c, d` come from Lemma 3
//!   and make `e` an integer by choice of scale);
//! * access costs `w(j,k) = w = t/a` on edges (both directions), the
//!   non-edge default `t` otherwise.
//!
//! Under `f_N`, a cartesian-product-free sequence `Z` has
//! `H_i(Z) = w·a^{e·i − D_i(Z)}`: packing a clique into the prefix maximizes
//! `D_i` and crushes the cost. The two sides of the gap:
//!
//! * **Lemma 6 (upper)** — if `ω(G) ≥ cn ≥ e`, the clique-first sequence
//!   costs at most `K(a, e) = w·a^{e(e+1)/2 + 1}` (for `a ≥ 4` and the
//!   paper's size preconditions);
//! * **Lemma 7+8 (lower)** — *every* sequence costs at least
//!   `w·a^{e(e+1)/2 + e − ω}` whenever `ω = ω(G) ≤ e`, because Lemma 7
//!   bounds the prefix density `D_e ≤ e(e−1)/2 − e + ω`.
//!
//! The ratio between the two is `a^{e − ω − 1}`, which is `a^{Θ(n)}` when
//! `ω ≤ (c−d)n`: the hardness gap.

use aqo_bignum::{BigRational, BigUint};
use aqo_core::qon::QoNInstance;
use aqo_core::{AccessCostMatrix, JoinSequence, SelectivityMatrix};
use aqo_graph::{BitSet, Graph};

/// Output of `f_N`: the instance plus the reduction parameters needed by
/// the bound expressions.
#[derive(Clone, Debug)]
pub struct FnReduction {
    /// The QO_N instance.
    pub instance: QoNInstance,
    /// The selectivity denominator `a` (`α` in the paper).
    pub a: BigUint,
    /// The size exponent `e = (c − d/2)·n`.
    pub e: u64,
    /// `t = a^e`.
    pub t: BigUint,
    /// `w = t/a = a^{e−1}`.
    pub w: BigUint,
}

/// Runs `f_N` on `g` with parameters `a ≥ 2` and `e ≥ 1`.
pub fn reduce(g: &Graph, a: &BigUint, e: u64) -> FnReduction {
    assert!(*a >= BigUint::from(2u64), "a must be at least 2");
    assert!(e >= 1, "size exponent must be positive");
    let t = a.pow(e);
    let w = a.pow(e - 1);
    let n = g.n();
    let sizes = vec![t.clone(); n];
    let mut s = SelectivityMatrix::new();
    let mut wm = AccessCostMatrix::new();
    let sel = BigRational::recip_of(a.clone());
    for (u, v) in g.edges() {
        s.set(u, v, sel.clone());
        wm.set(u, v, w.clone());
        wm.set(v, u, w.clone());
    }
    let instance = QoNInstance::new(g.clone(), sizes, s, wm);
    FnReduction { instance, a: a.clone(), e, t, w }
}

/// `K(a, e) = w·a^{e(e+1)/2 + 1}` — the paper's `K_{c,d}(a, n)` with
/// `e = (c − d/2)n` (Lemma 6's upper bound for graphs with an `≥ e`-clique).
pub fn k_bound(a: &BigUint, e: u64) -> BigUint {
    let w = a.pow(e - 1);
    w * a.pow(e * (e + 1) / 2 + 1)
}

/// Lemma 7+8 certified lower bound on `C(Z)` for **every** join sequence of
/// the `f_N` instance, given the exact clique number `omega` of `g`:
/// `w·a^{e(e+1)/2 + e − min(omega, e)}`.
///
/// Validity: `C(Z) ≥ H_e(Z) ≥ w·a^{e·e − D_e(Z)}` (with or without
/// cartesian products — they only increase cost by a factor `a`), and by
/// Lemma 7 applied to the prefix subgraph,
/// `D_e(Z) ≤ e(e−1)/2 − e + min(omega, e)`. Requires `e ≤ n`.
pub fn lemma8_lower_bound(a: &BigUint, e: u64, omega: u64, n: u64) -> BigUint {
    assert!(e <= n, "prefix length e must fit in the graph");
    assert!(omega >= 1, "clique number of a nonempty graph is at least 1");
    let w = a.pow(e - 1);
    let omega_cap = omega.min(e);
    w * a.pow(e * (e + 1) / 2 + e - omega_cap)
}

/// The certified gap ratio `lower / K = a^{e − min(omega,e) − 1}` as an
/// exponent of `a` (may be negative, meaning no gap is certified).
pub fn certified_gap_exponent(e: u64, omega: u64) -> i64 {
    e as i64 - omega.min(e) as i64 - 1
}

/// Lemma 6's witness sequence: the vertices of `clique` first, then the
/// remaining vertices in a connected expansion order (each appended vertex
/// has an edge into the prefix when one exists — for the paper's connected
/// instances the result has no cartesian products).
pub fn lemma6_sequence(g: &Graph, clique: &[usize]) -> JoinSequence {
    assert!(g.is_clique(clique), "witness must be a clique");
    assert!(!clique.is_empty(), "empty witness");
    let n = g.n();
    let mut order: Vec<usize> = clique.to_vec();
    let mut placed = BitSet::new(n);
    for &v in clique {
        placed.insert(v);
    }
    while order.len() < n {
        // Prefer a vertex adjacent to the prefix.
        let next = (0..n)
            .filter(|&v| !placed.contains(v))
            .find(|&v| g.neighbors(v).intersection_len(&placed) > 0)
            .or_else(|| (0..n).find(|&v| !placed.contains(v)))
            .expect("vertices remain");
        order.push(next);
        placed.insert(next);
    }
    JoinSequence::new(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqo_bignum::LogNum;
    use aqo_core::CostScalar;
    use aqo_graph::{clique, generators};
    use aqo_optimizer::dp;

    fn a_of(v: u64) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn instance_shape() {
        let g = generators::dense_known_omega(8, 5);
        let r = reduce(&g, &a_of(16), 4);
        assert_eq!(r.instance.n(), 8);
        assert_eq!(r.t, BigUint::from(16u64).pow(4));
        assert_eq!(r.w, BigUint::from(16u64).pow(3));
        // Every edge has w = t/a in both directions.
        for (u, v) in g.edges() {
            assert_eq!(r.instance.w(u, v), &r.w);
            assert_eq!(r.instance.w(v, u), &r.w);
        }
    }

    #[test]
    fn h_formula_matches_cost_model() {
        // For a cartesian-free sequence, H_i = w·a^{e·i − D_i}.
        let g = generators::dense_known_omega(7, 5);
        let e = 3u64;
        let a = a_of(8);
        let r = reduce(&g, &a, e);
        let witness = clique::max_clique(&g);
        let z = lemma6_sequence(&g, &witness);
        assert!(!r.instance.has_cartesian_product(&z));
        let cost = r.instance.cost::<BigRational>(&z);
        let d = r.instance.prefix_densities(&z);
        for i in 1..g.n() {
            let expected = BigRational::from(r.w.clone())
                * BigRational::from(a.pow(e * i as u64))
                * BigRational::recip_of(a.pow(d[i - 1] as u64));
            assert_eq!(cost.per_join[i - 1], expected, "H_{i}");
        }
    }

    #[test]
    fn clique_first_sequence_is_cheapest_shape() {
        // On a dense graph with a known clique, the Lemma 6 sequence must be
        // optimal (verified against the exact DP) — the clique prefix
        // maximizes selectivity cancellation.
        let g = generators::dense_known_omega(8, 6);
        let r = reduce(&g, &a_of(4), 4);
        let witness = clique::max_clique(&g);
        let z = lemma6_sequence(&g, &witness);
        let zc: BigRational = r.instance.total_cost(&z);
        let opt = dp::optimize::<BigRational>(&r.instance, true).unwrap();
        // The witness is within the a·H bound of optimal; on these dense
        // instances it is in fact optimal.
        assert_eq!(zc, opt.cost);
    }

    #[test]
    fn lemma8_bound_holds_against_exact_optimum() {
        // Graphs with small ω: every sequence costs at least the certified
        // bound.
        for (n, k) in [(7usize, 4usize), (8, 5), (9, 5)] {
            let g = generators::dense_known_omega(n, k);
            let omega = clique::clique_number(&g) as u64;
            assert_eq!(omega, k as u64);
            let e = (k + 1).min(n) as u64; // e > ω: gap regime
            let a = a_of(4);
            let r = reduce(&g, &a, e);
            let opt = dp::optimize::<BigRational>(&r.instance, true).unwrap();
            let lb = BigRational::from(lemma8_lower_bound(&a, e, omega, n as u64));
            assert!(opt.cost >= lb, "n={n} k={k}: optimum below certified bound");
        }
    }

    #[test]
    fn upper_bound_k_holds_when_clique_large() {
        // ω ≥ e: the Lemma 6 witness costs at most K(a, e) (a ≥ 4 as the
        // paper requires).
        for (n, k) in [(8usize, 6usize), (10, 7)] {
            let g = generators::dense_known_omega(n, k);
            let e = (k as u64).saturating_sub(1).max(1);
            let a = a_of(4);
            let r = reduce(&g, &a, e);
            let witness = clique::max_clique(&g);
            let z = lemma6_sequence(&g, &witness);
            let zc: BigRational = r.instance.total_cost(&z);
            let k_val = BigRational::from(k_bound(&a, e));
            assert!(zc <= k_val, "n={n} k={k}: witness cost exceeds K");
        }
    }

    #[test]
    fn gap_between_families() {
        // The end-to-end §4 statement in miniature: same n, same (a, e);
        // the big-clique family beats K while the small-clique family is
        // certified above K·a^{gap}.
        let n = 9usize;
        let e = 6u64;
        let a = a_of(4);
        let g_yes = generators::dense_known_omega(n, 7); // ω = 7 ≥ e
        let g_no = generators::dense_known_omega(n, 5); // ω = 5 < e
        let r_yes = reduce(&g_yes, &a, e);
        let r_no = reduce(&g_no, &a, e);
        let w_yes = clique::max_clique(&g_yes);
        let yes_cost: BigRational =
            r_yes.instance.total_cost(&lemma6_sequence(&g_yes, &w_yes));
        let k_val = BigRational::from(k_bound(&a, e));
        assert!(yes_cost <= k_val);
        let no_lb = BigRational::from(lemma8_lower_bound(&a, e, 5, n as u64));
        let gap_exp = certified_gap_exponent(e, 5);
        assert_eq!(gap_exp, 0); // e − ω − 1 = 0: bound equals K exactly here
        assert!(no_lb >= k_val);
        // Exact optimum of the no-instance sits above the yes witness by at
        // least one factor of a.
        let no_opt = dp::optimize::<BigRational>(&r_no.instance, true).unwrap();
        assert!(no_opt.cost >= yes_cost * BigRational::from(a.clone()));
    }

    #[test]
    fn log_backend_matches_exact_on_reduction_instances() {
        let g = generators::dense_known_omega(8, 6);
        let r = reduce(&g, &a_of(16), 5);
        let z = JoinSequence::identity(8);
        let exact: BigRational = r.instance.total_cost(&z);
        let log: LogNum = r.instance.total_cost(&z);
        assert!((CostScalar::log2(&exact) - CostScalar::log2(&log)).abs() < 1e-6);
    }
}

//! Polynomial-time greedy heuristics for QO_N.
//!
//! These are the classical baselines whose competitive ratio the paper's
//! theorems bound away from any polylogarithmic factor: on random instances
//! they do fine; on the reduction-produced adversarial instances they are
//! exponentially off (experiment F2).

use aqo_bignum::LogNum;
use aqo_core::qon::QoNInstance;
use aqo_core::{CostScalar, JoinSequence};
use aqo_graph::BitSet;

/// Greedy by smallest next intermediate: start from the smallest relation,
/// repeatedly append the relation minimizing `N(prefix ∪ {j})`.
///
/// With `allow_cartesian = false` only adjacent candidates are considered;
/// returns `None` if the walk gets stuck (disconnected graph).
pub fn min_intermediate(inst: &QoNInstance, allow_cartesian: bool) -> Option<JoinSequence> {
    greedy_by(inst, allow_cartesian, |_inst, _prefix, _j, new_n, _step| new_n)
}

/// Greedy by cheapest next join: repeatedly append the relation with the
/// smallest incremental cost `H`.
pub fn min_incremental_cost(inst: &QoNInstance, allow_cartesian: bool) -> Option<JoinSequence> {
    greedy_by(inst, allow_cartesian, |_inst, _prefix, _j, _new_n, step| step)
}

/// Shared greedy skeleton; `score` ranks candidates (smaller is better) from
/// `(instance, prefix, candidate, resulting N, incremental cost)`.
fn greedy_by(
    inst: &QoNInstance,
    allow_cartesian: bool,
    score: impl Fn(&QoNInstance, &[usize], usize, LogNum, LogNum) -> LogNum,
) -> Option<JoinSequence> {
    let n = inst.n();
    if n == 0 {
        return Some(JoinSequence::identity(0));
    }
    // Start from the smallest relation (ties: lowest index).
    let start = (0..n).min_by(|&a, &b| inst.sizes()[a].cmp(&inst.sizes()[b]))?;
    let mut order = vec![start];
    let mut in_prefix = BitSet::new(n);
    in_prefix.insert(start);
    let sizes: Vec<LogNum> = inst.sizes().iter().map(LogNum::from_uint).collect();
    let mut n_x = sizes[start];
    // Each vertex's edges as `(k, w(j,k), s_jk)`, `k` ascending.
    let mut adj: Vec<Vec<(usize, LogNum, LogNum)>> = vec![Vec::new(); n];
    for (u, v, s, [w_uv, w_vu]) in inst.edges() {
        let s = <LogNum as CostScalar>::from_ratio(s);
        adj[u].push((v, LogNum::from_uint(w_uv), s));
        adj[v].push((u, LogNum::from_uint(w_vu), s));
    }

    while order.len() < n {
        let mut best: Option<(LogNum, usize, LogNum, LogNum)> = None; // (score, j, new_n, step)
        for (j, edges) in adj.iter().enumerate() {
            if in_prefix.contains(j) {
                continue;
            }
            let mut nbr = 0usize;
            let mut w_min: Option<LogNum> = None;
            let mut new_n = n_x * sizes[j];
            for &(_, w, s) in edges.iter().filter(|&&(k, _, _)| in_prefix.contains(k)) {
                nbr += 1;
                w_min = Some(w_min.map_or(w, |cur| cur.min(w)));
                new_n = new_n * s;
            }
            if nbr == 0 && !allow_cartesian {
                continue;
            }
            if nbr < order.len() {
                w_min = Some(w_min.map_or(sizes[j], |cur| cur.min(sizes[j])));
            }
            #[expect(clippy::expect_used, reason = "the prefix is nonempty, so w_min is set")]
            let step = n_x * w_min.expect("prefix nonempty");
            let sc = score(inst, &order, j, new_n, step);
            if best.as_ref().is_none_or(|(b, _, _, _)| sc < *b) {
                best = Some((sc, j, new_n, step));
            }
        }
        let (_, j, new_n, _) = best?;
        order.push(j);
        in_prefix.insert(j);
        n_x = new_n;
    }
    Some(JoinSequence::new(order))
}

/// A uniformly random sequence (the weakest baseline).
pub fn random_sequence(n: usize, rng: &mut impl rand::Rng) -> JoinSequence {
    use rand::seq::SliceRandom;
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    JoinSequence::new(order)
}

/// Competitive ratio in log₂: `log₂(heuristic cost) − log₂(optimal cost)`.
/// A value of `k` means the heuristic is a factor `2^k` off.
pub fn log2_ratio<S: CostScalar>(heuristic_cost: &S, optimal_cost: &S) -> f64 {
    heuristic_cost.log2() - optimal_cost.log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive;
    use aqo_bignum::{BigInt, BigRational, BigUint};
    use aqo_core::{AccessCostMatrix, SelectivityMatrix};
    use aqo_graph::Graph;

    fn star(n: usize) -> QoNInstance {
        let mut g = Graph::new(n);
        let mut s = SelectivityMatrix::new();
        let mut w = AccessCostMatrix::new();
        let sizes: Vec<BigUint> = (0..n).map(|i| BigUint::from(2 + 3 * i as u64)).collect();
        for v in 1..n {
            g.add_edge(0, v);
            let sel = BigRational::new(BigInt::one(), BigUint::from(2u64));
            s.set(0, v, sel.clone());
            for (j, k) in [(0, v), (v, 0)] {
                let lower = (BigRational::from(sizes[j].clone()) * &sel).ceil();
                w.set(j, k, lower.magnitude().clone());
            }
        }
        QoNInstance::new(g, sizes, s, w)
    }

    #[test]
    fn greedy_yields_valid_sequences() {
        let inst = star(7);
        for z in [
            min_intermediate(&inst, true).unwrap(),
            min_intermediate(&inst, false).unwrap(),
            min_incremental_cost(&inst, true).unwrap(),
        ] {
            assert_eq!(z.len(), 7);
            let c: BigRational = inst.total_cost(&z);
            assert!(c.is_positive());
        }
    }

    #[test]
    fn no_cartesian_flag_respected() {
        let inst = star(6);
        let z = min_intermediate(&inst, false).unwrap();
        assert!(!inst.has_cartesian_product(&z));
    }

    #[test]
    fn greedy_never_beats_optimum() {
        let inst = star(6);
        let opt: crate::Optimum<BigRational> = exhaustive::optimize(&inst);
        for z in [
            min_intermediate(&inst, true).unwrap(),
            min_incremental_cost(&inst, true).unwrap(),
        ] {
            let c: BigRational = inst.total_cost(&z);
            assert!(c >= opt.cost);
            assert!(log2_ratio(&c, &opt.cost) >= -1e-9);
        }
    }

    #[test]
    fn stuck_on_disconnected_without_cartesian() {
        let inst = QoNInstance::new(
            Graph::new(3),
            vec![BigUint::from(2u64); 3],
            SelectivityMatrix::new(),
            AccessCostMatrix::new(),
        );
        assert!(min_intermediate(&inst, false).is_none());
        assert!(min_intermediate(&inst, true).is_some());
    }

    #[test]
    fn random_sequence_is_permutation() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let z = random_sequence(9, &mut rng);
        assert_eq!(z.len(), 9);
    }
}

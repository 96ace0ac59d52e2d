//! Local-search heuristics for QO_N: hill climbing over the 2-swap
//! neighbourhood and simulated annealing.
//!
//! Both operate in log₂-cost space (the reduction instances span thousands
//! of orders of magnitude, so plain `f64` costs would overflow instantly).

use aqo_bignum::LogNum;
use aqo_core::qon::QoNInstance;
use aqo_core::{CostScalar, JoinSequence};
use rand::Rng;

/// Log₂ of the total cost of `order` (helper shared by the heuristics).
fn cost_log2(inst: &QoNInstance, order: &[usize]) -> f64 {
    let z = JoinSequence::new(order.to_vec());
    let c: LogNum = inst.total_cost(&z);
    CostScalar::log2(&c)
}

/// Steepest-descent hill climbing over position swaps, restarted
/// `restarts` times from random permutations; returns the best sequence
/// found.
pub fn hill_climb(inst: &QoNInstance, restarts: usize, rng: &mut impl Rng) -> JoinSequence {
    use rand::seq::SliceRandom;
    let n = inst.n();
    let mut best_order: Vec<usize> = (0..n).collect();
    let mut best = cost_log2(inst, &best_order);
    for _ in 0..restarts.max(1) {
        let mut cur: Vec<usize> = (0..n).collect();
        cur.shuffle(rng);
        let mut cur_cost = cost_log2(inst, &cur);
        loop {
            let mut improved = false;
            for i in 0..n {
                for j in i + 1..n {
                    cur.swap(i, j);
                    let c = cost_log2(inst, &cur);
                    if c < cur_cost - 1e-12 {
                        cur_cost = c;
                        improved = true;
                    } else {
                        cur.swap(i, j);
                    }
                }
            }
            if !improved {
                break;
            }
        }
        if cur_cost < best {
            best = cur_cost;
            best_order = cur;
        }
    }
    JoinSequence::new(best_order)
}

/// Parameters for [`simulated_annealing`].
#[derive(Clone, Debug)]
pub struct SaParams {
    /// Total proposal count.
    pub iterations: usize,
    /// Initial temperature, in log₂-cost units.
    pub initial_temp: f64,
    /// Geometric cooling factor per iteration (`< 1`).
    pub cooling: f64,
}

impl Default for SaParams {
    fn default() -> Self {
        SaParams { iterations: 20_000, initial_temp: 16.0, cooling: 0.9995 }
    }
}

/// Simulated annealing with swap/relocate moves. Accepts a worse order with
/// probability `exp(−Δlog₂/T)`. Every step draws the same random numbers
/// whatever the costs are, so two instances of the same size consume the
/// RNG identically and a sub-ulp change in a cost cannot fork the walk.
pub fn simulated_annealing(
    inst: &QoNInstance,
    params: &SaParams,
    rng: &mut impl Rng,
) -> JoinSequence {
    use rand::seq::SliceRandom;
    let n = inst.n();
    if n <= 2 {
        return JoinSequence::identity(n);
    }
    let mut cur: Vec<usize> = (0..n).collect();
    cur.shuffle(rng);
    let mut cur_cost = cost_log2(inst, &cur);
    let mut best = cur.clone();
    let mut best_cost = cur_cost;
    let mut temp = params.initial_temp;
    for _ in 0..params.iterations {
        let mut cand = cur.clone();
        if rng.gen_bool(0.5) {
            // Swap two positions.
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            cand.swap(i, j);
        } else {
            // Relocate one element.
            let i = rng.gen_range(0..n);
            let v = cand.remove(i);
            let j = rng.gen_range(0..n);
            cand.insert(j, v);
        }
        let c = cost_log2(inst, &cand);
        // One uniform draw `u` per step, accepted when
        // `u < exp(−max(Δ, 0)/T)`: an improvement is accepted because
        // `u < 1`, not because the draw was skipped.
        if rng.gen_bool((-(c - cur_cost).max(0.0) / temp.max(1e-9)).exp()) {
            cur = cand;
            cur_cost = c;
            if cur_cost < best_cost {
                best_cost = cur_cost;
                best = cur.clone();
            }
        }
        temp *= params.cooling;
    }
    JoinSequence::new(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive;
    use aqo_bignum::{BigInt, BigRational, BigUint};
    use aqo_core::{AccessCostMatrix, SelectivityMatrix};
    use aqo_graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A cycle whose relation `i` has `2 + step·i` tuples.
    fn cycle(n: usize, step: u64) -> QoNInstance {
        let mut g = Graph::new(n);
        let mut s = SelectivityMatrix::new();
        let mut w = AccessCostMatrix::new();
        let sizes: Vec<BigUint> = (0..n).map(|i| BigUint::from(2 + step * i as u64)).collect();
        for v in 0..n {
            let u = (v + 1) % n;
            g.add_edge(u.min(v), u.max(v));
            let sel = BigRational::new(BigInt::one(), BigUint::from(4u64));
            s.set(u, v, sel.clone());
            for (j, k) in [(u, v), (v, u)] {
                let lower = (BigRational::from(sizes[j].clone()) * &sel).ceil();
                w.set(j, k, lower.magnitude().clone());
            }
        }
        QoNInstance::new(g, sizes, s, w)
    }

    #[test]
    fn hill_climb_reaches_optimum_on_small() {
        let inst = cycle(6, 5);
        let mut rng = StdRng::seed_from_u64(42);
        let z = hill_climb(&inst, 4, &mut rng);
        let hc: BigRational = inst.total_cost(&z);
        let opt: crate::Optimum<BigRational> = exhaustive::optimize(&inst);
        // 2-swap descent with restarts on a 6-cycle should be exact; if a
        // future change weakens it, it must at least stay within 1 bit.
        assert!(CostScalar::log2(&hc) - CostScalar::log2(&opt.cost) < 1.0);
        assert!(hc >= opt.cost);
    }

    #[test]
    fn annealing_improves_over_random() {
        let inst = cycle(8, 5);
        let mut rng = StdRng::seed_from_u64(7);
        let random = crate::greedy::random_sequence(8, &mut rng);
        let rc: BigRational = inst.total_cost(&random);
        let mut best_sa = f64::INFINITY;
        for seed in 0..3 {
            let mut rng = StdRng::seed_from_u64(seed);
            let sa = simulated_annealing(
                &inst,
                &SaParams { iterations: 4000, ..Default::default() },
                &mut rng,
            );
            let sc: BigRational = inst.total_cost(&sa);
            best_sa = best_sa.min(CostScalar::log2(&sc));
        }
        assert!(best_sa <= CostScalar::log2(&rc) + 1e-9);
    }

    /// Counts the words drawn from the wrapped generator.
    struct Counting {
        inner: StdRng,
        draws: usize,
    }

    impl rand::RngCore for Counting {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }
    }

    #[test]
    fn annealing_draws_do_not_depend_on_costs() {
        let params = SaParams { iterations: 2000, ..Default::default() };
        let draws = |inst: &QoNInstance| {
            let mut rng = Counting { inner: StdRng::seed_from_u64(11), draws: 0 };
            simulated_annealing(inst, &params, &mut rng);
            rng.draws
        };
        assert_eq!(draws(&cycle(8, 5)), draws(&cycle(8, 1000)));
    }

    #[test]
    fn tiny_instances_handled() {
        let inst = cycle(3, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let z = simulated_annealing(&inst, &SaParams::default(), &mut rng);
        assert_eq!(z.len(), 3);
        let z = hill_climb(&inst, 1, &mut rng);
        assert_eq!(z.len(), 3);
    }
}

//! A genetic algorithm over join sequences (order crossover + swap
//! mutation), the last of the polynomial-time baselines for experiment F2.

use aqo_bignum::LogNum;
use aqo_core::qon::QoNInstance;
use aqo_core::{CostScalar, JoinSequence};
use rand::seq::SliceRandom;
use rand::Rng;

/// Parameters for [`optimize`].
#[derive(Clone, Debug)]
pub struct GaParams {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Per-child probability of a swap mutation.
    pub mutation_rate: f64,
}

impl Default for GaParams {
    fn default() -> Self {
        GaParams { population: 48, generations: 120, tournament: 3, mutation_rate: 0.3 }
    }
}

fn fitness(inst: &QoNInstance, order: &[usize]) -> f64 {
    let z = JoinSequence::new(order.to_vec());
    let c: LogNum = inst.total_cost(&z);
    CostScalar::log2(&c) // lower is better
}

/// Order crossover (OX): copy a random slice from `a`, fill the rest in
/// `b`'s relative order.
fn order_crossover(a: &[usize], b: &[usize], rng: &mut impl Rng) -> Vec<usize> {
    let n = a.len();
    let (mut lo, mut hi) = (rng.gen_range(0..n), rng.gen_range(0..n));
    if lo > hi {
        std::mem::swap(&mut lo, &mut hi);
    }
    let mut child = vec![usize::MAX; n];
    let mut used = vec![false; n];
    for i in lo..=hi {
        child[i] = a[i];
        used[a[i]] = true;
    }
    let mut fill = b.iter().copied().filter(|&v| !used[v]);
    #[expect(
        clippy::expect_used,
        reason = "b is a permutation, so exactly the unused values fill the empty slots"
    )]
    for slot in child.iter_mut() {
        if *slot == usize::MAX {
            *slot = fill.next().expect("exactly n-unused values");
        }
    }
    child
}

/// Runs the GA and returns the best sequence seen across all generations.
// analyze:allow(budget-hook-coverage) -- the GA runs exactly
// `params.generations * params.population` fitness evaluations, so its
// runtime is parameter-bounded; callers cap it via GaParams, not Budget.
pub fn optimize(inst: &QoNInstance, params: &GaParams, rng: &mut impl Rng) -> JoinSequence {
    let n = inst.n();
    if n <= 2 {
        return JoinSequence::identity(n);
    }
    let mut population: Vec<Vec<usize>> = (0..params.population.max(2))
        .map(|_| {
            let mut p: Vec<usize> = (0..n).collect();
            p.shuffle(rng);
            p
        })
        .collect();
    let mut scores: Vec<f64> = population.iter().map(|p| fitness(inst, p)).collect();
    let mut best_idx = argmin(&scores);
    let mut best = (population[best_idx].clone(), scores[best_idx]);

    for _ in 0..params.generations {
        let mut next_pop = Vec::with_capacity(population.len());
        // Elitism: carry the incumbent.
        next_pop.push(best.0.clone());
        while next_pop.len() < population.len() {
            let pa = tournament(&population, &scores, params.tournament, rng);
            let pb = tournament(&population, &scores, params.tournament, rng);
            let mut child = order_crossover(pa, pb, rng);
            if rng.gen_bool(params.mutation_rate) {
                let i = rng.gen_range(0..n);
                let j = rng.gen_range(0..n);
                child.swap(i, j);
            }
            next_pop.push(child);
        }
        population = next_pop;
        scores = population.iter().map(|p| fitness(inst, p)).collect();
        best_idx = argmin(&scores);
        if scores[best_idx] < best.1 {
            best = (population[best_idx].clone(), scores[best_idx]);
        }
    }
    JoinSequence::new(best.0)
}

#[expect(clippy::expect_used, reason = "scores are NaN-free costs of a nonempty population")]
fn argmin(scores: &[f64]) -> usize {
    scores
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("NaN-free"))
        .map(|(i, _)| i)
        .expect("nonempty population")
}

#[expect(clippy::expect_used, reason = "k.max(1) >= 1 rounds run and the first sets best")]
fn tournament<'a>(
    population: &'a [Vec<usize>],
    scores: &[f64],
    k: usize,
    rng: &mut impl Rng,
) -> &'a [usize] {
    let mut best: Option<usize> = None;
    for _ in 0..k.max(1) {
        let i = rng.gen_range(0..population.len());
        if best.is_none_or(|b| scores[i] < scores[b]) {
            best = Some(i);
        }
    }
    &population[best.expect("k >= 1")]
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

    fn grid2x3() -> QoNInstance {
        // 0-1-2 / 3-4-5 grid.
        let edges = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)];
        let g = Graph::from_edges(6, &edges);
        let sizes: Vec<BigUint> = (0..6).map(|i| BigUint::from(3 + 4 * i as u64)).collect();
        let mut s = SelectivityMatrix::new();
        let mut w = AccessCostMatrix::new();
        for (u, v) in edges {
            let sel = BigRational::new(BigInt::one(), BigUint::from(3u64));
            s.set(u, v, sel.clone());
            for (j, k) in [(u, v), (v, u)] {
                let lower = (BigRational::from(sizes[j].clone()) * &sel).ceil();
                w.set(j, k, lower.magnitude().clone());
            }
        }
        QoNInstance::new(g, sizes, s, w)
    }

    #[test]
    fn crossover_produces_permutation() {
        let mut rng = StdRng::seed_from_u64(9);
        let a: Vec<usize> = (0..10).collect();
        let mut b = a.clone();
        b.reverse();
        for _ in 0..20 {
            let c = order_crossover(&a, &b, &mut rng);
            let _ = JoinSequence::new(c); // panics if not a permutation
        }
    }

    #[test]
    fn ga_close_to_optimum_small() {
        let inst = grid2x3();
        let mut rng = StdRng::seed_from_u64(5);
        let z = optimize(&inst, &GaParams::default(), &mut rng);
        let gc: BigRational = inst.total_cost(&z);
        let opt: crate::Optimum<BigRational> = exhaustive::optimize(&inst);
        assert!(gc >= opt.cost);
        assert!(CostScalar::log2(&gc) - CostScalar::log2(&opt.cost) < 2.0, "GA off by 4x+");
    }

    #[test]
    fn tiny_instance_identity() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let mut s = SelectivityMatrix::new();
        s.set(0, 1, BigRational::new(BigInt::one(), BigUint::from(2u64)));
        let mut w = AccessCostMatrix::new();
        w.set(0, 1, BigUint::from(1u64));
        w.set(1, 0, BigUint::from(1u64));
        let inst = QoNInstance::new(g, vec![BigUint::from(2u64); 2], s, w);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(optimize(&inst, &GaParams::default(), &mut rng).len(), 2);
    }
}

//! Integration: every optimizer agrees with every other where their scopes
//! overlap — exhaustive = DP; IKKBZ = DP on trees;
//! heuristics never beat the optimum; QO_H decomposition DP = brute force.

use aqo_bignum::{BigInt, BigRational, BigUint, LogNum};
use aqo_core::qoh::QoHInstance;
use aqo_core::qon::QoNInstance;
use aqo_core::{AccessCostMatrix, CostScalar, JoinSequence, SelectivityMatrix};
use aqo_graph::generators;
use aqo_optimizer::{dp, exhaustive, genetic, greedy, ikkbz, local_search, pipeline};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn qon_instance(n: usize, extra_edges: usize, rng: &mut StdRng) -> QoNInstance {
    let g = generators::random_connected(n, (n - 1 + extra_edges).min(n * (n - 1) / 2), rng);
    let sizes: Vec<BigUint> = (0..n).map(|_| BigUint::from(rng.gen_range(2u64..300))).collect();
    let mut s = SelectivityMatrix::new();
    let mut w = AccessCostMatrix::new();
    for (u, v) in g.edges().collect::<Vec<_>>() {
        let sel = BigRational::new(BigInt::one(), BigUint::from(rng.gen_range(2u64..40)));
        s.set(u, v, sel.clone());
        for (j, k) in [(u, v), (v, u)] {
            let lower = (BigRational::from(sizes[j].clone()) * &sel).ceil();
            w.set(j, k, lower.magnitude().clone());
        }
    }
    QoNInstance::new(g, sizes, s, w)
}

#[test]
fn exact_optimizers_agree() {
    let mut rng = StdRng::seed_from_u64(100);
    for trial in 0..6 {
        let inst = qon_instance(7, 4, &mut rng);
        let ex = exhaustive::optimize::<BigRational>(&inst);
        let d = dp::optimize::<BigRational>(&inst, true).unwrap();
        assert_eq!(ex.cost, d.cost, "trial {trial}");
        // And the no-cartesian variants.
        let exn = exhaustive::optimize_no_cartesian::<BigRational>(&inst).unwrap();
        let dn = dp::optimize::<BigRational>(&inst, false).unwrap();
        assert_eq!(exn.cost, dn.cost, "trial {trial}");
    }
}

#[test]
fn ikkbz_equals_dp_on_trees() {
    let mut rng = StdRng::seed_from_u64(200);
    for trial in 0..8 {
        let inst = qon_instance(2 + trial % 8, 0, &mut rng);
        if inst.graph().m() != inst.n() - 1 {
            continue;
        }
        let ik = ikkbz::optimize(&inst);
        let d = dp::optimize::<BigRational>(&inst, false).unwrap();
        assert_eq!(ik.cost, d.cost, "trial {trial}");
    }
}

#[test]
fn heuristics_never_beat_the_optimum() {
    let mut rng = StdRng::seed_from_u64(300);
    let inst = qon_instance(9, 5, &mut rng);
    let opt = dp::optimize::<BigRational>(&inst, true).unwrap();
    let candidates: Vec<JoinSequence> = vec![
        greedy::min_intermediate(&inst, true).unwrap(),
        greedy::min_incremental_cost(&inst, true).unwrap(),
        local_search::hill_climb(&inst, 2, &mut rng),
        local_search::simulated_annealing(
            &inst,
            &local_search::SaParams { iterations: 2000, ..Default::default() },
            &mut rng,
        ),
        genetic::optimize(
            &inst,
            &genetic::GaParams { population: 16, generations: 25, ..Default::default() },
            &mut rng,
        ),
        greedy::random_sequence(9, &mut rng),
    ];
    for (i, z) in candidates.iter().enumerate() {
        let c: BigRational = inst.total_cost(z);
        assert!(c >= opt.cost, "heuristic {i} beat the exact optimum?!");
    }
}

#[test]
fn log_backend_dp_matches_exact_dp() {
    let mut rng = StdRng::seed_from_u64(400);
    for trial in 0..5 {
        let inst = qon_instance(8, 4, &mut rng);
        let exact = dp::optimize::<BigRational>(&inst, true).unwrap();
        let log = dp::optimize::<LogNum>(&inst, true).unwrap();
        let recost: BigRational = inst.total_cost(&log.sequence);
        let diff = CostScalar::log2(&recost) - CostScalar::log2(&exact.cost);
        assert!(diff.abs() < 1e-6, "trial {trial}: log DP diverged by {diff} bits");
    }
}

#[test]
fn qoh_decomposition_dp_matches_bruteforce() {
    let mut g = aqo_graph::Graph::new(6);
    let mut s = SelectivityMatrix::new();
    for v in 1..6 {
        g.add_edge(v - 1, v);
        s.set(v - 1, v, BigRational::new(BigInt::one(), BigUint::from(6u64)));
    }
    for mem in [40u64, 120, 400, 2000] {
        let inst =
            QoHInstance::new(g.clone(), vec![BigUint::from(400u64); 6], s.clone(), BigUint::from(mem));
        let z = JoinSequence::identity(6);
        let a = pipeline::best_decomposition(&inst, &z);
        let b = pipeline::best_decomposition_bruteforce(&inst, &z);
        match (a, b) {
            (Some((_, ca)), Some((_, cb))) => assert_eq!(ca, cb, "mem {mem}"),
            (None, None) => {}
            other => panic!("feasibility mismatch at mem {mem}: {other:?}"),
        }
    }
}

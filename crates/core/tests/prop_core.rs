//! Property tests for the cost models: backend agreement, sequence
//! invariants, and QO_H allocation optimality against random allocations.

use aqo_bignum::{BigInt, BigRational, BigUint, LogNum};
use aqo_core::qoh::{PipelineDecomposition, QoHInstance};
use aqo_core::qon::QoNInstance;
use aqo_core::{AccessCostMatrix, CostScalar, JoinSequence, SelectivityMatrix};
use aqo_graph::Graph;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A random connected QO_N instance on `n` vertices, sizes in [2, 64],
/// selectivities 1/d with d in [2, 16], w set to the lower bound t·s
/// (always valid).
fn qon_instance() -> impl Strategy<Value = (QoNInstance, u64)> {
    (3usize..7, any::<u64>()).prop_map(|(n, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut g = Graph::new(n);
        // Random spanning tree + extra edges.
        for v in 1..n {
            let u = (next() % v as u64) as usize;
            g.add_edge(u, v);
        }
        for _ in 0..n {
            let u = (next() % n as u64) as usize;
            let v = (next() % n as u64) as usize;
            if u != v {
                g.add_edge(u, v);
            }
        }
        let sizes: Vec<BigUint> = (0..n).map(|_| BigUint::from(2 + next() % 63)).collect();
        let mut s = SelectivityMatrix::new();
        let mut w = AccessCostMatrix::new();
        for (u, v) in g.edges().collect::<Vec<_>>() {
            let d = 2 + next() % 15;
            let sel = BigRational::new(BigInt::one(), BigUint::from(d));
            s.set(u, v, sel.clone());
            // w(j,k) = ceil(t_j·s) is within [t_j·s, t_j].
            for (j, k) in [(u, v), (v, u)] {
                let lower = (BigRational::from(sizes[j].clone()) * &sel).ceil();
                w.set(j, k, lower.magnitude().clone());
            }
        }
        (QoNInstance::new(g, sizes, s, w), seed)
    })
}

/// One builder call of [`set_sequence`].
#[derive(Clone, Debug)]
enum SetCall {
    /// `SelectivityMatrix::set(u, v, 1/d)`.
    Sel(usize, usize, u64),
    /// `AccessCostMatrix::set(j, k, w)`.
    Access(usize, usize, u64),
}

/// A random graph on `n` vertices, sizes, and a `set` sequence that covers
/// every edge and then keeps going at random: pairs in either orientation,
/// out of edge order, overwritten, and off the query graph. Sizes are even
/// in [16, 64], selectivities `1/d` with `d` in [2, 16] and access costs in
/// `[t_j/2, t_j]`, so every value is valid whichever `set` ends up last.
fn set_sequence() -> impl Strategy<Value = (Graph, Vec<BigUint>, Vec<SetCall>)> {
    (3usize..8, any::<u64>(), 0usize..40).prop_map(|(n, seed, extra)| {
        let mut state = seed | 1;
        let mut next = move |m: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % m as u64) as usize
        };
        let mut g = Graph::new(n);
        for _ in 0..2 * n {
            let (u, v) = (next(n), next(n));
            if u != v {
                g.add_edge(u, v);
            }
        }
        let t: Vec<u64> = (0..n).map(|_| 2 * (8 + next(25)) as u64).collect();
        let mut calls = Vec::new();
        let mut edges: Vec<(usize, usize)> = g.edges().collect();
        // Cover every edge, in a shuffled order and orientation.
        for i in (1..edges.len()).rev() {
            edges.swap(i, next(i + 1));
        }
        let access = |j: usize, r: usize| t[j] / 2 + (r as u64 % (t[j] / 2 + 1));
        for &(u, v) in &edges {
            let (a, b) = if next(2) == 0 { (u, v) } else { (v, u) };
            calls.push(SetCall::Sel(a, b, 2 + next(15) as u64));
            calls.push(SetCall::Access(b, a, access(b, next(64))));
            calls.push(SetCall::Access(a, b, access(a, next(64))));
        }
        for _ in 0..extra {
            let (u, v) = (next(n), next(n));
            if u == v {
                continue;
            }
            calls.push(if next(2) == 0 {
                SetCall::Sel(u, v, 2 + next(15) as u64)
            } else {
                SetCall::Access(u, v, access(u, next(64)))
            });
        }
        (g, t.into_iter().map(BigUint::from).collect(), calls)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn qon_backends_agree((inst, seed) in qon_instance()) {
        let n = inst.n();
        let mut order: Vec<usize> = (0..n).collect();
        // Pseudo-shuffle by seed.
        for i in (1..n).rev() {
            let j = (seed.wrapping_mul(i as u64 + 7) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let z = JoinSequence::new(order);
        let exact: BigRational = inst.total_cost(&z);
        let log: LogNum = inst.total_cost(&z);
        let d = (CostScalar::log2(&exact) - CostScalar::log2(&log)).abs();
        prop_assert!(d < 1e-6, "log2 mismatch {d}");
    }

    #[test]
    fn edge_table_matches_a_last_write_model((g, t, calls) in set_sequence()) {
        let unit = |d: u64| BigRational::new(BigInt::one(), BigUint::from(d));
        let (mut sel, mut acc) = (SelectivityMatrix::new(), AccessCostMatrix::new());
        let mut sel_model: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        let mut w_model: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for call in &calls {
            match *call {
                SetCall::Sel(u, v, d) => {
                    sel.set(u, v, unit(d));
                    sel_model.insert((u.min(v), u.max(v)), d);
                }
                SetCall::Access(j, k, w) => {
                    acc.set(j, k, BigUint::from(w));
                    w_model.insert((j, k), w);
                }
            }
        }
        let inst = QoNInstance::new(g.clone(), t.clone(), sel, acc);
        // The table holds exactly the model's entries on the query edges.
        let table: Vec<(usize, usize, BigRational)> =
            inst.edges().map(|(u, v, s, _)| (u, v, s.clone())).collect();
        let expected: Vec<(usize, usize, BigRational)> = sel_model
            .iter()
            .filter(|&(&(u, v), _)| g.has_edge(u, v))
            .map(|(&(u, v), &d)| (u, v, unit(d)))
            .collect();
        prop_assert_eq!(&table, &expected);
        // `w(j, k)`: the last `set` on an edge, `t_j` off the query graph.
        let n = g.n();
        for (j, t_j) in t.iter().enumerate() {
            for k in (0..n).filter(|&k| k != j) {
                let want = match w_model.get(&(j, k)) {
                    Some(&w) if g.has_edge(j, k) => BigUint::from(w),
                    _ => t_j.clone(),
                };
                prop_assert_eq!(inst.w(j, k), &want, "w({}, {})", j, k);
            }
        }
        // The same instance from the model's final values, set once each
        // in edge order, has the same text and canonical key.
        let (mut sel, mut acc) = (SelectivityMatrix::new(), AccessCostMatrix::new());
        for (u, v, s) in expected {
            sel.set(u, v, s);
            for (j, k) in [(u, v), (v, u)] {
                acc.set(j, k, BigUint::from(w_model[&(j, k)]));
            }
        }
        let clean = QoNInstance::new(g, t, sel, acc);
        let text = aqo_core::textio::qon_to_text(&inst);
        prop_assert_eq!(&text, &aqo_core::textio::qon_to_text(&clean));
        let back = aqo_core::textio::qon_from_text(&text).unwrap();
        prop_assert_eq!(&aqo_core::textio::qon_to_text(&back), &text);
        let key = aqo_core::fingerprint::canonical_qon(&inst);
        prop_assert_eq!(&key, &aqo_core::fingerprint::canonical_qon(&clean));
        prop_assert_eq!(&key, &aqo_core::fingerprint::canonical_qon(&back));
    }

    #[test]
    fn qon_final_intermediate_order_invariant((inst, _) in qon_instance()) {
        let n = inst.n();
        let mut finals: Vec<BigRational> = Vec::new();
        for perm in aqo_core::join::permutations(n).take(24) {
            let z = JoinSequence::new(perm);
            let c = inst.cost::<BigRational>(&z);
            finals.push(c.intermediates[n - 1].clone());
        }
        prop_assert!(finals.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn qon_cost_positive_and_total_is_sum((inst, _) in qon_instance()) {
        let z = JoinSequence::identity(inst.n());
        let c = inst.cost::<BigRational>(&z);
        let sum: BigRational = c.per_join.iter().cloned().sum();
        prop_assert_eq!(&sum, &c.total);
        prop_assert!(c.total.is_positive());
        prop_assert_eq!(c.per_join.len(), inst.n() - 1);
        prop_assert_eq!(c.intermediates.len(), inst.n());
    }

    #[test]
    fn qon_densities_match_back_edges((inst, _) in qon_instance()) {
        let z = JoinSequence::identity(inst.n());
        let b = inst.back_edges(&z);
        let d = inst.prefix_densities(&z);
        let mut acc = 0;
        for i in 0..b.len() {
            acc += b[i];
            prop_assert_eq!(d[i], acc);
        }
        // Full-sequence density = |E|.
        prop_assert_eq!(*d.last().unwrap(), inst.graph().m());
    }

    #[test]
    fn qoh_optimal_allocation_dominates_random(seed in any::<u64>(), n in 3usize..6) {
        // Path query with uniform sizes; compare the closed-form optimal
        // allocation against random feasible allocations.
        let mut g = Graph::new(n);
        let mut s = SelectivityMatrix::new();
        for v in 1..n {
            g.add_edge(v - 1, v);
            s.set(v - 1, v, BigRational::new(BigInt::one(), BigUint::from(4u64)));
        }
        let sizes = vec![BigUint::from(256u64); n];
        // Memory: enough for hjmin everywhere plus some slack.
        let m_total = BigUint::from(16 * n as u64 + seed % 200);
        let inst = QoHInstance::new(g, sizes, s, m_total.clone());
        let z = JoinSequence::identity(n);
        let inter: Vec<BigRational> = inst.intermediates(&z);
        let frag = (1usize, n - 1);
        let opt_alloc = match inst.optimal_allocation(&z, frag, &inter) {
            Some(a) => a,
            None => return Ok(()), // infeasible budget; nothing to compare
        };
        let opt = inst.fragment_cost(&z, frag, &opt_alloc, &inter).unwrap();
        // Random feasible allocation: hjmin each + random split of leftover.
        let hj = inst.hjmin(&BigUint::from(256u64));
        let mandatory: BigUint = (1..n).fold(BigUint::zero(), |acc, _| acc + hj.clone());
        let leftover = m_total.checked_sub(&mandatory).unwrap_or_default();
        let mut alloc: Vec<BigRational> =
            (1..n).map(|_| BigRational::from(hj.clone())).collect();
        // Give all the leftover to a pseudo-random single join.
        let idx = (seed % (n as u64 - 1)) as usize;
        alloc[idx] = &alloc[idx] + &BigRational::from(leftover);
        if let Some(rand_cost) = inst.fragment_cost(&z, frag, &alloc, &inter) {
            prop_assert!(opt <= rand_cost, "optimal {} > random {}", opt, rand_cost);
        }
    }

    #[test]
    fn qoh_more_memory_never_hurts(extra in 0u64..500, n in 3usize..6) {
        let mut g = Graph::new(n);
        let mut s = SelectivityMatrix::new();
        for v in 1..n {
            g.add_edge(v - 1, v);
            s.set(v - 1, v, BigRational::new(BigInt::one(), BigUint::from(8u64)));
        }
        let sizes = vec![BigUint::from(400u64); n];
        let base_mem = BigUint::from(20 * (n as u64));
        let small = QoHInstance::new(g.clone(), sizes.clone(), s.clone(), base_mem.clone());
        let big = QoHInstance::new(g, sizes, s, base_mem + BigUint::from(extra));
        let z = JoinSequence::identity(n);
        let d = PipelineDecomposition::single_pipeline(n);
        match (small.plan_cost_optimal_alloc(&z, &d), big.plan_cost_optimal_alloc(&z, &d)) {
            (Some(cs), Some(cb)) => prop_assert!(cb <= cs, "more memory increased cost"),
            (None, _) => {}
            (Some(_), None) => prop_assert!(false, "more memory made the plan infeasible"),
        }
    }

    #[test]
    fn qoh_h_is_monotone_decreasing_in_memory(bs in 16u64..4096, br in 1u64..100_000, steps in 2usize..8) {
        // h(m, b_R, b_S) never increases as a join gets more memory.
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        let mut s = SelectivityMatrix::new();
        s.set(0, 1, BigRational::new(BigInt::one(), BigUint::from(2u64)));
        let inst = QoHInstance::new(
            g,
            vec![BigUint::from(br.max(1)), BigUint::from(bs)],
            s,
            BigUint::from(bs + 1),
        );
        let hj = inst.hjmin(&BigUint::from(bs));
        let hj_v = hj.to_u64().unwrap();
        let br_s = BigRational::from(br);
        let mut prev: Option<BigRational> = None;
        for i in 0..steps {
            // Sweep m from hjmin to beyond bs.
            let m = hj_v + (bs + 10 - hj_v) * i as u64 / (steps as u64 - 1);
            let h = inst.h(&BigRational::from(m), &br_s, &BigUint::from(bs))
                .expect("m >= hjmin");
            if let Some(p) = prev {
                prop_assert!(h <= p, "h increased with memory");
            }
            prev = Some(h);
        }
    }

    #[test]
    fn qoh_g_bounds(bs in 4u64..10_000, m_frac in 0.0f64..1.5) {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        let mut s = SelectivityMatrix::new();
        s.set(0, 1, BigRational::new(BigInt::one(), BigUint::from(2u64)));
        let inst = QoHInstance::new(
            g,
            vec![BigUint::from(bs); 2],
            s,
            BigUint::from(bs),
        );
        let hj = inst.hjmin(&BigUint::from(bs)).to_u64().unwrap();
        let m = hj + ((bs as f64 * m_frac) as u64);
        match inst.g(&BigRational::from(m), &BigUint::from(bs)) {
            Some(gv) => {
                prop_assert!(gv >= BigRational::zero());
                prop_assert!(gv <= BigRational::one());
            }
            None => prop_assert!(m < hj, "g undefined only below hjmin"),
        }
    }

    #[test]
    fn qoh_decomposition_cost_additive(n in 3usize..6) {
        // Cost of singleton fragments equals the sum of per-fragment costs
        // computed independently.
        let mut g = Graph::new(n);
        let mut s = SelectivityMatrix::new();
        for v in 1..n {
            g.add_edge(v - 1, v);
            s.set(v - 1, v, BigRational::new(BigInt::one(), BigUint::from(2u64)));
        }
        let sizes = vec![BigUint::from(64u64); n];
        let inst = QoHInstance::new(g, sizes, s, BigUint::from(1000u64));
        let z = JoinSequence::identity(n);
        let inter: Vec<BigRational> = inst.intermediates(&z);
        let total = inst
            .plan_cost_optimal_alloc(&z, &PipelineDecomposition::singletons(n))
            .unwrap();
        let mut sum = BigRational::zero();
        for j in 1..n {
            let alloc = inst.optimal_allocation(&z, (j, j), &inter).unwrap();
            sum = &sum + &inst.fragment_cost(&z, (j, j), &alloc, &inter).unwrap();
        }
        prop_assert_eq!(total, sum);
    }
}

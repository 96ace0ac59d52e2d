//! EXPLAIN-style plan rendering: human-readable breakdowns of QO_N join
//! sequences and QO_H pipeline plans, with per-operator costs in both exact
//! and log₂ form.

use crate::qoh::{PipelineDecomposition, QoHInstance};
use crate::qon::QoNInstance;
use crate::{CostScalar, JoinSequence};
use aqo_bignum::BigRational;
use std::fmt::Write as _;

fn short(v: &BigRational) -> String {
    let bits = CostScalar::log2(v);
    if bits < 40.0 {
        format!("{v}")
    } else {
        format!("2^{bits:.1}")
    }
}

/// Renders a QO_N sequence as an operator-by-operator cost table.
pub fn explain_qon(inst: &QoNInstance, z: &JoinSequence) -> String {
    let report = inst.cost::<BigRational>(z);
    let back = inst.back_edges(z);
    let mut out = String::new();
    let _ = writeln!(out, "QO_N plan over {} relations (left-deep)", inst.n());
    let _ = writeln!(out, "  scan R{:<4} |R| = {}", z.at(0), short(&report.intermediates[0]));
    for (i, &back_i) in back.iter().enumerate().skip(1) {
        let j = z.at(i);
        let kind = if back_i == 0 { "cartesian ⨯" } else { "join ⋈" };
        let _ = writeln!(
            out,
            "  {kind} R{:<4} H_{:<3} = {:<14} N_{:<3} = {:<14} back-edges = {}",
            j,
            i,
            short(&report.per_join[i - 1]),
            i,
            short(&report.intermediates[i]),
            back_i,
        );
    }
    let _ = writeln!(out, "  total C(Z) = {}  ({} bits)", short(&report.total), format_args!("{:.2}", CostScalar::log2(&report.total)));
    out
}

/// Renders a QO_H plan (sequence + decomposition, with per-fragment optimal
/// allocations) pipeline by pipeline. Returns `None` if infeasible.
pub fn explain_qoh(
    inst: &QoHInstance,
    z: &JoinSequence,
    decomp: &PipelineDecomposition,
) -> Option<String> {
    let inter: Vec<BigRational> = inst.intermediates(z);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "QO_H plan over {} relations, M = {} pages, {} pipeline(s)",
        inst.n(),
        inst.memory(),
        decomp.fragments().len()
    );
    let mut total = BigRational::zero();
    for (pi, &(i, k)) in decomp.fragments().iter().enumerate() {
        let alloc = inst.optimal_allocation(z, (i, k), &inter)?;
        let cost = inst.fragment_cost(z, (i, k), &alloc, &inter)?;
        let _ = writeln!(
            out,
            "  pipeline P{} = J_{i}..J_{k}: read {} … write {}  cost {}",
            pi + 1,
            short(&inter[i - 1]),
            short(&inter[k]),
            short(&cost),
        );
        for j in i..=k {
            let inner = inst.inner_size(z, j);
            let hj = inst.relation_hjmin(z.at(j));
            let m = &alloc[j - i];
            let status = if *m >= BigRational::from(inner.clone()) {
                "in-memory"
            } else if *m == BigRational::from(hj.clone()) {
                "minimum memory"
            } else {
                "partial"
            };
            let _ = writeln!(
                out,
                "    J_{j}: build R{} (|R| = {}), m = {} pages [{status}], outer = {}",
                z.at(j),
                inner,
                short(m),
                short(&inter[j - 1]),
            );
        }
        total = &total + &cost;
    }
    let _ = writeln!(out, "  total = {}  ({:.2} bits)", short(&total), CostScalar::log2(&total));
    Some(out)
}

/// Renders an SQO−CP star plan operator by operator (Appendix A cost
/// function `D`).
pub fn explain_star(inst: &crate::sqo::SqoCpInstance, plan: &crate::sqo::StarPlan) -> String {
    use crate::sqo::JoinMethod;
    let mut out = String::new();
    let total = inst.plan_cost(plan);
    let _ = writeln!(
        out,
        "SQO−CP star plan over R0..R{} (k_s = {})",
        inst.m(),
        inst.ks()
    );
    let _ = writeln!(out, "  scan R{}", plan.order[0]);
    let mut sats: Vec<usize> = Vec::new();
    for pos in 1..plan.order.len() {
        let rel = plan.order[pos];
        let method = match plan.methods[pos - 1] {
            JoinMethod::NestedLoops => "nested-loops",
            JoinMethod::SortMerge => "sort-merge  ",
        };
        if rel != 0 {
            sats.push(rel);
        }
        let n_w = inst.intermediate_tuples(&sats);
        let _ = writeln!(out, "  {method} ⋈ R{rel:<4} n(W) = {}", short(&n_w));
    }
    let _ = writeln!(out, "  total C(Z) = {}  ({:.2} bits)", short(&total), CostScalar::log2(&total));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessCostMatrix, SelectivityMatrix};
    use aqo_bignum::{BigInt, BigUint};
    use aqo_graph::Graph;

    fn qon() -> QoNInstance {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let sizes = vec![BigUint::from(10u64), BigUint::from(20u64), BigUint::from(30u64)];
        let mut s = SelectivityMatrix::new();
        s.set(0, 1, BigRational::new(BigInt::one(), BigUint::from(2u64)));
        s.set(1, 2, BigRational::new(BigInt::one(), BigUint::from(10u64)));
        let mut w = AccessCostMatrix::new();
        w.set(0, 1, BigUint::from(5u64));
        w.set(1, 0, BigUint::from(10u64));
        w.set(1, 2, BigUint::from(2u64));
        w.set(2, 1, BigUint::from(3u64));
        QoNInstance::new(g, sizes, s, w)
    }

    #[test]
    fn qon_explain_mentions_every_join() {
        let inst = qon();
        let text = explain_qon(&inst, &JoinSequence::new(vec![0, 1, 2]));
        assert!(text.contains("scan R0"));
        assert!(text.contains("join ⋈ R1"));
        assert!(text.contains("join ⋈ R2"));
        assert!(text.contains("total C(Z) = 400"));
    }

    #[test]
    fn qon_explain_flags_cartesian_products() {
        let inst = qon();
        let text = explain_qon(&inst, &JoinSequence::new(vec![0, 2, 1]));
        assert!(text.contains("cartesian ⨯ R2"));
    }

    #[test]
    fn qoh_explain_shows_pipelines_and_memory_status() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let mut s = SelectivityMatrix::new();
        s.set(0, 1, BigRational::new(BigInt::one(), BigUint::from(4u64)));
        s.set(1, 2, BigRational::new(BigInt::one(), BigUint::from(4u64)));
        let inst = QoHInstance::new(
            g,
            vec![BigUint::from(256u64); 3],
            s,
            BigUint::from(300u64),
        );
        let z = JoinSequence::identity(3);
        let text =
            explain_qoh(&inst, &z, &PipelineDecomposition::single_pipeline(3)).expect("feasible");
        assert!(text.contains("pipeline P1 = J_1..J_2"));
        assert!(text.contains("build R1"));
        assert!(text.contains("build R2"));
        assert!(text.contains("total = "));
    }

    #[test]
    fn star_explain_shows_methods() {
        use crate::sqo::{JoinMethod, SqoCpInstance, StarPlan};
        let inst = SqoCpInstance::new(
            4,
            vec![BigUint::from(10u64), BigUint::from(6u64), BigUint::from(4u64)],
            vec![BigUint::from(10u64), BigUint::from(6u64), BigUint::from(4u64)],
            vec![BigUint::from(40u64), BigUint::from(24u64), BigUint::from(16u64)],
            vec![
                BigRational::one(),
                BigRational::new(BigInt::one(), BigUint::from(2u64)),
                BigRational::new(BigInt::one(), BigUint::from(4u64)),
            ],
            vec![BigUint::zero(), BigUint::from(3u64), BigUint::from(2u64)],
            vec![BigUint::zero(), BigUint::from(5u64), BigUint::from(5u64)],
        );
        let plan = StarPlan::new(
            vec![0, 1, 2],
            vec![JoinMethod::NestedLoops, JoinMethod::SortMerge],
        );
        let text = explain_star(&inst, &plan);
        assert!(text.contains("nested-loops ⋈ R1"));
        assert!(text.contains("sort-merge"));
        assert!(text.contains("total C(Z)"));
    }

    #[test]
    fn qoh_explain_infeasible_is_none() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        let mut s = SelectivityMatrix::new();
        s.set(0, 1, BigRational::new(BigInt::one(), BigUint::from(2u64)));
        let inst =
            QoHInstance::new(g, vec![BigUint::from(10_000u64); 2], s, BigUint::from(3u64));
        let z = JoinSequence::identity(2);
        assert!(explain_qoh(&inst, &z, &PipelineDecomposition::single_pipeline(2)).is_none());
    }
}

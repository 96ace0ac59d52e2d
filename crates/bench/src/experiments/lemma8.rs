//! E5 — Lemma 8: the certified lower bound `w·a^{e(e+1)/2 + e − ω}` holds
//! for *every* join sequence of an `f_N` instance. Verified two ways:
//! against the exact optimum where a subset DP is feasible — the two-phase
//! engine, cross-checked against the reference `dp` up to n = 14 — and as
//! a certified (Lemma 7 powered) statement at sizes far beyond any
//! optimizer.

use crate::table::{cell, log2_cell, verdict, Table};
use aqo_bignum::{BigRational, BigUint};
use aqo_core::budget::run_unlimited;
use aqo_core::CostScalar;
use aqo_graph::{clique, generators};
use aqo_optimizer::{dp, engine};
use aqo_reductions::fn_reduction;

/// Largest `n` whose engine optimum is also recomputed by the reference
/// `dp` (a dense `2^n` table of `BigRational`s).
const DP_CROSS_CHECK_MAX_N: usize = 14;

/// Runs E5.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E5 / Lemma 8 — every sequence costs ≥ w·a^{e(e+1)/2 + e − ω}",
        &["n", "ω", "e", "log₂ LB", "log₂ C(optimal)", "optimum ≥ LB", "mode", "verdict"],
    );
    let a = BigUint::from(4u64);
    // Exact mode: sizes a subset DP can solve.
    let exact = [
        (8usize, 5usize, 6u64),
        (10, 6, 7),
        (12, 7, 9),
        (14, 8, 10),
        (16, 9, 12),
        (18, 10, 13),
        (20, 11, 15),
    ];
    for (n, k, e) in exact {
        let g = generators::dense_known_omega(n, k);
        let omega = clique::clique_number(&g) as u64;
        let red = fn_reduction::reduce(&g, &a, e);
        let lb = BigRational::from(fn_reduction::lemma8_lower_bound(&a, e, omega, n as u64));
        let opts = engine::DpOptions { allow_cartesian: true, threads: 0 };
        let opt = run_unlimited(|b| {
            engine::optimize_two_phase::<BigRational>(&red.instance, &opts, b)
        })
        .expect("cartesian products allowed: always feasible");
        let mode = if n <= DP_CROSS_CHECK_MAX_N {
            let reference = dp::optimize::<BigRational>(&red.instance, true).expect("connected");
            assert_eq!(reference.cost, opt.cost, "engine and dp disagree at n = {n}");
            "exact DP (engine = dp)"
        } else {
            "exact DP (engine)"
        };
        let ok = opt.cost >= lb;
        t.row(vec![
            cell(n),
            cell(omega),
            cell(e),
            log2_cell(lb.log2()),
            log2_cell(CostScalar::log2(&opt.cost)),
            cell(ok),
            mode.into(),
            verdict(ok),
        ]);
    }
    // Certified mode: the bound applies to all n! sequences; we evaluate it
    // and exhibit the Lemma 6 witness as an upper companion.
    for (n, k, e) in [(32usize, 20usize, 24u64), (64, 40, 48), (96, 60, 72)] {
        let g = generators::dense_known_omega(n, k);
        let omega = clique::clique_number(&g) as u64;
        let red = fn_reduction::reduce(&g, &a, e);
        let lb = BigRational::from(fn_reduction::lemma8_lower_bound(&a, e, omega, n as u64));
        // Certified: any witness we can produce must respect the bound.
        let witness = clique::max_clique(&g);
        let z = fn_reduction::lemma6_sequence(&g, &witness);
        let c: BigRational = red.instance.total_cost(&z);
        let ok = c >= lb;
        t.row(vec![
            cell(n),
            cell(omega),
            cell(e),
            log2_cell(lb.log2()),
            log2_cell(CostScalar::log2(&c)),
            cell(ok),
            "certified (witness shown)".into(),
            verdict(ok),
        ]);
    }
    t.note("LB is valid for every sequence: C(Z) ≥ H_e(Z) ≥ w·a^{e·e − D_e(Z)} and Lemma 7 caps D_e. In 'certified' mode the DP is infeasible (n! and 2^n both astronomical); the bound itself is the paper's instrument at scale.");
    vec![t]
}

//! Problem definitions and cost semantics for the three query-optimization
//! variants studied in *On the Complexity of Approximate Query Optimization*
//! (PODS 2002):
//!
//! * [`qon`] — **QO_N** (§2.1): left-deep join sequences costed under the
//!   nested-loops model of Ibaraki–Kameda. An instance is
//!   `(n, Q = (V,E), S, T, W)`: query graph, selectivity matrix, relation
//!   sizes, and access-path cost matrix.
//! * [`qoh`] — **QO_H** (§2.2): join sequences executed as *pipelined hash
//!   joins*; a plan is a join sequence plus a pipeline decomposition plus a
//!   memory-allocation vector. An instance is `(n, Q, S, T, M)`.
//! * [`sqo`] — **SQO−CP** (Appendix A): star queries without cartesian
//!   products, joins computed by nested loops or sort-merge.
//!
//! Costs are evaluated generically over a [`scalar::CostScalar`]: the exact
//! backend ([`aqo_bignum::BigRational`]) is used for every certified
//! inequality, and the fast float backend ([`aqo_bignum::LogNum`]) powers
//! the optimizers. The two agree to floating-point precision (tested by
//! property tests).

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

pub mod budget;
pub mod explain;
pub mod fingerprint;
pub mod interleave;
pub mod join;
pub mod parallel;
pub mod qoh;
pub mod qon;
pub mod scalar;
pub mod selmatrix;
pub mod sqo;
pub mod textio;
pub mod workloads;

pub use budget::{Budget, BudgetExceeded, BudgetKind, CancelToken};
pub use join::JoinSequence;
pub use scalar::CostScalar;
pub use selmatrix::{AccessCostMatrix, SelectivityMatrix};

//! Exact and heuristic optimizers for the three cost models.
//!
//! The paper proves that no polynomial-time algorithm can approximate QO_N
//! or QO_H within `2^{log^{1−δ} K}` unless P = NP. This crate supplies both
//! sides of that statement in executable form:
//!
//! * **Exact optimizers** — ground truth on small instances and the
//!   machinery the experiments use to *verify* the reductions' cost claims:
//!   - [`exhaustive`] — all `n!` sequences (tiny `n`; a test oracle);
//!   - [`dp`] — Selinger-style dynamic programming over vertex subsets
//!     (left-deep plans), exact for the QO_N cost model since both `N(X)`
//!     and `min_k w_{jk}` depend on the prefix only through its *set*;
//!     the reference oracle for the engine;
//!   - [`engine`] — the allocation-lean two-phase subset DP engine over
//!     sparse per-layer frontiers ([`aqo_bignum::LogNum`], layer-parallel,
//!     then exact on the prune's survivors only): the one exact QO_N DP
//!     the driver and service run;
//!   - [`ccp`] — DPccp's state space, the connected subgraphs the
//!     engine enumerates for cartesian-free requests (polynomially many
//!     on the paper's §6 sparse families), and its count;
//!   - [`pipeline`] — QO_H: optimal pipeline decomposition of a given
//!     sequence by interval DP with per-fragment optimal memory allocation;
//!   - [`star`] — SQO−CP: subset DP over satellites, plus an exhaustive
//!     cross-check.
//! * **Polynomial-time algorithms** — the objects the theorems constrain:
//!   - [`ikkbz`] — the Ibaraki–Kameda/KBZ algorithm, provably optimal for
//!     *acyclic* query graphs (the contrast drawn in §6.3);
//!   - [`greedy`] — classical greedy heuristics;
//!   - [`local_search`] — simulated annealing and hill climbing;
//!   - [`genetic`] — an order-crossover genetic algorithm.

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

pub mod ccp;
pub mod dp;
pub mod engine;
pub mod exhaustive;
pub mod genetic;
pub mod greedy;
pub mod ikkbz;
pub mod local_search;
pub mod pipeline;
pub mod star;

use aqo_core::{CostScalar, JoinSequence};

/// Outcome of a QO_N optimization: the best sequence found and its cost.
#[derive(Clone, Debug)]
pub struct Optimum<S> {
    /// The best join sequence found.
    pub sequence: JoinSequence,
    /// Its cost under the caller's scalar backend.
    pub cost: S,
}

impl<S: CostScalar> Optimum<S> {
    /// Re-costs the winning sequence under another backend (typically: the
    /// search ran in [`aqo_bignum::LogNum`], the report needs exact arithmetic).
    pub fn recost<T: CostScalar>(&self, inst: &aqo_core::qon::QoNInstance) -> Optimum<T> {
        Optimum { sequence: self.sequence.clone(), cost: inst.total_cost(&self.sequence) }
    }
}

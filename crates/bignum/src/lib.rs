//! Arbitrary-precision arithmetic for the `aqo` workspace.
//!
//! The reductions of *On the Complexity of Approximate Query Optimization*
//! (PODS 2002) manufacture query-optimization instances whose costs are of
//! the order `α^{Θ(n²)}` with `α = 4^{n^{1/δ}}` — far beyond any machine
//! numeric type. Every certified inequality reported by the experiment
//! harness is therefore evaluated in exact arithmetic.
//!
//! This crate provides, from scratch (no external bignum dependency):
//!
//! * [`BigUint`] — unsigned arbitrary-precision integers (Knuth-D division,
//!   Karatsuba multiplication above a threshold, exponentiation, radix I/O);
//! * [`BigInt`] — signed integers on top of [`BigUint`];
//! * [`BigRational`] — always-reduced rationals, the workhorse of the exact
//!   cost models (selectivities are reciprocals, so intermediate sizes are
//!   rationals);
//! * [`LogNum`] — a fast companion (an `f64` mantissa times a coarse power
//!   of two, so no overflow) used by the heuristics, the figures and the
//!   subset DP's float pass wherever its values may leave the `f64`
//!   range; cross-validated against the exact types in tests;
//! * [`FixedUint`] — an integer of exactly `L` limbs, inline and `Copy`,
//!   that panics on overflow;
//! * [`ScaledInt`] — the integer interface of the exact searches' scaled
//!   arithmetic (the QO_N engine's exact phase, the QO_H exhaustive
//!   search), implemented by `FixedUint` for values a bit bound says fit
//!   and by `BigUint` past it;
//! * [`fixed`] — rigorous fixed-point evaluation of `e^x` needed by the
//!   PARTITION → SPPCS reduction of Appendix A (`g_q(x) = 2^q·f_q(e^{x/2K})`).
//!
//! ```
//! use aqo_bignum::{BigUint, BigRational};
//!
//! // Numbers far beyond machine range, exactly.
//! let a = BigUint::from(4u64).pow(1000);
//! assert_eq!(a.bits(), 2001);
//!
//! // Selectivities are reciprocals; intermediate sizes are rationals.
//! let sel = BigRational::recip_of(BigUint::from(10u64));
//! let size = BigRational::from(1_000_000u64) * &sel * &sel;
//! assert_eq!(size, BigRational::from(10_000u64));
//! ```

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

mod fixed_uint;
mod int;
mod lognum;
mod rational;
mod scaled;
mod uint;

pub mod fixed;

pub use fixed_uint::FixedUint;
pub use int::{BigInt, Sign};
pub use lognum::LogNum;
pub use rational::BigRational;
pub use scaled::ScaledInt;
pub use uint::{write_u64, BigUint};

/// Convenience: `2^k` as a [`BigUint`].
pub fn pow2(k: u64) -> BigUint {
    BigUint::one() << k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_matches_shift() {
        assert_eq!(pow2(0), BigUint::one());
        assert_eq!(pow2(1), BigUint::from(2u64));
        assert_eq!(pow2(130), BigUint::from(1u64) << 130);
    }
}

//! `aqo-replay`: traffic record/replay regression gating and
//! execution-backed plan validation.
//!
//! Serve journals every request and `aqo-exec` can run the plans the cost
//! model prices; this crate closes the loop with three layers:
//!
//! - **Record** ([`workload`], [`extract`]) — the compact replayable
//!   `aqo-workload/v1` JSONL format: instance fingerprint, inline instance
//!   text, per-request method/fallback/budget/threads knobs, and the
//!   observed cost/plan/tier baseline with the server's handling time.
//!   Produced at request time
//!   through the serve/loadgen `--record` sinks
//!   ([`aqo_serve::record`]), or after the fact from a serve trace
//!   journal with [`extract::extract`].
//! - **Replay** ([`run`]) — re-drives every recorded request against the
//!   current build (in-process through serve's `Engine`, or a live
//!   server via the existing client) and diffs cost (exact, `aqo_bignum`
//!   comparison), plan shape and tier against the baseline. It times
//!   nothing. The deterministic `aqo-replay/v1` report lists every diff;
//!   any cost/plan regression fails the gate.
//! - **Validate** ([`validate`]) — routes instances through `aqo-exec`:
//!   synthesize data at the declared selectivities, execute the
//!   optimizer-chosen plan and each fallback tier's plan, and assert the
//!   cost model's *ordering* prediction — cheaper-by-model must not do
//!   more measured work, within a configurable tolerance over repeated
//!   trials — across chain/star/cycle and reduction-generated gap
//!   families.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extract;
pub mod run;
pub mod validate;
pub mod workload;

pub use run::ReplayReport;
pub use validate::{ValidateConfig, ValidateReport};
pub use workload::Workload;

//! `aqo-serve`: a concurrent optimization service over the AQO drivers.
//!
//! The crate exposes the paper's optimizers (`QO_N`, `QO_H`, and the
//! clique core of the hardness reductions) as a line-oriented JSONL
//! request/response service with:
//!
//! - a canonical-fingerprint **plan cache** ([`cache::PlanCache`]) —
//!   sharded, capacity-bounded, clock (second-chance) eviction, keyed by
//!   the order-independent canonical instance encoding from
//!   `aqo_core::fingerprint`;
//! - an **admission controller** ([`server::Server`]) — a fixed worker
//!   pool on `aqo_core::parallel::run_workers` behind a bounded queue;
//!   overload yields a structured `"overloaded"` error instead of
//!   unbounded buffering;
//! - **graceful shutdown** — a `shutdown` request or an idle timeout
//!   drains in-flight work, flushes the trace journal, and emits a
//!   [`server::ServiceReport`];
//! - full `aqo-obs` instrumentation (counters, gauges, the
//!   `serve.request_us` histogram, and journal events).
//!
//! Transport is deliberately boring: newline-delimited JSON over
//! `std::net::TcpListener` or stdio, parsed with `aqo_obs::json`. The
//! wire protocol lives in [`proto`], the transport-free request handler
//! in [`engine`], the blocking client in [`client`], and the
//! concurrent oracle and workload recorder behind `aqo loadgen` in
//! [`loadgen`].
//! See `docs/SERVING.md` for the protocol reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod engine;
pub mod loadgen;
pub mod proto;
pub mod record;
pub mod server;
pub mod snapshot;

pub use cache::PlanCache;
pub use client::Client;
pub use engine::{Degrade, Engine};
pub use proto::{ErrorKind, Op, Problem, Reply, Request};
pub use record::{RecordSink, RecordedRequest};
pub use server::{ServeConfig, Server, ServiceReport};

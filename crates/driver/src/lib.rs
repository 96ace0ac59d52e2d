//! Budgeted, cancellable optimization driver with graceful degradation.
//!
//! The optimizers in [`aqo_optimizer`] are a bestiary: exponential exact
//! algorithms (subset DP, exhaustive enumeration) next to
//! polynomial heuristics. This crate wraps them behind a single entry point
//! per problem — [`optimize_qon`] and [`optimize_qoh`] — that
//!
//! * runs the strongest tier first under a cooperative
//!   [`Budget`](aqo_core::Budget) (wall-clock deadline, expansion cap,
//!   memory cap, cancel token);
//! * isolates panics with `catch_unwind` and treats them like any other
//!   tier failure;
//! * retries transient injected failures (see [`aqo_obs::faults`]) a
//!   bounded number of times with doubling backoff;
//! * on failure, degrades down a configurable fallback chain
//!   (`dp → ikkbz → greedy` for QO_N, `exhaustive → greedy` for
//!   QO_H) until some tier answers;
//! * returns a [`DriverReport`] recording which tier answered, whether it
//!   is exact, how much budget was consumed, and every failure swallowed on
//!   the way down.
//!
//! The budget is *shared* across tiers: when the deadline trips in the DP
//! tier, or the instance is past the DP's cap, the chain falls through to
//! the polynomial tiers, which run unbudgeted and always terminate. A
//! chain that ends in `greedy` therefore answers every connected instance
//! — degraded, but never hung.

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

pub mod report;

pub use report::{Attempt, DriverError, DriverReport, TierFailure};

use aqo_bignum::BigRational;
use aqo_core::budget::{Budget, CancelToken};
use aqo_core::qoh::QoHInstance;
use aqo_core::qon::QoNInstance;
use aqo_obs::faults::{self, with_quiet_panics};
use aqo_optimizer::pipeline::QohPlan;
use aqo_optimizer::{engine, exhaustive, greedy, ikkbz, pipeline, Optimum};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Declarative budget limits; [`build`](BudgetSpec::build) turns them into
/// a live [`Budget`] (the clock starts then).
#[derive(Clone, Debug, Default)]
pub struct BudgetSpec {
    /// Wall-clock deadline.
    pub timeout: Option<Duration>,
    /// Cap on cooperative expansion ticks.
    pub max_expansions: Option<u64>,
    /// Cap on bytes charged for table allocations.
    pub max_memory_bytes: Option<u64>,
}

impl BudgetSpec {
    /// A spec with no limits.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Materializes the spec; the deadline countdown starts here.
    pub fn build(&self, cancel: Option<CancelToken>) -> Budget {
        let mut b = Budget::unlimited();
        if let Some(t) = self.timeout {
            b = b.with_timeout(t);
        }
        if let Some(n) = self.max_expansions {
            b = b.with_max_expansions(n);
        }
        if let Some(m) = self.max_memory_bytes {
            b = b.with_max_memory_bytes(m);
        }
        if let Some(c) = cancel {
            b = b.with_cancel_token(c);
        }
        b
    }
}

/// Bounded retry with doubling backoff, applied only to *transient*
/// failures (injected errors from the [`aqo_obs::faults`] layer). Budget
/// trips and panics never retry: they degrade immediately.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Retries per tier after the first attempt (0 disables retry).
    pub max_retries: u32,
    /// Sleep before the first retry; doubles on each subsequent one.
    pub initial_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_retries: 2, initial_backoff: Duration::from_millis(1) }
    }
}

/// The QO_N fallback tiers, strongest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QonTier {
    /// The exact subset DP ([`engine::optimize_two_phase`]). Its state
    /// space follows the request: every subset when cartesian products are
    /// admissible (reported as `dp`, `n ≤ 25`), connected subgraphs only
    /// when they are not (DPccp, reported as `ccp`, `n ≤ 32` — polynomial
    /// memory on chains/cycles/sparse graphs).
    Dp,
    /// IKKBZ (polynomial; exact only on acyclic query graphs, panics on
    /// cyclic ones — the driver degrades past that panic).
    Ikkbz,
    /// Greedy min-intermediate (polynomial heuristic; always terminates).
    Greedy,
}

impl QonTier {
    /// The name the tier reports under, which fail-point sites
    /// (`qon::<name>`) and tier spans (`tier.<name>`) follow too. The
    /// exact DP is `dp` with cartesian products admissible and `ccp`
    /// without.
    pub fn name(self, allow_cartesian: bool) -> &'static str {
        match self {
            QonTier::Dp if allow_cartesian => "dp",
            QonTier::Dp => "ccp",
            QonTier::Ikkbz => "ikkbz",
            QonTier::Greedy => "greedy",
        }
    }

    /// Whether the tier's answer is provably optimal for every instance.
    pub fn is_exact(self) -> bool {
        matches!(self, QonTier::Dp)
    }

    /// The default chain: `dp → ikkbz → greedy`. Past the DP's cap the
    /// answer comes from the polynomial tiers.
    pub fn default_chain() -> Vec<QonTier> {
        vec![QonTier::Dp, QonTier::Ikkbz, QonTier::Greedy]
    }

    /// Parses a comma-separated chain spec such as `dp,ikkbz,greedy`. `dp`
    /// and `ccp` both name the exact DP; a tier named twice runs once.
    pub fn parse_chain(spec: &str) -> Result<Vec<QonTier>, String> {
        let mut chain = Vec::new();
        for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let tier = match name {
                "dp" | "ccp" => QonTier::Dp,
                "ikkbz" => QonTier::Ikkbz,
                "greedy" => QonTier::Greedy,
                other => {
                    return Err(format!("unknown tier `{other}` (dp|ccp|ikkbz|greedy)"))
                }
            };
            if !chain.contains(&tier) {
                chain.push(tier);
            }
        }
        if chain.is_empty() {
            return Err("empty fallback chain".to_string());
        }
        Ok(chain)
    }
}

/// The QO_H fallback tiers, strongest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QohTier {
    /// Exhaustive search over sequences with exact decomposition (exact).
    Exhaustive,
    /// Greedy sequence + exact decomposition + 2-opt (heuristic).
    Greedy,
}

impl QohTier {
    /// Short name used in chain specs, fail-point sites, and reports.
    pub fn name(self) -> &'static str {
        match self {
            QohTier::Exhaustive => "exhaustive",
            QohTier::Greedy => "greedy",
        }
    }

    /// Whether the tier's answer is provably optimal.
    pub fn is_exact(self) -> bool {
        matches!(self, QohTier::Exhaustive)
    }

    /// The default chain: `exhaustive → greedy`.
    pub fn default_chain() -> Vec<QohTier> {
        vec![QohTier::Exhaustive, QohTier::Greedy]
    }

    /// Parses a comma-separated chain spec such as `exhaustive,greedy`.
    pub fn parse_chain(spec: &str) -> Result<Vec<QohTier>, String> {
        let mut chain = Vec::new();
        for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            chain.push(match name {
                "exhaustive" => QohTier::Exhaustive,
                "greedy" => QohTier::Greedy,
                other => return Err(format!("unknown tier `{other}` (exhaustive|greedy)")),
            });
        }
        if chain.is_empty() {
            return Err("empty fallback chain".to_string());
        }
        Ok(chain)
    }
}

/// Configuration for [`optimize_qon`].
#[derive(Clone, Debug)]
pub struct QonDriverConfig {
    /// Budget limits shared by every tier in the chain.
    pub budget: BudgetSpec,
    /// Fallback chain, tried in order.
    pub chain: Vec<QonTier>,
    /// Whether sequences with cartesian products are admissible.
    pub allow_cartesian: bool,
    /// Retry policy for transient injected failures.
    pub retry: RetryPolicy,
    /// Optional cooperative cancellation token.
    pub cancel: Option<CancelToken>,
    /// Worker threads for the exact DP tier's layers; `0` means one
    /// worker per hardware thread. Cost and plan are identical for every
    /// thread count.
    pub threads: usize,
}

impl Default for QonDriverConfig {
    fn default() -> Self {
        Self {
            budget: BudgetSpec::unlimited(),
            chain: QonTier::default_chain(),
            allow_cartesian: true,
            retry: RetryPolicy::default(),
            cancel: None,
            threads: 1,
        }
    }
}

/// Configuration for [`optimize_qoh`].
#[derive(Clone, Debug)]
pub struct QohDriverConfig {
    /// Budget limits shared by every tier in the chain.
    pub budget: BudgetSpec,
    /// Fallback chain, tried in order.
    pub chain: Vec<QohTier>,
    /// Retry policy for transient injected failures.
    pub retry: RetryPolicy,
    /// Optional cooperative cancellation token.
    pub cancel: Option<CancelToken>,
    /// Worker threads for the exhaustive tier: `1` is sequential, `0`
    /// means one worker per hardware thread. Workers split the search by
    /// first relation and return exactly the sequential winner (reduced by
    /// cost, then lexicographic sequence).
    pub threads: usize,
}

impl Default for QohDriverConfig {
    fn default() -> Self {
        Self {
            budget: BudgetSpec::unlimited(),
            chain: QohTier::default_chain(),
            retry: RetryPolicy::default(),
            cancel: None,
            threads: 1,
        }
    }
}

/// A QO_N answer with its provenance.
#[derive(Clone, Debug)]
pub struct QonOutcome {
    /// The plan the winning tier produced.
    pub optimum: Optimum<BigRational>,
    /// Which tier answered and what was swallowed on the way.
    pub report: DriverReport,
}

/// A QO_H answer with its provenance.
#[derive(Clone, Debug)]
pub struct QohOutcome {
    /// The plan the winning tier produced.
    pub plan: QohPlan,
    /// Which tier answered and what was swallowed on the way.
    pub report: DriverReport,
}

/// The chain engine: runs tiers in order under one shared budget, isolating
/// panics, retrying transient injections, and recording every failure.
// The per-tier accessors (name/exact/tier_span) stay separate closures so
// each call site keeps one static span literal per tier for the
// counter-catalog scanner; folding them into a struct would hide those.
#[allow(clippy::too_many_arguments)]
fn drive<T, Tier: Copy>(
    chain: &[Tier],
    budget: &Budget,
    retry: &RetryPolicy,
    site_prefix: &str,
    name: impl Fn(Tier) -> &'static str,
    exact: impl Fn(Tier) -> bool,
    tier_span: impl Fn(Tier) -> aqo_obs::Span,
    run: impl Fn(Tier, &Budget) -> Result<Option<T>, TierFailure>,
) -> Result<(T, DriverReport), DriverError> {
    let mut failures: Vec<Attempt> = Vec::new();
    let mut retries = 0u32;
    for (chain_pos, &tier) in chain.iter().enumerate() {
        let site = format!("{site_prefix}::{}", name(tier));
        let mut backoff = retry.initial_backoff;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            if aqo_obs::enabled() {
                aqo_obs::counter_handle!("driver.tier_start").inc();
                aqo_obs::journal::event(
                    "tier_start",
                    vec![("tier", name(tier).into()), ("attempt", attempt.into())],
                );
            }
            let outcome = with_quiet_panics(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    // The per-tier span lives inside the catch_unwind so
                    // a panicking tier still closes it on unwind —
                    // trace-check's balance invariant holds on every path.
                    let _tier_span = tier_span(tier);
                    faults::fail_point(&site)
                        .map_err(|e| TierFailure::Injected(e.to_string()))?;
                    run(tier, budget)
                }))
            });
            let failure = match outcome {
                Ok(Ok(Some(answer))) => {
                    if aqo_obs::enabled() {
                        aqo_obs::counter_handle!("driver.tier_success").inc();
                        tier_success(name(tier)).inc();
                        aqo_obs::journal::event(
                            "tier_success",
                            vec![("tier", name(tier).into()), ("attempt", attempt.into())],
                        );
                        budget.observe(name(tier));
                    }
                    let report = DriverReport {
                        tier: name(tier),
                        exact: exact(tier),
                        expansions: budget.expansions_used(),
                        memory_bytes: budget.memory_charged(),
                        elapsed: budget.elapsed(),
                        retries,
                        failures,
                    };
                    return Ok((answer, report));
                }
                Ok(Ok(None)) => TierFailure::NoPlan,
                Ok(Err(failure)) => failure,
                Err(payload) => TierFailure::Panic(panic_message(payload)),
            };
            let transient = matches!(failure, TierFailure::Injected(_));
            if aqo_obs::enabled() {
                aqo_obs::counter_handle!("driver.tier_failure").inc();
                aqo_obs::journal::event(
                    "tier_failure",
                    vec![
                        ("tier", name(tier).into()),
                        ("attempt", attempt.into()),
                        ("kind", failure.kind_str().into()),
                    ],
                );
            }
            failures.push(Attempt { tier: name(tier), attempt, failure });
            if transient && attempt <= retry.max_retries {
                if aqo_obs::enabled() {
                    aqo_obs::counter_handle!("driver.retries").inc();
                    aqo_obs::journal::event(
                        "retry",
                        vec![
                            ("tier", name(tier).into()),
                            ("attempt", attempt.into()),
                            ("backoff_ms", (backoff.as_millis() as u64).into()),
                        ],
                    );
                }
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
                retries += 1;
                continue;
            }
            break; // degrade to the next tier
        }
        if aqo_obs::enabled() {
            budget.observe(name(tier));
            if chain_pos + 1 < chain.len() {
                aqo_obs::counter_handle!("driver.fallbacks").inc();
                aqo_obs::journal::event(
                    "fallback",
                    vec![
                        ("from_tier", name(tier).into()),
                        ("to_tier", name(chain[chain_pos + 1]).into()),
                    ],
                );
            }
        }
    }
    Err(DriverError { failures })
}

/// The `driver.tier_success.<tier>` counter, one cached handle per tier
/// name, so an answered request formats no metric name.
fn tier_success(tier: &str) -> aqo_obs::Counter {
    match tier {
        "dp" => aqo_obs::counter_handle!("driver.tier_success.dp"),
        "ccp" => aqo_obs::counter_handle!("driver.tier_success.ccp"),
        "ikkbz" => aqo_obs::counter_handle!("driver.tier_success.ikkbz"),
        "greedy" => aqo_obs::counter_handle!("driver.tier_success.greedy"),
        "exhaustive" => aqo_obs::counter_handle!("driver.tier_success.exhaustive"),
        other => aqo_obs::counter(&format!("driver.tier_success.{other}")),
    }
}

/// Per-tier span for QO_N attempts, timing each tier's execution inside
/// the driver chain (one static name per reported tier name, so the
/// catalog scanner and the `span.<name>` histograms see every variant).
fn qon_tier_span(tier: QonTier, allow_cartesian: bool) -> aqo_obs::Span {
    match tier {
        QonTier::Dp if allow_cartesian => aqo_obs::span!("tier.dp"),
        QonTier::Dp => aqo_obs::span!("tier.ccp"),
        QonTier::Ikkbz => aqo_obs::span!("tier.ikkbz"),
        QonTier::Greedy => aqo_obs::span!("tier.greedy"),
    }
}

/// Per-tier span for QO_H attempts (`tier.greedy` is shared with QO_N —
/// same histogram, distinguishable by the surrounding driver span).
fn qoh_tier_span(tier: QohTier) -> aqo_obs::Span {
    match tier {
        QohTier::Exhaustive => aqo_obs::span!("tier.exhaustive"),
        QohTier::Greedy => aqo_obs::span!("tier.greedy"),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Optimizes a QO_N instance down the fallback chain. Exact arithmetic
/// ([`BigRational`]) throughout, so a generous budget reproduces the
/// reference subset DP ([`aqo_optimizer::dp`]) bit for bit, cost and plan.
pub fn optimize_qon(
    inst: &QoNInstance,
    cfg: &QonDriverConfig,
) -> Result<QonOutcome, DriverError> {
    let _span = aqo_obs::span!("driver.optimize_qon");
    let budget = cfg.budget.build(cfg.cancel.clone());
    let allow = cfg.allow_cartesian;
    drive(
        &cfg.chain,
        &budget,
        &cfg.retry,
        "qon",
        |tier| tier.name(allow),
        QonTier::is_exact,
        |tier| qon_tier_span(tier, allow),
        |tier, budget| match tier {
            // Past its per-mode cap the DP rejects with a structured
            // failure (degrading down the chain) instead of hitting the
            // engine's assert or silent u32 mask wraparound.
            QonTier::Dp if inst.n() > engine::max_n(allow) => {
                Err(TierFailure::Unsupported(format!(
                    "{} handles n <= {} (got n = {})",
                    tier.name(allow),
                    engine::max_n(allow),
                    inst.n()
                )))
            }
            QonTier::Dp => {
                let opts = engine::DpOptions { allow_cartesian: allow, threads: cfg.threads };
                engine::optimize_two_phase::<BigRational>(inst, &opts, budget)
                    .map_err(TierFailure::Budget)
            }
            QonTier::Ikkbz => Ok(Some(ikkbz::optimize(inst))),
            QonTier::Greedy => Ok(greedy::min_intermediate(inst, allow).map(|z| {
                let cost: BigRational = inst.total_cost(&z);
                Optimum { sequence: z, cost }
            })),
        },
    )
    .map(|(optimum, report)| QonOutcome { optimum, report })
}

/// Optimizes a QO_H instance down the fallback chain.
pub fn optimize_qoh(
    inst: &QoHInstance,
    cfg: &QohDriverConfig,
) -> Result<QohOutcome, DriverError> {
    let _span = aqo_obs::span!("driver.optimize_qoh");
    let budget = cfg.budget.build(cfg.cancel.clone());
    drive(
        &cfg.chain,
        &budget,
        &cfg.retry,
        "qoh",
        QohTier::name,
        QohTier::is_exact,
        qoh_tier_span,
        |tier, budget| match tier {
            QohTier::Exhaustive if inst.n() > pipeline::MAX_N => {
                Err(TierFailure::Unsupported(format!(
                    "exhaustive handles n <= {} (got n = {})",
                    pipeline::MAX_N,
                    inst.n()
                )))
            }
            QohTier::Exhaustive => {
                pipeline::optimize_exhaustive_par_with_budget(inst, cfg.threads, budget)
                    .map_err(TierFailure::Budget)
            }
            QohTier::Greedy => Ok(pipeline::optimize_greedy(inst)),
        },
    )
    .map(|(plan, report)| QohOutcome { plan, report })
}

/// Convenience QO_N entry point for small fixed limits: default chain,
/// cartesian products allowed.
pub fn optimize_qon_with_limits(
    inst: &QoNInstance,
    timeout: Option<Duration>,
    max_expansions: Option<u64>,
) -> Result<QonOutcome, DriverError> {
    let cfg = QonDriverConfig {
        budget: BudgetSpec { timeout, max_expansions, max_memory_bytes: None },
        ..QonDriverConfig::default()
    };
    optimize_qon(inst, &cfg)
}

// Re-export so callers of the driver can name the exhaustive tier's cap.
pub use exhaustive::MAX_N as EXHAUSTIVE_MAX_N;

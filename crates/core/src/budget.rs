//! Cooperative resource budgets for the exponential optimizers.
//!
//! Every exact algorithm in this workspace — subset DP, exhaustive
//! enumeration — is exponential in the number of relations;
//! that is the whole point of the paper. A production front end therefore
//! needs a way to *bound* them: a [`Budget`] carries a wall-clock deadline,
//! an expansion (search-node) cap, a memory-estimate cap, and an external
//! [`CancelToken`], and the optimizers' `*_with_budget` entry points call
//! [`Budget::tick`] inside their hot loops. When any limit trips, the
//! search unwinds promptly with a structured [`BudgetExceeded`] error that
//! records which limit tripped and how much was consumed, so a driver can
//! degrade to a cheaper tier instead of hanging.
//!
//! Ticks are one atomic add on the happy path; the wall clock is consulted
//! only every [`CLOCK_CHECK_PERIOD`] ticks to keep the overhead negligible
//! relative to the big-number arithmetic inside each expansion.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many ticks pass between wall-clock (and cancel-token) checks.
/// A power of two so the check compiles to a mask test.
pub const CLOCK_CHECK_PERIOD: u64 = 256;

/// Which limit a budget ran out of.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// The wall-clock deadline passed.
    Deadline,
    /// The expansion counter reached its cap.
    Expansions,
    /// The estimated memory charge exceeded its cap.
    Memory,
    /// The external [`CancelToken`] was triggered.
    Cancelled,
}

impl std::fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetKind::Deadline => write!(f, "deadline"),
            BudgetKind::Expansions => write!(f, "expansions"),
            BudgetKind::Memory => write!(f, "memory"),
            BudgetKind::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Structured "the budget ran out" error: which limit tripped and how much
/// of the budget had been consumed by then.
#[derive(Clone, Debug)]
pub struct BudgetExceeded {
    /// The limit that tripped.
    pub kind: BudgetKind,
    /// Expansions performed before tripping.
    pub expansions: u64,
    /// Wall-clock time elapsed before tripping.
    pub elapsed: Duration,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "budget exceeded ({}) after {} expansions in {:.1?}",
            self.kind, self.expansions, self.elapsed
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// Clonable handle for cancelling a running optimization from outside
/// (another thread, a signal handler, a service shutdown path).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-triggered token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A resource envelope for one optimization attempt.
///
/// Construct with [`Budget::unlimited`] and narrow with the builder
/// methods; pass by shared reference into a `*_with_budget` optimizer.
/// Interior state is atomic, so a `&Budget` can be observed from other
/// threads (e.g. a progress reporter) while the search runs.
#[derive(Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    max_expansions: Option<u64>,
    max_memory_bytes: Option<u64>,
    cancel: Option<CancelToken>,
    started: Instant,
    expansions: AtomicU64,
    memory_bytes: AtomicU64,
}

/// Runs `search` under [`Budget::unlimited`] and returns its result: the
/// unbudgeted twin of a `*_with_budget` entry point, e.g.
/// `run_unlimited(|b| optimize_with_budget(inst, b))`.
#[inline]
#[expect(
    clippy::expect_used,
    reason = "an unlimited budget never trips, so the search's only error path is unreachable"
)]
pub fn run_unlimited<T>(search: impl FnOnce(&Budget) -> Result<T, BudgetExceeded>) -> T {
    search(&Budget::unlimited()).expect("unlimited budget cannot be exceeded")
}

impl Default for Budget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl Budget {
    /// A budget with no limits (ticks never fail).
    pub fn unlimited() -> Self {
        Budget {
            deadline: None,
            max_expansions: None,
            max_memory_bytes: None,
            cancel: None,
            started: Instant::now(),
            expansions: AtomicU64::new(0),
            memory_bytes: AtomicU64::new(0),
        }
    }

    /// Caps wall-clock time, measured from this call.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.started = Instant::now();
        self.deadline = Some(self.started + timeout);
        self
    }

    /// Caps the number of search expansions.
    pub fn with_max_expansions(mut self, n: u64) -> Self {
        self.max_expansions = Some(n);
        self
    }

    /// Caps the estimated bytes charged via [`Budget::charge_memory`].
    pub fn with_max_memory_bytes(mut self, bytes: u64) -> Self {
        self.max_memory_bytes = Some(bytes);
        self
    }

    /// Attaches an external cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Whether any limit or token is configured (an unlimited budget lets
    /// wrappers skip the checked code path entirely).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_expansions.is_none()
            && self.max_memory_bytes.is_none()
            && self.cancel.is_none()
    }

    /// Expansions consumed so far.
    pub fn expansions_used(&self) -> u64 {
        // ordering: an observer-only progress counter; callers read it
        // for reporting after the search returns (same thread or after
        // join), never to synchronize with worker data.
        self.expansions.load(Ordering::Relaxed)
    }

    /// Estimated bytes charged so far.
    pub fn memory_charged(&self) -> u64 {
        // ordering: see `expansions_used` — reporting-only read.
        self.memory_bytes.load(Ordering::Relaxed)
    }

    /// Time elapsed since construction (or the [`Budget::with_timeout`]
    /// call).
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Time left before the deadline; `None` when no deadline is set.
    pub fn remaining_time(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }

    fn exceeded(&self, kind: BudgetKind) -> BudgetExceeded {
        let err =
            BudgetExceeded { kind, expansions: self.expansions_used(), elapsed: self.elapsed() };
        // Cold path: a budget trips at most once per optimizer attempt.
        if aqo_obs::enabled() {
            aqo_obs::counter(&format!("budget.exceeded.{kind}")).inc();
            aqo_obs::journal::event(
                "budget_exceeded",
                vec![
                    ("kind", format!("{kind}").into()),
                    ("expansions", err.expansions.into()),
                    ("elapsed_ms", (err.elapsed.as_secs_f64() * 1e3).into()),
                ],
            );
        }
        err
    }

    /// Records one search expansion and checks every limit. Call this in
    /// the innermost loop of an exponential search: the common case is one
    /// relaxed atomic add plus two compares.
    #[inline]
    pub fn tick(&self) -> Result<(), BudgetExceeded> {
        // ordering: the counter is the whole message — the cap compare
        // uses the fetch_add return value, which is exact under any
        // ordering; no other data is published with it.
        let count = self.expansions.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(cap) = self.max_expansions {
            if count > cap {
                return Err(self.exceeded(BudgetKind::Expansions));
            }
        }
        if count.is_multiple_of(CLOCK_CHECK_PERIOD) || count == 1 {
            self.check_clock_and_token()?;
        }
        Ok(())
    }

    /// As [`Budget::tick`], but records `n` expansions in a single atomic
    /// add. The parallel optimizers use this to charge one whole DP target
    /// (its `n` incoming transitions) per call, which keeps the shared
    /// counter from becoming a cache-line ping-pong between workers. The
    /// wall clock and cancel token are consulted whenever the batched count
    /// crosses a [`CLOCK_CHECK_PERIOD`] boundary (and on the first call),
    /// so deadline latency stays bounded by one period regardless of batch
    /// size.
    #[inline]
    pub fn tick_n(&self, n: u64) -> Result<(), BudgetExceeded> {
        if n == 0 {
            return Ok(());
        }
        // ordering: see `tick` — self-contained counter arithmetic.
        let count = self.expansions.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(cap) = self.max_expansions {
            if count > cap {
                return Err(self.exceeded(BudgetKind::Expansions));
            }
        }
        if count == n || count / CLOCK_CHECK_PERIOD != (count - n) / CLOCK_CHECK_PERIOD {
            self.check_clock_and_token()?;
        }
        Ok(())
    }

    /// Forces a deadline/cancellation check regardless of tick phase. Use
    /// before starting an expensive indivisible step (e.g. allocating the
    /// DP table).
    pub fn checkpoint(&self) -> Result<(), BudgetExceeded> {
        self.check_clock_and_token()
    }

    fn check_clock_and_token(&self) -> Result<(), BudgetExceeded> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(self.exceeded(BudgetKind::Cancelled));
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(self.exceeded(BudgetKind::Deadline));
            }
        }
        Ok(())
    }

    /// Charges an estimated allocation against the memory cap. Optimizers
    /// call this *before* allocating their big tables, so an instance whose
    /// table alone would blow the cap fails fast instead of OOMing.
    pub fn charge_memory(&self, bytes: u64) -> Result<(), BudgetExceeded> {
        // ordering: see `tick` — self-contained counter arithmetic.
        let total = self.memory_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        // Charges happen once per table/phase, never per expansion, so the
        // journal append is off the hot path. Its fields are built only
        // while the journal keeps them.
        if aqo_obs::enabled() {
            aqo_obs::counter_handle!("budget.memory_charged_bytes").add(bytes);
            if aqo_obs::journal::capturing() {
                aqo_obs::journal::event(
                    "budget_charge",
                    vec![("bytes", bytes.into()), ("total", total.into())],
                );
            }
        }
        if let Some(cap) = self.max_memory_bytes {
            if total > cap {
                return Err(self.exceeded(BudgetKind::Memory));
            }
        }
        Ok(())
    }

    /// Emits a `budget` journal event attributing the expansions and memory
    /// consumed so far to `label` (the driver calls this after each tier so
    /// the journal records where the shared budget went). No-op while
    /// the journal is not capturing.
    pub fn observe(&self, label: &str) {
        if aqo_obs::journal::capturing() {
            aqo_obs::journal::event(
                "budget",
                vec![
                    ("label", label.to_string().into()),
                    ("expansions", self.expansions_used().into()),
                    ("memory_bytes", self.memory_charged().into()),
                    ("elapsed_ms", (self.elapsed().as_secs_f64() * 1e3).into()),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            b.tick().unwrap();
        }
        b.charge_memory(u64::MAX / 2).unwrap();
        assert!(b.is_unlimited());
        assert_eq!(b.expansions_used(), 10_000);
    }

    #[test]
    fn expansion_cap_trips_exactly() {
        let b = Budget::unlimited().with_max_expansions(5);
        for _ in 0..5 {
            b.tick().unwrap();
        }
        let err = b.tick().unwrap_err();
        assert_eq!(err.kind, BudgetKind::Expansions);
        assert_eq!(err.expansions, 6);
    }

    #[test]
    fn deadline_trips() {
        let b = Budget::unlimited().with_timeout(Duration::ZERO);
        // The first tick always consults the clock.
        let err = b.tick().unwrap_err();
        assert_eq!(err.kind, BudgetKind::Deadline);
    }

    #[test]
    fn memory_cap_trips() {
        let b = Budget::unlimited().with_max_memory_bytes(1000);
        b.charge_memory(600).unwrap();
        let err = b.charge_memory(600).unwrap_err();
        assert_eq!(err.kind, BudgetKind::Memory);
    }

    #[test]
    fn cancel_token_observed_from_clone() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel_token(token.clone());
        b.tick().unwrap();
        token.cancel();
        assert_eq!(b.checkpoint().unwrap_err().kind, BudgetKind::Cancelled);
    }

    #[test]
    fn batched_ticks_count_and_trip() {
        let b = Budget::unlimited().with_max_expansions(100);
        b.tick_n(60).unwrap();
        b.tick_n(40).unwrap();
        assert_eq!(b.expansions_used(), 100);
        let err = b.tick_n(1).unwrap_err();
        assert_eq!(err.kind, BudgetKind::Expansions);
        assert_eq!(err.expansions, 101);
    }

    #[test]
    fn batched_ticks_check_clock_on_period_boundaries() {
        let b = Budget::unlimited().with_timeout(Duration::ZERO);
        // The first batched tick always consults the clock.
        assert_eq!(b.tick_n(7).unwrap_err().kind, BudgetKind::Deadline);

        let b = Budget::unlimited();
        b.tick_n(CLOCK_CHECK_PERIOD - 1).unwrap();
        // Crossing the period boundary must consult the (expired) clock.
        let b2 = Budget::unlimited().with_timeout(Duration::ZERO);
        b2.tick_n(3).unwrap_err(); // first call checks
        let err = b2.tick_n(CLOCK_CHECK_PERIOD).unwrap_err();
        assert_eq!(err.kind, BudgetKind::Deadline);
    }

    #[test]
    fn error_display_names_the_kind() {
        let b = Budget::unlimited().with_max_expansions(0);
        let msg = b.tick().unwrap_err().to_string();
        assert!(msg.contains("expansions"), "{msg}");
    }
}

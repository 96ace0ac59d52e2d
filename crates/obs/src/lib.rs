//! `aqo-obs` — zero-dependency observability for the aqo workspace.
//!
//! Three facilities, safe under `std::thread::scope` workers:
//!
//! * a **metrics registry** of named [`Counter`]s, [`Gauge`]s and
//!   [`Histogram`]s backed by relaxed atomics (no locks on the update
//!   path — the registry mutex is taken only when a handle is first
//!   created or a snapshot is read);
//! * **span timers** ([`span`]) that record wall time into a histogram
//!   and emit a `span` event into the journal when dropped;
//! * a **structured event journal** ([`journal`]) serializing to JSON
//!   Lines through the hand-rolled encoder in [`json`] (same
//!   no-serde policy as the rest of the workspace).
//!
//! None of them is process-global: each belongs to a [`Scope`], and every
//! free function here acts on the current thread's scope — the process's
//! root scope unless [`Scope::install`] bound another. A test or bench cell
//! installs a fresh scope and reads back only its own counters, journal
//! and armed faults; [`Context`] carries the scope into spawned workers.
//! The [`faults`] module's armed fail points live in the same scope.
//!
//! Everything is gated on the scope's enabled flag: when [`enabled`] is
//! `false` (the default) every metric mutation and journal append reduces
//! to a thread-local read, one relaxed atomic load and a predictable
//! branch, so instrumented hot loops keep their uninstrumented
//! performance. Instrumentation sites
//! in the optimizers additionally accumulate into plain locals and flush
//! once per run/worker, so the per-iteration cost is zero even when
//! enabled — see `docs/OBSERVABILITY.md` for the catalog and
//! `DESIGN.md` §10 for the architecture.

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

pub mod faults;
pub mod journal;
pub mod json;
mod scope;
pub mod series;
pub mod trace;
pub mod traceview;

pub use scope::{Context, HandleCache, Scope, ScopeGuard};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};
use std::time::Instant;

/// Whether the current scope is collecting. One thread-local read and one
/// relaxed load; this is the entire cost of a disabled metric mutation or
/// journal append.
#[inline]
pub fn enabled() -> bool {
    // ordering: a standalone on/off flag sampled per operation; no data
    // is published under it, and stale reads only delay when collection
    // starts/stops by one operation.
    scope::with(|s| s.enabled.load(Ordering::Relaxed))
}

/// Turns collection on or off in the current scope. Off is the default.
pub fn set_enabled(on: bool) {
    // ordering: see `enabled` — flag toggles carry no dependent data.
    scope::with(|s| s.enabled.store(on, Ordering::Relaxed));
}

/// A registered metric's value next to the enabled flag of the scope it
/// belongs to, so an update checks that flag without a thread-local read.
#[derive(Debug)]
struct Slot<T> {
    on: Arc<AtomicBool>,
    value: T,
}

impl<T> Slot<T> {
    #[inline]
    fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed) // ordering: see `enabled`
    }
}

/// A monotonically increasing counter. Handles are cheap `Arc` clones of
/// the registered atomic; updates are relaxed adds guarded by the enabled
/// flag of the scope the counter is registered in.
#[derive(Clone, Debug)]
pub struct Counter(Arc<Slot<AtomicU64>>);

impl Counter {
    /// Adds `n` (no-op while collection is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if self.0.on() {
            // ordering: independent monotone sum; aggregate readers run
            // after `thread::scope` join, which already orders them.
            self.0.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 (no-op while collection is disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed) // ordering: see `add`
    }
}

/// A last-written-wins (or running-max) value.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<Slot<AtomicU64>>);

impl Gauge {
    /// Stores `v` (no-op while collection is disabled).
    #[inline]
    pub fn set(&self, v: u64) {
        if self.0.on() {
            // ordering: last-written-wins by contract; no reader infers
            // anything beyond the gauge value itself.
            self.0.value.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if larger (no-op while disabled).
    ///
    /// Race note: `fetch_max` is a single atomic RMW, so concurrent
    /// `set_max` calls cannot lose updates. The lost-update hazard is the
    /// *composed* pattern `g.set(g.get() + 1)` — two threads read the
    /// same value and one increment vanishes. Use [`add`](Gauge::add) /
    /// [`sub`](Gauge::sub) for level tracking instead; the interleaving
    /// model test `tests/model_gauge.rs` exhibits the lost update under
    /// get+set and proves `add` free of it. (The serve gauges
    /// `serve.queue_depth`/`serve.inflight` are `set` under the server
    /// state lock, which also rules the race out — audited for ISSUE 8.)
    #[inline]
    pub fn set_max(&self, v: u64) {
        if self.0.on() {
            self.0.value.fetch_max(v, Ordering::Relaxed); // ordering: see `set`
        }
    }

    /// Adds `n` to the gauge level (no-op while disabled). A single
    /// atomic RMW, so concurrent adds never lose updates — unlike
    /// `set(get() + n)`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.0.on() {
            self.0.value.fetch_add(n, Ordering::Relaxed); // ordering: see `set`
        }
    }

    /// Subtracts `n` from the gauge level, saturating at 0 (no-op while
    /// disabled). Saturation uses a CAS loop so a racing `sub` below
    /// zero clamps instead of wrapping to `u64::MAX`.
    #[inline]
    pub fn sub(&self, n: u64) {
        if self.0.on() {
            // ordering: see `set`; the CAS only needs the value, not any
            // other memory.
            let mut cur = self.0.value.load(Ordering::Relaxed);
            loop {
                let next = cur.saturating_sub(n);
                match self.0.value.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed, // ordering: see `set`
                    Ordering::Relaxed, // ordering: see `set`
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed) // ordering: see `set`
    }
}

/// Sub-bucket bits of [`Histogram`]: each octave `[2^k, 2^(k+1))` splits
/// into `2^SUB_BITS` equal buckets, so a bucket's midpoint is within
/// 1/16 of every value in it. Values below `2^SUB_BITS` get one bucket
/// each.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;

/// Bucket count for [`Histogram`]: the exact small values, then
/// `2^SUB_BITS` buckets for each octave up to `2^63`.
const HIST_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Bucket index for sample `v` (see [`SUB_BITS`]).
#[inline]
fn hist_bucket(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let k = 63 - v.leading_zeros();
    let sub = ((v >> (k - SUB_BITS)) as usize) & (SUB - 1);
    ((k - SUB_BITS + 1) as usize * SUB + sub).min(HIST_BUCKETS - 1)
}

/// Representative value (midpoint) of bucket `idx`, used when reading
/// quantiles back out.
fn hist_bucket_rep(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let shift = (idx / SUB - 1) as u32;
    let low = ((SUB + idx % SUB) as u64) << shift;
    low + (1u64 << shift) / 2
}

#[derive(Debug)]
struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistogramInner {
    fn new() -> Self {
        HistogramInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A histogram over `u64` samples (span timers record microseconds) with
/// eighth-octave log buckets plus exact count/sum/max, and approximate
/// quantiles via [`quantile`](Histogram::quantile).
#[derive(Clone, Debug)]
pub struct Histogram(Arc<Slot<HistogramInner>>);

impl Histogram {
    fn new(on: Arc<AtomicBool>) -> Histogram {
        Histogram(Arc::new(Slot { on, value: HistogramInner::new() }))
    }

    /// Records one sample (no-op while collection is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if !self.0.on() {
            return;
        }
        let h = &self.0.value;
        // ordering: the four fields are independent monotone aggregates;
        // `stats` makes no cross-field consistency claim (a snapshot may
        // observe a sample's count before its sum), so nothing here
        // needs to publish or acquire.
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed); // ordering: see above
        h.max.fetch_max(v, Ordering::Relaxed); // ordering: see above
        // analyze:allow(panic-path) -- hist_bucket clamps its result with
        // .min(HIST_BUCKETS - 1), so the index is provably in range.
        h.buckets[hist_bucket(v)].fetch_add(1, Ordering::Relaxed); // ordering: see above
    }

    /// `(count, sum, max)` so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        let h = &self.0.value;
        (
            // ordering: aggregate reads; see `record` for why no acquire.
            h.count.load(Ordering::Relaxed),
            h.sum.load(Ordering::Relaxed), // ordering: see above
            h.max.load(Ordering::Relaxed), // ordering: see above
        )
    }

    /// The approximate `q`-quantile (`0.0 < q <= 1.0`) of the samples so
    /// far: the midpoint of the bucket containing the rank-`ceil(q·count)`
    /// sample, capped at the exact observed max. 0 when empty. The bucket
    /// width bounds the relative error to 1/16.
    pub fn quantile(&self, q: f64) -> u64 {
        let h = &self.0.value;
        let count = h.count.load(Ordering::Relaxed); // ordering: see `stats`
        if count == 0 {
            return 0;
        }
        let max = h.max.load(Ordering::Relaxed); // ordering: see `stats`
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (idx, b) in h.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed); // ordering: see `stats`
            if cum >= rank {
                return hist_bucket_rep(idx).min(max);
            }
        }
        // A racing record can leave count ahead of the bucket sums; the
        // highest observed sample is the right answer for any tail rank.
        max
    }
}

#[derive(Clone, Debug)]
pub(crate) enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Gets or creates the metric `name` in the current scope's registry;
/// `kind` picks the handle out of it.
fn registered<T: Clone>(
    name: &str,
    new: fn(Arc<AtomicBool>) -> Metric,
    kind: fn(&Metric) -> Option<&T>,
) -> T {
    scope::with(|s| {
        let mut reg = s.registry.lock().unwrap_or_else(PoisonError::into_inner);
        if !reg.contains_key(name) {
            reg.insert(name.to_string(), new(Arc::clone(&s.enabled)));
        }
        match reg.get(name).and_then(kind) {
            Some(handle) => handle.clone(),
            #[expect(
                clippy::panic,
                reason = "documented API panic: a name registered under two metric kinds is a \
                          programming error (see the `# Panics` sections), not a runtime condition"
            )]
            None => panic!("metric `{name}` already registered as {:?}", reg.get(name)),
        }
    })
}

/// Gets or creates the counter named `name` in the current scope.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn counter(name: &str) -> Counter {
    registered(
        name,
        |on| Metric::Counter(Counter(Arc::new(Slot { on, value: AtomicU64::new(0) }))),
        |m| match m {
            Metric::Counter(c) => Some(c),
            _ => None,
        },
    )
}

/// Gets or creates the gauge named `name` in the current scope.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn gauge(name: &str) -> Gauge {
    registered(
        name,
        |on| Metric::Gauge(Gauge(Arc::new(Slot { on, value: AtomicU64::new(0) }))),
        |m| match m {
            Metric::Gauge(g) => Some(g),
            _ => None,
        },
    )
}

/// Gets or creates the histogram named `name` in the current scope.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn histogram(name: &str) -> Histogram {
    registered(
        name,
        |on| Metric::Histogram(Histogram::new(on)),
        |m| match m {
            Metric::Histogram(h) => Some(h),
            _ => None,
        },
    )
}

/// One metric's value at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram aggregates plus approximate quantiles.
    Histogram {
        /// Samples recorded.
        count: u64,
        /// Sum of all samples.
        sum: u64,
        /// Largest sample.
        max: u64,
        /// Approximate 50th percentile.
        p50: u64,
        /// Approximate 90th percentile.
        p90: u64,
        /// Approximate 99th percentile.
        p99: u64,
        /// Approximate 99.9th percentile.
        p999: u64,
    },
}

/// A named metric value, as returned by [`snapshot`].
#[derive(Clone, Debug)]
pub struct MetricSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Its value at snapshot time.
    pub value: SnapshotValue,
}

/// Every metric registered in the current scope, sorted by name.
pub fn snapshot() -> Vec<MetricSnapshot> {
    scope::with(|s| {
        let reg = s.registry.lock().unwrap_or_else(PoisonError::into_inner);
        reg.iter()
            .map(|(name, m)| MetricSnapshot {
                name: name.clone(),
                value: match m {
                    Metric::Counter(c) => SnapshotValue::Counter(c.get()),
                    Metric::Gauge(g) => SnapshotValue::Gauge(g.get()),
                    Metric::Histogram(h) => {
                        let (count, sum, max) = h.stats();
                        SnapshotValue::Histogram {
                            count,
                            sum,
                            max,
                            p50: h.quantile(0.50),
                            p90: h.quantile(0.90),
                            p99: h.quantile(0.99),
                            p999: h.quantile(0.999),
                        }
                    }
                },
            })
            .collect()
    })
}

/// Every counter with a nonzero total in the current scope, sorted by
/// name. The deterministic subset of the registry — what the bench
/// harness embeds per data point.
pub fn counters_snapshot() -> Vec<(String, u64)> {
    snapshot()
        .into_iter()
        .filter_map(|m| match m.value {
            SnapshotValue::Counter(v) if v > 0 => Some((m.name, v)),
            _ => None,
        })
        .collect()
}

/// Renders the current scope's registry as a human-readable summary table (the CLI's
/// `--metrics` output). Zero-valued counters and empty histograms are
/// omitted; lines are sorted by metric name so the output is
/// byte-deterministic for a given registry state and diffs cleanly
/// across runs.
pub fn render_summary() -> String {
    let mut snap = snapshot();
    // `snapshot` is BTreeMap-ordered already; sort explicitly so the
    // determinism contract survives a registry reimplementation.
    snap.sort_by(|a, b| a.name.cmp(&b.name));
    let mut out = String::from("metrics:\n");
    let mut any = false;
    for s in snap {
        let line = match s.value {
            SnapshotValue::Counter(0) => continue,
            SnapshotValue::Counter(v) => format!("  {:<44} {v}\n", s.name),
            SnapshotValue::Gauge(v) => format!("  {:<44} {v} (gauge)\n", s.name),
            SnapshotValue::Histogram { count: 0, .. } => continue,
            SnapshotValue::Histogram { count, sum, max, p50, p90, p99, p999 } => format!(
                "  {:<44} count={count} mean={:.1}us p50={p50}us p90={p90}us p99={p99}us p999={p999}us max={max}us\n",
                s.name,
                sum as f64 / count as f64
            ),
        };
        out.push_str(&line);
        any = true;
    }
    if !any {
        out.push_str("  (none recorded)\n");
    }
    out
}

/// A live span timer: created by [`span!`], it records its wall time into
/// the `span.<name>` histogram and emits a `span` journal event on drop.
/// Inert (no clock read at all) when collection is disabled at creation.
///
/// When a [`trace`] context is active on the creating thread the span is
/// additionally *traced*: it mints a span id, emits a `span_start` event
/// (stamped with its parent via the context), and pushes itself onto the
/// context stack so nested spans and events parent to it. The closing
/// `span` event then carries the same `span_id`, and `trace view`
/// reassembles the tree. Without a context nothing changes — exactly one
/// `span` event, no ids.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    /// The start time and the `span.<name>` histogram, when enabled.
    live: Option<(Instant, Histogram)>,
    /// Minted span id when traced; 0 when untraced.
    span_id: u64,
}

/// Starts a span named `$name`, a string literal. Hold the returned
/// [`Span`] guard for the measured region; drop ends it. The
/// `span.<name>` histogram handle is cached per call site and scope, as
/// [`histogram_handle!`] caches it, so closing a span allocates nothing
/// and takes no registry lock while the journal is off.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::Span::start($name, || $crate::histogram_handle!(concat!("span.", $name)))
    };
}

impl Span {
    /// The expansion behind [`span!`]: `histogram` yields the span's
    /// histogram and is called only while collection is enabled.
    #[doc(hidden)]
    pub fn start(name: &'static str, histogram: impl FnOnce() -> Histogram) -> Span {
        let live = enabled().then(|| (Instant::now(), histogram()));
        let mut span_id = 0;
        if live.is_some() && trace::active() {
            span_id = trace::next_span_id();
            // Emit before pushing so the start event's auto-attached
            // `parent_span_id` is this span's parent, not itself.
            if journal::capturing() {
                journal::event(
                    "span_start",
                    vec![
                        ("name", journal::Value::from(name)),
                        ("span_id", journal::Value::from(span_id)),
                    ],
                );
            }
            trace::push_span(span_id);
        }
        Span { name, live, span_id }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((start, histogram)) = self.live.take() else { return };
        let us = start.elapsed().as_micros() as u64;
        histogram.record(us);
        if self.span_id != 0 {
            // Pop first so the end event parents to this span's parent —
            // symmetric with `span_start`.
            trace::pop_span(self.span_id);
        }
        if !journal::capturing() {
            return;
        }
        let mut fields = vec![("name", journal::Value::from(self.name))];
        if self.span_id != 0 {
            // `dur_us`, not `us`: the serialized line already carries the
            // reserved `us` timestamp key, and the journal parser returns
            // the first match for a duplicated key.
            fields.push(("span_id", journal::Value::from(self.span_id)));
            fields.push(("dur_us", journal::Value::from(us)));
        } else {
            fields.push(("us", journal::Value::from(us)));
        }
        journal::event("span", fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Installs a fresh scope with collection on.
    fn collecting() -> ScopeGuard {
        let guard = Scope::new().install();
        set_enabled(true);
        guard
    }

    #[test]
    fn disabled_counter_does_not_move() {
        let _scope = Scope::new().install();
        let c = counter("obs-test.disabled");
        c.add(5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_accumulates_and_resets() {
        let _scope = collecting();
        let c = counter("obs-test.counter");
        c.add(3);
        c.inc();
        assert_eq!(c.get(), 4);
        // A fresh scope is the reset: the same name starts at zero there.
        let _fresh = collecting();
        assert_eq!(counter("obs-test.counter").get(), 0);
        assert_eq!(c.get(), 4, "the first scope keeps its count");
    }

    #[test]
    fn counter_handle_macro_caches() {
        let _scope = collecting();
        counter_handle!("obs-test.macro").add(2);
        counter_handle!("obs-test.macro").add(2);
        assert_eq!(counter("obs-test.macro").get(), 4);
        gauge_handle!("obs-test.macro_gauge").set(7);
        gauge_handle!("obs-test.macro_gauge").add(1);
        assert_eq!(gauge("obs-test.macro_gauge").get(), 8);
    }

    #[test]
    fn histogram_handle_macro_caches() {
        let _scope = collecting();
        histogram_handle!("obs-test.macro_us").record(3);
        histogram_handle!("obs-test.macro_us").record(5);
        assert_eq!(histogram("obs-test.macro_us").stats(), (2, 8, 5));
    }

    /// One cached-handle site, run under two scopes in turn and on two
    /// threads at once, lands in whichever scope is current each time.
    #[test]
    fn one_handle_site_lands_in_each_scope() {
        fn bump() {
            counter_handle!("obs-test.site").inc();
        }
        let (a, b) = (Scope::new(), Scope::new());
        for s in [&a, &b] {
            let _g = s.install();
            set_enabled(true);
        }
        {
            let _g = a.install();
            bump();
            bump();
        }
        {
            let _g = b.install();
            bump();
        }
        {
            let _g = a.install();
            bump();
        }
        std::thread::scope(|t| {
            for s in [&a, &b] {
                t.spawn(move || {
                    let _g = s.install();
                    bump();
                });
            }
        });
        for (s, want) in [(&a, 4), (&b, 2)] {
            let _g = s.install();
            assert_eq!(counter("obs-test.site").get(), want);
        }
        assert!(counters_snapshot().is_empty(), "the root scope saw none of it");
    }

    #[test]
    fn counters_visible_from_scoped_threads() {
        let _scope = collecting();
        let ctx = Context::capture();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _g = ctx.install();
                    counter("obs-test.scoped").add(10);
                });
            }
        });
        assert_eq!(counter("obs-test.scoped").get(), 40);
    }

    #[test]
    fn histogram_stats_and_summary() {
        let _scope = collecting();
        let h = histogram("obs-test.hist");
        h.record(1);
        h.record(7);
        h.record(100);
        let (count, sum, max) = h.stats();
        assert_eq!((count, sum, max), (3, 108, 100));
        let table = render_summary();
        assert!(table.contains("obs-test.hist"), "{table}");
        assert!(table.contains("count=3"), "{table}");
    }

    #[test]
    fn span_records_histogram_and_event() {
        let _scope = collecting();
        {
            let _s = span!("obs-test-span");
        }
        let (count, _, _) = histogram("span.obs-test-span").stats();
        assert_eq!(count, 1);
        let events = journal::drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].etype, "span");
    }

    #[test]
    fn quantiles_are_monotone_and_bucket_accurate() {
        let _s = Scope::new().install();
        set_enabled(true);
        let h = histogram("quantiles");
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (count, sum, max) = h.stats();
        assert_eq!((count, sum, max), (1000, 500500, 1000));
        let (p50, p90, p99, p999) =
            (h.quantile(0.50), h.quantile(0.90), h.quantile(0.99), h.quantile(0.999));
        assert!(p50 <= p90 && p90 <= p99 && p99 <= p999 && p999 <= max);
        // Eighth-octave buckets: each estimate within 1/16 of the exact
        // rank value.
        assert!((469..=532).contains(&p50), "p50={p50}");
        assert!((843..=957).contains(&p90), "p90={p90}");
        assert!((928..=1000).contains(&p99), "p99={p99}");
        // The max cap keeps tail quantiles from overshooting the data.
        assert!(p999 <= 1000, "p999={p999}");
        // Single-sample histogram: every quantile is that sample's bucket,
        // capped at max, so within 1/16 of the sample.
        for v in [7u64, 11_182, 10_240, 1 << 40] {
            let one = histogram(&format!("quantiles.one.{v}"));
            one.record(v);
            for q in [0.5, 0.9, 0.99, 0.999] {
                let got = one.quantile(q);
                assert!(got <= v && (v - got) * 16 <= v, "v={v} q={q} got {got}");
            }
        }
    }

    #[test]
    fn hist_buckets_partition_and_round_trip() {
        // Bucket index is monotone in v and the representative lands in
        // the same bucket it represents.
        let mut prev = 0;
        for v in [0u64, 1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 16, 100, 1000, 1 << 20, u64::MAX] {
            let b = hist_bucket(v);
            assert!(b >= prev, "bucket index not monotone at {v}");
            prev = b;
        }
        for b in 0..HIST_BUCKETS {
            assert_eq!(hist_bucket(hist_bucket_rep(b)), b, "rep of bucket {b} escapes it");
        }
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 1);
        assert_eq!(hist_bucket(7), 7);
        assert_eq!(hist_bucket(8), 8);
        assert_eq!(hist_bucket(15), 15);
        assert_eq!(hist_bucket(16), 16);
        assert_eq!(hist_bucket(17), 16);
        assert_eq!(hist_bucket(18), 17);
        assert_eq!(hist_bucket(11_182), 90);
        assert_eq!(hist_bucket(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn traced_spans_nest_and_stamp_events() {
        let _scope = collecting();
        let tid = trace::next_trace_id();
        {
            let _t = trace::install(trace::TraceHandle::root(tid));
            let _outer = span!("obs-test-outer");
            journal::event("obs_test_mark", vec![]);
            let _inner = span!("obs-test-inner");
        }
        let events = journal::drain();
        // span_start(outer), mark, span_start(inner), span(inner), span(outer)
        let types: Vec<&str> = events.iter().map(|e| e.etype).collect();
        assert_eq!(
            types,
            vec!["span_start", "obs_test_mark", "span_start", "span", "span"],
            "{types:?}"
        );
        let field = |e: &journal::Event, key: &str| -> u64 {
            e.fields
                .iter()
                .find(|(k, _)| *k == key)
                .and_then(|(_, v)| match v {
                    journal::Value::U64(n) => Some(*n),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("missing {key} in {e:?}"))
        };
        for e in &events {
            assert_eq!(field(e, "trace_id"), tid, "{e:?}");
        }
        let outer_id = field(&events[0], "span_id");
        assert_eq!(field(&events[0], "parent_span_id"), 0);
        assert_eq!(field(&events[1], "parent_span_id"), outer_id, "event parents to open span");
        assert_eq!(field(&events[2], "parent_span_id"), outer_id, "inner span parents to outer");
        let inner_id = field(&events[2], "span_id");
        assert_eq!(field(&events[3], "span_id"), inner_id, "inner closes first");
        assert_eq!(field(&events[4], "span_id"), outer_id);
        assert_eq!(field(&events[4], "parent_span_id"), 0, "outer end back at root");
        // The journal must pass its own nesting check.
        let jsonl = journal::to_jsonl(&events);
        let report = traceview::check(&jsonl).expect("nesting check");
        assert_eq!(report.spans, 2);
        assert_eq!(report.traces, 1);
    }

    #[test]
    fn capture_gate_stops_events_not_metrics() {
        let _scope = collecting();
        journal::set_capture(false);
        counter("obs-test.gated").inc();
        journal::event("obs_test_gated", vec![]);
        assert_eq!(counter("obs-test.gated").get(), 1, "metrics keep collecting");
        assert!(journal::drain().is_empty(), "events gated off");
        journal::set_capture(true);
        journal::event("obs_test_gated", vec![]);
        assert_eq!(journal::drain().len(), 1);
    }

    #[test]
    fn series_rings_fill_and_wrap() {
        let _scope = collecting();
        let c = counter("obs-test.series.ctr");
        let g = gauge("obs-test.series.gauge");
        g.set(5);
        let h = histogram("obs-test.series.hist");
        h.record(10);
        c.add(3);
        series::sample_tick();
        c.add(2);
        series::sample_tick();
        let get = |name: &str| -> Vec<f64> {
            series::series_snapshot()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v)
                .unwrap_or_default()
        };
        assert_eq!(get("obs-test.series.ctr"), vec![3.0, 2.0], "counter deltas per tick");
        assert_eq!(get("obs-test.series.gauge"), vec![5.0, 5.0], "gauge level per tick");
        assert_eq!(get("obs-test.series.hist.p50").len(), 2, "histogram quantile series");
        // Rings cap at SERIES_SLOTS, dropping oldest.
        for i in 0..(series::SERIES_SLOTS + 10) {
            g.set(i as u64);
            series::sample_tick();
        }
        let ring = get("obs-test.series.gauge");
        assert_eq!(ring.len(), series::SERIES_SLOTS);
        assert_eq!(ring[0], 10.0, "oldest points dropped");
        assert_eq!(*ring.last().unwrap(), (series::SERIES_SLOTS + 9) as f64);
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let _scope = collecting();
        counter("obs-test.z").inc();
        gauge("obs-test.a").set(9);
        let snap = snapshot();
        let names: Vec<&str> = snap.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["obs-test.a", "obs-test.z"]);
        assert_eq!(snap[0].value, SnapshotValue::Gauge(9));
    }

    /// The root scope is what a thread without an installed scope reports
    /// into; no other test in this binary touches it.
    #[test]
    fn uninstalled_threads_share_the_root_scope() {
        std::thread::spawn(|| {
            set_enabled(true);
            counter("obs-test.root").inc();
        })
        .join()
        .unwrap();
        let root = std::thread::spawn(counters_snapshot).join().unwrap();
        assert_eq!(root, vec![("obs-test.root".to_string(), 1)]);
        let _scope = Scope::new().install();
        assert!(!enabled() && counters_snapshot().is_empty(), "a fresh scope starts empty");
    }
}

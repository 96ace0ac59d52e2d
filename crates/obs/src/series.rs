//! Fixed-size time-series rings over the metrics registry, one set per
//! [`Scope`](crate::Scope).
//!
//! A [`sample_tick`] — driven by the serve sampler thread at
//! `--obs-interval-ms` — walks the registry snapshot and appends one
//! point per live metric to a named 256-slot ring buffer: counters
//! contribute their **delta since the previous tick**, gauges their
//! current level, and histograms their `p50`/`p99` quantiles (as
//! `<name>.p50` / `<name>.p99` series). Rings are bounded, so a server
//! sampling once a second holds the last ~4 minutes at a fixed few KB
//! per metric regardless of uptime.
//!
//! A scope's rings live behind one mutex, taken once per tick and once
//! per [`series_snapshot`]; there is no per-request cost at all.

use std::collections::{BTreeMap, VecDeque};
use std::sync::PoisonError;

/// Ring capacity: each series keeps the most recent 256 points.
pub const SERIES_SLOTS: usize = 256;

/// One scope's rings.
#[derive(Debug, Default)]
pub(crate) struct Store {
    rings: BTreeMap<String, VecDeque<f64>>,
    /// Counter totals at the previous tick, for delta computation.
    last_counters: BTreeMap<String, u64>,
}

fn push(rings: &mut BTreeMap<String, VecDeque<f64>>, name: &str, v: f64) {
    let ring = rings
        .entry(name.to_string())
        .or_insert_with(|| VecDeque::with_capacity(SERIES_SLOTS));
    if ring.len() == SERIES_SLOTS {
        ring.pop_front();
    }
    ring.push_back(v);
}

/// Samples the current scope's registry once: counter deltas, gauge
/// levels, and histogram p50/p99 per metric with any activity. Metrics
/// that have never moved produce no series (so an idle server's snapshot
/// stays small); once a series exists it receives a point on every tick.
pub fn sample_tick() {
    // Read the registry before taking the store lock; the two locks are
    // never held together (no ordering to get wrong).
    let snap = crate::snapshot();
    crate::scope::with(|s| {
        let mut st = s.series.lock().unwrap_or_else(PoisonError::into_inner);
        tick_into(&mut st, snap);
    });
}

fn tick_into(st: &mut Store, snap: Vec<crate::MetricSnapshot>) {
    for m in snap {
        match m.value {
            crate::SnapshotValue::Counter(total) => {
                let last = st.last_counters.get(&m.name).copied();
                if total == 0 && last.is_none() {
                    continue;
                }
                let delta = total.saturating_sub(last.unwrap_or(0));
                st.last_counters.insert(m.name.clone(), total);
                push(&mut st.rings, &m.name, delta as f64);
            }
            crate::SnapshotValue::Gauge(level) => {
                if level == 0 && !st.rings.contains_key(&m.name) {
                    continue;
                }
                push(&mut st.rings, &m.name, level as f64);
            }
            crate::SnapshotValue::Histogram { count, p50, p99, .. } => {
                if count == 0 {
                    continue;
                }
                push(&mut st.rings, &format!("{}.p50", m.name), p50 as f64);
                push(&mut st.rings, &format!("{}.p99", m.name), p99 as f64);
            }
        }
    }
}

/// Every series of the current scope, sorted by name, each oldest point
/// first.
pub fn series_snapshot() -> Vec<(String, Vec<f64>)> {
    crate::scope::with(|s| {
        let st = s.series.lock().unwrap_or_else(PoisonError::into_inner);
        st.rings.iter().map(|(name, ring)| (name.clone(), ring.iter().copied().collect())).collect()
    })
}

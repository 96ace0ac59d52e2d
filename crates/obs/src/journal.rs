//! Structured event journal serializing to JSON Lines.
//!
//! Events are appended by instrumentation sites while collection is
//! [`enabled`](crate::enabled) and drained once at the end of a run (the
//! CLI's `--trace-json`). Each [`Scope`](crate::Scope) has its own
//! journal: buffer, sequence counter and capture switch. Appends take the
//! buffer's mutex — every emitting site is *cold* (per tier attempt, per
//! DP layer, per budget trip, per span), never per search node, so
//! contention is irrelevant; the hot loops accumulate into locals and emit
//! one event per run instead.
//!
//! Each event serializes as one JSON object per line with the reserved
//! keys `seq` (append order within the scope), `us` (microseconds since
//! the first event of the process, in any scope) and `type`, followed by
//! the event's own fields.

use crate::json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// A field value in a journal event.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (serialized with enough digits to round-trip sanely).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (escaped on serialization).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// One journal entry.
#[derive(Clone, Debug)]
pub struct Event {
    /// Append order (gap-free per scope, monotone).
    pub seq: u64,
    /// Microseconds since the journal epoch (first use in this process).
    pub us: u64,
    /// Event type (`tier_start`, `span`, `dp_layer`, ...).
    pub etype: &'static str,
    /// Event-specific fields, serialized in order after the reserved keys.
    pub fields: Vec<(&'static str, Value)>,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One scope's journal.
#[derive(Debug)]
pub(crate) struct Journal {
    events: Mutex<Vec<Event>>,
    seq: AtomicU64,
    /// Capture switch, independent of the metrics flag: a long-running
    /// server wants live counters and quantiles ([`crate::set_enabled`]
    /// on) without an unbounded in-memory event buffer. On by default, so
    /// `set_enabled(true)` alone captures.
    capture: AtomicBool,
}

impl Default for Journal {
    fn default() -> Self {
        Journal { events: Mutex::default(), seq: AtomicU64::new(0), capture: AtomicBool::new(true) }
    }
}

impl Journal {
    fn events(&self) -> std::sync::MutexGuard<'_, Vec<Event>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Turns journal event capture on or off in the current scope (metrics
/// keep collecting either way). On is the default.
pub fn set_capture(on: bool) {
    // ordering: see `crate::set_enabled` — flag toggles carry no
    // dependent data.
    crate::scope::with(|s| s.journal.capture.store(on, Ordering::Relaxed));
}

/// Whether journal events are being buffered in the current scope
/// (requires both [`crate::enabled`] and the capture switch).
pub fn capturing() -> bool {
    crate::scope::with(|s| {
        // ordering: see `set_capture`.
        s.enabled.load(Ordering::Relaxed) && s.journal.capture.load(Ordering::Relaxed)
    })
}

/// Appends an event to the current scope's journal (no-op while
/// collection is disabled or capture is off). While a [`crate::trace`]
/// context is active on this thread, the event is stamped with `trace_id`
/// and `parent_span_id` fields (journal schema v2); without one the line
/// is byte-identical to schema v1.
pub fn event(etype: &'static str, mut fields: Vec<(&'static str, Value)>) {
    if !capturing() {
        return;
    }
    if let Some((trace_id, parent_span_id)) = crate::trace::current_ids() {
        fields.push(("trace_id", Value::U64(trace_id)));
        fields.push(("parent_span_id", Value::U64(parent_span_id)));
    }
    let us = epoch().elapsed().as_micros() as u64;
    crate::scope::with(|s| {
        let mut events = s.journal.events();
        // ordering: seq is claimed *under the events lock* so buffer order
        // always agrees with seq order even with concurrent emitters (the
        // lock provides all inter-thread ordering; the atomic only supplies
        // uniqueness). Verified exhaustively in tests/model_journal.rs.
        let seq = s.journal.seq.fetch_add(1, Ordering::Relaxed);
        events.push(Event { seq, us, etype, fields });
    });
}

/// Removes and returns every event buffered in the current scope, in
/// append order.
pub fn drain() -> Vec<Event> {
    crate::scope::with(|s| std::mem::take(&mut *s.journal.events()))
}

/// Serializes events as JSON Lines (one object per line, trailing
/// newline).
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        out.push_str(&format!("{{\"seq\": {}, \"us\": {}, \"type\": ", e.seq, e.us));
        json::escape_into(&mut out, e.etype);
        for (key, value) in &e.fields {
            out.push_str(", ");
            json::escape_into(&mut out, key);
            out.push_str(": ");
            match value {
                Value::U64(v) => out.push_str(&v.to_string()),
                Value::I64(v) => out.push_str(&v.to_string()),
                // `{v:?}` is Rust's shortest round-trip float form and is
                // valid JSON for all finite values (e.g. `1.5`, `1e300`).
                Value::F64(v) if v.is_finite() => out.push_str(&format!("{v:?}")),
                Value::F64(_) => out.push_str("null"),
                Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
                Value::Str(s) => json::escape_into(&mut out, s),
            }
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_round_trips_through_parser() {
        let events = vec![
            Event {
                seq: 0,
                us: 12,
                etype: "tier_start",
                fields: vec![("tier", Value::from("dp")), ("attempt", Value::from(1u64))],
            },
            Event {
                seq: 1,
                us: 99,
                etype: "weird",
                fields: vec![
                    ("msg", Value::from("a \"quoted\"\nline")),
                    ("x", Value::from(-3i64)),
                    ("f", Value::from(1.5f64)),
                    ("ok", Value::from(true)),
                    ("nan", Value::F64(f64::NAN)),
                ],
            },
        ];
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = json::parse(line).expect("line parses");
            assert!(v.get("type").is_some());
        }
        let second = json::parse(text.lines().nth(1).unwrap()).unwrap();
        assert_eq!(second.get("msg").and_then(json::JsonValue::as_str), Some("a \"quoted\"\nline"));
    }

    #[test]
    fn f64_serialization_round_trips_exactly() {
        for v in [0.1f64, 1.0 / 3.0, 1e300, 5e-324, -123_456_789.123_456_7, 27.0] {
            let events = vec![Event {
                seq: 0,
                us: 0,
                etype: "f",
                fields: vec![("v", Value::from(v))],
            }];
            let text = to_jsonl(&events);
            let parsed = json::parse(text.trim_end()).unwrap();
            let back = parsed.get("v").and_then(json::JsonValue::as_num).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "lossy round-trip for {v}: {text}");
        }
    }
}

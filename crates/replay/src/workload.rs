//! The `aqo-workload/v1` file format: a replayable traffic capture.
//!
//! One JSON object per line. The first line is the header (`schema`,
//! `source`, optional `seed`, entry count); every following line is one
//! recorded request — the request side (instance + non-default knobs,
//! mirroring the wire protocol's omit-defaults policy) and the observed
//! baseline (`tier`/`exact`/`cached`/`cost`/`cost_log2`/`order`/
//! `decomposition`/`latency_us`). Entries reuse
//! [`aqo_serve::record::RecordedRequest`] directly, so the three
//! producers — serve `--record`, loadgen `--record`, and `aqo replay
//! extract` — agree by construction on what a baseline is.

use aqo_obs::json::{self, JsonValue};
use aqo_serve::cache::{write_fragments, write_order, CachedPlan};
use aqo_serve::proto::{Op, Problem, Request};
use aqo_serve::record::{fingerprint_field, RecordedRequest};
use std::fmt::Write as _;

/// The format's schema tag (header `schema` field).
pub const SCHEMA: &str = "aqo-workload/v1";

/// A parsed workload file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Workload {
    /// Where the capture came from (`"loadgen"`, `"serve"`, `"journal"`).
    pub source: String,
    /// Generator seed, when the producer had one (loadgen).
    pub seed: Option<u64>,
    /// Recorded requests, in capture order.
    pub entries: Vec<RecordedRequest>,
}

impl Workload {
    /// Wraps recorded observations into a workload.
    pub fn new(source: &str, seed: Option<u64>, entries: Vec<RecordedRequest>) -> Self {
        Workload { source: source.to_string(), seed, entries }
    }

    /// Serializes the workload as JSONL (header line + one line per
    /// entry, trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(256 * (self.entries.len() + 1));
        let _ = write!(out, "{{\"schema\": \"{SCHEMA}\", \"source\": ");
        json::escape_into(&mut out, &self.source);
        if let Some(seed) = self.seed {
            let _ = write!(out, ", \"seed\": {seed}");
        }
        let _ = writeln!(out, ", \"requests\": {}}}", self.entries.len());
        for e in &self.entries {
            entry_to_jsonl(&mut out, e);
        }
        out
    }

    /// Parses a workload file. Errors carry 1-based line numbers. The
    /// header's `requests` count must match the entries that follow, so a
    /// truncated capture is an error, not a smaller workload.
    pub fn parse(text: &str) -> Result<Workload, String> {
        let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
        let (ln, header) = lines.next().ok_or("empty workload file")?;
        let doc = json::parse(header).map_err(|e| format!("line {}: {e}", ln + 1))?;
        let schema = doc.get("schema").and_then(JsonValue::as_str).unwrap_or("");
        if schema != SCHEMA {
            return Err(format!("line {}: expected schema {SCHEMA}, got `{schema}`", ln + 1));
        }
        let source = doc
            .get("source")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {}: header has no `source`", ln + 1))?
            .to_string();
        let seed = doc.get("seed").and_then(JsonValue::as_u64);
        let declared = doc
            .get("requests")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("line {}: header has no `requests` count", ln + 1))?;
        let mut entries = Vec::new();
        for (ln, line) in lines {
            entries.push(parse_entry(line).map_err(|e| format!("line {}: {e}", ln + 1))?);
        }
        if entries.len() as u64 != declared {
            return Err(format!(
                "header declares {declared} request(s) but the file holds {}",
                entries.len()
            ));
        }
        Ok(Workload { source, seed, entries })
    }
}

/// One entry as a JSON line: the request (knobs at their defaults
/// omitted, like the wire protocol) and its observed baseline.
fn entry_to_jsonl(out: &mut String, e: &RecordedRequest) {
    let req = &e.request;
    let _ = write!(
        out,
        "{{\"id\": {}, \"problem\": \"{}\", \"fingerprint\": \"{:#018x}\", \"instance\": ",
        req.id,
        req.problem.name(),
        e.fingerprint
    );
    json::escape_into(out, req.instance.as_deref().unwrap_or_default());
    req.write_knobs(out);
    let plan = &e.plan;
    out.push_str(", \"baseline\": {\"tier\": ");
    json::escape_into(out, &plan.tier);
    let _ = write!(out, ", \"exact\": {}, \"cached\": {}, \"cost\": ", plan.exact, e.cached);
    json::escape_into(out, &plan.cost);
    let _ = write!(out, ", \"cost_log2\": {:.3}, \"order\": ", plan.cost_log2);
    write_order(out, &plan.order);
    if let Some(frags) = &plan.decomposition {
        out.push_str(", \"decomposition\": ");
        write_fragments(out, frags);
    }
    let _ = writeln!(out, ", \"latency_us\": {}}}}}", e.latency_us);
}

/// Reads one entry: an optimize request (entries carry no `op`) plus its
/// baseline.
fn parse_entry(line: &str) -> Result<RecordedRequest, String> {
    let doc = json::parse(line)?;
    let request = Request::from_fields(&doc, Op::Optimize)?;
    if !matches!(request.problem, Problem::Qon | Problem::Qoh) {
        return Err(format!("unreplayable problem `{}`", request.problem.name()));
    }
    let base = doc.get("baseline").ok_or("entry has no `baseline`")?;
    Ok(RecordedRequest {
        request,
        fingerprint: fingerprint_field(&doc).ok_or("bad `fingerprint`")?,
        cached: matches!(base.get("cached"), Some(JsonValue::Bool(true))),
        latency_us: match base.get("latency_us") {
            None => 0,
            Some(v) => v.as_u64().ok_or("`latency_us` must be a non-negative integer")?,
        },
        plan: CachedPlan::from_fields(base).map_err(|e| format!("baseline: {e}"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry(id: u64) -> RecordedRequest {
        let mut request = Request::new(
            Op::Optimize,
            if id.is_multiple_of(2) { Problem::Qon } else { Problem::Qoh },
        );
        request.id = id;
        request.instance = Some(format!("qon\nvertices 1\nsize 0 {id}\n"));
        request.method = id.is_multiple_of(3).then(|| "dp".to_string());
        request.timeout_ms = (id % 2 == 1).then_some(250);
        request.threads = if id.is_multiple_of(4) { 4 } else { 1 };
        request.allow_cartesian = id.is_multiple_of(2);
        RecordedRequest {
            request,
            fingerprint: 0xfeed_0000 + id,
            cached: id % 2 == 1,
            latency_us: 100 + id,
            plan: CachedPlan {
                tier: "dp".into(),
                exact: true,
                order: vec![2, 0, 1],
                cost: format!("{}/3", id + 7),
                cost_log2: 4.125,
                decomposition: (id % 2 == 1).then(|| vec![(1, 1), (2, 3)]),
            },
        }
    }

    #[test]
    fn round_trips_through_jsonl() {
        let w = Workload::new("loadgen", Some(42), (0..6).map(sample_entry).collect());
        let text = w.to_jsonl();
        assert!(text.starts_with("{\"schema\": \"aqo-workload/v1\""));
        let back = Workload::parse(&text).expect("parses");
        assert_eq!(back, w);
        // Serialization is deterministic: same value, same bytes.
        assert_eq!(back.to_jsonl(), text);
    }

    /// The committed capture pins the `aqo-workload/v1` bytes: reading it
    /// and writing it back must reproduce the file exactly.
    #[test]
    fn committed_workload_rewrites_byte_for_byte() {
        let text = include_str!("../../../workloads/mixed-200.jsonl");
        let w = Workload::parse(text).expect("committed workload parses");
        assert_eq!(w.entries.len(), 200);
        assert_eq!(w.to_jsonl(), text);
    }

    /// A capture cut short replays nothing: the first 51 lines of the
    /// committed workload (the header still says 200) are an error naming
    /// both counts, as is a header without a count.
    #[test]
    fn truncated_workload_is_an_error() {
        let text = include_str!("../../../workloads/mixed-200.jsonl");
        let prefix: String = text.lines().take(51).map(|l| format!("{l}\n")).collect();
        let err = Workload::parse(&prefix).unwrap_err();
        assert_eq!(err, "header declares 200 request(s) but the file holds 50");
        let headless = text.replacen(", \"requests\": 200", "", 1);
        let err = Workload::parse(&headless).unwrap_err();
        assert_eq!(err, "line 1: header has no `requests` count");
    }

    #[test]
    fn rejects_bad_headers_and_entries() {
        assert!(Workload::parse("").is_err());
        assert!(Workload::parse("{\"schema\": \"nope\", \"source\": \"x\"}").is_err());
        let w = Workload::new("serve", None, vec![sample_entry(0)]);
        let mut text = w.to_jsonl();
        text.push_str("{\"id\": 9, \"problem\": \"clique\", \"instance\": \"p edge 1 0\"}\n");
        let err = Workload::parse(&text).unwrap_err();
        assert!(err.contains("line 3"), "error names the line: {err}");
        assert!(err.contains("unreplayable problem `clique`"), "{err}");
    }

    #[test]
    fn request_round_trips_the_knobs() {
        let entry = sample_entry(3);
        let text = Workload::new("serve", None, vec![entry.clone()]).to_jsonl();
        let line = text.lines().nth(1).expect("one entry line");
        // An entry line is a wire request without `op`: the wire parser
        // reads it back to the recorded request once the op is added.
        let wire = line.replacen('{', "{\"op\": \"optimize\", ", 1);
        assert_eq!(Request::parse(&wire).expect("wire request"), entry.request);
    }
}

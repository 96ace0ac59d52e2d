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
use aqo_serve::proto::{Op, Problem, Request};
use aqo_serve::record::RecordedRequest;
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

    /// Parses a workload file. Errors carry 1-based line numbers.
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
        let seed = doc
            .get("seed")
            .and_then(JsonValue::as_num)
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as u64);
        let mut entries = Vec::new();
        for (ln, line) in lines {
            entries.push(
                parse_entry(line).map_err(|e| format!("line {}: {e}", ln + 1))?,
            );
        }
        Ok(Workload { source, seed, entries })
    }

    /// Rebuilds the wire request a recorded entry corresponds to, for
    /// re-driving it against a live server or the in-process driver.
    pub fn request_for(entry: &RecordedRequest) -> Request {
        let mut req = Request::new(Op::Optimize, entry.problem);
        req.id = entry.id;
        req.instance = Some(entry.instance.clone());
        req.method = entry.method.clone();
        req.fallback = entry.fallback.clone();
        req.timeout_ms = entry.timeout_ms;
        req.max_expansions = entry.max_expansions;
        req.threads = entry.threads;
        req.allow_cartesian = entry.allow_cartesian;
        req
    }
}

/// One entry as a JSON line (defaults omitted, like the wire protocol).
fn entry_to_jsonl(out: &mut String, e: &RecordedRequest) {
    let _ = write!(
        out,
        "{{\"id\": {}, \"problem\": \"{}\", \"fingerprint\": \"{:#018x}\", \"instance\": ",
        e.id,
        e.problem.name(),
        e.fingerprint
    );
    json::escape_into(out, &e.instance);
    if let Some(m) = &e.method {
        out.push_str(", \"method\": ");
        json::escape_into(out, m);
    }
    if let Some(f) = &e.fallback {
        out.push_str(", \"fallback\": ");
        json::escape_into(out, f);
    }
    if let Some(t) = e.timeout_ms {
        let _ = write!(out, ", \"timeout_ms\": {t}");
    }
    if let Some(x) = e.max_expansions {
        let _ = write!(out, ", \"max_expansions\": {x}");
    }
    if e.threads != 1 {
        let _ = write!(out, ", \"threads\": {}", e.threads);
    }
    if !e.allow_cartesian {
        out.push_str(", \"allow_cartesian\": false");
    }
    out.push_str(", \"baseline\": {\"tier\": ");
    json::escape_into(out, &e.tier);
    let _ = write!(out, ", \"exact\": {}, \"cached\": {}, \"cost\": ", e.exact, e.cached);
    json::escape_into(out, &e.cost);
    let _ = write!(out, ", \"cost_log2\": {:.3}, \"order\": [", e.cost_log2);
    for (i, v) in e.order.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    if let Some(frags) = &e.decomposition {
        out.push_str(", \"decomposition\": [");
        for (i, (lo, hi)) in frags.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[{lo}, {hi}]");
        }
        out.push(']');
    }
    let _ = writeln!(out, ", \"latency_us\": {}}}}}", e.latency_us);
}

fn parse_entry(line: &str) -> Result<RecordedRequest, String> {
    let doc = json::parse(line).map_err(|e| e.to_string())?;
    let u64_field = |v: &JsonValue, what: &str| -> Result<u64, String> {
        v.as_num()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as u64)
            .ok_or_else(|| format!("`{what}` must be a non-negative integer"))
    };
    let id = u64_field(doc.get("id").ok_or("entry has no `id`")?, "id")?;
    let problem = match doc.get("problem").and_then(JsonValue::as_str) {
        Some("qon") => Problem::Qon,
        Some("qoh") => Problem::Qoh,
        other => return Err(format!("unreplayable problem `{}`", other.unwrap_or("?"))),
    };
    let fingerprint = doc
        .get("fingerprint")
        .and_then(JsonValue::as_str)
        .and_then(|s| u64::from_str_radix(s.strip_prefix("0x")?, 16).ok())
        .ok_or("bad `fingerprint`")?;
    let instance = doc
        .get("instance")
        .and_then(JsonValue::as_str)
        .ok_or("entry has no `instance`")?
        .to_string();
    let opt_str = |key: &str| {
        doc.get(key).and_then(JsonValue::as_str).map(str::to_string)
    };
    let opt_u64 = |key: &str| -> Result<Option<u64>, String> {
        match doc.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(v) => u64_field(v, key).map(Some),
        }
    };
    let base = doc.get("baseline").ok_or("entry has no `baseline`")?;
    let tier =
        base.get("tier").and_then(JsonValue::as_str).ok_or("baseline has no `tier`")?.to_string();
    let cost =
        base.get("cost").and_then(JsonValue::as_str).ok_or("baseline has no `cost`")?.to_string();
    let cost_log2 =
        base.get("cost_log2").and_then(JsonValue::as_num).ok_or("baseline has no `cost_log2`")?;
    let order = base
        .get("order")
        .and_then(JsonValue::as_arr)
        .ok_or("baseline has no `order`")?
        .iter()
        .map(|v| v.as_num().filter(|n| *n >= 0.0 && n.fract() == 0.0).map(|n| n as usize))
        .collect::<Option<Vec<usize>>>()
        .ok_or("bad `order` element")?;
    let decomposition = match base.get("decomposition").and_then(JsonValue::as_arr) {
        None => None,
        Some(frags) => Some(
            frags
                .iter()
                .map(|pair| {
                    let pair = pair.as_arr().filter(|p| p.len() == 2)?;
                    let lo = pair[0].as_num().filter(|n| n.fract() == 0.0)? as usize;
                    let hi = pair[1].as_num().filter(|n| n.fract() == 0.0)? as usize;
                    Some((lo, hi))
                })
                .collect::<Option<Vec<(usize, usize)>>>()
                .ok_or("bad `decomposition` element")?,
        ),
    };
    let latency_us = match base.get("latency_us") {
        None => 0,
        Some(v) => u64_field(v, "latency_us")?,
    };
    Ok(RecordedRequest {
        id,
        problem,
        instance,
        method: opt_str("method"),
        fallback: opt_str("fallback"),
        timeout_ms: opt_u64("timeout_ms")?,
        max_expansions: opt_u64("max_expansions")?,
        threads: opt_u64("threads")?.unwrap_or(1) as usize,
        allow_cartesian: !matches!(doc.get("allow_cartesian"), Some(JsonValue::Bool(false))),
        fingerprint,
        tier,
        exact: matches!(base.get("exact"), Some(JsonValue::Bool(true))),
        cached: matches!(base.get("cached"), Some(JsonValue::Bool(true))),
        cost,
        cost_log2,
        order,
        decomposition,
        latency_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry(id: u64) -> RecordedRequest {
        RecordedRequest {
            id,
            problem: if id.is_multiple_of(2) { Problem::Qon } else { Problem::Qoh },
            instance: format!("qon\nvertices 1\nsize 0 {id}\n"),
            method: id.is_multiple_of(3).then(|| "dp".to_string()),
            fallback: None,
            timeout_ms: (id % 2 == 1).then_some(250),
            max_expansions: None,
            threads: if id.is_multiple_of(4) { 4 } else { 1 },
            allow_cartesian: id.is_multiple_of(2),
            fingerprint: 0xfeed_0000 + id,
            tier: "dp".into(),
            exact: true,
            cached: id % 2 == 1,
            cost: format!("{}/3", id + 7),
            cost_log2: 4.125,
            decomposition: (id % 2 == 1).then(|| vec![(1, 1), (2, 3)]),
            order: vec![2, 0, 1],
            latency_us: 100 + id,
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

    #[test]
    fn rejects_bad_headers_and_entries() {
        assert!(Workload::parse("").is_err());
        assert!(Workload::parse("{\"schema\": \"nope\", \"source\": \"x\"}").is_err());
        let w = Workload::new("serve", None, vec![sample_entry(0)]);
        let mut text = w.to_jsonl();
        text.push_str("{\"id\": 9, \"problem\": \"clique\"}\n");
        let err = Workload::parse(&text).unwrap_err();
        assert!(err.contains("line 3"), "error names the line: {err}");
    }

    #[test]
    fn request_round_trips_the_knobs() {
        let entry = sample_entry(3);
        let req = Workload::request_for(&entry);
        assert_eq!(req.id, 3);
        assert_eq!(req.op, Op::Optimize);
        assert_eq!(req.problem, Problem::Qoh);
        assert_eq!(req.method.as_deref(), Some("dp"));
        assert_eq!(req.timeout_ms, Some(250));
        assert_eq!(req.instance.as_deref(), Some(entry.instance.as_str()));
        // The wire line re-parses to the same request (proto round trip).
        let back = Request::parse(&req.to_json_line()).expect("wire round trip");
        assert_eq!(back.timeout_ms, req.timeout_ms);
        assert_eq!(back.method, req.method);
    }
}

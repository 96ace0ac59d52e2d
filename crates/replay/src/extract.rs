//! `aqo replay extract`: converts a serve trace journal into an
//! `aqo-workload/v1` capture.
//!
//! The serve intake emits a `serve_request` event (instance + non-default
//! knobs) and the engine a `serve_response` event (tier/cost/plan
//! observation) for every request; both carry the trace id minted at
//! intake, which is the pairing key — ids are client-chosen and may
//! repeat, trace ids never do. Unreplayable pairs are skipped and
//! counted: control ops, error responses, degraded responses (their chain
//! was overload-chosen), clique (no execution story), and events recorded
//! without tracing enabled (nothing to pair on).

use crate::workload::Workload;
use aqo_obs::json::{self, JsonValue};
use aqo_serve::cache::CachedPlan;
use aqo_serve::proto::{Op, Problem, Request};
use aqo_serve::record::{fingerprint_field, RecordedRequest};
use std::collections::HashMap;

/// What extraction kept and what it dropped (and why).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExtractStats {
    /// Entries written to the workload.
    pub extracted: usize,
    /// Optimize responses with `ok: false`.
    pub skipped_errors: usize,
    /// Optimize responses tagged degraded.
    pub skipped_degraded: usize,
    /// Optimize requests/responses for problems with no replay story
    /// (clique) and non-optimize ops.
    pub skipped_unreplayable: usize,
    /// Responses whose request side never showed up (or carried no trace
    /// id to pair on).
    pub skipped_unpaired: usize,
}

/// Parses a journal (JSONL text) into a workload plus skip statistics.
/// Journal lines that are not serve request/response events are ignored;
/// malformed JSON lines are an error (a journal that does not parse is
/// worth failing loudly on, not silently under-extracting).
pub fn extract(journal: &str) -> Result<(Workload, ExtractStats), String> {
    let mut stats = ExtractStats::default();
    let mut pending: HashMap<u64, Request> = HashMap::new();
    let mut entries: Vec<RecordedRequest> = Vec::new();
    for (ln, line) in journal.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", ln + 1))?;
        let etype = doc.get("type").and_then(JsonValue::as_str).unwrap_or("");
        match etype {
            "serve_request" => harvest_request(&doc, &mut pending),
            "serve_response" => {
                harvest_response(&doc, &mut pending, &mut entries, &mut stats);
            }
            _ => {}
        }
    }
    Ok((Workload::new("journal", None, entries), stats))
}

fn trace_id(doc: &JsonValue) -> Option<u64> {
    doc.get("trace_id").and_then(JsonValue::as_u64).filter(|&t| t > 0)
}

fn harvest_request(doc: &JsonValue, pending: &mut HashMap<u64, Request>) {
    if doc.get("op").and_then(JsonValue::as_str) != Some("optimize") {
        // Control ops and explain are counted once, on the response side,
        // to avoid double-counting a skipped request/response pair.
        return;
    }
    let Some(tid) = trace_id(doc) else { return };
    match Request::from_fields(doc, Op::Optimize) {
        Ok(req) if matches!(req.problem, Problem::Qon | Problem::Qoh) => {
            pending.insert(tid, req);
        }
        _ => {}
    }
}

fn harvest_response(
    doc: &JsonValue,
    pending: &mut HashMap<u64, Request>,
    entries: &mut Vec<RecordedRequest>,
    stats: &mut ExtractStats,
) {
    if doc.get("op").and_then(JsonValue::as_str) != Some("optimize") {
        stats.skipped_unreplayable += 1;
        return;
    }
    let Some(request) = trace_id(doc).and_then(|tid| pending.remove(&tid)) else {
        stats.skipped_unpaired += 1;
        return;
    };
    if !matches!(doc.get("ok"), Some(JsonValue::Bool(true))) {
        stats.skipped_errors += 1;
        return;
    }
    if matches!(doc.get("degraded"), Some(JsonValue::Bool(true))) {
        stats.skipped_degraded += 1;
        return;
    }
    let (Some(fingerprint), Ok(plan)) = (fingerprint_field(doc), CachedPlan::from_fields(doc))
    else {
        // A response from a build that predates plan-carrying events:
        // nothing to baseline against.
        stats.skipped_unreplayable += 1;
        return;
    };
    // The handling latency is the event's *second* `us` field: the first
    // is the journal's reserved line timestamp (the event field rides
    // after it, same key — see `aqo_obs::journal`).
    let latency_us = match doc {
        JsonValue::Obj(fields) => {
            fields.iter().rfind(|(k, _)| k == "us").and_then(|(_, v)| v.as_u64()).unwrap_or(0)
        }
        _ => 0,
    };
    entries.push(RecordedRequest {
        request,
        fingerprint,
        cached: matches!(doc.get("cached"), Some(JsonValue::Bool(true))),
        latency_us,
        plan,
    });
    stats.extracted += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built journal: one good qon pair, one error pair, one
    /// degraded pair, one qoh pair, one unpaired response, one status op.
    const JOURNAL: &str = concat!(
        "{\"seq\": 1, \"us\": 10, \"type\": \"serve_request\", \"id\": 0, \"op\": \"optimize\", \"problem\": \"qon\", \"instance\": \"qon\\nvertices 1\\nsize 0 5\\n\", \"method\": \"dp\", \"trace_id\": 101, \"parent_span_id\": 0}\n",
        "{\"seq\": 2, \"us\": 20, \"type\": \"serve_response\", \"id\": 0, \"op\": \"optimize\", \"problem\": \"qon\", \"ok\": true, \"cached\": false, \"us\": 900, \"fingerprint\": \"0x00000000000000aa\", \"tier\": \"dp\", \"exact\": true, \"degraded\": false, \"cost\": \"5\", \"cost_log2\": 2.322, \"order\": \"0\", \"trace_id\": 101, \"parent_span_id\": 0}\n",
        "{\"seq\": 3, \"us\": 30, \"type\": \"serve_request\", \"id\": 1, \"op\": \"optimize\", \"problem\": \"qon\", \"instance\": \"bad\", \"trace_id\": 102, \"parent_span_id\": 0}\n",
        "{\"seq\": 4, \"us\": 40, \"type\": \"serve_response\", \"id\": 1, \"op\": \"optimize\", \"problem\": \"qon\", \"ok\": false, \"cached\": false, \"us\": 50, \"trace_id\": 102, \"parent_span_id\": 0}\n",
        "{\"seq\": 5, \"us\": 50, \"type\": \"serve_request\", \"id\": 2, \"op\": \"optimize\", \"problem\": \"qoh\", \"instance\": \"qoh…\", \"trace_id\": 103, \"parent_span_id\": 0}\n",
        "{\"seq\": 6, \"us\": 60, \"type\": \"serve_response\", \"id\": 2, \"op\": \"optimize\", \"problem\": \"qoh\", \"ok\": true, \"cached\": true, \"us\": 70, \"fingerprint\": \"0x00000000000000bb\", \"tier\": \"exhaustive\", \"exact\": true, \"degraded\": false, \"cost\": \"7/2\", \"cost_log2\": 1.807, \"order\": \"1,0\", \"decomposition\": \"1-1,2-2\", \"trace_id\": 103, \"parent_span_id\": 0}\n",
        "{\"seq\": 7, \"us\": 70, \"type\": \"serve_request\", \"id\": 3, \"op\": \"optimize\", \"problem\": \"qon\", \"instance\": \"qon…\", \"trace_id\": 104, \"parent_span_id\": 0}\n",
        "{\"seq\": 8, \"us\": 80, \"type\": \"serve_response\", \"id\": 3, \"op\": \"optimize\", \"problem\": \"qon\", \"ok\": true, \"cached\": false, \"us\": 95, \"fingerprint\": \"0x00000000000000cc\", \"tier\": \"greedy\", \"exact\": false, \"degraded\": true, \"cost\": \"9\", \"cost_log2\": 3.17, \"order\": \"0\", \"trace_id\": 104, \"parent_span_id\": 0}\n",
        "{\"seq\": 9, \"us\": 90, \"type\": \"serve_response\", \"id\": 4, \"op\": \"optimize\", \"problem\": \"qon\", \"ok\": true, \"cached\": false, \"us\": 11, \"trace_id\": 999, \"parent_span_id\": 0}\n",
        "{\"seq\": 10, \"us\": 95, \"type\": \"serve_response\", \"id\": 5, \"op\": \"status\", \"problem\": \"qon\", \"ok\": true, \"cached\": false, \"us\": 3, \"trace_id\": 105, \"parent_span_id\": 0}\n",
        "{\"seq\": 11, \"us\": 99, \"type\": \"serve_shutdown\", \"reason\": \"shutdown\"}\n",
    );

    #[test]
    fn pairs_by_trace_id_and_skips_unreplayable() {
        let (w, stats) = extract(JOURNAL).expect("extracts");
        assert_eq!(w.source, "journal");
        assert_eq!(stats.extracted, 2);
        assert_eq!(stats.skipped_errors, 1);
        assert_eq!(stats.skipped_degraded, 1);
        assert_eq!(stats.skipped_unpaired, 1);
        assert_eq!(stats.skipped_unreplayable, 1, "the status op");
        assert_eq!(w.entries.len(), 2);

        let qon = &w.entries[0];
        assert_eq!(qon.request.id, 0);
        assert_eq!(qon.request.method.as_deref(), Some("dp"));
        assert_eq!(qon.fingerprint, 0xaa);
        assert_eq!(qon.plan.cost, "5");
        assert_eq!(qon.plan.order, vec![0]);
        assert_eq!(qon.latency_us, 900, "latency is the second `us` field");

        let qoh = &w.entries[1];
        assert_eq!(qoh.request.problem, Problem::Qoh);
        assert!(qoh.cached);
        assert_eq!(qoh.plan.order, vec![1, 0]);
        assert_eq!(qoh.plan.decomposition.as_deref(), Some(&[(1, 1), (2, 2)][..]));

        // The extracted workload serializes and re-parses cleanly.
        let text = w.to_jsonl();
        assert_eq!(Workload::parse(&text).expect("round trip"), w);
    }

    /// 2^53 + 1 is the first integer an `f64` cannot hold: a recorded id
    /// or budget must come back digit for digit from a journal
    /// `serve_request` event and from a workload entry.
    #[test]
    fn recorded_integers_are_read_exactly() {
        const BIG: u64 = 9_007_199_254_740_993;
        let journal = concat!(
            "{\"seq\": 1, \"us\": 10, \"type\": \"serve_request\", \"id\": 9007199254740993, \"op\": \"optimize\", \"problem\": \"qon\", \"instance\": \"qon\\nvertices 1\\nsize 0 5\\n\", \"max_expansions\": 9007199254740993, \"trace_id\": 7, \"parent_span_id\": 0}\n",
            "{\"seq\": 2, \"us\": 20, \"type\": \"serve_response\", \"id\": 9007199254740993, \"op\": \"optimize\", \"problem\": \"qon\", \"ok\": true, \"cached\": false, \"us\": 9, \"fingerprint\": \"0x00000000000000aa\", \"tier\": \"dp\", \"exact\": true, \"degraded\": false, \"cost\": \"5\", \"cost_log2\": 2.322, \"order\": \"0\", \"trace_id\": 7, \"parent_span_id\": 0}\n",
        );
        let (w, _) = extract(journal).expect("extracts");
        let from_journal = &w.entries[0].request;
        assert_eq!((from_journal.id, from_journal.max_expansions), (BIG, Some(BIG)));
        let text = w.to_jsonl();
        assert!(text.contains("\"id\": 9007199254740993"), "{text}");
        let back = Workload::parse(&text).expect("workload parses");
        let from_workload = &back.entries[0].request;
        assert_eq!((from_workload.id, from_workload.max_expansions), (BIG, Some(BIG)));
    }

    #[test]
    fn malformed_journal_lines_fail_loudly() {
        let err = extract("not json\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }
}

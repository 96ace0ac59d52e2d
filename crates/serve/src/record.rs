//! Request-time workload recording: the serve-side half of the
//! record/replay loop.
//!
//! When a [`RecordSink`](crate::record::RecordSink) is installed in
//! [`ServeConfig`](crate::ServeConfig), every successful, non-degraded
//! `optimize` reply for a QO_N/QO_H instance is captured as a
//! [`RecordedRequest`] — the request knobs plus the observed plan — and
//! buffered in memory. The sink is shared with the caller (the CLI), who
//! drains it after the server stops and writes the `aqo-workload/v1` file
//! through `aqo-replay` (this crate deliberately does not know the file
//! format; the dependency points the other way).
//!
//! The same capture rules serve the loadgen `--record` path, so journaled,
//! served, and load-generated workloads agree on what is replayable, and
//! every path stores the server's own handling time as `latency_us`:
//! optimize only (explain replies are about the walkthrough text), never
//! degraded (the baseline would reflect overload, not the build), and
//! never clique (there is no execution story for clique plans).

use crate::cache::CachedPlan;
use crate::proto::{Op, Problem, Reply, Request};
use aqo_obs::json::JsonValue;
use std::sync::{Arc, Mutex, PoisonError};

/// One replayable observation: the request, and what the build answered.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordedRequest {
    /// The optimize request as it arrived (`Qon` or `Qoh`; clique is
    /// never recorded).
    pub request: Request,
    /// Canonical instance fingerprint from the reply.
    pub fingerprint: u64,
    /// Whether the reply came from the plan cache.
    pub cached: bool,
    /// The server's handling time in microseconds (the reply's
    /// `elapsed_us`), whichever path recorded it.
    pub latency_us: u64,
    /// The plan the reply carried.
    pub plan: CachedPlan,
}

/// Shared buffer of recorded observations. A leaf lock: nothing — obs
/// registry included — is ever acquired while it is held.
pub type RecordSink = Arc<Mutex<Vec<RecordedRequest>>>;

/// A fresh, empty sink to hand to [`ServeConfig`](crate::ServeConfig) or
/// the loadgen.
pub fn new_sink() -> RecordSink {
    Arc::new(Mutex::new(Vec::new()))
}

/// Takes everything recorded so far out of the sink.
pub fn drain(sink: &RecordSink) -> Vec<RecordedRequest> {
    std::mem::take(&mut *sink.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Whether `req` can be replayed at all: optimize (explain replies are
/// about the walkthrough text) of a QO_N/QO_H instance (clique has no
/// execution story).
fn replayable(req: &Request) -> bool {
    req.op == Op::Optimize && matches!(req.problem, Problem::Qon | Problem::Qoh)
}

/// Builds the recorded observation for one request/reply pair, or `None`
/// when the pair is not replayable: errors (nothing to diff against),
/// explain/status/control ops, degraded replies (the chain that ran was
/// overload-chosen, not request-chosen), and clique (no execution story).
pub fn capture(req: &Request, reply: &Reply) -> Option<RecordedRequest> {
    let Reply::Ok(ok) = reply else { return None };
    if !replayable(req) || ok.degraded {
        return None;
    }
    Some(RecordedRequest {
        request: req.clone(),
        fingerprint: ok.fingerprint,
        cached: ok.cached,
        latency_us: ok.elapsed_us,
        plan: CachedPlan {
            tier: ok.tier.clone(),
            exact: ok.exact,
            order: ok.order.clone(),
            cost: ok.cost.clone(),
            cost_log2: ok.cost_log2,
            decomposition: ok.decomposition.clone(),
        },
    })
}

/// As [`capture`], from a parsed client-side reply document instead of a
/// server-side [`Reply`] — the loadgen path. Applies the same skip rules
/// (non-optimize, non-ok, degraded, clique) and additionally skips replies
/// missing any plan field or `elapsed_us` (a newer/older server this build
/// cannot baseline against).
pub fn capture_from_json(req: &Request, doc: &JsonValue) -> Option<RecordedRequest> {
    if !replayable(req)
        || !matches!(doc.get("ok"), Some(JsonValue::Bool(true)))
        || matches!(doc.get("degraded"), Some(JsonValue::Bool(true)))
    {
        return None;
    }
    Some(RecordedRequest {
        request: req.clone(),
        fingerprint: fingerprint_field(doc)?,
        cached: matches!(doc.get("cached"), Some(JsonValue::Bool(true))),
        latency_us: doc.get("elapsed_us")?.as_u64()?,
        plan: CachedPlan::from_fields(doc).ok()?,
    })
}

/// The `"0x…"` fingerprint field of a reply, journal event or workload
/// entry.
pub fn fingerprint_field(doc: &JsonValue) -> Option<u64> {
    let hex = doc.get("fingerprint")?.as_str()?.strip_prefix("0x")?;
    u64::from_str_radix(hex, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{ErrReply, ErrorKind, OkReply};

    fn ok_reply(req: &Request) -> Reply {
        Reply::Ok(Box::new(OkReply {
            id: req.id,
            op: req.op,
            problem: req.problem,
            fingerprint: 0xfeed,
            cached: false,
            tier: "dp".into(),
            exact: true,
            degraded: false,
            order: vec![1, 0],
            cost: "42".into(),
            cost_log2: 5.39,
            decomposition: None,
            explain: None,
            elapsed_us: 17,
        }))
    }

    #[test]
    fn captures_successful_optimize() {
        let mut req = Request::new(Op::Optimize, Problem::Qon);
        req.id = 3;
        req.instance = Some("qon\nvertices 1\nsize 0 5\n".into());
        req.method = Some("dp".into());
        let rec = capture(&req, &ok_reply(&req)).expect("captured");
        assert_eq!(rec.request, req);
        assert_eq!(rec.plan.cost, "42");
        assert_eq!(rec.plan.order, vec![1, 0]);
        assert_eq!(rec.latency_us, 17);
    }

    #[test]
    fn skips_unreplayable_pairs() {
        let mut req = Request::new(Op::Optimize, Problem::Qon);
        req.instance = Some("qon\nvertices 1\nsize 0 5\n".into());

        let err = Reply::Err(ErrReply::new(0, ErrorKind::Driver, "boom".into()));
        assert!(capture(&req, &err).is_none(), "errors are not replayable");

        let mut degraded = ok_reply(&req);
        if let Reply::Ok(ok) = &mut degraded {
            ok.degraded = true;
        }
        assert!(capture(&req, &degraded).is_none(), "degraded replies skipped");

        let mut explain = req.clone();
        explain.op = Op::Explain;
        assert!(capture(&explain, &ok_reply(&explain)).is_none(), "explain skipped");

        let mut clique = req.clone();
        clique.problem = Problem::Clique;
        assert!(capture(&clique, &ok_reply(&clique)).is_none(), "clique skipped");
    }

    #[test]
    fn json_capture_matches_reply_capture() {
        let mut req = Request::new(Op::Optimize, Problem::Qoh);
        req.id = 11;
        req.instance = Some("qoh\nvertices 1\nmemory 9\nsize 0 5\n".into());
        let mut reply = ok_reply(&req);
        if let Reply::Ok(ok) = &mut reply {
            ok.decomposition = Some(vec![(1, 1), (2, 3)]);
        }
        let direct = capture(&req, &reply).expect("direct capture");
        let doc = aqo_obs::json::parse(&reply.to_json_line()).expect("reply parses");
        let via_json = capture_from_json(&req, &doc).expect("json capture");
        assert_eq!(via_json, direct);
    }

    #[test]
    fn sink_drains_in_push_order() {
        let sink = new_sink();
        let mut req = Request::new(Op::Optimize, Problem::Qon);
        req.instance = Some("qon\nvertices 1\nsize 0 5\n".into());
        for id in 0..3 {
            req.id = id;
            let rec = capture(&req, &ok_reply(&req)).unwrap();
            sink.lock().unwrap().push(rec);
        }
        let drained = drain(&sink);
        assert_eq!(drained.iter().map(|r| r.request.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(drain(&sink).is_empty(), "drain empties the sink");
    }
}

//! The wire protocol: one JSON object per line in each direction.
//!
//! Requests and responses are parsed and emitted with the workspace's
//! hand-rolled [`aqo_obs::json`] codec — no serialization dependency. The
//! grammar is documented operator-facing in `docs/SERVING.md`; this module
//! is the single source of truth for field names and defaults.
//!
//! A request names an operation ([`Op`]), a problem family ([`Problem`]),
//! and carries the instance *inline* as the text formats the CLI already
//! speaks (`aqo_core::textio` for QO_N/QO_H, DIMACS edge format for
//! clique). Budget limits, method/fallback-chain selection, and cache
//! participation ride along per request.

use crate::cache::{write_fragments, write_order};
use aqo_core::parallel::MAX_THREADS;
use aqo_obs::json::{self, JsonValue};
use std::fmt::Write as _;

/// The operation a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Optimize the inline instance and return the plan.
    Optimize,
    /// As `optimize`, plus a human-readable cost walkthrough; never served
    /// from or inserted into the plan cache.
    Explain,
    /// Service counters snapshot (answered on the connection thread).
    Status,
    /// Full observability snapshot — counters, gauges, histogram
    /// quantiles, recent time-series — answered on the connection thread
    /// like `status` (never touches the worker pool).
    Metrics,
    /// Drain in-flight work and stop the server.
    Shutdown,
}

impl Op {
    /// Wire name of the operation.
    pub fn name(self) -> &'static str {
        match self {
            Op::Optimize => "optimize",
            Op::Explain => "explain",
            Op::Status => "status",
            Op::Metrics => "metrics",
            Op::Shutdown => "shutdown",
        }
    }

    fn parse(s: &str) -> Option<Op> {
        match s {
            "optimize" => Some(Op::Optimize),
            "explain" => Some(Op::Explain),
            "status" => Some(Op::Status),
            "metrics" => Some(Op::Metrics),
            "shutdown" => Some(Op::Shutdown),
            _ => None,
        }
    }
}

/// The problem family the inline instance belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Problem {
    /// QO_N join ordering (`.qon` text; SQO−CP star instances are served
    /// through this family too — they are star-shaped QO_N instances).
    Qon,
    /// QO_H pipelined hash-join planning (`.qoh` text).
    Qoh,
    /// Maximum clique over a DIMACS edge-format graph.
    Clique,
}

impl Problem {
    /// Wire name of the problem family.
    pub fn name(self) -> &'static str {
        match self {
            Problem::Qon => "qon",
            Problem::Qoh => "qoh",
            Problem::Clique => "clique",
        }
    }

    fn parse(s: &str) -> Option<Problem> {
        match s {
            "qon" => Some(Problem::Qon),
            "qoh" => Some(Problem::Qoh),
            "clique" => Some(Problem::Clique),
            _ => None,
        }
    }
}

/// A parsed request line. Constructed by [`Request::parse`] on the server
/// side, or directly (then [`Request::to_json_line`]) on the client side.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// The operation.
    pub op: Op,
    /// Problem family of `instance`.
    pub problem: Problem,
    /// Inline instance text (required for optimize/explain).
    pub instance: Option<String>,
    /// Single-tier method selection (mutually exclusive with `fallback`).
    pub method: Option<String>,
    /// Fallback-chain spec, e.g. `"dp,ikkbz,greedy"`.
    pub fallback: Option<String>,
    /// Per-request wall-clock budget in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Per-request cap on cooperative expansion ticks.
    pub max_expansions: Option<u64>,
    /// Worker threads for the exact tiers (1 = sequential, 0 = auto, at
    /// most [`MAX_THREADS`]).
    pub threads: usize,
    /// Whether cartesian-product sequences are admissible (QO_N only).
    pub allow_cartesian: bool,
    /// Whether this request may read/write the plan cache.
    pub use_cache: bool,
}

impl Request {
    /// A minimal request for `op` on `problem` with all knobs at their
    /// defaults (no budget, default chain, cache on, sequential).
    pub fn new(op: Op, problem: Problem) -> Self {
        Request {
            id: 0,
            op,
            problem,
            instance: None,
            method: None,
            fallback: None,
            timeout_ms: None,
            max_expansions: None,
            threads: 1,
            allow_cartesian: true,
            use_cache: true,
        }
    }

    /// Parses one request line. Errors are protocol-level (malformed JSON,
    /// unknown op, missing instance) and come back as plain messages; the
    /// server wraps them in a structured `"parse"` error response.
    pub fn parse(line: &str) -> Result<Request, String> {
        let doc = json::parse(line)?;
        if !matches!(doc, JsonValue::Obj(_)) {
            return Err("request must be a JSON object".into());
        }
        let op_name = doc
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "request has no `op` field".to_string())?;
        let op = Op::parse(op_name).ok_or_else(|| format!("unknown op `{op_name}`"))?;
        Request::from_fields(&doc, op)
    }

    /// Reads an `op` request from the fields of a JSON object: a wire
    /// line, a workload entry or a journal `serve_request` event. Keys
    /// that are not request fields are ignored; absent knobs take their
    /// defaults.
    pub fn from_fields(doc: &JsonValue, op: Op) -> Result<Request, String> {
        let problem = match doc.get("problem").and_then(JsonValue::as_str) {
            None => Problem::Qon,
            Some(p) => Problem::parse(p).ok_or_else(|| format!("unknown problem `{p}`"))?,
        };
        // Integer fields are read exactly from their digits: anything but
        // a plain decimal literal within `u64` (a sign, a fraction, an
        // exponent, a value past `u64::MAX`) is rejected, never rounded.
        let u64_field = |key: &str| -> Result<Option<u64>, String> {
            match doc.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
            }
        };
        let bool_field = |key: &str, default: bool| -> Result<bool, String> {
            match doc.get(key) {
                None | Some(JsonValue::Null) => Ok(default),
                Some(JsonValue::Bool(b)) => Ok(*b),
                Some(_) => Err(format!("`{key}` must be a boolean")),
            }
        };
        let str_field = |key: &str| -> Result<Option<String>, String> {
            match doc.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(v) => v
                    .as_str()
                    .map(|s| Some(s.to_string()))
                    .ok_or_else(|| format!("`{key}` must be a string")),
            }
        };
        let req = Request {
            id: u64_field("id")?.unwrap_or(0),
            op,
            problem,
            instance: str_field("instance")?,
            method: str_field("method")?,
            fallback: str_field("fallback")?,
            timeout_ms: u64_field("timeout_ms")?,
            max_expansions: u64_field("max_expansions")?,
            threads: match u64_field("threads")?.unwrap_or(1) {
                t if t > MAX_THREADS as u64 => {
                    return Err(format!("`threads` must be at most {MAX_THREADS}"))
                }
                t => t as usize,
            },
            allow_cartesian: bool_field("allow_cartesian", true)?,
            use_cache: bool_field("cache", true)?,
        };
        if matches!(req.op, Op::Optimize | Op::Explain) && req.instance.is_none() {
            return Err(format!("op `{}` requires an `instance` field", req.op.name()));
        }
        if req.method.is_some() && req.fallback.is_some() {
            return Err("`method` and `fallback` are mutually exclusive".into());
        }
        Ok(req)
    }

    /// The knobs that differ from their defaults, as `(key, value)` pairs
    /// in wire order. Every writer of requests — the wire line, workload
    /// entries, the `serve_request` journal event — omits a knob at its
    /// default, and [`Request::from_fields`] reapplies it.
    pub fn knobs(&self) -> impl Iterator<Item = (&'static str, Knob<'_>)> {
        [
            ("method", self.method.as_deref().map(Knob::Str)),
            ("fallback", self.fallback.as_deref().map(Knob::Str)),
            ("timeout_ms", self.timeout_ms.map(Knob::Uint)),
            ("max_expansions", self.max_expansions.map(Knob::Uint)),
            ("threads", (self.threads != 1).then_some(Knob::Uint(self.threads as u64))),
            ("allow_cartesian", (!self.allow_cartesian).then_some(Knob::Bool(false))),
            ("cache", (!self.use_cache).then_some(Knob::Bool(false))),
        ]
        .into_iter()
        .filter_map(|(key, value)| Some((key, value?)))
    }

    /// Appends `, "key": value` to a JSON object for every non-default
    /// knob.
    pub fn write_knobs(&self, out: &mut String) {
        for (key, value) in self.knobs() {
            let _ = write!(out, ", \"{key}\": ");
            match value {
                Knob::Str(s) => json::escape_into(out, s),
                Knob::Uint(n) => {
                    let _ = write!(out, "{n}");
                }
                Knob::Bool(b) => {
                    let _ = write!(out, "{b}");
                }
            }
        }
    }

    /// Serializes the request as one JSON line (no trailing newline).
    /// Fields at their defaults are omitted, so round-tripping through
    /// [`Request::parse`] is the identity on the semantic content.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64);
        let _ = write!(out, "{{\"op\": \"{}\"", self.op.name());
        let _ = write!(out, ", \"id\": {}", self.id);
        let _ = write!(out, ", \"problem\": \"{}\"", self.problem.name());
        if let Some(inst) = &self.instance {
            out.push_str(", \"instance\": ");
            json::escape_into(&mut out, inst);
        }
        self.write_knobs(&mut out);
        out.push('}');
        out
    }
}

/// A request knob's value, borrowed from the [`Request`].
#[derive(Clone, Copy, Debug)]
pub enum Knob<'a> {
    /// `method`, `fallback`.
    Str(&'a str),
    /// `timeout_ms`, `max_expansions`, `threads`.
    Uint(u64),
    /// `allow_cartesian`, `cache`.
    Bool(bool),
}

impl From<Knob<'_>> for aqo_obs::journal::Value {
    fn from(knob: Knob<'_>) -> Self {
        match knob {
            Knob::Str(s) => s.into(),
            Knob::Uint(n) => n.into(),
            Knob::Bool(b) => b.into(),
        }
    }
}

/// Machine-readable discriminant of a structured error response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line did not parse or failed protocol validation.
    Parse,
    /// The request parsed but asked for something unsupported
    /// (bad chain spec, explain on a problem without explain, …).
    Usage,
    /// Every tier of the driver's fallback chain failed.
    Driver,
    /// An armed fault-injection site fired inside request handling.
    Injected,
    /// Request handling panicked; the worker survived.
    Panic,
    /// Admission control rejected the request (queue full).
    Overloaded,
    /// The server is shutting down and no longer admits work.
    Shutdown,
    /// The connection was evicted for protocol abuse (a line over the
    /// size limit, or a partial line held open past the read deadline —
    /// the slow-loris defence).
    Evicted,
}

impl ErrorKind {
    /// Stable wire name of the error kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Usage => "usage",
            ErrorKind::Driver => "driver",
            ErrorKind::Injected => "injected",
            ErrorKind::Panic => "panic",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Shutdown => "shutdown",
            ErrorKind::Evicted => "evicted",
        }
    }

    /// Parses a wire name back to the kind (`None` for kinds this build
    /// does not know — a newer server's response still classifies).
    pub fn from_wire(s: &str) -> Option<ErrorKind> {
        match s {
            "parse" => Some(ErrorKind::Parse),
            "usage" => Some(ErrorKind::Usage),
            "driver" => Some(ErrorKind::Driver),
            "injected" => Some(ErrorKind::Injected),
            "panic" => Some(ErrorKind::Panic),
            "overloaded" => Some(ErrorKind::Overloaded),
            "shutdown" => Some(ErrorKind::Shutdown),
            "evicted" => Some(ErrorKind::Evicted),
            _ => None,
        }
    }

    /// Whether a client may meaningfully retry the same request. Transient
    /// server conditions (overload, injected faults, contained panics,
    /// evictions) are retriable on a fresh connection; protocol and
    /// semantic failures (`parse`, `usage`, `driver`) would fail the same
    /// way again, and `shutdown` means the server is going away.
    pub fn is_retriable(self) -> bool {
        matches!(
            self,
            ErrorKind::Overloaded | ErrorKind::Injected | ErrorKind::Panic | ErrorKind::Evicted
        )
    }
}

/// A successful optimize/explain response.
#[derive(Clone, Debug)]
pub struct OkReply {
    /// Echoed request id.
    pub id: u64,
    /// Echoed operation.
    pub op: Op,
    /// Echoed problem family.
    pub problem: Problem,
    /// Canonical instance fingerprint (shard-routing hash; see
    /// `aqo_core::fingerprint`).
    pub fingerprint: u64,
    /// Whether the plan was served from the cache.
    pub cached: bool,
    /// The tier/algorithm that produced the plan.
    pub tier: String,
    /// Whether the plan is exact (optimal) rather than heuristic.
    pub exact: bool,
    /// Whether overload degraded this request down the graceful-
    /// degradation ladder (the answer came from a weaker chain than the
    /// request asked for; `tier` names what actually ran). Serialized
    /// only when `true`.
    pub degraded: bool,
    /// The join sequence (clique members for `problem = clique`).
    pub order: Vec<usize>,
    /// Exact cost as a decimal/rational string (clique size for clique).
    pub cost: String,
    /// `log2` of the cost, for human-scale comparison.
    pub cost_log2: f64,
    /// QO_H pipeline fragments as `[lo, hi]` join-index pairs.
    pub decomposition: Option<Vec<(usize, usize)>>,
    /// Cost walkthrough (`op = explain` only).
    pub explain: Option<String>,
    /// Wall-clock handling time in microseconds.
    pub elapsed_us: u64,
}

/// A structured error response.
#[derive(Clone, Debug)]
pub struct ErrReply {
    /// Echoed request id (0 when the line did not parse far enough).
    pub id: u64,
    /// What class of failure this is.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
    /// Server hint: wait this long before retrying (overload shedding
    /// sets it; other kinds usually leave it unset).
    pub retry_after_ms: Option<u64>,
}

impl ErrReply {
    /// An error reply with no retry hint.
    pub fn new(id: u64, kind: ErrorKind, message: String) -> Self {
        ErrReply { id, kind, message, retry_after_ms: None }
    }
}

/// The `status` response: live service counters.
#[derive(Clone, Debug, Default)]
pub struct StatusReply {
    /// Echoed request id.
    pub id: u64,
    /// Worker-pool size.
    pub workers: usize,
    /// Requests queued but not yet executing.
    pub queue_depth: usize,
    /// Requests currently executing on workers.
    pub executing: usize,
    /// Admission-control bound on `queue_depth + executing`.
    pub max_inflight: usize,
    /// Whether new work is still admitted.
    pub accepting: bool,
    /// Total requests parsed since startup (all ops).
    pub requests: u64,
    /// Optimize/explain responses that succeeded.
    pub responses_ok: u64,
    /// Optimize/explain responses that failed.
    pub responses_error: u64,
    /// Requests rejected by admission control.
    pub overloaded: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
    /// Plan-cache insertions.
    pub cache_inserts: u64,
    /// Plan-cache clock evictions.
    pub cache_evictions: u64,
    /// Plans currently cached.
    pub cache_len: usize,
    /// Plan-cache capacity (0 = disabled).
    pub cache_capacity: usize,
    /// Microseconds since the server started.
    pub uptime_us: u64,
}

/// One response line, ready to serialize.
#[derive(Clone, Debug)]
pub enum Reply {
    /// Successful optimize/explain.
    Ok(Box<OkReply>),
    /// Structured failure.
    Err(ErrReply),
    /// `status` snapshot.
    Status(Box<StatusReply>),
    /// `metrics` snapshot: a prebuilt JSON line (the server renders the
    /// registry directly; clients treat it as an opaque JSON object).
    Metrics(String),
    /// `shutdown` acknowledgement.
    ShutdownAck {
        /// Echoed request id.
        id: u64,
    },
}

impl Reply {
    /// Whether this reply reports success.
    pub fn is_ok(&self) -> bool {
        !matches!(self, Reply::Err(_))
    }

    /// Serializes the reply as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(128);
        match self {
            Reply::Ok(r) => {
                let _ = write!(
                    out,
                    "{{\"id\": {}, \"ok\": true, \"op\": \"{}\", \"problem\": \"{}\"",
                    r.id,
                    r.op.name(),
                    r.problem.name()
                );
                let _ = write!(out, ", \"fingerprint\": \"{:#018x}\"", r.fingerprint);
                let _ = write!(out, ", \"cached\": {}", r.cached);
                out.push_str(", \"tier\": ");
                json::escape_into(&mut out, &r.tier);
                let _ = write!(out, ", \"exact\": {}", r.exact);
                if r.degraded {
                    out.push_str(", \"degraded\": true");
                }
                out.push_str(", \"order\": ");
                write_order(&mut out, &r.order);
                out.push_str(", \"cost\": ");
                json::escape_into(&mut out, &r.cost);
                let _ = write!(out, ", \"cost_log2\": {:.3}", r.cost_log2);
                if let Some(frags) = &r.decomposition {
                    out.push_str(", \"decomposition\": ");
                    write_fragments(&mut out, frags);
                }
                if let Some(text) = &r.explain {
                    out.push_str(", \"explain\": ");
                    json::escape_into(&mut out, text);
                }
                let _ = write!(out, ", \"elapsed_us\": {}}}", r.elapsed_us);
            }
            Reply::Err(e) => {
                let _ = write!(
                    out,
                    "{{\"id\": {}, \"ok\": false, \"error\": {{\"kind\": \"{}\", \"message\": ",
                    e.id,
                    e.kind.as_str()
                );
                json::escape_into(&mut out, &e.message);
                if let Some(ms) = e.retry_after_ms {
                    let _ = write!(out, ", \"retry_after_ms\": {ms}");
                }
                out.push_str("}}");
            }
            Reply::Status(s) => {
                let _ = write!(
                    out,
                    "{{\"id\": {}, \"ok\": true, \"op\": \"status\", \"workers\": {}, \
                     \"queue_depth\": {}, \"executing\": {}, \"max_inflight\": {}, \
                     \"accepting\": {}, \"requests\": {}, \"responses_ok\": {}, \
                     \"responses_error\": {}, \"overloaded\": {}, \"cache\": {{\
                     \"hits\": {}, \"misses\": {}, \"inserts\": {}, \"evictions\": {}, \
                     \"len\": {}, \"capacity\": {}}}, \"uptime_us\": {}}}",
                    s.id,
                    s.workers,
                    s.queue_depth,
                    s.executing,
                    s.max_inflight,
                    s.accepting,
                    s.requests,
                    s.responses_ok,
                    s.responses_error,
                    s.overloaded,
                    s.cache_hits,
                    s.cache_misses,
                    s.cache_inserts,
                    s.cache_evictions,
                    s.cache_len,
                    s.cache_capacity,
                    s.uptime_us,
                );
            }
            Reply::Metrics(line) => out.push_str(line),
            Reply::ShutdownAck { id } => {
                let _ = write!(
                    out,
                    "{{\"id\": {id}, \"ok\": true, \"op\": \"shutdown\", \
                     \"message\": \"draining\"}}"
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_json() {
        let mut req = Request::new(Op::Optimize, Problem::Qoh);
        req.id = 42;
        req.instance = Some("qoh\nvertices 2\nmemory 10\nsize 0 3\nsize 1 4\n".into());
        req.fallback = Some("exhaustive,greedy".into());
        req.timeout_ms = Some(250);
        req.threads = 4;
        req.use_cache = false;
        let back = Request::parse(&req.to_json_line()).expect("round-trips");
        assert_eq!(back.id, 42);
        assert_eq!(back.op, Op::Optimize);
        assert_eq!(back.problem, Problem::Qoh);
        assert_eq!(back.instance, req.instance);
        assert_eq!(back.fallback.as_deref(), Some("exhaustive,greedy"));
        assert_eq!(back.timeout_ms, Some(250));
        assert_eq!(back.threads, 4);
        assert!(back.allow_cartesian);
        assert!(!back.use_cache);
    }

    #[test]
    fn defaults_are_omitted_and_reapplied() {
        let mut req = Request::new(Op::Status, Problem::Qon);
        req.id = 7;
        let line = req.to_json_line();
        assert!(!line.contains("threads"));
        assert!(!line.contains("cache"));
        let back = Request::parse(&line).unwrap();
        assert_eq!(back.threads, 1);
        assert!(back.use_cache);
        assert!(back.allow_cartesian);
    }

    #[test]
    fn parse_rejects_malformed_requests() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"op\": \"frobnicate\"}").is_err());
        assert!(Request::parse("{\"op\": \"optimize\"}").is_err(), "missing instance");
        assert!(Request::parse(
            "{\"op\": \"optimize\", \"instance\": \"x\", \"method\": \"dp\", \
             \"fallback\": \"dp,greedy\"}"
        )
        .is_err());
        assert!(Request::parse("{\"op\": \"optimize\", \"instance\": \"x\", \"id\": -3}").is_err());
    }

    #[test]
    fn integer_fields_are_exact() {
        let parse = |field: &str, value: &str| {
            Request::parse(&format!("{{\"op\": \"status\", \"{field}\": {value}}}"))
        };
        // 2^53 + 1 is the first integer an f64 cannot hold.
        assert_eq!(parse("id", "9007199254740993").unwrap().id, 9_007_199_254_740_993);
        assert_eq!(parse("id", "18446744073709551615").unwrap().id, u64::MAX);
        let max = parse("timeout_ms", "18446744073709551615").unwrap();
        assert_eq!(max.timeout_ms, Some(u64::MAX));
        assert_eq!(
            parse("max_expansions", "9007199254740993").unwrap().max_expansions,
            Some(9_007_199_254_740_993)
        );
        for field in ["id", "timeout_ms", "max_expansions", "threads"] {
            for bad in ["1e30", "1.5", "18446744073709551616", "-1", "\"7\"", "1e3", "2.0"] {
                let e = parse(field, bad).unwrap_err();
                let want = format!("`{field}` must be a non-negative integer");
                assert_eq!(e, want, "{field}: {bad}");
            }
        }
        // One worker thread per chunk: a worker count past the cap is
        // refused before it can reach the pool.
        assert_eq!(parse("threads", "64").unwrap().threads, 64);
        assert_eq!(parse("threads", "65").unwrap_err(), "`threads` must be at most 64");
    }

    #[test]
    fn replies_serialize_as_parseable_json() {
        let ok = Reply::Ok(Box::new(OkReply {
            id: 9,
            op: Op::Optimize,
            problem: Problem::Qon,
            fingerprint: 0xdead_beef,
            cached: true,
            tier: "dp".into(),
            exact: true,
            degraded: false,
            order: vec![2, 0, 1],
            cost: "35/2".into(),
            cost_log2: 4.129,
            decomposition: Some(vec![(1, 1), (2, 3)]),
            explain: Some("line one\nline two".into()),
            elapsed_us: 123,
        }));
        let doc = aqo_obs::json::parse(&ok.to_json_line()).expect("ok reply parses");
        assert_eq!(doc.get("id").and_then(JsonValue::as_num), Some(9.0));
        assert!(matches!(doc.get("ok"), Some(JsonValue::Bool(true))));
        assert_eq!(doc.get("cost").and_then(JsonValue::as_str), Some("35/2"));
        assert_eq!(doc.get("order").and_then(JsonValue::as_arr).map(<[_]>::len), Some(3));

        let err = Reply::Err(ErrReply {
            id: 3,
            kind: ErrorKind::Overloaded,
            message: "queue full (8 in flight)".into(),
            retry_after_ms: Some(40),
        });
        let doc = aqo_obs::json::parse(&err.to_json_line()).expect("err reply parses");
        assert!(matches!(doc.get("ok"), Some(JsonValue::Bool(false))));
        let error = doc.get("error").expect("error object");
        assert_eq!(error.get("kind").and_then(JsonValue::as_str), Some("overloaded"));
        assert_eq!(error.get("retry_after_ms").and_then(JsonValue::as_num), Some(40.0));

        let status = Reply::Status(Box::new(StatusReply { workers: 4, ..Default::default() }));
        let doc = aqo_obs::json::parse(&status.to_json_line()).expect("status parses");
        assert_eq!(doc.get("workers").and_then(JsonValue::as_num), Some(4.0));
        assert!(doc.get("cache").is_some());
    }
}

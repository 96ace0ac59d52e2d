//! Property test for request-scoped tracing (ISSUE 8): a request served
//! over real TCP must stamp **every** journal event it causes — intake,
//! admission, worker handling, driver tiers, optimizer spans — with the
//! one trace id minted at intake, regardless of worker-pool size. The
//! traced event profile must also be pool-size-invariant: the pool only
//! decides *where* a request runs, never what it journals.
//!
//! The obs registry and journal are process-global, so the whole property
//! runs as a single test function, sweeping `--threads 1/2/4` in order.

use aqo_core::{textio, workloads};
use aqo_obs::json::{self, JsonValue};
use aqo_serve::{Op, Problem, Request, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpListener;

fn qon_text(n: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    textio::qon_to_text(&workloads::chain(n, &workloads::WorkloadParams::default(), &mut rng))
}

fn optimize_req(id: u64, text: &str) -> Request {
    let mut req = Request::new(Op::Optimize, Problem::Qon);
    req.id = id;
    req.instance = Some(text.to_string());
    // The cache would short-circuit the driver on a hit; the property is
    // about the full path, so every run recomputes.
    req.use_cache = false;
    req
}

/// Serves exactly one optimize request on a `threads`-worker pool, in a
/// fresh obs scope, and returns the journal produced, as parsed JSON lines.
fn serve_one_request(threads: usize, text: &str) -> Vec<JsonValue> {
    let _scope = aqo_obs::Scope::new().install();
    aqo_obs::set_enabled(true);
    let cfg = ServeConfig {
        threads,
        // No sampler: its ticks are timing-dependent and would make the
        // cross-run event-profile comparison flaky.
        obs_interval: None,
        ..ServeConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = Server::new(&cfg);
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run(&listener).expect("serve loop"));
        let line =
            aqo_serve::client::oneshot(&addr, &optimize_req(42, text)).expect("optimize reply");
        let doc = json::parse(&line).expect("reply parses");
        assert!(matches!(doc.get("ok"), Some(JsonValue::Bool(true))), "reply not ok: {line}");
        let mut shutdown = Request::new(Op::Shutdown, Problem::Qon);
        shutdown.id = 99;
        aqo_serve::client::oneshot(&addr, &shutdown).expect("shutdown ack");
        handle.join().expect("server thread");
    });
    let events = aqo_obs::journal::drain();
    aqo_obs::journal::to_jsonl(&events)
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| json::parse(l).expect("journal line parses"))
        .collect()
}

fn num(doc: &JsonValue, key: &str) -> Option<u64> {
    doc.get(key).and_then(JsonValue::as_num).map(|v| v as u64)
}

fn etype(doc: &JsonValue) -> String {
    doc.get("type").and_then(JsonValue::as_str).unwrap_or("?").to_string()
}

#[test]
fn every_event_of_a_served_request_carries_its_trace_id_at_any_pool_size() {
    let text = qon_text(6, 7);
    let mut profiles: Vec<Vec<String>> = Vec::new();
    for threads in [1usize, 2, 4] {
        let docs = serve_one_request(threads, &text);

        // The intake event for our request pins down the minted trace id.
        let intake = docs
            .iter()
            .find(|d| etype(d) == "serve_request" && num(d, "id") == Some(42))
            .unwrap_or_else(|| panic!("no serve_request event at threads={threads}"));
        let trace_id = num(intake, "trace_id")
            .unwrap_or_else(|| panic!("intake event untraced at threads={threads}"));
        assert_ne!(trace_id, 0, "trace id 0 is reserved");

        // Everything the request caused must carry that id: the worker
        // re-installs the intake's context, so driver tiers, optimizer
        // internals, and the reply all land in the same trace. Events of
        // *other* traces here can only be the shutdown request's own.
        let traced: Vec<&JsonValue> =
            docs.iter().filter(|d| num(d, "trace_id") == Some(trace_id)).collect();
        let mut types: Vec<String> = traced.iter().map(|d| etype(d)).collect();
        types.sort();
        for want in ["serve_request", "serve_response", "tier_start", "span_start", "span"] {
            assert!(
                types.iter().any(|t| t == want),
                "threads={threads}: no `{want}` event in the request's trace; got {types:?}"
            );
        }
        let span_names: Vec<&str> = traced
            .iter()
            .filter(|d| etype(d) == "span")
            .filter_map(|d| d.get("name").and_then(JsonValue::as_str))
            .collect();
        assert!(
            span_names.contains(&"serve.request"),
            "threads={threads}: no serve.request root span; spans {span_names:?}"
        );
        assert!(
            span_names.iter().any(|n| n.starts_with("tier.")),
            "threads={threads}: no tier span in the trace; spans {span_names:?}"
        );

        // No half-traced stragglers: every driver/optimizer/span event in
        // the journal belongs to our request (the only optimize served).
        for d in &docs {
            let t = etype(d);
            let request_scoped = t.starts_with("tier_")
                || t.starts_with("span")
                || t.starts_with("dp_")
                || t == "engine_bound"
                || t == "budget"
                || t == "budget_charge"
                || t == "serve_response";
            if request_scoped {
                assert_eq!(
                    num(d, "trace_id"),
                    Some(trace_id),
                    "threads={threads}: `{t}` event escaped the request trace"
                );
            }
        }

        // The journal must also pass the schema-v2 nesting check.
        let jsonl = {
            let mut s = String::new();
            for d in &docs {
                s.push_str(&render_back(d));
                s.push('\n');
            }
            s
        };
        let report = aqo_obs::traceview::check(&jsonl).expect("nesting check");
        assert!(report.traces >= 1, "threads={threads}: no traces found");

        profiles.push(types);
    }

    // Pool-size invariance: the request's traced event profile is
    // identical at 1, 2, and 4 workers.
    assert_eq!(profiles[0], profiles[1], "threads=1 vs threads=2 event profiles differ");
    assert_eq!(profiles[1], profiles[2], "threads=2 vs threads=4 event profiles differ");
}

/// Re-serializes a parsed journal line well enough for
/// [`aqo_obs::traceview::check`] (which only reads numeric/string fields).
fn render_back(doc: &JsonValue) -> String {
    fn val(v: &JsonValue, out: &mut String) {
        use std::fmt::Write as _;
        match v {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            JsonValue::Uint(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::Num(n) => {
                if n.fract() == 0.0 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            JsonValue::Str(s) => json::escape_into(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    val(item, out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::escape_into(out, k);
                    out.push(':');
                    val(v, out);
                }
                out.push('}');
            }
        }
    }
    let mut out = String::new();
    val(doc, &mut out);
    out
}

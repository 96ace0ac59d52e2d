//! End-to-end tests over real TCP: a [`aqo_serve::Server`] on a loopback
//! port, driven by [`aqo_serve::Client`]. Covers the cache-hit path,
//! `status`, admission-control overload, fault injection producing
//! structured errors, idle shutdown, and the drain on `shutdown`.
//!
//! Each test builds its server in a fresh obs scope, so the faults it
//! arms fire only in its own server.

use aqo_core::{textio, workloads};
use aqo_obs::faults::{self, FaultKind};
use aqo_obs::json::{self, JsonValue};
use aqo_serve::{Client, Op, Problem, Request, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpListener;
use std::sync::Barrier;
use std::time::Duration;

fn qon_text(n: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    textio::qon_to_text(&workloads::chain(n, &workloads::WorkloadParams::default(), &mut rng))
}

fn optimize_req(id: u64, text: &str) -> Request {
    let mut req = Request::new(Op::Optimize, Problem::Qon);
    req.id = id;
    req.instance = Some(text.to_string());
    req
}

fn shutdown_req(id: u64) -> Request {
    let mut req = Request::new(Op::Shutdown, Problem::Qon);
    req.id = id;
    req
}

/// Binds a loopback listener, runs `server` on it in a scoped thread, and
/// hands `(addr, &server)` to the client closure. The closure must end
/// with a `shutdown` request (or rely on the idle timeout) so `run`
/// returns; its report is handed back.
fn with_server<F>(cfg: &ServeConfig, client: F) -> aqo_serve::ServiceReport
where
    F: FnOnce(&str, &Server),
{
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = Server::new(cfg);
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run(&listener).expect("serve loop"));
        client(&addr, &server);
        handle.join().expect("server thread")
    })
}

#[test]
fn second_identical_request_is_served_from_cache() {
    let _scope = aqo_obs::Scope::new().install();
    let text = qon_text(6, 7);
    let report = with_server(&ServeConfig::default(), |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        let first = client.roundtrip(&optimize_req(1, &text)).expect("first");
        let second = client.roundtrip(&optimize_req(2, &text)).expect("second");
        let doc1 = json::parse(&first).expect("first parses");
        let doc2 = json::parse(&second).expect("second parses");
        assert!(matches!(doc1.get("cached"), Some(JsonValue::Bool(false))));
        assert!(matches!(doc2.get("cached"), Some(JsonValue::Bool(true))));
        assert_eq!(
            doc1.get("cost").and_then(JsonValue::as_str),
            doc2.get("cost").and_then(JsonValue::as_str),
            "cached plan carries the identical cost"
        );
        assert_eq!(
            doc1.get("fingerprint").and_then(JsonValue::as_str),
            doc2.get("fingerprint").and_then(JsonValue::as_str)
        );

        let status = client.roundtrip(&Request::new(Op::Status, Problem::Qon)).expect("status");
        let sdoc = json::parse(&status).expect("status parses");
        let cache = sdoc.get("cache").expect("cache block");
        assert_eq!(cache.get("hits").and_then(JsonValue::as_num), Some(1.0));
        assert_eq!(cache.get("misses").and_then(JsonValue::as_num), Some(1.0));

        client.roundtrip(&shutdown_req(9)).expect("shutdown ack");
    });
    assert_eq!(report.reason, "shutdown");
    assert_eq!(report.ok, 2);
    assert_eq!(report.errors, 0);
    assert_eq!(report.cache.hits, 1);
}

#[test]
fn overload_produces_structured_rejections_and_in_flight_work_drains() {
    let _scope = aqo_obs::Scope::new().install();
    // One worker, one admission slot, and every request pinned at 200ms:
    // while the first executes, concurrent arrivals must be rejected with
    // the structured `overloaded` error, not queued without bound.
    faults::arm("serve::request", FaultKind::Delay(Duration::from_millis(200)), 32);
    let cfg = ServeConfig { threads: 1, max_inflight: 1, ..ServeConfig::default() };
    let text = qon_text(5, 11);
    let report = with_server(&cfg, |addr, _| {
        let replies = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let text = &text;
                    scope.spawn(move || {
                        aqo_serve::client::oneshot(addr, &optimize_req(i, text)).expect("reply")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect::<Vec<_>>()
        });
        let mut ok = 0;
        let mut overloaded = 0;
        for line in &replies {
            let doc = json::parse(line).expect("reply parses");
            if matches!(doc.get("ok"), Some(JsonValue::Bool(true))) {
                ok += 1;
            } else {
                let kind = doc
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(JsonValue::as_str)
                    .expect("error kind");
                assert_eq!(kind, "overloaded", "unexpected failure: {line}");
                overloaded += 1;
            }
        }
        assert!(ok >= 1, "the admitted request completes");
        assert!(overloaded >= 1, "at least one concurrent request is shed");
        aqo_serve::client::oneshot(addr, &shutdown_req(99)).expect("shutdown");
    });
    assert_eq!(report.reason, "shutdown");
    assert_eq!(report.overloaded as usize + report.ok as usize, 4);
}

#[test]
fn injected_fault_becomes_structured_error_and_worker_survives() {
    let _scope = aqo_obs::Scope::new().install();
    faults::arm("serve::request", FaultKind::Error, 1);
    let text = qon_text(5, 13);
    let report = with_server(&ServeConfig::default(), |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        let failed = client.roundtrip(&optimize_req(1, &text)).expect("reply");
        let doc = json::parse(&failed).expect("parses");
        assert!(matches!(doc.get("ok"), Some(JsonValue::Bool(false))));
        assert_eq!(
            doc.get("error").and_then(|e| e.get("kind")).and_then(JsonValue::as_str),
            Some("injected")
        );
        // The fault is spent; the same worker answers the retry.
        let retried = client.roundtrip(&optimize_req(2, &text)).expect("retry");
        let doc = json::parse(&retried).expect("retry parses");
        assert!(matches!(doc.get("ok"), Some(JsonValue::Bool(true))));
        client.roundtrip(&shutdown_req(3)).expect("shutdown");
    });
    assert_eq!(report.errors, 1);
    assert_eq!(report.ok, 1);
}

#[test]
fn injected_panic_is_contained_as_structured_error() {
    let _scope = aqo_obs::Scope::new().install();
    faults::arm("serve::request", FaultKind::Panic, 1);
    let text = qon_text(5, 17);
    let report = with_server(&ServeConfig::default(), |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        let failed = client.roundtrip(&optimize_req(1, &text)).expect("reply");
        let doc = json::parse(&failed).expect("parses");
        assert_eq!(
            doc.get("error").and_then(|e| e.get("kind")).and_then(JsonValue::as_str),
            Some("panic")
        );
        let retried = client.roundtrip(&optimize_req(2, &text)).expect("retry");
        assert!(matches!(
            json::parse(&retried).expect("retry parses").get("ok"),
            Some(JsonValue::Bool(true))
        ));
        client.roundtrip(&shutdown_req(3)).expect("shutdown");
    });
    assert_eq!(report.errors, 1);
    assert_eq!(report.ok, 1);
}

#[test]
fn degradation_ladder_tags_replies_under_load() {
    let _scope = aqo_obs::Scope::new().install();
    // One worker, every request pinned at 150ms: enqueueing 6 distinct
    // instances drives the in-flight count through the ladder
    // thresholds, so later arrivals must be answered from a weaker
    // chain and tagged, not shed (the cap is high enough that nothing
    // is rejected).
    faults::arm("serve::request", FaultKind::Delay(Duration::from_millis(150)), 32);
    let cfg = ServeConfig { threads: 1, max_inflight: 8, ..ServeConfig::default() };
    let texts: Vec<String> = (0..6).map(|i| qon_text(5, 100 + i)).collect();
    let report = with_server(&cfg, |addr, _| {
        let replies = std::thread::scope(|scope| {
            let handles: Vec<_> = texts
                .iter()
                .enumerate()
                .map(|(i, text)| {
                    scope.spawn(move || {
                        aqo_serve::client::oneshot(addr, &optimize_req(i as u64, text))
                            .expect("reply")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect::<Vec<_>>()
        });
        let mut degraded = 0;
        for line in &replies {
            let doc = json::parse(line).expect("reply parses");
            assert!(
                matches!(doc.get("ok"), Some(JsonValue::Bool(true))),
                "below the cap nothing is shed: {line}"
            );
            if matches!(doc.get("degraded"), Some(JsonValue::Bool(true))) {
                degraded += 1;
                // A degraded answer is heuristic, and honest about it.
                assert!(
                    matches!(doc.get("exact"), Some(JsonValue::Bool(false))),
                    "degraded replies must not claim exactness: {line}"
                );
            }
        }
        assert!(degraded >= 1, "concurrent arrivals ride the ladder: {replies:?}");
        aqo_serve::client::oneshot(addr, &shutdown_req(99)).expect("shutdown");
    });
    assert_eq!(report.reason, "shutdown");
    assert_eq!(report.ok, 6, "every request was answered");
    assert_eq!(report.overloaded, 0);
    assert!(report.degraded >= 1, "report counts the degraded answers");
}

#[test]
fn torn_reply_write_is_retried_transparently() {
    let _scope = aqo_obs::Scope::new().install();
    // The first reply write is torn mid-line and the connection dropped;
    // the retrying client must classify the EOF as transient, reconnect,
    // and get the full answer on the second attempt.
    faults::arm("serve::net::torn_write", FaultKind::Error, 1);
    let text = qon_text(5, 29);
    let retry = aqo_serve::client::RetryConfig::default();
    let report = with_server(&ServeConfig::default(), |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        let line = client.roundtrip_retry(&optimize_req(1, &text), &retry).expect("retried reply");
        let doc = json::parse(&line).expect("reply parses");
        assert!(matches!(doc.get("ok"), Some(JsonValue::Bool(true))), "retry succeeded: {line}");
        // The plain, non-retrying path confirms the pool is healthy.
        let again = client.roundtrip(&optimize_req(2, &text)).expect("follow-up");
        assert!(matches!(json::parse(&again).expect("parses").get("ok"), Some(JsonValue::Bool(true))));
        client.roundtrip(&shutdown_req(3)).expect("shutdown");
    });
    assert_eq!(report.reason, "shutdown");
    assert!(report.ok >= 2, "both requests were answered (the torn one possibly twice)");
}

#[test]
fn idle_timeout_shuts_the_server_down() {
    let _scope = aqo_obs::Scope::new().install();
    let cfg =
        ServeConfig { idle_timeout: Some(Duration::from_millis(150)), ..ServeConfig::default() };
    let report = with_server(&cfg, |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        let line = client.roundtrip(&Request::new(Op::Status, Problem::Qon)).expect("status");
        assert!(json::parse(&line).is_ok());
        // No further traffic: the idle clock runs out on its own.
    });
    assert_eq!(report.reason, "idle");
}

/// Two servers run at once, each built in a scope of its own:
/// `serve::request` armed in one scope fails only that server's request,
/// and each scope's counters count only its own server's replies.
#[test]
fn servers_in_two_scopes_keep_faults_and_metrics_apart() {
    let text = qon_text(5, 31);
    let (up, answered) = (Barrier::new(2), Barrier::new(2));
    std::thread::scope(|t| {
        for armed in [true, false] {
            let (text, up, answered) = (&text, &up, &answered);
            t.spawn(move || {
                let _scope = aqo_obs::Scope::new().install();
                aqo_obs::set_enabled(true);
                if armed {
                    faults::arm("serve::request", FaultKind::Error, u64::MAX);
                }
                let mut reply = String::new();
                let report = with_server(&ServeConfig::default(), |addr, _| {
                    up.wait();
                    reply = aqo_serve::client::oneshot(addr, &optimize_req(1, text))
                        .unwrap_or_default();
                    answered.wait();
                    aqo_serve::client::oneshot(addr, &shutdown_req(2)).expect("shutdown");
                });
                let doc = json::parse(&reply).expect("reply parses");
                let kind = doc.get("error").and_then(|e| e.get("kind"));
                match armed {
                    true => assert_eq!(kind.and_then(JsonValue::as_str), Some("injected")),
                    false => assert!(kind.is_none(), "unarmed server answers: {reply}"),
                }
                assert_eq!((report.ok, report.errors), if armed { (0, 1) } else { (1, 0) });
                assert_eq!(faults::hits("serve::request"), u64::from(armed));
                let counters = aqo_obs::counters_snapshot();
                let count = |name: &str| {
                    counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
                };
                assert_eq!(count("serve.responses.error"), u64::from(armed));
                assert_eq!(count("serve.responses.ok"), u64::from(!armed));
                assert_eq!(count("serve.requests.optimize"), 1);
            });
        }
    });
}

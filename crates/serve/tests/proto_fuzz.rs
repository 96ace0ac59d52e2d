//! Fuzz-shaped robustness tests for the wire protocol.
//!
//! Two layers are attacked. [`aqo_serve::Request::parse`] is hammered
//! directly with truncated JSON, type confusion, and seeded byte
//! mutations — it must return a structured `Err` or a valid request,
//! never panic. Then a live server on a loopback port is fed raw bytes
//! a well-behaved client would never send — invalid UTF-8, interleaved
//! garbage, oversized lines, and a held-open partial line — and must
//! answer each abuse with a structured error (or a deliberate eviction)
//! while staying serviceable for the next well-formed request.

use aqo_core::{textio, workloads};
use aqo_obs::json::{self, JsonValue};
use aqo_serve::{Op, Problem, Request, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

fn qon_text(n: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    textio::qon_to_text(&workloads::chain(n, &workloads::WorkloadParams::default(), &mut rng))
}

fn optimize_line(id: u64, text: &str) -> String {
    let mut req = Request::new(Op::Optimize, Problem::Qon);
    req.id = id;
    req.instance = Some(text.to_string());
    req.to_json_line()
}

/// Parses under `catch_unwind`: `Some(result)` on a clean return,
/// `None` if the parser panicked (which fails the calling test).
fn parse_contained(line: &str) -> Option<Result<Request, String>> {
    catch_unwind(AssertUnwindSafe(|| Request::parse(line))).ok()
}

// ---------------------------------------------------------------------------
// Parser-level: malformed text must yield Err, never a panic.
// ---------------------------------------------------------------------------

#[test]
fn truncated_json_never_panics_and_never_parses() {
    let full = optimize_line(7, &qon_text(5, 3));
    for cut in 0..full.len() {
        if !full.is_char_boundary(cut) {
            continue;
        }
        let prefix = &full[..cut];
        let result = parse_contained(prefix)
            .unwrap_or_else(|| panic!("parse panicked on prefix of len {cut}"));
        // Every strict prefix of a JSON object is unterminated, so the
        // parser must reject it with a message, not accept or crash.
        let err = result.err().unwrap_or_else(|| panic!("truncated prefix {prefix:?} parsed"));
        assert!(!err.is_empty(), "rejection carries a message");
    }
}

#[test]
fn type_confusion_is_rejected_with_structured_messages() {
    let cases: &[&str] = &[
        "",
        "   ",
        "null",
        "42",
        "\"a bare string\"",
        "[1, 2, 3]",
        "{}",
        "{\"op\": 17}",
        "{\"op\": [\"optimize\"]}",
        "{\"op\": \"optimize\", \"instance\": 9}",
        "{\"op\": \"optimize\", \"instance\": \"x\", \"id\": \"seven\"}",
        "{\"op\": \"optimize\", \"instance\": \"x\", \"id\": 1.5}",
        "{\"op\": \"optimize\", \"instance\": \"x\", \"timeout_ms\": -1}",
        "{\"op\": \"optimize\", \"instance\": \"x\", \"cache\": \"yes\"}",
        "{\"op\": \"optimize\", \"instance\": \"x\", \"problem\": \"sudoku\"}",
        "{\"op\": \"optimize\", \"instance\": \"x\"} trailing garbage",
        "{\"op\": \"optimize\", \"instance\": \"x\", \"method\": \"dp\", \"fallback\": \"dp\"}",
        "{\"op\": \"optimize\", \"instance\": \"x\", \"unterminated\": \"",
    ];
    for line in cases {
        let result =
            parse_contained(line).unwrap_or_else(|| panic!("parse panicked on {line:?}"));
        let err = result.err().unwrap_or_else(|| panic!("{line:?} unexpectedly parsed"));
        assert!(!err.is_empty(), "{line:?} rejection carries a message");
    }
}

/// Tiny deterministic xorshift so the mutation fuzz needs no clock and
/// reproduces bit-for-bit across runs.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

#[test]
fn seeded_byte_mutations_never_panic_the_parser() {
    let seed_lines = [
        optimize_line(1, &qon_text(5, 5)),
        Request::new(Op::Status, Problem::Qon).to_json_line(),
        Request::new(Op::Shutdown, Problem::Clique).to_json_line(),
    ];
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    for round in 0..600 {
        let base = &seed_lines[round % seed_lines.len()];
        let mut bytes = base.clone().into_bytes();
        // 1–4 random edits: overwrite, insert, delete, or truncate.
        for _ in 0..(1 + rng.next() as usize % 4) {
            if bytes.is_empty() {
                break;
            }
            let pos = rng.next() as usize % bytes.len();
            match rng.next() % 4 {
                0 => bytes[pos] = (rng.next() % 256) as u8,
                1 => bytes.insert(pos, (rng.next() % 256) as u8),
                2 => {
                    bytes.remove(pos);
                }
                _ => bytes.truncate(pos),
            }
        }
        // The server decodes lossily before parsing; mirror that here.
        let line = String::from_utf8_lossy(&bytes).into_owned();
        let result = parse_contained(&line)
            .unwrap_or_else(|| panic!("parse panicked on mutation round {round}: {line:?}"));
        if let Err(msg) = result {
            assert!(!msg.is_empty(), "round {round}: rejection carries a message");
        }
    }
}

// ---------------------------------------------------------------------------
// Server-level: raw-socket abuse must get structured errors, and the
// server must keep answering afterwards.
// ---------------------------------------------------------------------------

/// Runs `server` on a loopback port and hands the address to the
/// closure, which must end with a shutdown request so `run` returns.
fn with_server<F>(cfg: &ServeConfig, client: F) -> aqo_serve::ServiceReport
where
    F: FnOnce(&str),
{
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = Server::new(cfg);
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run(&listener).expect("serve loop"));
        client(&addr);
        handle.join().expect("server thread")
    })
}

/// A raw protocol connection: writes go to the stream, reads through
/// one persistent `BufReader` (a fresh reader per reply would drop
/// bytes it had buffered past the first newline).
struct RawConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawConn {
    fn connect(addr: &str) -> RawConn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        RawConn { stream, reader }
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write bytes");
    }

    fn send_line(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("write line");
        self.stream.write_all(b"\n").expect("write newline");
    }

    fn read_reply(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply line");
        assert!(!line.is_empty(), "server closed the connection mid-conversation");
        line
    }

    /// Drains to EOF and returns how many further bytes arrived.
    fn drain(&mut self) -> usize {
        let mut rest = Vec::new();
        self.reader.read_to_end(&mut rest).expect("drained to EOF");
        rest.len()
    }
}

fn error_kind(line: &str) -> String {
    let doc = json::parse(line).unwrap_or_else(|e| panic!("reply {line:?} parses: {e}"));
    assert!(
        matches!(doc.get("ok"), Some(JsonValue::Bool(false))),
        "expected an error reply, got {line:?}"
    );
    doc.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("reply {line:?} has no error kind"))
        .to_string()
}

fn shutdown(addr: &str) {
    let mut req = Request::new(Op::Shutdown, Problem::Qon);
    req.id = 999;
    aqo_serve::client::oneshot(addr, &req).expect("shutdown ack");
}

#[test]
fn invalid_utf8_line_gets_structured_parse_error() {
    let report = with_server(&ServeConfig::default(), |addr| {
        let mut conn = RawConn::connect(addr);
        // A line that is not UTF-8 at all: lossy decoding turns it into
        // replacement characters, which then fail JSON parsing.
        conn.send_raw(b"\xff\xfe\x80{\"op\"\n");
        let kind = error_kind(&conn.read_reply());
        assert_eq!(kind, "parse");
        // The same connection still serves a well-formed request.
        conn.send_line(&Request::new(Op::Status, Problem::Qon).to_json_line());
        let line = conn.read_reply();
        let doc = json::parse(&line).expect("status parses");
        assert!(matches!(doc.get("ok"), Some(JsonValue::Bool(true))));
        drop(conn);
        shutdown(addr);
    });
    assert_eq!(report.reason, "shutdown");
}

#[test]
fn interleaved_garbage_leaves_valid_requests_unharmed() {
    let text = qon_text(5, 23);
    let report = with_server(&ServeConfig::default(), |addr| {
        let mut conn = RawConn::connect(addr);
        let garbage: &[&str] =
            &["this is not json", "{\"op\": \"mine-bitcoin\"}", "[]", "{\"op\": 3}"];
        for (i, junk) in garbage.iter().enumerate() {
            // Garbage line: structured parse error, never a hang.
            conn.send_line(junk);
            let kind = error_kind(&conn.read_reply());
            assert_eq!(kind, "parse", "junk {junk:?} classified");
            // Chased by a valid optimize on the same connection.
            conn.send_line(&optimize_line(100 + i as u64, &text));
            let reply = conn.read_reply();
            let doc = json::parse(&reply).expect("optimize reply parses");
            assert!(
                matches!(doc.get("ok"), Some(JsonValue::Bool(true))),
                "valid request after junk {junk:?} failed: {reply}"
            );
        }
        drop(conn);
        shutdown(addr);
    });
    assert_eq!(report.reason, "shutdown");
    assert_eq!(report.ok as usize, 4);
}

#[test]
fn oversized_line_is_evicted_and_server_stays_up() {
    let cfg = ServeConfig { max_line_bytes: 512, ..ServeConfig::default() };
    let report = with_server(&cfg, |addr| {
        let mut conn = RawConn::connect(addr);
        let mut flood = vec![b'x'; 4 * 512];
        flood.push(b'\n');
        conn.send_raw(&flood);
        let kind = error_kind(&conn.read_reply());
        assert_eq!(kind, "evicted");
        // The abusive connection is closed after the error reply…
        assert_eq!(conn.drain(), 0, "no further bytes after eviction");
        // …but a fresh connection is served normally.
        let mut fresh = RawConn::connect(addr);
        fresh.send_line(&Request::new(Op::Status, Problem::Qon).to_json_line());
        let doc = json::parse(&fresh.read_reply()).expect("status parses");
        assert!(matches!(doc.get("accepting"), Some(JsonValue::Bool(true))));
        drop(fresh);
        shutdown(addr);
    });
    assert_eq!(report.reason, "shutdown");
    assert_eq!(report.evicted, 1);
}

#[test]
fn slow_loris_partial_line_is_evicted_within_the_deadline() {
    let cfg = ServeConfig {
        conn_timeout: Duration::from_millis(20),
        read_deadline: Some(Duration::from_millis(150)),
        ..ServeConfig::default()
    };
    let report = with_server(&cfg, |addr| {
        let mut conn = RawConn::connect(addr);
        // A partial request line, held open with no newline: the reader
        // must evict rather than pin the connection thread forever.
        conn.send_raw(b"{\"op\": \"status\"");
        let kind = error_kind(&conn.read_reply());
        assert_eq!(kind, "evicted");
        assert_eq!(conn.drain(), 0, "connection closed after slow-loris eviction");
        drop(conn);
        shutdown(addr);
    });
    assert_eq!(report.reason, "shutdown");
    assert_eq!(report.evicted, 1);
}

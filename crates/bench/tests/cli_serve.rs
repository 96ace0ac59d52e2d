//! End-to-end tests of the service surface of the `aqo` binary: a real
//! `aqo serve` process on a loopback port driven by `aqo request` and
//! `aqo loadgen`, plus the `--stdio` transport with `AQO_FAULTS` armed.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

fn aqo(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_aqo")).args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Spawns `aqo serve` on an OS-assigned port, with `faults` as its
/// `AQO_FAULTS`, and scrapes the port from the startup line on stderr.
fn spawn_serve(faults: Option<&str>, extra: &[&str]) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_aqo"));
    cmd.args(["serve", "--addr", "127.0.0.1:0"]).args(extra);
    if let Some(spec) = faults {
        cmd.env("AQO_FAULTS", spec);
    }
    let mut child =
        cmd.stderr(Stdio::piped()).stdout(Stdio::null()).spawn().expect("serve spawns");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines.next().expect("startup line").expect("readable stderr");
        if let Some(rest) = line.strip_prefix("serve: listening on ") {
            break rest.to_string();
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

fn write_instance(name: &str, content: &str) -> String {
    let dir = std::env::temp_dir().join("aqo_cli_serve_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path.to_str().unwrap().to_string()
}

#[test]
fn serve_request_loadgen_roundtrip() {
    let (ok, qon, _) = aqo(&["gen", "chain", "6", "3"]);
    assert!(ok);
    let qon_path = write_instance("chain6.qon", &qon);

    let (mut child, addr) = spawn_serve(None, &["--threads", "2"]);

    let (ok, out, err) = aqo(&["request", &addr, "optimize", &qon_path]);
    assert!(ok, "request failed: {err}");
    assert!(out.contains("\"ok\": true"), "unexpected response: {out}");
    assert!(out.contains("\"tier\""), "response names the answering tier: {out}");

    // The identical instance again: the plan must come from the cache.
    let (ok, out, _) = aqo(&["request", &addr, "optimize", &qon_path]);
    assert!(ok);
    assert!(out.contains("\"cached\": true"), "second request not cached: {out}");

    // Explain rides the same instance and carries the walkthrough text.
    let (ok, out, _) = aqo(&["request", &addr, "explain", &qon_path]);
    assert!(ok);
    assert!(out.contains("\"explain\""), "no explain text: {out}");

    // A small loadgen against the same live server: zero wrong costs is
    // a hard exit-code requirement of the subcommand.
    let (ok, out, err) = aqo(&[
        "loadgen",
        "--addr",
        &addr,
        "--requests",
        "6",
        "--concurrency",
        "2",
        "--mix",
        "qon",
        "--pool",
        "2",
    ]);
    assert!(ok, "loadgen failed: {err}");
    assert!(out.starts_with("requests=6 errors=0 wrong_cost=0 degraded=0 cached="), "{out}");

    let (ok, out, _) = aqo(&["request", &addr, "status"]);
    assert!(ok);
    assert!(out.contains("\"cache\""), "status carries cache counters: {out}");

    let (ok, out, _) = aqo(&["request", &addr, "shutdown"]);
    assert!(ok);
    assert!(out.contains("draining"), "shutdown ack: {out}");
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve exits cleanly after shutdown");
}

#[test]
fn loadgen_fails_when_every_request_errors() {
    // Every optimize attempt, retries included, answers an injected
    // error: no answer reaches the oracle, so loadgen must fail even
    // though no cost was wrong.
    let (mut child, addr) = spawn_serve(Some("serve::request=err*1000"), &[]);
    let (ok, out, err) = aqo(&[
        "loadgen", "--addr", &addr, "--requests", "2", "--concurrency", "1", "--mix", "qon",
        "--pool", "1",
    ]);
    // Shut the server down before asserting, so a failure leaves no
    // process behind.
    let (shut, _, _) = aqo(&["request", &addr, "shutdown"]);
    child.wait().expect("serve exits");
    assert!(shut);
    assert!(!ok, "loadgen passed with nothing checked: {out}");
    assert!(out.contains("requests=2 errors=2 wrong_cost=0"), "{out}");
    assert!(err.contains("2 error(s)"), "{err}");
}

#[test]
fn remote_errors_fail_without_usage_banner() {
    let (mut child, addr) = spawn_serve(None, &[]);
    // A qoh payload declared as qon: the server answers a structured
    // parse/usage error; the client exits nonzero, repeats the error, and
    // must NOT dump the usage banner (the invocation itself was fine).
    let bad = write_instance("bad.qon", "definitely not a qon instance\n");
    let (ok, _, err) = aqo(&["request", &addr, "optimize", &bad]);
    assert!(!ok);
    assert!(err.contains("server error"), "stderr: {err}");
    assert!(!err.contains("usage:"), "usage banner on a remote error: {err}");
    let (ok, _, _) = aqo(&["request", &addr, "shutdown"]);
    assert!(ok);
    child.wait().expect("serve exits");
}

#[test]
fn stdio_transport_with_armed_faults_returns_structured_error() {
    let (ok, qon, _) = aqo(&["gen", "chain", "5", "5"]);
    assert!(ok);
    let mut req = String::from("{\"op\": \"optimize\", \"id\": 1, \"instance\": ");
    // Reuse the binary's own JSON by hand: escape the instance text.
    req.push('"');
    for c in qon.chars() {
        match c {
            '"' => req.push_str("\\\""),
            '\\' => req.push_str("\\\\"),
            '\n' => req.push_str("\\n"),
            c => req.push(c),
        }
    }
    req.push_str("\"}\n");

    let mut child = Command::new(env!("CARGO_BIN_EXE_aqo"))
        .args(["serve", "--stdio"])
        .env("AQO_FAULTS", "serve::request=err*1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("stdio serve spawns");
    let mut stdin = child.stdin.take().expect("piped stdin");
    // Same request twice: the armed fault fails the first, the second
    // proves the loop survived; then shutdown ends the session.
    stdin.write_all(req.as_bytes()).unwrap();
    stdin.write_all(req.as_bytes()).unwrap();
    stdin.write_all(b"{\"op\": \"shutdown\", \"id\": 3}\n").unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("stdio serve exits");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "three replies: {stdout}");
    assert!(
        lines[0].contains("\"kind\": \"injected\""),
        "first reply carries the injected fault: {}",
        lines[0]
    );
    assert!(lines[1].contains("\"ok\": true"), "second reply succeeds: {}", lines[1]);
    assert!(lines[2].contains("draining"), "shutdown ack: {}", lines[2]);
}

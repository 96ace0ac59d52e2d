//! The deterministic fault-campaign runner behind `aqo chaos`
//! (`CHAOS.json`, schema `aqo-chaos/v1`).
//!
//! The campaign boots a real in-process server on `127.0.0.1:0` and
//! sweeps the full fail-point catalog ([`aqo_obs::faults::CATALOG`])
//! against every fault mode (`err`, `panic`, `delay`): one **cell** per
//! `site × mode` pair. A cell arms the site with a bounded fire count,
//! fires a handful of requests at the live server through the plain
//! (non-retrying) client, and classifies every raw outcome:
//!
//! - **ok, exact** — the reply's cost must equal the sequential driver's
//!   answer for that instance, precomputed with all faults disarmed
//!   (anything else is a correctness violation, the one unforgivable
//!   outcome);
//! - **ok, inexact** — a heuristic tier answered (pinned fallback chains
//!   or degradation); accepted without the cost oracle, which only bounds
//!   exact answers;
//! - **structured error** — `ok: false` with a wire-known `kind`
//!   (`injected`, `panic`, `driver`, `evicted`, …): the failure was
//!   *reported*, which is the contract;
//! - **transport error** — the connection dropped, stalled past the
//!   client deadline, or delivered a torn frame. Legitimate for the
//!   `serve::net::*` sites (that is exactly what they simulate) and a
//!   violation everywhere else.
//!
//! After each cell the faults are disarmed and the server is **probed**:
//! a `status` round trip must report `accepting` and a fresh uncached
//! optimize must produce the exact answer — proof the worker pool
//! survived whatever the cell injected. Storage sites are exercised
//! directly against the snapshot layer (save/load under fault, with the
//! previous-snapshot-intact invariant checked after every torn write).
//!
//! Three scripted scenarios ride along: a **slow-loris** client (partial
//! line held past the read deadline must be evicted with a structured
//! error), an **oversized line** (ditto at the size limit), and
//! **snapshot corruption** (interior bit rot salvages every intact line;
//! garbage is an error, never a panic). A final **warm-restart** check
//! reloads the server's own shutdown snapshot, then truncates and
//! garbage-fills it to prove restart survives both.
//!
//! The campaign arms, reads and disarms fail points in the caller's
//! [`aqo_obs::Scope`], which is also the scope its server is built in and
//! reports into, so a campaign arms only its own server.
//!
//! Everything is countdown-based and seeded — no randomness, no timing
//! dependence in the verdicts — so a red campaign reproduces.

use crate::cache::{CachedPlan, PlanCache};
use crate::client::Client;
use crate::proto::{ErrorKind, Op, Problem, Request};
use crate::server::{ServeConfig, Server};
use crate::snapshot;
use aqo_bignum::BigUint;
use aqo_core::fingerprint::fnv1a;
use aqo_core::{textio, workloads};
use aqo_obs::faults::{self, FaultKind, SiteInfo, CATALOG};
use aqo_obs::json::{self, JsonValue};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Campaign tuning. [`ChaosConfig::quick`] is the CI smoke shape;
/// the default is what produces the committed `CHAOS.json`.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Requests fired per cell (must exceed the fault count so every cell
    /// also observes post-fault recovery).
    pub requests_per_cell: usize,
    /// How many times each armed site fires before passing.
    pub fault_count: u64,
    /// Sleep injected by `delay`-mode faults, milliseconds.
    pub delay_ms: u64,
    /// Client-side read deadline per request (bounds torn-frame cells).
    pub client_timeout: Duration,
    /// Workload seed for the scenario pool.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            requests_per_cell: 4,
            fault_count: 2,
            delay_ms: 25,
            client_timeout: Duration::from_secs(2),
            seed: 42,
        }
    }
}

impl ChaosConfig {
    /// The reduced campaign CI runs on every push: one fire per site, two
    /// requests per cell, tighter client deadline.
    pub fn quick() -> Self {
        ChaosConfig {
            requests_per_cell: 2,
            fault_count: 1,
            delay_ms: 10,
            client_timeout: Duration::from_secs(1),
            seed: 42,
        }
    }
}

/// One `site × mode` cell's outcome tallies and verdict.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The fail-point site swept.
    pub site: &'static str,
    /// The site's owning layer (`driver`, `serve`, `storage`).
    pub layer: &'static str,
    /// Fault mode (`err`, `panic`, `delay`).
    pub mode: &'static str,
    /// Requests (or storage operations) attempted.
    pub requests: usize,
    /// Replies that were exact and cost-verified against the oracle.
    pub ok_exact: usize,
    /// Replies that were heuristic/degraded (no cost oracle applies).
    pub ok_inexact: usize,
    /// Structured error replies with a wire-known kind.
    pub structured_errors: usize,
    /// Transport-level failures (dropped/stalled/torn connections).
    pub transport_errors: usize,
    /// Panics contained by `catch_unwind` in direct storage calls.
    pub contained_panics: usize,
    /// `fail_point` hits observed at the site while armed; for a site
    /// [`polled_per_read`], the hits that fired.
    pub hits: u64,
    /// Whether the disarmed post-cell probe found the server healthy.
    pub probe_ok: bool,
    /// Invariant violations (empty means the cell passed).
    pub violations: Vec<String>,
}

impl CellResult {
    fn new(site: &SiteInfo, mode: &'static str) -> Self {
        CellResult {
            site: site.site,
            layer: site.layer,
            mode,
            requests: 0,
            ok_exact: 0,
            ok_inexact: 0,
            structured_errors: 0,
            transport_errors: 0,
            contained_panics: 0,
            hits: 0,
            probe_ok: false,
            violations: Vec::new(),
        }
    }
}

/// A scripted end-to-end scenario's verdict.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Scenario name (`slow_loris`, `oversized_line`, …).
    pub name: &'static str,
    /// Whether every check in the scenario held.
    pub passed: bool,
    /// Human-readable outcome summary (or the first failure).
    pub detail: String,
}

/// The whole campaign: every cell, every scenario, the server's own
/// shutdown report.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Echo of the workload seed.
    pub seed: u64,
    /// Echo of requests per cell.
    pub requests_per_cell: usize,
    /// Echo of the per-site fire count.
    pub fault_count: u64,
    /// Per-cell results, in catalog × mode sweep order.
    pub cells: Vec<CellResult>,
    /// Scripted scenario results.
    pub scenarios: Vec<ScenarioResult>,
    /// The campaign server's final [`crate::server::ServiceReport`], as
    /// its untimed JSON rendering (`None` if the server failed to shut
    /// down).
    pub server_report: Option<String>,
}

impl ChaosReport {
    /// Total invariant violations across cells and scenarios (the
    /// acceptance bar is zero).
    pub fn total_violations(&self) -> usize {
        self.cells.iter().map(|c| c.violations.len()).sum::<usize>()
            + self.scenarios.iter().filter(|s| !s.passed).count()
            + usize::from(self.server_report.is_none())
    }

    /// Whether every disarmed probe found the worker pool healthy.
    pub fn pool_intact(&self) -> bool {
        self.cells.iter().all(|c| c.probe_ok)
    }

    /// `CHAOS.json` rendering, schema `aqo-chaos/v1`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(8192);
        out.push_str("{\n  \"schema\": \"aqo-chaos/v1\",\n");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"requests_per_cell\": {},", self.requests_per_cell);
        let _ = writeln!(out, "  \"fault_count\": {},", self.fault_count);
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"site\": \"{}\", \"layer\": \"{}\", \"mode\": \"{}\", \
                 \"requests\": {}, \"ok_exact\": {}, \"ok_inexact\": {}, \
                 \"structured_errors\": {}, \"transport_errors\": {}, \
                 \"contained_panics\": {}, \"hits\": {}, \"probe_ok\": {}, \
                 \"violations\": [",
                c.site,
                c.layer,
                c.mode,
                c.requests,
                c.ok_exact,
                c.ok_inexact,
                c.structured_errors,
                c.transport_errors,
                c.contained_panics,
                c.hits,
                c.probe_ok,
            );
            for (j, v) in c.violations.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                json::escape_into(&mut out, v);
            }
            out.push_str("]}");
            out.push_str(if i + 1 < self.cells.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"scenarios\": [\n");
        for (i, s) in self.scenarios.iter().enumerate() {
            let _ = write!(out, "    {{\"name\": \"{}\", \"passed\": {}, \"detail\": ", s.name, s.passed);
            json::escape_into(&mut out, &s.detail);
            out.push('}');
            out.push_str(if i + 1 < self.scenarios.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        if let Some(report) = &self.server_report {
            out.push_str("  \"server\": ");
            // The service report is already JSON; inline it with the
            // surrounding indentation normalized.
            out.push_str(report.trim_end());
            out.push_str(",\n");
        }
        let _ = writeln!(
            out,
            "  \"totals\": {{\"cells\": {}, \"requests\": {}, \"violations\": {}, \
             \"pool_intact\": {}}}",
            self.cells.len(),
            self.cells.iter().map(|c| c.requests).sum::<usize>(),
            self.total_violations(),
            self.pool_intact(),
        );
        out.push('}');
        out.push('\n');
        out
    }
}

/// The disarmed-oracle scenario pool: one QO_N and one QO_H instance with
/// their sequential-driver exact costs.
struct Pool {
    qon_text: String,
    qon_cost: String,
    qoh_text: String,
    qoh_cost: String,
}

impl Pool {
    fn build(seed: u64) -> Result<Pool, String> {
        let params = workloads::WorkloadParams::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let qon = workloads::chain(6, &params, &mut rng);
        let qon_outcome = aqo_driver::optimize_qon(&qon, &aqo_driver::QonDriverConfig::default())
            .map_err(|e| format!("chaos oracle qon: {e}"))?;
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1000));
        let base = workloads::chain(5, &params, &mut rng);
        // Memory = product of all relation sizes: every intermediate is
        // bounded by it, so the exhaustive tier always finds a plan.
        let memory = base.sizes().iter().fold(BigUint::from(1u64), |acc, s| &acc * s);
        let qoh = aqo_core::qoh::QoHInstance::new(
            base.graph().clone(),
            base.sizes().to_vec(),
            base.selectivity().clone(),
            memory,
        );
        let qoh_outcome = aqo_driver::optimize_qoh(&qoh, &aqo_driver::QohDriverConfig::default())
            .map_err(|e| format!("chaos oracle qoh: {e}"))?;
        Ok(Pool {
            qon_text: textio::qon_to_text(&qon),
            qon_cost: qon_outcome.optimum.cost.to_string(),
            qoh_text: textio::qoh_to_text(&qoh),
            qoh_cost: qoh_outcome.plan.cost.to_string(),
        })
    }
}

/// How a site's cell shapes its requests: which problem family reaches
/// the site, whether the chain is pinned so the site actually fires, and
/// whether the plan cache may participate (driver-site cells bypass it so
/// repeat requests keep exercising the tiers).
fn template(site: &str) -> (Problem, Option<&'static str>, bool) {
    match site {
        "qon::dp" => (Problem::Qon, Some("dp,greedy"), false),
        "qon::ikkbz" => (Problem::Qon, Some("ikkbz,greedy"), false),
        "qon::greedy" => (Problem::Qon, Some("greedy"), false),
        "qoh::exhaustive" => (Problem::Qoh, Some("exhaustive,greedy"), false),
        "qoh::greedy" => (Problem::Qoh, Some("greedy"), false),
        _ => (Problem::Qon, None, true),
    }
}

/// Runs `f` with panics contained and silenced; `Err(())` means it
/// panicked (the panic-mode outcome of direct storage calls).
fn contained<T>(f: impl FnOnce() -> T) -> Result<T, ()> {
    faults::with_quiet_panics(|| catch_unwind(AssertUnwindSafe(f))).map_err(|_| ())
}

/// A deterministic synthetic cache for the storage cells.
fn storage_cache(n: usize) -> PlanCache {
    let cache = PlanCache::new(64);
    for i in 0..n {
        let key = format!("qon cart=1 chaos-entry-{i}");
        cache.insert(
            fnv1a(key.as_bytes()),
            key,
            CachedPlan {
                tier: "dp".into(),
                exact: true,
                order: vec![i % 3, (i + 1) % 3, (i + 2) % 3],
                cost: format!("{}/7", i + 9),
                cost_log2: (i + 9) as f64,
                decomposition: None,
            },
        );
    }
    cache
}

/// Classifies one reply line into the cell tallies.
fn classify_reply(cell: &mut CellResult, line: &str, req_id: u64, expected_cost: &str, r: usize) {
    let Ok(doc) = json::parse(line) else {
        cell.violations.push(format!("req {r}: reply is not valid JSON"));
        return;
    };
    if matches!(doc.get("ok"), Some(JsonValue::Bool(true))) {
        if doc.get("id").and_then(JsonValue::as_num) != Some(req_id as f64) {
            cell.violations.push(format!("req {r}: reply id mismatch"));
            return;
        }
        let exact = matches!(doc.get("exact"), Some(JsonValue::Bool(true)));
        let degraded = matches!(doc.get("degraded"), Some(JsonValue::Bool(true)));
        if exact && !degraded {
            if doc.get("cost").and_then(JsonValue::as_str) == Some(expected_cost) {
                cell.ok_exact += 1;
            } else {
                cell.violations.push(format!(
                    "req {r}: exact reply cost {:?} != oracle {expected_cost}",
                    doc.get("cost").and_then(JsonValue::as_str).unwrap_or("<missing>")
                ));
            }
        } else {
            cell.ok_inexact += 1;
        }
    } else {
        let kind = doc
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(JsonValue::as_str)
            .unwrap_or("");
        if ErrorKind::from_wire(kind).is_some() {
            cell.structured_errors += 1;
        } else {
            cell.violations.push(format!("req {r}: error reply with unknown kind `{kind}`"));
        }
    }
}

/// Disarmed health probe: `status` must report `accepting`, and a fresh
/// uncached optimize must return the oracle's exact cost — both through
/// the real admission path, proving the worker pool survived the cell.
fn probe(addr: &str, pool: &Pool, timeout: Duration) -> Result<(), String> {
    let mut client = Client::connect_with_timeout(addr, Some(timeout))
        .map_err(|e| format!("probe connect: {e}"))?;
    let mut st = Request::new(Op::Status, Problem::Qon);
    st.id = 7_001;
    let line = client.roundtrip(&st).map_err(|e| format!("probe status: {e}"))?;
    let doc = json::parse(&line).map_err(|e| format!("probe status parse: {e}"))?;
    if !matches!(doc.get("ok"), Some(JsonValue::Bool(true)))
        || !matches!(doc.get("accepting"), Some(JsonValue::Bool(true)))
    {
        return Err(format!("probe status unhealthy: {line}"));
    }
    let mut opt = Request::new(Op::Optimize, Problem::Qon);
    opt.id = 7_002;
    opt.instance = Some(pool.qon_text.clone());
    opt.use_cache = false;
    let line = client.roundtrip(&opt).map_err(|e| format!("probe optimize: {e}"))?;
    let doc = json::parse(&line).map_err(|e| format!("probe optimize parse: {e}"))?;
    let cost = doc.get("cost").and_then(JsonValue::as_str);
    if !matches!(doc.get("ok"), Some(JsonValue::Bool(true))) || cost != Some(pool.qon_cost.as_str())
    {
        return Err(format!("probe optimize wrong answer: {line}"));
    }
    Ok(())
}

/// Whether the connection reader polls `site` once per read chunk: how
/// many chunks a request line arrives in depends on timing, so how often
/// such a site is hit does too; how often it fires does not.
fn polled_per_read(site: &str) -> bool {
    matches!(site, "serve::net::stalled_read" | "serve::net::oversized_line")
}

/// One cell against the live server: arm, fire, classify, disarm, probe.
fn run_server_cell(
    addr: &str,
    site: &SiteInfo,
    mode: &'static str,
    kind: FaultKind,
    cfg: &ChaosConfig,
    pool: &Pool,
    cell_index: usize,
) -> CellResult {
    let mut cell = CellResult::new(site, mode);
    let (problem, fallback, use_cache) = template(site.site);
    let (instance, expected_cost) = match problem {
        Problem::Qoh => (&pool.qoh_text, &pool.qoh_cost),
        _ => (&pool.qon_text, &pool.qon_cost),
    };
    faults::clear();
    faults::arm(site.site, kind, cfg.fault_count);
    let mut client = Client::connect_with_timeout(addr, Some(cfg.client_timeout)).ok();
    for r in 0..cfg.requests_per_cell {
        cell.requests += 1;
        if client.is_none() {
            client = Client::connect_with_timeout(addr, Some(cfg.client_timeout)).ok();
        }
        let Some(cl) = client.as_mut() else {
            cell.transport_errors += 1;
            continue;
        };
        let mut req = Request::new(Op::Optimize, problem);
        req.id = (cell_index * 1000 + r) as u64;
        req.instance = Some(instance.clone());
        req.fallback = fallback.map(String::from);
        req.use_cache = use_cache;
        match cl.roundtrip(&req) {
            Ok(line) => classify_reply(&mut cell, &line, req.id, expected_cost, r),
            Err(_) => {
                // Transport failures are what the net sites simulate; the
                // connection may hold torn bytes, so never reuse it.
                cell.transport_errors += 1;
                client = None;
            }
        }
    }
    cell.hits = if polled_per_read(site.site) {
        faults::fired(site.site)
    } else {
        faults::hits(site.site)
    };
    faults::clear();
    if !site.site.starts_with("serve::net::") && cell.transport_errors > 0 {
        cell.violations.push(format!(
            "{} transport errors at a non-network site",
            cell.transport_errors
        ));
    }
    match probe(addr, pool, cfg.client_timeout) {
        Ok(()) => cell.probe_ok = true,
        Err(e) => cell.violations.push(format!("post-cell probe failed: {e}")),
    }
    cell
}

/// One storage cell, run directly against the snapshot layer (these sites
/// never fire on the request path). The torn-write invariant — a failed
/// save leaves the previous snapshot loadable — is checked after every
/// operation.
fn run_storage_cell(
    site: &SiteInfo,
    mode: &'static str,
    kind: FaultKind,
    cfg: &ChaosConfig,
    dir: &Path,
    cell_index: usize,
) -> CellResult {
    let mut cell = CellResult::new(site, mode);
    let path = dir.join(format!("storage-cell-{cell_index}.snap"));
    let small = storage_cache(3);
    let big = storage_cache(5);
    faults::clear();
    // A clean baseline snapshot, before arming: the file the torn write
    // must not destroy.
    if let Err(e) = snapshot::save(&path, &small) {
        cell.violations.push(format!("baseline save failed: {e}"));
        return cell;
    }
    let mut expect = 3usize;
    faults::arm(site.site, kind, cfg.fault_count);
    for r in 0..cfg.requests_per_cell {
        cell.requests += 1;
        if site.site == "serve::storage::snapshot_write" {
            match contained(|| snapshot::save(&path, &big)) {
                Ok(Ok(n)) => {
                    cell.ok_exact += 1;
                    expect = n;
                }
                Ok(Err(_)) => cell.structured_errors += 1,
                Err(()) => cell.contained_panics += 1,
            }
        } else {
            let fresh = PlanCache::new(64);
            match contained(|| snapshot::load(&path, &fresh)) {
                Ok(Ok(n)) if n == expect => cell.ok_exact += 1,
                Ok(Ok(n)) => cell
                    .violations
                    .push(format!("req {r}: load returned {n} entries, expected {expect}")),
                Ok(Err(_)) => cell.structured_errors += 1,
                Err(()) => cell.contained_panics += 1,
            }
        }
        // The crash-safety invariant, checked with the *load* side
        // disarmed where possible: whatever just happened, the file at
        // `path` must still hold a loadable snapshot of `expect` entries.
        if site.site == "serve::storage::snapshot_write" {
            let fresh = PlanCache::new(64);
            match contained(|| snapshot::load(&path, &fresh)) {
                Ok(Ok(n)) if n == expect => {}
                Ok(Ok(n)) => cell.violations.push(format!(
                    "req {r}: snapshot holds {n} entries after save, expected {expect}"
                )),
                Ok(Err(e)) => cell
                    .violations
                    .push(format!("req {r}: snapshot unloadable after save: {e}")),
                Err(()) => cell.violations.push(format!("req {r}: post-save load panicked")),
            }
        }
    }
    cell.hits = faults::hits(site.site);
    faults::clear();
    // Disarmed probe: a clean save-then-load round trip must work.
    let fresh = PlanCache::new(64);
    match snapshot::save(&path, &big).and_then(|_| snapshot::load(&path, &fresh)) {
        Ok(5) => cell.probe_ok = true,
        Ok(n) => cell.violations.push(format!("disarmed probe loaded {n} entries, expected 5")),
        Err(e) => cell.violations.push(format!("disarmed probe failed: {e}")),
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("tmp"));
    cell
}

/// Reads one reply line from a raw socket (used by the scripted abuse
/// scenarios, which deliberately bypass the well-behaved client).
fn read_raw_line(stream: &mut TcpStream, timeout: Duration) -> Result<String, String> {
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let deadline = Instant::now() + timeout;
    let mut pending = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        if let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            pending.truncate(pos);
            return Ok(String::from_utf8_lossy(&pending).into_owned());
        }
        if Instant::now() >= deadline {
            return Err("no reply before deadline".into());
        }
        match stream.read(&mut buf) {
            Ok(0) => return Err("connection closed without a reply".into()),
            Ok(n) => pending.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    }
}

/// Expects a structured `evicted` error on `stream` within `timeout`.
fn expect_eviction(stream: &mut TcpStream, timeout: Duration) -> Result<String, String> {
    let line = read_raw_line(stream, timeout)?;
    let doc = json::parse(&line).map_err(|e| format!("eviction reply parse: {e}"))?;
    let kind = doc
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(JsonValue::as_str)
        .unwrap_or("");
    if kind != "evicted" {
        return Err(format!("expected an `evicted` error, got: {line}"));
    }
    Ok(line)
}

/// Slow-loris scenario: hold a partial request line open past the read
/// deadline; the server must evict with a structured error, not hang a
/// connection thread.
fn slow_loris_scenario(addr: &str, read_deadline: Duration) -> ScenarioResult {
    let run = || -> Result<String, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.write_all(b"{\"op\": \"status\"").map_err(|e| format!("write: {e}"))?;
        stream.flush().map_err(|e| format!("flush: {e}"))?;
        let limit = read_deadline * 4 + Duration::from_secs(1);
        expect_eviction(&mut stream, limit)?;
        Ok(format!(
            "partial line evicted with a structured error (read deadline {read_deadline:?}; \
             passes when evicted within {limit:?})"
        ))
    };
    match run() {
        Ok(detail) => ScenarioResult { name: "slow_loris", passed: true, detail },
        Err(e) => ScenarioResult { name: "slow_loris", passed: false, detail: e },
    }
}

/// Oversized-line scenario: stream a line past the size limit; the server
/// must evict instead of buffering without bound.
fn oversized_scenario(addr: &str, max_line_bytes: usize) -> ScenarioResult {
    let run = || -> Result<String, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let blob = vec![b'x'; max_line_bytes * 2];
        // The server may evict (and reset) before the whole blob is
        // written; a short write still proves the point.
        let _ = stream.write_all(&blob);
        let _ = stream.flush();
        expect_eviction(&mut stream, Duration::from_secs(5))?;
        Ok(format!("evicted after {} oversized bytes (limit {max_line_bytes})", blob.len()))
    };
    match run() {
        Ok(detail) => ScenarioResult { name: "oversized_line", passed: true, detail },
        Err(e) => ScenarioResult { name: "oversized_line", passed: false, detail: e },
    }
}

/// Snapshot-corruption scenario: interior bit rot salvages every intact
/// line; a garbage file is a structured error, never a panic.
fn snapshot_corruption_scenario(dir: &Path) -> ScenarioResult {
    let run = || -> Result<String, String> {
        faults::clear();
        let path = dir.join("corruption-scenario.snap");
        snapshot::save(&path, &storage_cache(5)).map_err(|e| format!("save: {e}"))?;
        let text = std::fs::read_to_string(&path).map_err(|e| format!("read back: {e}"))?;
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[2] = lines[2].replace("chaos-entry", "rotten-bits");
        std::fs::write(&path, lines.join("\n")).map_err(|e| format!("corrupt: {e}"))?;
        let fresh = PlanCache::new(64);
        let salvaged = match contained(|| snapshot::load(&path, &fresh)) {
            Ok(Ok(n)) => n,
            Ok(Err(e)) => return Err(format!("salvage load failed outright: {e}")),
            Err(()) => return Err("salvage load panicked".into()),
        };
        if salvaged != 4 {
            return Err(format!("salvaged {salvaged} of 5 entries, expected 4"));
        }
        std::fs::write(&path, "!! not a snapshot at all\n").map_err(|e| format!("garbage: {e}"))?;
        match contained(|| snapshot::load(&path, &PlanCache::new(8))) {
            Ok(Err(_)) => {}
            Ok(Ok(n)) => return Err(format!("garbage file loaded {n} entries")),
            Err(()) => return Err("garbage file panicked the loader".into()),
        }
        let _ = std::fs::remove_file(&path);
        Ok("interior corruption salvaged 4/5; garbage file errored cleanly".into())
    };
    match run() {
        Ok(detail) => ScenarioResult { name: "snapshot_corruption", passed: true, detail },
        Err(e) => ScenarioResult { name: "snapshot_corruption", passed: false, detail: e },
    }
}

/// Warm-restart scenario, run after the campaign server shut down and
/// wrote its snapshot: a fresh server warm-loads it; a truncated copy
/// still starts (salvaging); a garbage copy starts cold — none panic.
fn warm_restart_scenario(cfg: &ServeConfig, snap_path: &Path) -> ScenarioResult {
    let run = || -> Result<String, String> {
        faults::clear();
        if !snap_path.exists() {
            return Err(format!("shutdown snapshot missing at {}", snap_path.display()));
        }
        let warm = Server::new(cfg);
        let warm_len = warm.engine().cache().stats().len;
        if warm_len == 0 {
            return Err("warm restart loaded 0 plans from the shutdown snapshot".into());
        }
        let text =
            std::fs::read_to_string(snap_path).map_err(|e| format!("read snapshot: {e}"))?;
        let cut = text.len().saturating_sub(text.len() / 4).max(1);
        std::fs::write(snap_path, &text[..cut]).map_err(|e| format!("truncate: {e}"))?;
        let truncated = match contained(|| Server::new(cfg)) {
            Ok(s) => s.engine().cache().stats().len,
            Err(()) => return Err("truncated snapshot panicked server startup".into()),
        };
        std::fs::write(snap_path, "@@ total garbage @@\n").map_err(|e| format!("garbage: {e}"))?;
        match contained(|| Server::new(cfg)) {
            Ok(s) if s.engine().cache().stats().len == 0 => {}
            Ok(s) => {
                return Err(format!(
                    "garbage snapshot produced {} cached plans",
                    s.engine().cache().stats().len
                ))
            }
            Err(()) => return Err("garbage snapshot panicked server startup".into()),
        }
        Ok(format!(
            "warm restart loaded {warm_len} plans; truncated copy salvaged {truncated}; \
             garbage copy started cold"
        ))
    };
    match run() {
        Ok(detail) => ScenarioResult { name: "warm_restart", passed: true, detail },
        Err(e) => ScenarioResult { name: "warm_restart", passed: false, detail: e },
    }
}

/// Runs the full campaign and returns the report (the CLI writes
/// `CHAOS.json` and sets the exit code from
/// [`ChaosReport::total_violations`]).
pub fn run(cfg: &ChaosConfig) -> Result<ChaosReport, String> {
    faults::clear();
    let pool = Pool::build(cfg.seed)?;
    let dir = std::env::temp_dir().join(format!("aqo-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("chaos tmp dir: {e}"))?;
    let snap_path: PathBuf = dir.join("serve-cache.snap");
    let serve_cfg = ServeConfig {
        threads: 2,
        max_inflight: 8,
        cache_capacity: 256,
        idle_timeout: None,
        default_timeout: None,
        conn_timeout: Duration::from_millis(20),
        read_deadline: Some(Duration::from_millis(400)),
        max_line_bytes: 4096,
        snapshot_path: Some(snap_path.clone()),
        // Chaos runs sample aggressively so the series rings exercise
        // wraparound under fault churn.
        obs_interval: Some(Duration::from_millis(50)),
        record: None,
    };
    let read_deadline = Duration::from_millis(400);
    let server = Server::new(&serve_cfg);
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("chaos listener: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("chaos listener addr: {e}"))?
        .to_string();
    let modes: [(FaultKind, &'static str); 3] = [
        (FaultKind::Error, "err"),
        (FaultKind::Panic, "panic"),
        (FaultKind::Delay(Duration::from_millis(cfg.delay_ms)), "delay"),
    ];
    let mut cells = Vec::with_capacity(CATALOG.len() * modes.len());
    let mut scenarios = Vec::new();
    let mut server_report = None;
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run(&listener));
        for site in CATALOG {
            for (kind, mode) in modes {
                let index = cells.len();
                let cell = if site.layer == "storage" {
                    run_storage_cell(site, mode, kind, cfg, &dir, index)
                } else {
                    run_server_cell(&addr, site, mode, kind, cfg, &pool, index)
                };
                cells.push(cell);
            }
        }
        scenarios.push(slow_loris_scenario(&addr, read_deadline));
        scenarios.push(oversized_scenario(&addr, serve_cfg.max_line_bytes));
        scenarios.push(snapshot_corruption_scenario(&dir));
        faults::clear();
        let mut sd = Request::new(Op::Shutdown, Problem::Qon);
        sd.id = 999_999;
        let _ = crate::client::oneshot(&addr, &sd);
        if let Ok(Ok(report)) = handle.join() {
            server_report = Some(report.to_json_untimed());
        }
    });
    scenarios.push(warm_restart_scenario(&serve_cfg, &snap_path));
    let _ = std::fs::remove_file(&snap_path);
    let _ = std::fs::remove_dir(&dir);
    let report = ChaosReport {
        seed: cfg.seed,
        requests_per_cell: cfg.requests_per_cell,
        fault_count: cfg.fault_count,
        cells,
        scenarios,
        server_report,
    };
    if aqo_obs::enabled() {
        aqo_obs::counter_handle!("chaos.cells").add(report.cells.len() as u64);
        aqo_obs::counter_handle!("chaos.requests")
            .add(report.cells.iter().map(|c| c.requests).sum::<usize>() as u64);
        aqo_obs::counter_handle!("chaos.violations").add(report.total_violations() as u64);
        aqo_obs::journal::event(
            "chaos_campaign",
            vec![
                ("cells", report.cells.len().into()),
                ("violations", report.total_violations().into()),
                ("pool_intact", report.pool_intact().into()),
            ],
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalog_site_has_a_template() {
        for site in CATALOG {
            let (problem, fallback, _) = template(site.site);
            // Driver sites pin a chain that starts at the faulted tier so
            // the fault actually fires; everything else rides the default.
            if site.layer == "driver" {
                assert!(fallback.is_some(), "{} should pin its chain", site.site);
            }
            assert!(matches!(problem, Problem::Qon | Problem::Qoh));
        }
    }

    #[test]
    fn report_json_is_parseable_and_counts_violations() {
        let site = &CATALOG[0];
        let mut cell = CellResult::new(site, "err");
        cell.requests = 4;
        cell.ok_exact = 2;
        cell.structured_errors = 2;
        cell.probe_ok = true;
        let mut bad = CellResult::new(&CATALOG[1], "panic");
        bad.requests = 1;
        bad.probe_ok = true;
        bad.violations.push("req 0: exact reply cost \"9\" != oracle 7".into());
        let report = ChaosReport {
            seed: 42,
            requests_per_cell: 4,
            fault_count: 2,
            cells: vec![cell, bad],
            scenarios: vec![ScenarioResult {
                name: "slow_loris",
                passed: true,
                detail: "evicted".into(),
            }],
            server_report: Some("{\"reason\": \"shutdown\"}".into()),
        };
        assert_eq!(report.total_violations(), 1);
        assert!(report.pool_intact());
        let doc = json::parse(&report.to_json()).expect("CHAOS.json parses");
        assert_eq!(doc.get("schema").and_then(JsonValue::as_str), Some("aqo-chaos/v1"));
        assert_eq!(doc.get("cells").and_then(JsonValue::as_arr).map(<[_]>::len), Some(2));
        let totals = doc.get("totals").expect("totals");
        assert_eq!(totals.get("violations").and_then(JsonValue::as_num), Some(1.0));
    }

    #[test]
    fn storage_cache_is_deterministic() {
        let a = storage_cache(4);
        let b = storage_cache(4);
        assert_eq!(a.export().len(), 4);
        let mut ka: Vec<String> = a.export().into_iter().map(|(k, _)| k).collect();
        let mut kb: Vec<String> = b.export().into_iter().map(|(k, _)| k).collect();
        ka.sort();
        kb.sort();
        assert_eq!(ka, kb);
    }
}

//! `aqo` — command-line front end for the library.
//!
//! Every command is one row of [`COMMANDS`]; `aqo --help` lists them and
//! `aqo <command> --help` prints one. Instances use the text formats of
//! `aqo_core::textio` (`.qon`, `.qoh`), DIMACS CNF for formulas and DIMACS
//! edge format for graphs. `--threads` is 1 (sequential) by default, 0 for
//! one worker per hardware thread and at most [`MAX_THREADS`]; every count
//! finds the same optimum. `AQO_FAULTS` arms the fault-injection sites of
//! [`aqo_obs::faults`].

use aqo_bench::cli::{self, read_file, write_file, Args, CliError, Command, Run};
use aqo_bench::{out, outln};
use aqo_bignum::{BigRational, BigUint};
use aqo_core::budget::run_unlimited;
use aqo_core::parallel::MAX_THREADS;
use aqo_core::{textio, workloads, CostScalar};
use aqo_driver::{BudgetSpec, QohDriverConfig, QohTier, QonDriverConfig, QonTier};
use aqo_obs::faults;
use aqo_optimizer::{engine, exhaustive, genetic, greedy, ikkbz, local_search, pipeline};
use aqo_serve::chaos::ChaosConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::time::Duration;

/// Every `aqo` command: its words, its synopsis (the only declaration of
/// its flags and operands) and its handler.
static COMMANDS: &[Command] = &[
    Command {
        path: &["gen"],
        synopsis: "<chain|star|snowflake|cycle|clique|grid> <n> [seed]  # emit a .qon instance",
        run: Run::Args(cmd_gen),
    },
    Command {
        path: &["optimize"],
        synopsis: "<file.qon> [--method dp|ccp|exhaustive|greedy|ikkbz|sa|ga] [--no-cartesian] \
                   [--explain]\n[--threads <n>] [--timeout-ms <n>] [--max-expansions <n>] \
                   [--fallback <tier,tier,...>]\n[--metrics] [--trace-json <path>] \
                   [--report-json <path>]",
        run: Run::Args(cmd_optimize),
    },
    Command {
        path: &["optimize-qoh"],
        synopsis: "<file.qoh> [--method exhaustive|greedy] [--explain]\n[--threads <n>] \
                   [--timeout-ms <n>] [--max-expansions <n>] [--fallback <tier,tier,...>]\n\
                   [--metrics] [--trace-json <path>] [--report-json <path>]",
        run: Run::Args(cmd_optimize_qoh),
    },
    Command {
        path: &["serve"],
        synopsis: "[--addr <host:port>] [--stdio] [--threads <n>] [--max-inflight <n>]\n\
                   [--cache-cap <n>] [--idle-timeout-ms <n>] [--default-timeout-ms <n>]\n\
                   [--conn-timeout-ms <n>] [--read-deadline-ms <n>] [--max-line-bytes <n>]\n\
                   [--cache-snapshot <path>] [--obs-interval-ms <n>] [--record <path>]\n\
                   [--metrics] [--trace-json <path>] [--report-json <path>]\n\
                   # JSONL optimization service (docs/SERVING.md)",
        run: Run::Args(cmd_serve),
    },
    Command {
        path: &["request"],
        synopsis:
            "<addr> <optimize|explain|optimize-qoh|explain-qoh|clique|status|metrics|shutdown> \
             [file]\n[--id <n>] [--method <tier>] [--fallback <tier,tier,...>] [--timeout-ms <n>]\n\
             [--max-expansions <n>] [--threads <n>] [--no-cartesian] [--no-cache]",
        run: Run::Args(cmd_request),
    },
    Command {
        path: &["loadgen"],
        synopsis: "[--addr <host:port>] [--requests <n>] [--concurrency <n>]\n\
                   [--mix qon|qoh|mixed] [--pool <n>] [--seed <n>] [--record <path>]\n\
                   # check a live server's answers against the sequential driver",
        run: Run::Args(cmd_loadgen),
    },
    Command {
        path: &["chaos"],
        synopsis: "[--quick] [--requests <n>] [--fault-count <n>] [--seed <n>] [--out <path>]\n\
                   [--metrics] [--trace-json <path>]  # fault campaign, writes CHAOS.json \
                   (docs/ROBUSTNESS.md)",
        run: Run::Args(cmd_chaos),
    },
    Command {
        path: &["replay", "extract"],
        synopsis: "<journal.jsonl> [--out <path>]  # journal -> aqo-workload/v1",
        run: Run::Args(cmd_replay_extract),
    },
    Command {
        path: &["replay", "run"],
        synopsis: "<workload.jsonl> [--addr <host:port>] [--out <path>]\n\
                   [--metrics] [--trace-json <path>]  # re-drive + diff, exit 1 on regression",
        run: Run::Args(cmd_replay_run),
    },
    Command {
        path: &["replay", "validate"],
        synopsis: "[workload.jsonl] [--quick] [--instance <file.qon>] [--trials <n>]\n\
                   [--tolerance <f>] [--min-gap-log2 <f>] [--seed <n>] [--max-rows <n>]\n\
                   [--json] [--out <path>]  # execution-backed ordering gate (docs/REPLAY.md)",
        run: Run::Args(cmd_replay_validate),
    },
    Command {
        path: &["exec", "validate"],
        synopsis: "<file.qon> [--trials <n>] [--seed <n>] [--json] [--out <path>]\n\
                   # model-vs-measured calibration",
        run: Run::Args(cmd_exec_validate),
    },
    Command {
        path: &["trace-check"],
        synopsis: "<trace.jsonl>  # validate a --trace-json journal",
        run: Run::Args(cmd_trace_check),
    },
    Command {
        path: &["trace", "view"],
        synopsis: "<trace.jsonl>  # render per-request span trees",
        run: Run::Args(cmd_trace_view),
    },
    Command {
        path: &["top"],
        synopsis: "[--addr <host:port>] [--once] [--json] [--interval-ms <n>]\n\
                   # live dashboard from the `metrics` op",
        run: Run::Args(cmd_top),
    },
    // The linter front end owns its flags and exit codes; findings are
    // expected output, so no usage text follows them.
    Command {
        path: &["analyze"],
        synopsis: "[--json] [--root <dir>] [--rule <id>] [--explain <id>]\n\
                   # invariant linter (docs/ANALYSIS.md): exit 0 clean, 1 findings, 2 bad flags",
        run: Run::Own(|args| aqo_analyze::cli_main(args) as u8),
    },
    Command {
        path: &["reduce-3sat"],
        synopsis: "<file.cnf> [--a <int>] [--e <int>]  # Lemma 3 + f_N chain",
        run: Run::Args(cmd_reduce_3sat),
    },
    Command {
        path: &["clique"],
        synopsis: "<file.dimacs>  # exact max clique",
        run: Run::Args(cmd_clique),
    },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cli::main("aqo", Some(env!("CARGO_PKG_VERSION")), COMMANDS, &args)
}

/// The count `flag` gives, or `default`: `--threads`, or `--concurrency`,
/// which opens one thread per connection. Refused past [`MAX_THREADS`]
/// before any work starts.
fn capped_count(args: &Args, flag: &str, default: usize) -> Result<usize, CliError> {
    match args.u64(flag)? {
        Some(t) if t > MAX_THREADS as u64 => {
            Err(CliError::Usage(format!("{flag} {t} is over the limit of {MAX_THREADS}")))
        }
        t => Ok(t.map_or(default, |t| t as usize)),
    }
}

/// Whether `--metrics` or `--trace-json` asks for collection. Callers
/// switch it on once the instance is parsed, so a usage error never
/// leaves obs half-armed.
fn collecting(args: &Args) -> bool {
    args.flag("--metrics") || args.flag("--trace-json")
}

/// The budget `optimize`/`optimize-qoh` run the budgeted driver under,
/// when they route through it: on a budget, `--fallback` or
/// `--report-json`, and on `--metrics`/`--trace-json` without `--method`
/// (so tier events reach the trace). The strongest tier runs under the
/// budget and failures degrade down the fallback chain. `None` runs
/// `--method` directly.
fn driver_budget(args: &Args) -> Result<Option<BudgetSpec>, CliError> {
    let budget = BudgetSpec {
        timeout: args.u64("--timeout-ms")?.map(Duration::from_millis),
        max_expansions: args.u64("--max-expansions")?,
        max_memory_bytes: None,
    };
    let routed = ["--timeout-ms", "--max-expansions", "--fallback", "--report-json"];
    let routed = routed.iter().any(|f| args.flag(f));
    Ok((routed || (collecting(args) && !args.flag("--method"))).then_some(budget))
}

/// Prints the driver's report to stderr and writes it to `--report-json`.
fn driver_report(args: &Args, report: &aqo_driver::DriverReport) -> Result<(), CliError> {
    eprintln!("driver: {report}");
    args.value("--report-json").map_or(Ok(()), |path| write_file(path, report.to_json()))
}

/// Flushes the journal to `--trace-json` and the summary table to stderr
/// for `--metrics`, after the command ran.
fn finish_obs(args: &Args) -> Result<(), CliError> {
    if let Some(path) = args.value("--trace-json") {
        write_file(path, aqo_obs::journal::to_jsonl(&aqo_obs::journal::drain()))?;
    }
    if args.flag("--metrics") {
        eprint!("{}", aqo_obs::render_summary());
    }
    Ok(())
}

fn cmd_gen(args: &Args) -> Result<(), CliError> {
    let n: usize = args.operand(1).parse().map_err(|_| CliError::Usage("gen: bad size".into()))?;
    let seed: u64 = match args.operand(2) {
        "" => 0,
        s => s.parse().map_err(|_| CliError::Usage("gen: bad seed".into()))?,
    };
    let params = workloads::WorkloadParams::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let inst = match args.operand(0) {
        "chain" => workloads::chain(n, &params, &mut rng),
        "star" => workloads::star(n, &params, &mut rng),
        "snowflake" => workloads::snowflake(n.max(1), 2, &params, &mut rng),
        "cycle" => workloads::cycle(n, &params, &mut rng),
        "clique" => workloads::clique(n, &params, &mut rng),
        "grid" => workloads::grid(n.div_ceil(2), 2, &params, &mut rng),
        other => return Err(CliError::Usage(format!("gen: unknown shape {other}"))),
    };
    out!("{}", textio::qon_to_text(&inst))?;
    Ok(())
}

fn cmd_optimize(args: &Args) -> Result<(), CliError> {
    let path = args.operand(0);
    // Flags are validated before the file is touched: a malformed
    // invocation is a usage error regardless of what the operand holds.
    let method = args.value("--method").unwrap_or("dp");
    let allow_cartesian = !args.flag("--no-cartesian");
    let threads = capped_count(args, "--threads", 1)?;
    let budget = driver_budget(args)?;
    let inst = textio::qon_from_text(&read_file(path)?).map_err(|e| CliError::parse(path, e))?;
    if collecting(args) {
        aqo_obs::set_enabled(true);
    }

    let (label, sequence): (String, aqo_core::JoinSequence) = if let Some(budget) = budget {
        let chain =
            args.value("--fallback").map_or(Ok(QonTier::default_chain()), QonTier::parse_chain);
        let chain = chain.map_err(|e| CliError::Usage(format!("--fallback: {e}")))?;
        let cfg = QonDriverConfig { budget, chain, allow_cartesian, threads, ..Default::default() };
        let outcome = aqo_driver::optimize_qon(&inst, &cfg).map_err(CliError::failed)?;
        driver_report(args, &outcome.report)?;
        (format!("driver ({} tier)", outcome.report.tier), outcome.optimum.sequence)
    } else {
        let mut rng = StdRng::seed_from_u64(0);
        let (label, sequence) = match method {
            "dp" | "ccp" | "exhaustive" if inst.n() > method_max_n(method, allow_cartesian) => {
                return Err(CliError::Failed(format!(
                    "--method {method} handles n <= {} (instance has n = {}); \
                     use a polynomial method (greedy|ikkbz|sa|ga)",
                    method_max_n(method, allow_cartesian),
                    inst.n(),
                )));
            }
            "dp" | "ccp" => {
                let opts = engine::DpOptions { allow_cartesian, threads };
                let o = run_unlimited(|b| {
                    engine::optimize_two_phase::<BigRational>(&inst, &opts, b)
                })
                .ok_or_else(|| CliError::Failed("no cartesian-free sequence exists".into()))?;
                ("exact (two-phase subset DP)", o.sequence)
            }
            "exhaustive" => {
                ("exact (exhaustive)", exhaustive::optimize::<BigRational>(&inst).sequence)
            }
            "greedy" => (
                "greedy min-intermediate",
                greedy::min_intermediate(&inst, allow_cartesian)
                    .ok_or_else(|| CliError::Failed("greedy got stuck".into()))?,
            ),
            "ikkbz" => ("IKKBZ (trees)", ikkbz::optimize(&inst).sequence),
            "sa" => (
                "simulated annealing",
                local_search::simulated_annealing(
                    &inst,
                    &local_search::SaParams::default(),
                    &mut rng,
                ),
            ),
            "ga" => ("genetic", genetic::optimize(&inst, &genetic::GaParams::default(), &mut rng)),
            other => return Err(CliError::Usage(format!("optimize: unknown method {other}"))),
        };
        (label.to_string(), sequence)
    };

    let cost: BigRational = inst.total_cost(&sequence);
    outln!("method : {label}")?;
    outln!("order  : {:?}", sequence.order())?;
    outln!("cost   : {cost}")?;
    outln!("log2   : {:.3}", CostScalar::log2(&cost))?;
    if args.flag("--explain") {
        outln!()?;
        out!("{}", aqo_core::explain::explain_qon(&inst, &sequence))?;
    }
    finish_obs(args)
}

/// Largest `n` each exact method accepts; beyond it the CLI rejects with
/// a structured error instead of letting mask arithmetic wrap or an
/// internal assert panic. `dp` and `ccp` name the one engine, capped by
/// the request's mode.
fn method_max_n(method: &str, allow_cartesian: bool) -> usize {
    match method {
        "dp" | "ccp" => engine::max_n(allow_cartesian),
        "exhaustive" => exhaustive::MAX_N,
        _ => usize::MAX,
    }
}

fn cmd_optimize_qoh(args: &Args) -> Result<(), CliError> {
    let path = args.operand(0);
    let method = args.value("--method").unwrap_or("greedy");
    let threads = capped_count(args, "--threads", 1)?;
    let budget = driver_budget(args)?;
    let inst = textio::qoh_from_text(&read_file(path)?).map_err(|e| CliError::parse(path, e))?;
    if collecting(args) {
        aqo_obs::set_enabled(true);
    }

    let (label, plan): (String, pipeline::QohPlan) = if let Some(budget) = budget {
        let chain =
            args.value("--fallback").map_or(Ok(QohTier::default_chain()), QohTier::parse_chain);
        let chain = chain.map_err(|e| CliError::Usage(format!("--fallback: {e}")))?;
        let cfg = QohDriverConfig { budget, chain, threads, ..QohDriverConfig::default() };
        let outcome = aqo_driver::optimize_qoh(&inst, &cfg).map_err(CliError::failed)?;
        driver_report(args, &outcome.report)?;
        (format!("driver ({} tier)", outcome.report.tier), outcome.plan)
    } else {
        let plan = match method {
            "exhaustive" if inst.n() > pipeline::MAX_N => {
                return Err(CliError::Failed(format!(
                    "--method exhaustive handles n <= {} (instance has n = {}); \
                     use --method greedy",
                    pipeline::MAX_N,
                    inst.n(),
                )));
            }
            "exhaustive" => {
                run_unlimited(|b| pipeline::optimize_exhaustive_par_with_budget(&inst, threads, b))
            }
            "greedy" => pipeline::optimize_greedy(&inst),
            other => return Err(CliError::Usage(format!("optimize-qoh: unknown method {other}"))),
        }
        .ok_or_else(|| CliError::Failed("no feasible plan under the memory budget".into()))?;
        (method.to_string(), plan)
    };

    outln!("method        : {label}")?;
    outln!("order         : {:?}", plan.sequence.order())?;
    outln!("decomposition : {:?}", plan.decomposition.fragments())?;
    outln!("cost          : {}", plan.cost)?;
    outln!("log2          : {:.3}", plan.cost.log2())?;
    if args.flag("--explain") {
        if let Some(text) =
            aqo_core::explain::explain_qoh(&inst, &plan.sequence, &plan.decomposition)
        {
            outln!()?;
            out!("{text}")?;
        }
    }
    finish_obs(args)
}

/// Validates a `--trace-json` journal: every nonempty line must parse as a
/// JSON object carrying a `type` field, and a healthy optimize trace must
/// contain at least one `span` event. `tier_start` is only required when
/// the journal carries driver events at all — an explicit `--method` run
/// bypasses the tier chain and legitimately journals no driver activity.
/// Prints per-type event counts; exits nonzero on any violation.
fn cmd_trace_check(args: &Args) -> Result<(), CliError> {
    let path = args.operand(0);
    let text = read_file(path)?;
    let mut counts: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    let mut total = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = aqo_obs::json::parse(line)
            .map_err(|e| CliError::parse(path, format!("line {}: {e}", i + 1)))?;
        let etype = doc.get("type").and_then(|v| v.as_str()).ok_or_else(|| {
            CliError::parse(path, format!("line {}: event has no `type` field", i + 1))
        })?;
        *counts.entry(etype.to_string()).or_insert(0) += 1;
        total += 1;
    }
    for (etype, n) in &counts {
        outln!("{etype:<18} {n}")?;
    }
    outln!("{:<18} {total}", "total")?;
    let driver_routed = ["tier_start", "tier_failure", "retry", "fallback", "fault_injected"]
        .iter()
        .any(|etype| counts.contains_key(*etype));
    for required in ["span"].into_iter().chain(driver_routed.then_some("tier_start")) {
        if counts.get(required).copied().unwrap_or(0) == 0 {
            return Err(CliError::parse(path, format!("journal has no `{required}` events")));
        }
    }
    // Schema-v2 nesting check: balanced span_start/span pairs, no orphan
    // parents, no cross-trace references. A journal with no trace context
    // (schema v1, or collection off) passes with a zero report.
    let report = aqo_obs::traceview::check(&text).map_err(|e| CliError::parse(path, e))?;
    if report.traces > 0 {
        outln!(
            "traces {} spans {} traced-events {}",
            report.traces, report.spans, report.traced_events
        )?;
    }
    outln!("ok")?;
    Ok(())
}

/// `aqo trace view <journal>` — reconstructs the per-request span trees
/// from a schema-v2 journal and prints them with self/total times and the
/// critical path marked.
fn cmd_trace_view(args: &Args) -> Result<(), CliError> {
    let path = args.operand(0);
    let rendered =
        aqo_obs::traceview::render(&read_file(path)?).map_err(|e| CliError::parse(path, e))?;
    if rendered.is_empty() {
        outln!("(no traced spans in journal)")?;
    } else {
        out!("{rendered}")?;
    }
    Ok(())
}

/// One decoded `metrics` reply, reduced to what the dashboard shows.
struct TopSnapshot {
    uptime_us: u64,
    workers: u64,
    queue_depth: u64,
    executing: u64,
    max_inflight: u64,
    accepting: bool,
    /// Total requests accepted (sum of `serve.requests.*` counters).
    requests: u64,
    ok: u64,
    errors: u64,
    overloaded: u64,
    degraded: u64,
    cache_hits: u64,
    cache_misses: u64,
    /// `(tier name, success count)` from `driver.tier_success.<tier>`.
    tiers: Vec<(String, u64)>,
    /// `serve.request_us` quantiles: (p50, p99), when any request ran.
    latency: Option<(u64, u64)>,
}

impl TopSnapshot {
    fn parse(line: &str) -> Result<TopSnapshot, String> {
        use aqo_obs::json::JsonValue;
        let doc = aqo_obs::json::parse(line)?;
        let num =
            |v: Option<&JsonValue>| -> u64 { v.and_then(|v| v.as_num()).unwrap_or(0.0) as u64 };
        let counters = doc.get("counters").ok_or("reply has no `counters` object")?;
        let counter = |name: &str| num(counters.get(name));
        let mut requests = 0u64;
        let mut tiers = Vec::new();
        if let JsonValue::Obj(fields) = counters {
            for (k, v) in fields {
                if let Some(tier) = k.strip_prefix("driver.tier_success.") {
                    tiers.push((tier.to_string(), num(Some(v))));
                } else if k.starts_with("serve.requests.") {
                    requests += num(Some(v));
                }
            }
        }
        let latency = doc
            .get("histograms")
            .and_then(|h| h.get("serve.request_us"))
            .map(|h| (num(h.get("p50")), num(h.get("p99"))));
        Ok(TopSnapshot {
            uptime_us: num(doc.get("uptime_us")),
            workers: num(doc.get("workers")),
            queue_depth: num(doc.get("queue_depth")),
            executing: num(doc.get("executing")),
            max_inflight: num(doc.get("max_inflight")),
            accepting: matches!(doc.get("accepting"), Some(JsonValue::Bool(true))),
            requests,
            ok: counter("serve.responses.ok"),
            errors: counter("serve.responses.error"),
            overloaded: counter("serve.overloaded"),
            degraded: counter("serve.degraded"),
            cache_hits: counter("serve.cache.hits"),
            cache_misses: counter("serve.cache.misses"),
            tiers,
            latency,
        })
    }

    /// Renders the dashboard; `prev` (previous poll) turns counter totals
    /// into rates over the polling interval.
    fn render(&self, prev: Option<&TopSnapshot>) -> String {
        let uptime_s = self.uptime_us as f64 / 1e6;
        let rps = match prev {
            Some(p) if self.uptime_us > p.uptime_us => {
                (self.requests.saturating_sub(p.requests)) as f64
                    / ((self.uptime_us - p.uptime_us) as f64 / 1e6)
            }
            _ => self.requests as f64 / uptime_s.max(1e-9),
        };
        let lookups = self.cache_hits + self.cache_misses;
        let hit_rate = if lookups == 0 { 0.0 } else { self.cache_hits as f64 / lookups as f64 };
        let mut out = format!(
            "uptime {uptime_s:8.1}s   workers {}   accepting {}\n\
             requests {}   ok {}   errors {}   rps {rps:.1}\n\
             queue {} / inflight {} (max {})   overloaded {}   degraded {}\n\
             cache hits {}   misses {}   hit-rate {hit_rate:.2}\n",
            self.workers,
            self.accepting,
            self.requests,
            self.ok,
            self.errors,
            self.queue_depth,
            self.executing,
            self.max_inflight,
            self.overloaded,
            self.degraded,
            self.cache_hits,
            self.cache_misses,
        );
        match self.latency {
            Some((p50, p99)) => out.push_str(&format!("latency p50 {p50}us   p99 {p99}us\n")),
            None => out.push_str("latency (no requests yet)\n"),
        }
        for (tier, n) in &self.tiers {
            out.push_str(&format!("tier {tier:<12} {n}\n"));
        }
        out
    }
}

/// `aqo top` — polls a live server's `metrics` op and renders a terminal
/// dashboard. `--once` polls a single time; `--json` prints the raw
/// metrics reply instead of the rendered view (for scripts/CI).
fn cmd_top(args: &Args) -> Result<(), CliError> {
    let addr = args.value("--addr").unwrap_or("127.0.0.1:7878");
    let (once, json) = (args.flag("--once"), args.flag("--json"));
    let interval = Duration::from_millis(args.u64("--interval-ms")?.unwrap_or(1000).max(50));
    let poll = || -> Result<String, CliError> {
        let mut req = aqo_serve::Request::new(aqo_serve::Op::Metrics, aqo_serve::Problem::Qon);
        req.id = 0;
        aqo_serve::client::oneshot(addr, &req).map_err(|e| CliError::io(addr, e))
    };
    let mut prev: Option<TopSnapshot> = None;
    loop {
        let line = poll()?;
        if json {
            outln!("{line}")?;
        } else {
            let snap = TopSnapshot::parse(&line)
                .map_err(|e| CliError::Failed(format!("bad metrics reply: {e}")))?;
            if !once {
                // ANSI clear-screen + home, like `top`.
                out!("\x1b[2J\x1b[H")?;
            }
            outln!("aqo top — {addr}")?;
            out!("{}", snap.render(prev.as_ref()))?;
            prev = Some(snap);
        }
        if once {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

fn cmd_reduce_3sat(args: &Args) -> Result<(), CliError> {
    let path = args.operand(0);
    let (a, e) = (args.u64("--a")?.unwrap_or(4), args.u64("--e")?);
    let f =
        aqo_sat::dimacs::from_dimacs(&read_file(path)?).map_err(|e| CliError::parse(path, e))?;
    if !f.is_3cnf() {
        return Err(CliError::Failed("formula is not 3CNF".into()));
    }
    let red_g = aqo_reductions::clique_reduction::sat_to_clique(&f);
    eprintln!(
        "Lemma 3: {} vars, {} clauses -> graph with {} vertices ({} when satisfiable)",
        f.num_vars(),
        f.num_clauses(),
        red_g.graph.n(),
        red_g.satisfiable_omega
    );
    let e = e.unwrap_or(red_g.satisfiable_omega as u64 - 2);
    let red = aqo_reductions::fn_reduction::reduce(&red_g.graph, &BigUint::from(a), e);
    eprintln!(
        "f_N: a = {a}, e = {e}; K(a,e) has {} bits",
        aqo_reductions::fn_reduction::k_bound(&BigUint::from(a), e).bits()
    );
    out!("{}", textio::qon_to_text(&red.instance))?;
    Ok(())
}

fn cmd_clique(args: &Args) -> Result<(), CliError> {
    let path = args.operand(0);
    let g = aqo_graph::io::from_dimacs(&read_file(path)?).map_err(|e| CliError::parse(path, e))?;
    let upper = aqo_graph::coloring::clique_upper_bound(&g);
    let c = aqo_graph::clique::max_clique(&g);
    outln!("n      : {}", g.n())?;
    outln!("m      : {}", g.m())?;
    outln!("omega  : {}", c.len())?;
    outln!("bound  : {upper} (colouring/degeneracy upper bound)")?;
    outln!("clique : {c:?}")?;
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let addr = args.value("--addr").unwrap_or("127.0.0.1:7878");
    let stdio = args.flag("--stdio");
    let record_path = args.value("--record");
    let record_sink = record_path.map(|_| aqo_serve::record::new_sink());
    let defaults = aqo_serve::ServeConfig::default();
    let cfg = aqo_serve::ServeConfig {
        threads: capped_count(args, "--threads", 4)?,
        max_inflight: args.u64("--max-inflight")?.map_or(64, |v| v as usize),
        cache_capacity: args.u64("--cache-cap")?.map_or(1024, |v| v as usize),
        idle_timeout: args.u64("--idle-timeout-ms")?.map(Duration::from_millis),
        default_timeout: args.u64("--default-timeout-ms")?.map(Duration::from_millis),
        conn_timeout: args
            .u64("--conn-timeout-ms")?
            .map_or(defaults.conn_timeout, Duration::from_millis),
        // 0 disables the slow-loris deadline (trusted-client deployments).
        read_deadline: match args.u64("--read-deadline-ms")? {
            None => defaults.read_deadline,
            Some(0) => None,
            Some(ms) => Some(Duration::from_millis(ms)),
        },
        max_line_bytes: args
            .u64("--max-line-bytes")?
            .map_or(defaults.max_line_bytes, |v| v as usize),
        snapshot_path: args.value("--cache-snapshot").map(std::path::PathBuf::from),
        // 0 disables the time-series sampler; stdio mode never samples.
        obs_interval: match args.u64("--obs-interval-ms")? {
            _ if stdio => None,
            Some(0) => None,
            Some(ms) => Some(Duration::from_millis(ms)),
            None => defaults.obs_interval,
        },
        record: record_sink.clone(),
    };
    // A server always keeps the metric registry live so the `metrics` op
    // and `aqo top` have data; the journal (which grows without bound) is
    // only captured when `--trace-json` asks for it.
    aqo_obs::set_enabled(true);
    aqo_obs::journal::set_capture(args.flag("--trace-json"));
    let server = aqo_serve::Server::new(&cfg);
    let report = if stdio {
        server.run_stdio()
    } else {
        let listener = std::net::TcpListener::bind(addr).map_err(|e| CliError::io(addr, e))?;
        // Printed before the accept loop so scripts binding port 0 can
        // scrape the assigned port.
        match listener.local_addr() {
            Ok(local) => eprintln!("serve: listening on {local}"),
            Err(_) => eprintln!("serve: listening on {addr}"),
        }
        server.run(&listener).map_err(|e| CliError::io(addr, e))?
    };
    eprintln!("serve: {report}");
    if let (Some(path), Some(sink)) = (record_path, &record_sink) {
        let entries = aqo_serve::record::drain(sink);
        let workload = aqo_replay::Workload::new("serve", None, entries);
        write_file(path, workload.to_jsonl())?;
        eprintln!("serve: recorded {} request(s) to {path}", workload.entries.len());
    }
    if let Some(path) = args.value("--report-json") {
        write_file(path, report.to_json())?;
    }
    finish_obs(args)
}

fn cmd_request(args: &Args) -> Result<(), CliError> {
    use aqo_serve::{Op, Problem};
    let (addr, verb) = (args.operand(0), args.operand(1));
    let (op, problem) = match verb {
        "optimize" => (Op::Optimize, Problem::Qon),
        "explain" => (Op::Explain, Problem::Qon),
        "optimize-qoh" => (Op::Optimize, Problem::Qoh),
        "explain-qoh" => (Op::Explain, Problem::Qoh),
        "clique" => (Op::Optimize, Problem::Clique),
        "status" => (Op::Status, Problem::Qon),
        "metrics" => (Op::Metrics, Problem::Qon),
        "shutdown" => (Op::Shutdown, Problem::Qon),
        other => return Err(CliError::Usage(format!("request: unknown operation `{other}`"))),
    };
    let mut req = aqo_serve::Request::new(op, problem);
    req.id = args.u64("--id")?.unwrap_or(1);
    if matches!(op, Op::Optimize | Op::Explain) {
        match args.operand(2) {
            "" => return Err(CliError::Usage(format!("request: `{verb}` needs an instance file"))),
            path => req.instance = Some(read_file(path)?),
        }
    }
    req.method = args.value("--method").map(str::to_string);
    req.fallback = args.value("--fallback").map(str::to_string);
    if req.method.is_some() && req.fallback.is_some() {
        return Err(CliError::Usage(
            "request: --method and --fallback are mutually exclusive".into(),
        ));
    }
    req.timeout_ms = args.u64("--timeout-ms")?;
    req.max_expansions = args.u64("--max-expansions")?;
    req.threads = capped_count(args, "--threads", 1)?;
    req.allow_cartesian = !args.flag("--no-cartesian");
    req.use_cache = !args.flag("--no-cache");
    let line = aqo_serve::client::oneshot(addr, &req).map_err(|e| CliError::io(addr, e))?;
    outln!("{line}")?;
    let doc = aqo_obs::json::parse(&line)
        .map_err(|e| CliError::Failed(format!("unparseable response: {e}")))?;
    if !matches!(doc.get("ok"), Some(aqo_obs::json::JsonValue::Bool(true))) {
        let error = doc.get("error");
        let kind = error.and_then(|e| e.get("kind")).and_then(|v| v.as_str()).unwrap_or("unknown");
        let msg = error.and_then(|e| e.get("message")).and_then(|v| v.as_str()).unwrap_or("");
        return Err(CliError::Failed(format!("server error ({kind}): {msg}")));
    }
    Ok(())
}

fn cmd_chaos(args: &Args) -> Result<(), CliError> {
    let mut cfg = if args.flag("--quick") { ChaosConfig::quick() } else { ChaosConfig::default() };
    cfg.requests_per_cell =
        args.u64("--requests")?.map_or(cfg.requests_per_cell, |n| (n as usize).max(1));
    cfg.fault_count = args.u64("--fault-count")?.map_or(cfg.fault_count, |n| n.max(1));
    cfg.seed = args.u64("--seed")?.unwrap_or(cfg.seed);
    let out = args.value("--out").unwrap_or("CHAOS.json");
    if collecting(args) {
        aqo_obs::set_enabled(true);
    }
    eprintln!(
        "chaos: sweeping {} fault sites x 3 modes, {} request(s)/cell, {} fire(s)/site",
        faults::CATALOG.len(),
        cfg.requests_per_cell,
        cfg.fault_count,
    );
    let report = aqo_serve::chaos::run(&cfg).map_err(CliError::Failed)?;
    write_file(out, report.to_json())?;
    for cell in &report.cells {
        for v in &cell.violations {
            eprintln!("chaos: VIOLATION {}[{}]: {v}", cell.site, cell.mode);
        }
    }
    for s in &report.scenarios {
        let verdict = if s.passed { "pass" } else { "FAIL" };
        outln!("scenario {:<20} {verdict} — {}", s.name, s.detail)?;
    }
    outln!(
        "cells={} requests={} violations={} pool_intact={}",
        report.cells.len(),
        report.cells.iter().map(|c| c.requests).sum::<usize>(),
        report.total_violations(),
        report.pool_intact(),
    )?;
    outln!("wrote {out}")?;
    finish_obs(args)?;
    if report.total_violations() > 0 {
        return Err(CliError::Failed(format!(
            "chaos: {} invariant violation(s)",
            report.total_violations()
        )));
    }
    Ok(())
}

fn cmd_loadgen(args: &Args) -> Result<(), CliError> {
    let mut cfg = aqo_serve::loadgen::LoadgenConfig::default();
    cfg.addr = args.value("--addr").map_or(cfg.addr, str::to_string);
    cfg.requests = args.u64("--requests")?.map_or(cfg.requests, |n| n as usize);
    cfg.concurrency = capped_count(args, "--concurrency", cfg.concurrency)?;
    if let Some(m) = args.value("--mix") {
        cfg.mix = aqo_serve::loadgen::Mix::parse(m)
            .ok_or_else(|| CliError::Usage(format!("bad --mix `{m}` (qon|qoh|mixed)")))?;
    }
    cfg.pool = args.u64("--pool")?.map_or(cfg.pool, |p| p as usize);
    cfg.seed = args.u64("--seed")?.unwrap_or(cfg.seed);
    let record_path = args.value("--record");
    cfg.record = record_path.is_some();
    let report = aqo_serve::loadgen::run(&cfg).map_err(CliError::Failed)?;
    if let Some(path) = record_path {
        let workload = aqo_replay::Workload::new("loadgen", Some(cfg.seed), report.recorded);
        write_file(path, workload.to_jsonl())?;
        outln!("recorded {} request(s) to {path}", workload.entries.len())?;
    }
    outln!(
        "requests={} errors={} wrong_cost={} degraded={} cached={}",
        report.requests,
        report.errors,
        report.wrong_cost,
        report.degraded,
        report.cached
    )?;
    // A wrong cost is the one thing a cache-fronted service must never
    // produce; an error, or a run that compared nothing, means the oracle
    // did not look.
    let checked = report.requests - report.errors - report.degraded;
    if report.wrong_cost > 0 || report.errors > 0 || checked == 0 {
        return Err(CliError::Failed(format!(
            "loadgen: {} wrong-cost response(s), {} error(s), {checked} answer(s) checked",
            report.wrong_cost, report.errors
        )));
    }
    Ok(())
}

fn cmd_replay_extract(args: &Args) -> Result<(), CliError> {
    let path = args.operand(0);
    let out = args.value("--out").unwrap_or("workload.jsonl");
    let (workload, stats) =
        aqo_replay::extract::extract(&read_file(path)?).map_err(|e| CliError::parse(path, e))?;
    write_file(out, workload.to_jsonl())?;
    outln!(
        "extracted {} request(s) to {out} (skipped: {} error, {} degraded, {} unreplayable, \
         {} unpaired)",
        stats.extracted,
        stats.skipped_errors,
        stats.skipped_degraded,
        stats.skipped_unreplayable,
        stats.skipped_unpaired
    )?;
    Ok(())
}

fn cmd_replay_run(args: &Args) -> Result<(), CliError> {
    let path = args.operand(0);
    let workload =
        aqo_replay::Workload::parse(&read_file(path)?).map_err(|e| CliError::parse(path, e))?;
    // Counters/spans are always live for a replay run (it is a gate, and
    // its `replay.*` counters are its audit trail); the journal is only
    // captured when `--trace-json` asks.
    aqo_obs::set_enabled(true);
    aqo_obs::journal::set_capture(args.flag("--trace-json"));
    let report = match args.value("--addr") {
        Some(addr) => {
            let backend = aqo_replay::run::live_backend(addr).map_err(CliError::Failed)?;
            aqo_replay::run::run(&workload, backend)
        }
        None => aqo_replay::run::run(&workload, aqo_replay::run::engine_backend()),
    };
    for d in &report.diffs {
        eprintln!(
            "replay: {} id={} {} (baseline {} [{}], new {} [{}])",
            d.kind.name(),
            d.id,
            d.detail,
            d.baseline_cost,
            d.baseline_tier,
            d.new_cost,
            d.new_tier
        );
    }
    let json = report.to_json();
    match args.value("--out") {
        Some(out) => {
            write_file(out, &json)?;
            outln!(
                "replayed {} request(s): {} regression(s), {} improvement(s), {} plan change(s), \
                 {} tier change(s), {} error(s); wrote {out}",
                report.replayed,
                report.cost_regressions,
                report.cost_improvements,
                report.plan_changes,
                report.tier_changes,
                report.errors
            )?;
        }
        None => out!("{json}")?,
    }
    finish_obs(args)?;
    if report.gate_failures() > 0 {
        return Err(CliError::Failed(format!(
            "replay: {} gate failure(s)",
            report.gate_failures()
        )));
    }
    Ok(())
}

fn cmd_replay_validate(args: &Args) -> Result<(), CliError> {
    let mut cfg = aqo_replay::ValidateConfig::default();
    cfg.trials = args.u64("--trials")?.map_or(cfg.trials, |t| (t as usize).max(1));
    cfg.tolerance = args.f64("--tolerance")?.unwrap_or(cfg.tolerance);
    cfg.min_gap_log2 = args.f64("--min-gap-log2")?.unwrap_or(cfg.min_gap_log2);
    cfg.seed = args.u64("--seed")?.unwrap_or(cfg.seed);
    cfg.max_rows = args.u64("--max-rows")?.unwrap_or(cfg.max_rows);
    cfg.quick = args.flag("--quick");
    let report = match (args.operand(0), args.value("--instance")) {
        ("", Some(path)) => {
            let inst =
                textio::qon_from_text(&read_file(path)?).map_err(|e| CliError::parse(path, e))?;
            if !aqo_replay::validate::executable(&inst, cfg.max_rows) {
                return Err(CliError::Failed(format!(
                    "replay validate: {path} is too large to materialize (max {} rows)",
                    cfg.max_rows
                )));
            }
            let mut report = aqo_replay::validate::validate_builtin(&aqo_replay::ValidateConfig {
                quick: true,
                ..cfg
            });
            // The built-in families anchor the report; the named instance is
            // validated alongside them under the same knobs.
            aqo_replay::validate::validate_instance(path, &inst, &cfg, &mut report);
            report
        }
        ("", None) => aqo_replay::validate::validate_builtin(&cfg),
        (path, None) => {
            let workload = aqo_replay::Workload::parse(&read_file(path)?)
                .map_err(|e| CliError::parse(path, e))?;
            aqo_replay::validate::validate_workload(&workload, &cfg)
                .map_err(|e| CliError::parse(path, e))?
        }
        (_, Some(_)) => {
            return Err(CliError::Usage(
                "replay validate: a workload file and --instance are mutually exclusive".into(),
            ))
        }
    };
    if args.flag("--json") {
        out!("{}", report.to_json())?;
    } else {
        for inst in &report.instances {
            outln!(
                "validate {:<16} n={} plans={} capped={} pairs={} violations={}",
                inst.name,
                inst.n,
                inst.plans.len(),
                inst.plans_capped,
                inst.pairs_checked,
                inst.violations
            )?;
        }
        for v in &report.violations {
            outln!(
                "VIOLATION {}: model prefers {:?} ({:.2} bits) over {:?} ({:.2} bits) but it \
                 measured {:.1}x the work ({:.1} vs {:.1})",
                v.instance,
                v.cheaper.order,
                v.cheaper.model_log2,
                v.dearer.order,
                v.dearer.model_log2,
                v.ratio,
                v.cheaper.measured_work,
                v.dearer.measured_work
            )?;
        }
        outln!(
            "checked {} pair(s) across {} instance(s), {} skipped: {}",
            report.pairs_checked,
            report.instances.len(),
            report.skipped,
            if report.passed() { "pass" } else { "FAIL" }
        )?;
    }
    if let Some(out) = args.value("--out") {
        write_file(out, report.to_json())?;
        outln!("wrote {out}")?;
    }
    if !report.passed() {
        return Err(CliError::Failed(format!(
            "replay validate: {} ordering violation(s) over {} pair(s)",
            report.violations.len(),
            report.pairs_checked
        )));
    }
    Ok(())
}

fn cmd_exec_validate(args: &Args) -> Result<(), CliError> {
    let path = args.operand(0);
    let trials = args.u64("--trials")?.map_or(3, |t| (t as usize).max(1));
    let seed = args.u64("--seed")?.unwrap_or(42);
    let inst = textio::qon_from_text(&read_file(path)?).map_err(|e| CliError::parse(path, e))?;
    if !aqo_replay::validate::executable(&inst, aqo_exec::data::MAX_TUPLES as u64) {
        return Err(CliError::Failed(format!(
            "exec validate: {path} is too large to materialize (max {} rows per relation)",
            aqo_exec::data::MAX_TUPLES
        )));
    }
    // Calibrate the plan the optimizer would actually pick.
    let outcome =
        aqo_driver::optimize_qon(&inst, &QonDriverConfig::default()).map_err(CliError::failed)?;
    let z = outcome.optimum.sequence;
    let mut rng = StdRng::seed_from_u64(seed);
    let cal = aqo_exec::validate::calibrate(&inst, &z, trials, &mut rng);
    if args.flag("--json") {
        let list = |xs: &[f64]| xs.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>().join(", ");
        let order = z.order().iter().map(usize::to_string).collect::<Vec<_>>().join(", ");
        let mut file = String::new();
        aqo_obs::json::escape_into(&mut file, path);
        let out = format!(
            "{{\n  \"schema\": \"aqo-exec-validate/v1\",\n  \"file\": {file},\n  \
             \"order\": [{order}],\n  \"tier\": \"{}\",\n  \"trials\": {},\n  \
             \"predicted_cost\": {:.3},\n  \"measured_work\": {:.3},\n  \"cost_error\": {:.4},\n  \
             \"worst_intermediate_error\": {:.4},\n  \"predicted_intermediates\": [{}],\n  \
             \"measured_intermediates\": [{}]\n}}\n",
            outcome.report.tier,
            cal.trials,
            cal.predicted_cost,
            cal.measured_work,
            cal.cost_error(),
            cal.worst_intermediate_error(1.0),
            list(&cal.predicted_intermediates),
            list(&cal.measured_intermediates),
        );
        match args.value("--out") {
            Some(file) => {
                write_file(file, &out)?;
                outln!("wrote {file}")?;
            }
            None => out!("{out}")?,
        }
    } else {
        outln!("plan {:?} (tier {}, {} trial(s))", z.order(), outcome.report.tier, cal.trials)?;
        outln!(
            "predicted cost {:.1}, measured work {:.1} (relative error {:.3})",
            cal.predicted_cost,
            cal.measured_work,
            cal.cost_error()
        )?;
        for (i, (p, m)) in
            cal.predicted_intermediates.iter().zip(&cal.measured_intermediates).enumerate()
        {
            outln!("N_{i}: predicted {p:.1}, measured {m:.1}")?;
        }
        outln!("worst intermediate error {:.3}", cal.worst_intermediate_error(1.0))?;
    }
    Ok(())
}

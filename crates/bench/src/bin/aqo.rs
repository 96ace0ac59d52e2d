//! `aqo` — command-line front end for the library.
//!
//! ```text
//! aqo gen <chain|star|snowflake|cycle|clique|grid> <n> [seed]   # emit a .qon instance
//! aqo optimize <file.qon> [--method dp|ccp|exhaustive|greedy|ikkbz|sa|ga] [--no-cartesian]
//!              [--timeout-ms <n>] [--max-expansions <n>] [--fallback <chain>]
//! aqo optimize-qoh <file.qoh> [--method exhaustive|greedy]
//!              [--timeout-ms <n>] [--max-expansions <n>] [--fallback <chain>]
//! aqo reduce-3sat <file.cnf> [--a <int>] [--e <int>]            # Lemma 3 + f_N chain
//! aqo clique <file.dimacs>                                      # exact max clique
//! aqo serve [--addr <host:port>] [--stdio] [--threads <n>]      # JSONL optimization service
//! aqo request <addr> <op> [file]                                # one-shot service client
//! aqo loadgen [--addr <host:port>] [--concurrency 1,2,4]        # benchmark a live server
//! aqo chaos [--quick] [--out CHAOS.json]                        # deterministic fault campaign
//! aqo top [--addr <host:port>] [--once] [--json]                # live metrics dashboard
//! aqo trace view <trace.jsonl>                                  # per-request span trees
//! ```
//!
//! Instances use the text formats of `aqo_core::textio` (`.qon`, `.qoh`),
//! DIMACS CNF for formulas and DIMACS edge format for graphs. Everything
//! prints to stdout; errors exit nonzero.
//!
//! Passing any of `--timeout-ms`, `--max-expansions`, or `--fallback` routes
//! the command through the budgeted driver ([`aqo_driver`]): the strongest
//! tier runs under the budget and failures degrade down the fallback chain
//! (`dp,ikkbz,greedy` for QO_N, `exhaustive,greedy` for QO_H). The
//! driver's report — which tier answered, budget consumed, failures
//! swallowed — goes to stderr; the plan goes to stdout as usual. The
//! `AQO_FAULTS` environment variable arms fault-injection sites (see
//! [`aqo_core::faults`]).
//!
//! Observability: `--metrics` prints a metrics summary table to stderr,
//! `--trace-json <path>` writes the structured event journal as JSON Lines,
//! and `--report-json <path>` writes the driver report as JSON. Turning on
//! `--metrics` or `--trace-json` without an explicit `--method` routes
//! through the driver (so tier events appear in the trace); the DP tier
//! always runs the two-phase engine, whose `optimizer.engine.*` counters
//! are identical across thread counts. `aqo trace-check <path>` validates
//! a journal without external tools.

use aqo_bignum::{BigRational, BigUint};
use aqo_core::budget::run_unlimited;
use aqo_core::{faults, textio, workloads, CostScalar};
use aqo_driver::{BudgetSpec, QohDriverConfig, QohTier, QonDriverConfig, QonTier};
use aqo_optimizer::{engine, exhaustive, genetic, greedy, ikkbz, local_search, pipeline};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::process::ExitCode;
use std::time::Duration;

/// Everything that can go wrong at the CLI boundary.
#[derive(Debug)]
enum CliError {
    /// Bad invocation: unknown subcommand, missing operand, malformed flag.
    Usage(String),
    /// A file could not be read.
    Io { path: String, source: std::io::Error },
    /// A file was read but does not parse as its expected format.
    Parse { path: String, message: String },
    /// The instance admits no plan under the requested constraints.
    Infeasible(String),
    /// The requested method cannot handle this instance at all (too many
    /// relations for its subset-mask width). The invocation was
    /// well-formed, so the usage banner is suppressed.
    Unsupported(String),
    /// The `AQO_FAULTS` specification is malformed.
    Faults(String),
    /// Every tier of the driver's fallback chain failed.
    Driver(aqo_driver::DriverError),
    /// A remote `aqo serve` answered with a structured error (or loadgen
    /// found wrong-cost responses). The invocation itself was fine, so
    /// the usage banner is suppressed.
    Remote(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Io { path, source } => write!(f, "reading {path}: {source}"),
            CliError::Parse { path, message } => write!(f, "parsing {path}: {message}"),
            CliError::Infeasible(msg) => write!(f, "{msg}"),
            CliError::Unsupported(msg) => write!(f, "{msg}"),
            CliError::Faults(msg) => write!(f, "AQO_FAULTS: {msg}"),
            CliError::Driver(e) => write!(f, "{e}"),
            CliError::Remote(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io { source, .. } => Some(source),
            CliError::Driver(e) => Some(e),
            _ => None,
        }
    }
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The linter front end owns its own flags and exit codes (0 clean,
    // 1 any finding, 2 bad invocation); findings are expected
    // output, so the usage banner must not follow them.
    if args.first().map(String::as_str) == Some("analyze") {
        return ExitCode::from(aqo_analyze::cli_main(&args[1..]) as u8);
    }
    if matches!(args.first().map(String::as_str), Some("--version" | "-V")) {
        println!("aqo {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        // A remote or unsupported error means the invocation was
        // well-formed; repeating the usage banner would bury it.
        Err(e @ (CliError::Remote(_) | CliError::Unsupported(_))) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "usage:\n  aqo gen <chain|star|snowflake|cycle|clique|grid> <n> [seed]\n  aqo optimize <file.qon> [--method dp|ccp|exhaustive|greedy|ikkbz|sa|ga] [--no-cartesian] [--explain]\n               [--threads <n>] [--timeout-ms <n>] [--max-expansions <n>] [--fallback <tier,tier,...>]\n               [--metrics] [--trace-json <path>] [--report-json <path>]\n  aqo optimize-qoh <file.qoh> [--method exhaustive|greedy]\n               [--threads <n>] [--timeout-ms <n>] [--max-expansions <n>] [--fallback <tier,tier,...>]\n               [--metrics] [--trace-json <path>] [--report-json <path>]\n  aqo serve [--addr <host:port>] [--stdio] [--threads <n>] [--max-inflight <n>]\n            [--cache-cap <n>] [--idle-timeout-ms <n>] [--default-timeout-ms <n>]\n            [--conn-timeout-ms <n>] [--read-deadline-ms <n>] [--max-line-bytes <n>]\n            [--no-degrade] [--cache-snapshot <path>] [--obs-interval-ms <n>]\n            [--record <path>] [--metrics] [--trace-json <path>] [--report-json <path>]\n                                                       # JSONL optimization service (docs/SERVING.md)\n  aqo request <addr> <optimize|explain|optimize-qoh|explain-qoh|clique|status|metrics|shutdown> [file]\n              [--id <n>] [--method <tier>] [--fallback <tier,tier,...>] [--timeout-ms <n>]\n              [--max-expansions <n>] [--threads <n>] [--no-cartesian] [--no-cache]\n  aqo loadgen [--addr <host:port>] [--requests <n>] [--concurrency <c1,c2,...>]\n              [--mix qon|qoh|mixed] [--pool <n>] [--seed <n>] [--record <path>] [--out <path>]\n                                                       # writes BENCH_serve.json\n  aqo chaos [--quick] [--requests <n>] [--fault-count <n>] [--seed <n>] [--out <path>]\n                                                       # fault campaign, writes CHAOS.json (docs/ROBUSTNESS.md)\n  aqo replay extract <journal.jsonl> [--out <path>]    # journal -> aqo-workload/v1\n  aqo replay run <workload.jsonl> [--addr <host:port>] [--strip-timing] [--out <path>]\n                                                       # re-drive + diff, exit 1 on regression\n  aqo replay validate [<workload.jsonl>] [--quick] [--instance <file.qon>] [--trials <n>]\n              [--tolerance <f>] [--min-gap-log2 <f>] [--seed <n>] [--max-rows <n>]\n              [--json] [--out <path>]                  # execution-backed ordering gate (docs/REPLAY.md)\n  aqo exec validate <file.qon> [--trials <n>] [--seed <n>] [--json] [--out <path>]\n                                                       # model-vs-measured calibration\n  aqo bench [--quick] [--threads <n>] [--out <path>]   # writes BENCH_optimizer.json\n  aqo trace-check <trace.jsonl>                        # validate a --trace-json journal\n  aqo trace view <trace.jsonl>                         # render per-request span trees\n  aqo top [--addr <host:port>] [--once] [--json] [--interval-ms <n>]\n                                                       # live dashboard from the `metrics` op\n  aqo analyze [--json] [--root <dir>] [--rule <id>] [--explain <id>]\n                                                       # invariant linter (docs/ANALYSIS.md)\n  aqo reduce-3sat <file.cnf> [--a <int>] [--e <int>]\n  aqo clique <file.dimacs>\n  aqo --version | -V                                   # print version and exit\n\n--threads: 1 = sequential (default), 0 = one worker per hardware thread,\nk > 1 splits the exact DP's layers (QO_N) or the exhaustive search's root\nprefixes, i.e. its first relations (QO_H), across k workers (same optimum).\n--metrics prints a metrics summary to stderr; --trace-json writes the\nstructured event journal as JSON Lines; --report-json writes the driver\nreport as JSON (and routes through the driver)."
}

/// The value following flag `name`, if the flag is present; a flag
/// present without a following value is a usage error.
fn required_flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, CliError> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(String::as_str)
            .map(Some)
            .ok_or_else(|| CliError::usage(format!("{name} requires a value"))),
    }
}

/// Parses an optional `--flag <u64>` into `Ok(None)` / `Ok(Some(v))`.
fn u64_flag(args: &[String], name: &str) -> Result<Option<u64>, CliError> {
    required_flag_value(args, name)?
        .map(|s| s.parse().map_err(|_| CliError::usage(format!("bad {name} value `{s}`"))))
        .transpose()
}

/// The `--threads` knob: defaults to 1 (sequential); 0 means auto.
fn threads_flag(args: &[String]) -> Result<usize, CliError> {
    Ok(u64_flag(args, "--threads")?.map_or(1, |v| v as usize))
}

/// The budget/fallback flags shared by `optimize` and `optimize-qoh`;
/// `Some` when any of them is present (which routes through the driver).
struct DriverFlags {
    budget: BudgetSpec,
    fallback: Option<String>,
}

fn driver_flags(args: &[String]) -> Result<Option<DriverFlags>, CliError> {
    let timeout = u64_flag(args, "--timeout-ms")?.map(Duration::from_millis);
    let max_expansions = u64_flag(args, "--max-expansions")?;
    let fallback = required_flag_value(args, "--fallback")?.map(str::to_string);
    if timeout.is_none() && max_expansions.is_none() && fallback.is_none() {
        return Ok(None);
    }
    Ok(Some(DriverFlags {
        budget: BudgetSpec { timeout, max_expansions, max_memory_bytes: None },
        fallback,
    }))
}

/// The observability flags shared by `optimize` and `optimize-qoh`.
/// Parsing does not enable collection; callers do that once arguments are
/// fully validated (so a usage error never leaves obs half-armed).
struct ObsFlags {
    metrics: bool,
    trace_json: Option<String>,
    report_json: Option<String>,
}

impl ObsFlags {
    /// Whether metric/journal collection should be switched on.
    fn collecting(&self) -> bool {
        self.metrics || self.trace_json.is_some()
    }
}

fn obs_flags(args: &[String]) -> Result<ObsFlags, CliError> {
    Ok(ObsFlags {
        metrics: args.iter().any(|a| a == "--metrics"),
        trace_json: required_flag_value(args, "--trace-json")?.map(str::to_string),
        report_json: required_flag_value(args, "--report-json")?.map(str::to_string),
    })
}

/// Flushes the journal to `--trace-json` and the summary table to stderr
/// for `--metrics`, after the optimization ran.
fn finish_obs(obs: &ObsFlags) -> Result<(), CliError> {
    if let Some(path) = &obs.trace_json {
        let events = aqo_obs::journal::drain();
        std::fs::write(path, aqo_obs::journal::to_jsonl(&events))
            .map_err(|source| CliError::Io { path: path.clone(), source })?;
    }
    if obs.metrics {
        eprint!("{}", aqo_obs::render_summary());
    }
    Ok(())
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path)
        .map_err(|source| CliError::Io { path: path.to_string(), source })
}

fn run(args: &[String]) -> Result<(), CliError> {
    faults::load_env().map_err(CliError::Faults)?;
    match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("optimize") => cmd_optimize(&args[1..]),
        Some("optimize-qoh") => cmd_optimize_qoh(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("request") => cmd_request(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("trace-check") => cmd_trace_check(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("exec") => cmd_exec(&args[1..]),
        Some("reduce-3sat") => cmd_reduce_3sat(&args[1..]),
        Some("clique") => cmd_clique(&args[1..]),
        Some(other) => Err(CliError::usage(format!("unknown subcommand `{other}`"))),
        None => Err(CliError::usage("missing subcommand")),
    }
}

fn cmd_gen(args: &[String]) -> Result<(), CliError> {
    let shape = args.first().ok_or_else(|| CliError::usage("gen: missing shape"))?;
    let n: usize = args
        .get(1)
        .ok_or_else(|| CliError::usage("gen: missing size"))?
        .parse()
        .map_err(|_| CliError::usage("gen: bad size"))?;
    let seed: u64 = args
        .get(2)
        .map_or(Ok(0), |s| s.parse())
        .map_err(|_| CliError::usage("gen: bad seed"))?;
    let params = workloads::WorkloadParams::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let inst = match shape.as_str() {
        "chain" => workloads::chain(n, &params, &mut rng),
        "star" => workloads::star(n, &params, &mut rng),
        "snowflake" => workloads::snowflake(n.max(1), 2, &params, &mut rng),
        "cycle" => workloads::cycle(n, &params, &mut rng),
        "clique" => workloads::clique(n, &params, &mut rng),
        "grid" => workloads::grid(n.div_ceil(2), 2, &params, &mut rng),
        other => return Err(CliError::usage(format!("gen: unknown shape {other}"))),
    };
    print!("{}", textio::qon_to_text(&inst));
    Ok(())
}

fn cmd_optimize(args: &[String]) -> Result<(), CliError> {
    let path = args.first().ok_or_else(|| CliError::usage("optimize: missing file"))?;
    // Flags are validated before the file is touched: a malformed
    // invocation is a usage error regardless of what the operand holds.
    let method_flag = required_flag_value(args, "--method")?;
    let method_given = method_flag.is_some();
    let method = method_flag.unwrap_or("dp");
    let allow_cartesian = !args.iter().any(|a| a == "--no-cartesian");
    let threads = threads_flag(args)?;
    let obs = obs_flags(args)?;
    let dflags = driver_flags(args)?;
    let text = read_file(path)?;
    let inst = textio::qon_from_text(&text)
        .map_err(|e| CliError::Parse { path: path.to_string(), message: e.to_string() })?;
    // Any driver flag, --report-json, or obs without an explicit --method
    // routes through the driver (the trace then carries tier events).
    let route_driver =
        dflags.is_some() || obs.report_json.is_some() || (obs.collecting() && !method_given);
    if obs.collecting() {
        aqo_obs::set_enabled(true);
    }

    let (label, sequence): (String, aqo_core::JoinSequence) =
        if route_driver {
            let flags = dflags.unwrap_or(DriverFlags {
                budget: BudgetSpec::unlimited(),
                fallback: None,
            });
            let chain = match &flags.fallback {
                Some(spec) => QonTier::parse_chain(spec)
                    .map_err(|e| CliError::usage(format!("--fallback: {e}")))?,
                None => QonTier::default_chain(),
            };
            let cfg = QonDriverConfig {
                budget: flags.budget,
                chain,
                allow_cartesian,
                threads,
                ..QonDriverConfig::default()
            };
            let outcome = aqo_driver::optimize_qon(&inst, &cfg).map_err(CliError::Driver)?;
            eprintln!("driver: {}", outcome.report);
            if let Some(path) = &obs.report_json {
                std::fs::write(path, outcome.report.to_json())
                    .map_err(|source| CliError::Io { path: path.clone(), source })?;
            }
            (format!("driver ({} tier)", outcome.report.tier), outcome.optimum.sequence)
        } else {
            let mut rng = StdRng::seed_from_u64(0);
            let (label, sequence) = match method {
                "dp" | "ccp" | "exhaustive" if inst.n() > method_max_n(method, allow_cartesian) => {
                    return Err(CliError::Unsupported(format!(
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
                    .ok_or_else(infeasible_qon)?;
                    ("exact (two-phase subset DP)", o.sequence)
                }
                "exhaustive" => {
                    ("exact (exhaustive)", exhaustive::optimize::<BigRational>(&inst).sequence)
                }
                "greedy" => (
                    "greedy min-intermediate",
                    greedy::min_intermediate(&inst, allow_cartesian)
                        .ok_or_else(|| CliError::Infeasible("greedy got stuck".into()))?,
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
                "ga" => {
                    ("genetic", genetic::optimize(&inst, &genetic::GaParams::default(), &mut rng))
                }
                other => {
                    return Err(CliError::usage(format!("optimize: unknown method {other}")))
                }
            };
            (label.to_string(), sequence)
        };

    let cost: BigRational = inst.total_cost(&sequence);
    println!("method : {label}");
    println!("order  : {:?}", sequence.order());
    println!("cost   : {cost}");
    println!("log2   : {:.3}", CostScalar::log2(&cost));
    if args.iter().any(|a| a == "--explain") {
        println!();
        print!("{}", aqo_core::explain::explain_qon(&inst, &sequence));
    }
    finish_obs(&obs)
}

fn infeasible_qon() -> CliError {
    CliError::Infeasible("no cartesian-free sequence exists".into())
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

fn cmd_optimize_qoh(args: &[String]) -> Result<(), CliError> {
    let path = args.first().ok_or_else(|| CliError::usage("optimize-qoh: missing file"))?;
    let method_flag = required_flag_value(args, "--method")?;
    let method_given = method_flag.is_some();
    let method = method_flag.unwrap_or("greedy");
    let threads = threads_flag(args)?;
    let obs = obs_flags(args)?;
    let dflags = driver_flags(args)?;
    let text = read_file(path)?;
    let inst = textio::qoh_from_text(&text)
        .map_err(|e| CliError::Parse { path: path.to_string(), message: e.to_string() })?;
    let route_driver =
        dflags.is_some() || obs.report_json.is_some() || (obs.collecting() && !method_given);
    if obs.collecting() {
        aqo_obs::set_enabled(true);
    }

    let (label, plan): (String, pipeline::QohPlan) = if route_driver {
        let flags = dflags.unwrap_or(DriverFlags {
            budget: BudgetSpec::unlimited(),
            fallback: None,
        });
        let chain = match &flags.fallback {
            Some(spec) => QohTier::parse_chain(spec)
                .map_err(|e| CliError::usage(format!("--fallback: {e}")))?,
            None => QohTier::default_chain(),
        };
        let cfg = QohDriverConfig {
            budget: flags.budget,
            chain,
            threads,
            ..QohDriverConfig::default()
        };
        let outcome = aqo_driver::optimize_qoh(&inst, &cfg).map_err(CliError::Driver)?;
        eprintln!("driver: {}", outcome.report);
        if let Some(path) = &obs.report_json {
            std::fs::write(path, outcome.report.to_json())
                .map_err(|source| CliError::Io { path: path.clone(), source })?;
        }
        (format!("driver ({} tier)", outcome.report.tier), outcome.plan)
    } else {
        let plan = match method {
            "exhaustive" if inst.n() > pipeline::MAX_N => {
                return Err(CliError::Unsupported(format!(
                    "--method exhaustive handles n <= {} (instance has n = {}); \
                     use --method greedy",
                    pipeline::MAX_N,
                    inst.n(),
                )));
            }
            "exhaustive" => run_unlimited(|b| {
                pipeline::optimize_exhaustive_par_with_budget(&inst, threads, b)
            }),
            "greedy" => pipeline::optimize_greedy(&inst),
            other => {
                return Err(CliError::usage(format!("optimize-qoh: unknown method {other}")))
            }
        }
        .ok_or_else(|| {
            CliError::Infeasible("no feasible plan under the memory budget".into())
        })?;
        (method.to_string(), plan)
    };

    println!("method        : {label}");
    println!("order         : {:?}", plan.sequence.order());
    println!("decomposition : {:?}", plan.decomposition.fragments());
    println!("cost          : {}", plan.cost);
    println!("log2          : {:.3}", plan.cost.log2());
    if args.iter().any(|a| a == "--explain") {
        if let Some(text) =
            aqo_core::explain::explain_qoh(&inst, &plan.sequence, &plan.decomposition)
        {
            println!();
            print!("{text}");
        }
    }
    finish_obs(&obs)
}

/// Validates a `--trace-json` journal: every nonempty line must parse as a
/// JSON object carrying a `type` field, and a healthy optimize trace must
/// contain at least one `span` event. `tier_start` is only required when
/// the journal carries driver events at all — an explicit `--method` run
/// bypasses the tier chain and legitimately journals no driver activity.
/// Prints per-type event counts; exits nonzero on any violation.
fn cmd_trace_check(args: &[String]) -> Result<(), CliError> {
    let path = args.first().ok_or_else(|| CliError::usage("trace-check: missing file"))?;
    let text = read_file(path)?;
    let mut counts: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    let mut total = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = aqo_obs::json::parse(line).map_err(|e| CliError::Parse {
            path: path.to_string(),
            message: format!("line {}: {e}", i + 1),
        })?;
        let etype = doc.get("type").and_then(|v| v.as_str()).ok_or_else(|| CliError::Parse {
            path: path.to_string(),
            message: format!("line {}: event has no `type` field", i + 1),
        })?;
        *counts.entry(etype.to_string()).or_insert(0) += 1;
        total += 1;
    }
    for (etype, n) in &counts {
        println!("{etype:<18} {n}");
    }
    println!("{:<18} {total}", "total");
    let driver_routed = ["tier_start", "tier_failure", "retry", "fallback", "fault_injected"]
        .iter()
        .any(|etype| counts.contains_key(*etype));
    let mut required = vec!["span"];
    if driver_routed {
        required.push("tier_start");
    }
    for required in required {
        if counts.get(required).copied().unwrap_or(0) == 0 {
            return Err(CliError::Parse {
                path: path.to_string(),
                message: format!("journal has no `{required}` events"),
            });
        }
    }
    // Schema-v2 nesting check: balanced span_start/span pairs, no orphan
    // parents, no cross-trace references. A journal with no trace context
    // (schema v1, or collection off) passes with a zero report.
    let report = aqo_obs::traceview::check(&text)
        .map_err(|message| CliError::Parse { path: path.to_string(), message })?;
    if report.traces > 0 {
        println!(
            "traces {} spans {} traced-events {}",
            report.traces, report.spans, report.traced_events
        );
    }
    println!("ok");
    Ok(())
}

/// `aqo trace view <journal>` — reconstructs the per-request span trees
/// from a schema-v2 journal and prints them with self/total times and the
/// critical path marked. `trace` exists as a command group so future
/// verbs (diff, grep) have a home.
fn cmd_trace(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("view") => {
            let path =
                args.get(1).ok_or_else(|| CliError::usage("trace view: missing file"))?;
            let text = read_file(path)?;
            let rendered = aqo_obs::traceview::render(&text)
                .map_err(|message| CliError::Parse { path: path.to_string(), message })?;
            if rendered.is_empty() {
                println!("(no traced spans in journal)");
            } else {
                print!("{rendered}");
            }
            Ok(())
        }
        Some(other) => Err(CliError::usage(format!("trace: unknown verb `{other}`"))),
        None => Err(CliError::usage("trace: missing verb (try `trace view <file>`)")),
    }
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
        use std::fmt::Write as _;
        let mut out = String::new();
        let uptime_s = self.uptime_us as f64 / 1e6;
        let rps = match prev {
            Some(p) if self.uptime_us > p.uptime_us => {
                (self.requests.saturating_sub(p.requests)) as f64
                    / ((self.uptime_us - p.uptime_us) as f64 / 1e6)
            }
            _ => self.requests as f64 / uptime_s.max(1e-9),
        };
        let _ = writeln!(
            out,
            "uptime {uptime_s:8.1}s   workers {}   accepting {}",
            self.workers, self.accepting
        );
        let _ = writeln!(
            out,
            "requests {}   ok {}   errors {}   rps {rps:.1}",
            self.requests, self.ok, self.errors
        );
        let _ = writeln!(
            out,
            "queue {} / inflight {} (max {})   overloaded {}   degraded {}",
            self.queue_depth, self.executing, self.max_inflight, self.overloaded, self.degraded
        );
        let lookups = self.cache_hits + self.cache_misses;
        let _ = writeln!(
            out,
            "cache hits {}   misses {}   hit-rate {:.2}",
            self.cache_hits,
            self.cache_misses,
            if lookups == 0 { 0.0 } else { self.cache_hits as f64 / lookups as f64 }
        );
        match self.latency {
            Some((p50, p99)) => {
                let _ = writeln!(out, "latency p50 {p50}us   p99 {p99}us");
            }
            None => out.push_str("latency (no requests yet)\n"),
        }
        for (tier, n) in &self.tiers {
            let _ = writeln!(out, "tier {tier:<12} {n}");
        }
        out
    }
}

/// `aqo top` — polls a live server's `metrics` op and renders a terminal
/// dashboard. `--once` polls a single time; `--json` prints the raw
/// metrics reply instead of the rendered view (for scripts/CI).
fn cmd_top(args: &[String]) -> Result<(), CliError> {
    let addr = required_flag_value(args, "--addr")?.unwrap_or("127.0.0.1:7878");
    let once = args.iter().any(|a| a == "--once");
    let json = args.iter().any(|a| a == "--json");
    let interval =
        Duration::from_millis(u64_flag(args, "--interval-ms")?.unwrap_or(1000).max(50));
    let poll = || -> Result<String, CliError> {
        let mut req = aqo_serve::Request::new(aqo_serve::Op::Metrics, aqo_serve::Problem::Qon);
        req.id = 0;
        aqo_serve::client::oneshot(addr, &req)
            .map_err(|source| CliError::Io { path: addr.to_string(), source })
    };
    let mut prev: Option<TopSnapshot> = None;
    loop {
        let line = poll()?;
        if json {
            println!("{line}");
        } else {
            let snap = TopSnapshot::parse(&line)
                .map_err(|e| CliError::Remote(format!("bad metrics reply: {e}")))?;
            if !once {
                // ANSI clear-screen + home, like `top`.
                print!("\x1b[2J\x1b[H");
            }
            println!("aqo top — {addr}");
            print!("{}", snap.render(prev.as_ref()));
            prev = Some(snap);
        }
        if once {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

fn cmd_bench(args: &[String]) -> Result<(), CliError> {
    let quick = args.iter().any(|a| a == "--quick");
    // Benches default to auto so the recorded speedup reflects the machine.
    let threads = u64_flag(args, "--threads")?.map_or(0, |v| v as usize);
    let out = required_flag_value(args, "--out")?.unwrap_or("BENCH_optimizer.json");
    let cfg = aqo_bench::optbench::BenchConfig { quick, threads };
    eprintln!(
        "bench: {} profile, {} worker thread(s)",
        if quick { "quick" } else { "full" },
        aqo_core::parallel::resolve_threads(threads),
    );
    let records = aqo_bench::optbench::run(&cfg);
    let json = aqo_bench::optbench::to_json(&cfg, &records);
    std::fs::write(out, &json)
        .map_err(|source| CliError::Io { path: out.to_string(), source })?;
    for r in &records {
        let speedup = r.speedup.map_or(String::new(), |s| format!("  speedup {s:.2}x"));
        println!(
            "{:<7} n={:<2} {:<16} {:<8} {:<3} {:>10.3} ms{speedup}",
            r.family, r.n, r.algo, r.scalar, r.mode, r.median_ms
        );
    }
    println!("wrote {out} ({} records)", records.len());
    Ok(())
}

fn cmd_reduce_3sat(args: &[String]) -> Result<(), CliError> {
    let path = args.first().ok_or_else(|| CliError::usage("reduce-3sat: missing file"))?;
    let a_flag = required_flag_value(args, "--a")?;
    let e_flag = required_flag_value(args, "--e")?;
    let text = read_file(path)?;
    let f = aqo_sat::dimacs::from_dimacs(&text)
        .map_err(|e| CliError::Parse { path: path.to_string(), message: e.to_string() })?;
    if !f.is_3cnf() {
        return Err(CliError::Infeasible("formula is not 3CNF".into()));
    }
    let a: u64 = a_flag
        .map_or(Ok(4), str::parse)
        .map_err(|_| CliError::usage("bad --a"))?;
    let red_g = aqo_reductions::clique_reduction::sat_to_clique(&f);
    eprintln!(
        "Lemma 3: {} vars, {} clauses -> graph with {} vertices ({} when satisfiable)",
        f.num_vars(),
        f.num_clauses(),
        red_g.graph.n(),
        red_g.satisfiable_omega
    );
    let e: u64 = e_flag
        .map_or(Ok(red_g.satisfiable_omega as u64 - 2), str::parse)
        .map_err(|_| CliError::usage("bad --e"))?;
    let red = aqo_reductions::fn_reduction::reduce(&red_g.graph, &BigUint::from(a), e);
    eprintln!(
        "f_N: a = {a}, e = {e}; K(a,e) has {} bits",
        aqo_reductions::fn_reduction::k_bound(&BigUint::from(a), e).bits()
    );
    print!("{}", textio::qon_to_text(&red.instance));
    Ok(())
}

fn cmd_clique(args: &[String]) -> Result<(), CliError> {
    let path = args.first().ok_or_else(|| CliError::usage("clique: missing file"))?;
    let text = read_file(path)?;
    let g = aqo_graph::io::from_dimacs(&text)
        .map_err(|e| CliError::Parse { path: path.to_string(), message: e.to_string() })?;
    let upper = aqo_graph::coloring::clique_upper_bound(&g);
    let c = aqo_graph::clique::max_clique(&g);
    println!("n      : {}", g.n());
    println!("m      : {}", g.m());
    println!("omega  : {}", c.len());
    println!("bound  : {upper} (colouring/degeneracy upper bound)");
    println!("clique : {c:?}");
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let addr = required_flag_value(args, "--addr")?.unwrap_or("127.0.0.1:7878");
    let stdio = args.iter().any(|a| a == "--stdio");
    let obs = obs_flags(args)?;
    let record_path = required_flag_value(args, "--record")?.map(str::to_string);
    let record_sink = record_path.as_ref().map(|_| aqo_serve::record::new_sink());
    let defaults = aqo_serve::ServeConfig::default();
    let cfg = aqo_serve::ServeConfig {
        threads: u64_flag(args, "--threads")?.map_or(4, |v| v as usize),
        max_inflight: u64_flag(args, "--max-inflight")?.map_or(64, |v| v as usize),
        cache_capacity: u64_flag(args, "--cache-cap")?.map_or(1024, |v| v as usize),
        idle_timeout: u64_flag(args, "--idle-timeout-ms")?.map(Duration::from_millis),
        default_timeout: u64_flag(args, "--default-timeout-ms")?.map(Duration::from_millis),
        conn_timeout: u64_flag(args, "--conn-timeout-ms")?
            .map_or(defaults.conn_timeout, Duration::from_millis),
        // 0 disables the slow-loris deadline (trusted-client deployments).
        read_deadline: match u64_flag(args, "--read-deadline-ms")? {
            None => defaults.read_deadline,
            Some(0) => None,
            Some(ms) => Some(Duration::from_millis(ms)),
        },
        max_line_bytes: u64_flag(args, "--max-line-bytes")?
            .map_or(defaults.max_line_bytes, |v| v as usize),
        degrade: !args.iter().any(|a| a == "--no-degrade"),
        snapshot_path: required_flag_value(args, "--cache-snapshot")?
            .map(std::path::PathBuf::from),
        // 0 disables the time-series sampler; stdio mode never samples.
        obs_interval: match u64_flag(args, "--obs-interval-ms")? {
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
    aqo_obs::journal::set_capture(obs.trace_json.is_some());
    let server = aqo_serve::Server::new(&cfg);
    let report = if stdio {
        server.run_stdio()
    } else {
        let listener = std::net::TcpListener::bind(addr)
            .map_err(|source| CliError::Io { path: addr.to_string(), source })?;
        // Printed before the accept loop so scripts binding port 0 can
        // scrape the assigned port.
        match listener.local_addr() {
            Ok(local) => eprintln!("serve: listening on {local}"),
            Err(_) => eprintln!("serve: listening on {addr}"),
        }
        server
            .run(&listener)
            .map_err(|source| CliError::Io { path: addr.to_string(), source })?
    };
    eprintln!("serve: {report}");
    if let (Some(path), Some(sink)) = (&record_path, &record_sink) {
        let entries = aqo_serve::record::drain(sink);
        let workload = aqo_replay::Workload::new("serve", None, entries);
        std::fs::write(path, workload.to_jsonl())
            .map_err(|source| CliError::Io { path: path.clone(), source })?;
        eprintln!("serve: recorded {} request(s) to {path}", workload.entries.len());
    }
    if let Some(path) = &obs.report_json {
        std::fs::write(path, report.to_json())
            .map_err(|source| CliError::Io { path: path.clone(), source })?;
    }
    finish_obs(&obs)
}

fn cmd_request(args: &[String]) -> Result<(), CliError> {
    use aqo_serve::{Op, Problem};
    let addr = args.first().ok_or_else(|| CliError::usage("request: missing address"))?;
    let verb = args.get(1).ok_or_else(|| CliError::usage("request: missing operation"))?;
    let (op, problem) = match verb.as_str() {
        "optimize" => (Op::Optimize, Problem::Qon),
        "explain" => (Op::Explain, Problem::Qon),
        "optimize-qoh" => (Op::Optimize, Problem::Qoh),
        "explain-qoh" => (Op::Explain, Problem::Qoh),
        "clique" => (Op::Optimize, Problem::Clique),
        "status" => (Op::Status, Problem::Qon),
        "metrics" => (Op::Metrics, Problem::Qon),
        "shutdown" => (Op::Shutdown, Problem::Qon),
        other => return Err(CliError::usage(format!("request: unknown operation `{other}`"))),
    };
    let mut req = aqo_serve::Request::new(op, problem);
    req.id = u64_flag(args, "--id")?.unwrap_or(1);
    if matches!(op, Op::Optimize | Op::Explain) {
        let path = args
            .get(2)
            .filter(|a| !a.starts_with("--"))
            .ok_or_else(|| CliError::usage(format!("request: `{verb}` needs an instance file")))?;
        req.instance = Some(read_file(path)?);
    }
    req.method = required_flag_value(args, "--method")?.map(str::to_string);
    req.fallback = required_flag_value(args, "--fallback")?.map(str::to_string);
    if req.method.is_some() && req.fallback.is_some() {
        return Err(CliError::usage("request: --method and --fallback are mutually exclusive"));
    }
    req.timeout_ms = u64_flag(args, "--timeout-ms")?;
    req.max_expansions = u64_flag(args, "--max-expansions")?;
    req.threads = threads_flag(args)?;
    req.allow_cartesian = !args.iter().any(|a| a == "--no-cartesian");
    req.use_cache = !args.iter().any(|a| a == "--no-cache");
    let line = aqo_serve::client::oneshot(addr, &req)
        .map_err(|source| CliError::Io { path: addr.to_string(), source })?;
    println!("{line}");
    let doc = aqo_obs::json::parse(&line)
        .map_err(|e| CliError::Remote(format!("unparseable response: {e}")))?;
    if !matches!(doc.get("ok"), Some(aqo_obs::json::JsonValue::Bool(true))) {
        let error = doc.get("error");
        let kind =
            error.and_then(|e| e.get("kind")).and_then(|v| v.as_str()).unwrap_or("unknown");
        let msg = error.and_then(|e| e.get("message")).and_then(|v| v.as_str()).unwrap_or("");
        return Err(CliError::Remote(format!("server error ({kind}): {msg}")));
    }
    Ok(())
}

fn cmd_chaos(args: &[String]) -> Result<(), CliError> {
    let mut cfg = if args.iter().any(|a| a == "--quick") {
        aqo_serve::chaos::ChaosConfig::quick()
    } else {
        aqo_serve::chaos::ChaosConfig::default()
    };
    if let Some(n) = u64_flag(args, "--requests")? {
        cfg.requests_per_cell = (n as usize).max(1);
    }
    if let Some(n) = u64_flag(args, "--fault-count")? {
        cfg.fault_count = n.max(1);
    }
    if let Some(s) = u64_flag(args, "--seed")? {
        cfg.seed = s;
    }
    let out = required_flag_value(args, "--out")?.unwrap_or("CHAOS.json");
    let obs = obs_flags(args)?;
    if obs.collecting() {
        aqo_obs::set_enabled(true);
    }
    eprintln!(
        "chaos: sweeping {} fault sites x 3 modes, {} request(s)/cell, {} fire(s)/site",
        faults::CATALOG.len(),
        cfg.requests_per_cell,
        cfg.fault_count,
    );
    let report = aqo_serve::chaos::run(&cfg).map_err(CliError::Remote)?;
    std::fs::write(out, report.to_json())
        .map_err(|source| CliError::Io { path: out.to_string(), source })?;
    for cell in &report.cells {
        if !cell.violations.is_empty() {
            for v in &cell.violations {
                eprintln!("chaos: VIOLATION {}[{}]: {v}", cell.site, cell.mode);
            }
        }
    }
    for s in &report.scenarios {
        println!("scenario {:<20} {} — {}", s.name, if s.passed { "pass" } else { "FAIL" }, s.detail);
    }
    println!(
        "cells={} requests={} violations={} pool_intact={}",
        report.cells.len(),
        report.cells.iter().map(|c| c.requests).sum::<usize>(),
        report.total_violations(),
        report.pool_intact(),
    );
    println!("wrote {out}");
    finish_obs(&obs)?;
    if report.total_violations() > 0 {
        return Err(CliError::Remote(format!(
            "chaos: {} invariant violation(s)",
            report.total_violations()
        )));
    }
    Ok(())
}

fn cmd_loadgen(args: &[String]) -> Result<(), CliError> {
    let mut cfg = aqo_serve::loadgen::LoadgenConfig::default();
    if let Some(addr) = required_flag_value(args, "--addr")? {
        cfg.addr = addr.to_string();
    }
    if let Some(n) = u64_flag(args, "--requests")? {
        cfg.requests = n as usize;
    }
    if let Some(spec) = required_flag_value(args, "--concurrency")? {
        cfg.concurrency = spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| CliError::usage(format!("bad --concurrency value `{s}`")))
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(m) = required_flag_value(args, "--mix")? {
        cfg.mix = aqo_serve::loadgen::Mix::parse(m)
            .ok_or_else(|| CliError::usage(format!("bad --mix `{m}` (qon|qoh|mixed)")))?;
    }
    if let Some(p) = u64_flag(args, "--pool")? {
        cfg.pool = p as usize;
    }
    if let Some(s) = u64_flag(args, "--seed")? {
        cfg.seed = s;
    }
    let record_path = required_flag_value(args, "--record")?.map(str::to_string);
    cfg.record = record_path.is_some();
    let out = required_flag_value(args, "--out")?.unwrap_or("BENCH_serve.json");
    eprintln!(
        "loadgen: {} request(s) per level, levels {:?}, mix {}, against {}",
        cfg.requests,
        cfg.concurrency,
        cfg.mix.name(),
        cfg.addr
    );
    let report = aqo_serve::loadgen::run(&cfg).map_err(CliError::Remote)?;
    std::fs::write(out, report.to_json())
        .map_err(|source| CliError::Io { path: out.to_string(), source })?;
    if let Some(path) = &record_path {
        let workload =
            aqo_replay::Workload::new("loadgen", Some(cfg.seed), report.recorded.clone());
        std::fs::write(path, workload.to_jsonl())
            .map_err(|source| CliError::Io { path: path.clone(), source })?;
        println!("recorded {} request(s) to {path}", workload.entries.len());
    }
    for l in &report.levels {
        println!(
            "c={:<2} requests={} errors={} wrong_cost={} p50={}us p99={}us \
             throughput={:.1}rps cache_hit_rate={:.2}",
            l.concurrency,
            l.requests,
            l.errors,
            l.wrong_cost,
            l.p50_us,
            l.p99_us,
            l.throughput_rps,
            l.cache_hit_rate
        );
    }
    println!("wrote {out}");
    // Wrong costs are the one thing a cache-fronted service must never
    // produce; surface them as a hard failure for CI.
    if report.total_wrong_cost() > 0 {
        return Err(CliError::Remote(format!(
            "loadgen: {} wrong-cost response(s)",
            report.total_wrong_cost()
        )));
    }
    Ok(())
}

/// Parses an optional `--flag <f64>` into `Ok(None)` / `Ok(Some(v))`.
fn f64_flag(args: &[String], name: &str) -> Result<Option<f64>, CliError> {
    required_flag_value(args, name)?
        .map(|s| {
            s.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| CliError::usage(format!("bad {name} value `{s}`")))
        })
        .transpose()
}

fn cmd_replay(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("extract") => cmd_replay_extract(&args[1..]),
        Some("run") => cmd_replay_run(&args[1..]),
        Some("validate") => cmd_replay_validate(&args[1..]),
        Some(other) => Err(CliError::usage(format!("replay: unknown subcommand `{other}`"))),
        None => Err(CliError::usage("replay: missing subcommand (extract|run|validate)")),
    }
}

fn cmd_replay_extract(args: &[String]) -> Result<(), CliError> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::usage("replay extract: missing journal file"))?;
    let out = required_flag_value(args, "--out")?.unwrap_or("workload.jsonl");
    let journal = read_file(path)?;
    let (workload, stats) = aqo_replay::extract::extract(&journal)
        .map_err(|message| CliError::Parse { path: path.clone(), message })?;
    std::fs::write(out, workload.to_jsonl())
        .map_err(|source| CliError::Io { path: out.to_string(), source })?;
    println!(
        "extracted {} request(s) to {out} (skipped: {} error, {} degraded, {} unreplayable, \
         {} unpaired)",
        stats.extracted,
        stats.skipped_errors,
        stats.skipped_degraded,
        stats.skipped_unreplayable,
        stats.skipped_unpaired
    );
    Ok(())
}

fn cmd_replay_run(args: &[String]) -> Result<(), CliError> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::usage("replay run: missing workload file"))?;
    let addr = required_flag_value(args, "--addr")?;
    let out = required_flag_value(args, "--out")?;
    let rcfg = aqo_replay::ReplayConfig {
        strip_timing: args.iter().any(|a| a == "--strip-timing"),
    };
    let obs = obs_flags(args)?;
    let workload = aqo_replay::Workload::parse(&read_file(path)?)
        .map_err(|message| CliError::Parse { path: path.clone(), message })?;
    // Counters/spans are always live for a replay run (it is a gate, and
    // its `replay.*` counters are its audit trail); the journal is only
    // captured when `--trace-json` asks.
    aqo_obs::set_enabled(true);
    aqo_obs::journal::set_capture(obs.trace_json.is_some());
    let report = match addr {
        Some(addr) => {
            let backend = aqo_replay::run::live_backend(addr).map_err(CliError::Remote)?;
            aqo_replay::run::run(&workload, &rcfg, backend)
        }
        None => aqo_replay::run::run(&workload, &rcfg, aqo_replay::run::driver_backend()),
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
    match out {
        Some(out) => {
            std::fs::write(out, &json)
                .map_err(|source| CliError::Io { path: out.to_string(), source })?;
            println!(
                "replayed {} request(s): {} regression(s), {} improvement(s), {} plan change(s), \
                 {} tier change(s), {} error(s); wrote {out}",
                report.replayed,
                report.cost_regressions,
                report.cost_improvements,
                report.plan_changes,
                report.tier_changes,
                report.errors
            );
        }
        None => print!("{json}"),
    }
    finish_obs(&obs)?;
    if report.gate_failures() > 0 {
        return Err(CliError::Remote(format!(
            "replay: {} gate failure(s)",
            report.gate_failures()
        )));
    }
    Ok(())
}

fn cmd_replay_validate(args: &[String]) -> Result<(), CliError> {
    let mut cfg = aqo_replay::ValidateConfig::default();
    if let Some(t) = u64_flag(args, "--trials")? {
        cfg.trials = (t as usize).max(1);
    }
    if let Some(t) = f64_flag(args, "--tolerance")? {
        cfg.tolerance = t;
    }
    if let Some(g) = f64_flag(args, "--min-gap-log2")? {
        cfg.min_gap_log2 = g;
    }
    if let Some(s) = u64_flag(args, "--seed")? {
        cfg.seed = s;
    }
    if let Some(r) = u64_flag(args, "--max-rows")? {
        cfg.max_rows = r;
    }
    cfg.quick = args.iter().any(|a| a == "--quick");
    let workload_path = args.first().filter(|a| !a.starts_with("--"));
    let instance_path = required_flag_value(args, "--instance")?;
    if workload_path.is_some() && instance_path.is_some() {
        return Err(CliError::usage(
            "replay validate: a workload file and --instance are mutually exclusive",
        ));
    }
    let report = if let Some(path) = instance_path {
        let inst = textio::qon_from_text(&read_file(path)?)
            .map_err(|e| CliError::Parse { path: path.to_string(), message: e.to_string() })?;
        if !aqo_replay::validate::executable(&inst, cfg.max_rows) {
            return Err(CliError::Unsupported(format!(
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
    } else if let Some(path) = workload_path {
        let workload = aqo_replay::Workload::parse(&read_file(path)?)
            .map_err(|message| CliError::Parse { path: path.clone(), message })?;
        aqo_replay::validate::validate_workload(&workload, &cfg)
            .map_err(|message| CliError::Parse { path: path.clone(), message })?
    } else {
        aqo_replay::validate::validate_builtin(&cfg)
    };
    let json_mode = args.iter().any(|a| a == "--json");
    if json_mode {
        print!("{}", report.to_json());
    } else {
        for inst in &report.instances {
            println!(
                "validate {:<16} n={} plans={} capped={} pairs={} violations={}",
                inst.name,
                inst.n,
                inst.plans.len(),
                inst.plans_capped,
                inst.pairs_checked,
                inst.violations
            );
        }
        for v in &report.violations {
            println!(
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
            );
        }
        println!(
            "checked {} pair(s) across {} instance(s), {} skipped: {}",
            report.pairs_checked,
            report.instances.len(),
            report.skipped,
            if report.passed() { "pass" } else { "FAIL" }
        );
    }
    if let Some(out) = required_flag_value(args, "--out")? {
        std::fs::write(out, report.to_json())
            .map_err(|source| CliError::Io { path: out.to_string(), source })?;
        println!("wrote {out}");
    }
    if !report.passed() {
        return Err(CliError::Remote(format!(
            "replay validate: {} ordering violation(s) over {} pair(s)",
            report.violations.len(),
            report.pairs_checked
        )));
    }
    Ok(())
}

fn cmd_exec(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("validate") => cmd_exec_validate(&args[1..]),
        Some(other) => Err(CliError::usage(format!("exec: unknown subcommand `{other}`"))),
        None => Err(CliError::usage("exec: missing subcommand (validate)")),
    }
}

fn cmd_exec_validate(args: &[String]) -> Result<(), CliError> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::usage("exec validate: missing instance file"))?;
    let trials = u64_flag(args, "--trials")?.map_or(3, |t| (t as usize).max(1));
    let seed = u64_flag(args, "--seed")?.unwrap_or(42);
    let inst = textio::qon_from_text(&read_file(path)?)
        .map_err(|e| CliError::Parse { path: path.clone(), message: e.to_string() })?;
    if !aqo_replay::validate::executable(&inst, aqo_exec::data::MAX_TUPLES as u64) {
        return Err(CliError::Unsupported(format!(
            "exec validate: {path} is too large to materialize (max {} rows per relation)",
            aqo_exec::data::MAX_TUPLES
        )));
    }
    // Calibrate the plan the optimizer would actually pick.
    let outcome = aqo_driver::optimize_qon(&inst, &QonDriverConfig::default())
        .map_err(CliError::Driver)?;
    let z = outcome.optimum.sequence;
    let mut rng = StdRng::seed_from_u64(seed);
    let cal = aqo_exec::validate::calibrate(&inst, &z, trials, &mut rng);
    if args.iter().any(|a| a == "--json") {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"aqo-exec-validate/v1\",\n  \"file\": ");
        aqo_obs::json::escape_into(&mut out, path);
        out.push_str(",\n  \"order\": [");
        for (i, v) in z.order().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&v.to_string());
        }
        out.push_str(&format!(
            "],\n  \"tier\": \"{}\",\n  \"trials\": {},\n  \"predicted_cost\": {:.3},\n  \
             \"measured_work\": {:.3},\n  \"cost_error\": {:.4},\n  \
             \"worst_intermediate_error\": {:.4},\n  \"predicted_intermediates\": [",
            outcome.report.tier,
            cal.trials,
            cal.predicted_cost,
            cal.measured_work,
            cal.cost_error(),
            cal.worst_intermediate_error(1.0),
        ));
        for (i, v) in cal.predicted_intermediates.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{v:.3}"));
        }
        out.push_str("],\n  \"measured_intermediates\": [");
        for (i, v) in cal.measured_intermediates.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{v:.3}"));
        }
        out.push_str("]\n}\n");
        match required_flag_value(args, "--out")? {
            Some(file) => {
                std::fs::write(file, &out)
                    .map_err(|source| CliError::Io { path: file.to_string(), source })?;
                println!("wrote {file}");
            }
            None => print!("{out}"),
        }
    } else {
        println!("plan {:?} (tier {}, {} trial(s))", z.order(), outcome.report.tier, cal.trials);
        println!(
            "predicted cost {:.1}, measured work {:.1} (relative error {:.3})",
            cal.predicted_cost,
            cal.measured_work,
            cal.cost_error()
        );
        for (i, (p, m)) in
            cal.predicted_intermediates.iter().zip(&cal.measured_intermediates).enumerate()
        {
            println!("N_{i}: predicted {p:.1}, measured {m:.1}");
        }
        println!("worst intermediate error {:.3}", cal.worst_intermediate_error(1.0));
    }
    Ok(())
}

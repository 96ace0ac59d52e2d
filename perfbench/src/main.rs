//! `aqo-perfbench`: the end-to-end and per-layer benchmark of `aqo serve`.
//!
//! ```text
//! aqo-perfbench --aqo <path/to/aqo> --workload <name> --seed <n> --seconds <n> --trace <0|1>
//!               [--plant-wrong-cost]
//! ```
//!
//! `--trace 0` boots a fresh `aqo serve --threads 1`, drives the workload
//! over one loopback connection in a closed loop, checks every answer
//! against the exact oracle, and prints the end-to-end metrics. `--trace 1`
//! runs the same requests against a fresh server (for transport time and
//! the server's own counters) and then replays them in-process with a span
//! around every layer call, printing the per-layer metrics. The last
//! stdout line is one JSON object `{correct, attempted, failed, metrics}`;
//! the line before it carries diagnostics. Any failed operation makes the
//! exit code 1. See `perfbench/README.md`.

mod host;
mod live;
mod pool;
mod traced;

use pool::{Checker, Item, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Where the traced run writes its spans, relative to the checkout root.
const SPANS_DIR: &str = ".bench_out";

/// Servers booted only to time their start-up, before the measured
/// one; `setup_s` is taken over these and the measured server's boot.
const SPARE_BOOTS: usize = 100;

/// The timed phase is cut into windows of about this length; each
/// window's requests are divided by the speed factor of the reference
/// units run inside it.
const WINDOW: Duration = Duration::from_millis(100);

/// After each timed request the client runs reference units for this
/// share of the request's latency (at least one unit).
const REF_SHARE: f64 = 0.4;

struct Args {
    aqo: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Corrupts the oracle's expected cost of the first pool instance, to
    /// prove that the correctness check can fail.
    plant_wrong_cost: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let number = |flag: &str| -> Result<Option<u64>, String> {
        value(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: not a number: {v}")))
            .transpose()
    };
    let name = value("--workload").ok_or("--workload is required")?;
    Ok(Args {
        aqo: PathBuf::from(value("--aqo").ok_or("--aqo is required")?),
        workload: Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
        seed: number("--seed")?.unwrap_or(1),
        seconds: number("--seconds")?.unwrap_or(20).max(1),
        trace: match value("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        plant_wrong_cost: argv.iter().any(|a| a == "--plant-wrong-cost"),
    })
}

/// Linear-interpolation quantile of `v` (sorted in place).
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    quantile(&mut v.to_vec(), 0.5)
}

/// Operations attempted and failed, with the first failure's message.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    first_error: Option<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }
}

/// The untimed first pass over the pool (ids 1..=K): warms the server and,
/// with the cache on, fills it.
fn warm_up(conn: &mut live::Conn, pool: &[Item], checker: &mut Checker, tally: &mut Tally) {
    let mut reply = String::new();
    for (i, item) in pool.iter().enumerate() {
        let id = i as u64 + 1;
        tally.attempted += 1;
        let outcome = conn
            .roundtrip(&item.line(id), &mut reply)
            .and_then(|()| checker.check(pool, i, id, &reply).map(|_| ()));
        if let Err(e) = outcome {
            tally.fail(format!("warm-up request {id}: {e}"));
        }
    }
}

/// One boot: its time in seconds, raw and divided by the host's spawn
/// factor taken just before it, and whether its probe missed the
/// acceptor's first `accept`.
struct Boot {
    raw_s: f64,
    norm_s: f64,
    spawn_ms: f64,
    missed_first_accept: bool,
}

/// Boots a server after timing the spawn reference, and records the boot.
fn boot(aqo: &Path, boots: &mut Vec<Boot>) -> Result<(live::Server, live::Conn), String> {
    let spawn_ms = host::spawn_ms()?;
    let (server, conn, times) = live::Server::boot(aqo)?;
    let raw_s = times.ready.as_secs_f64();
    boots.push(Boot {
        raw_s,
        norm_s: raw_s / (spawn_ms / host::SPAWN_REF_MS),
        spawn_ms,
        missed_first_accept: times.missed_first_accept(),
    });
    Ok((server, conn))
}

/// The median boot time (normalized, or raw) of the boots whose probe
/// made the first `accept`: `setup_s`. A probe that misses it waits out
/// the acceptor's 10 ms poll, and how many miss depends on the host's
/// load (from none to more than a third of 101 boots in runs minutes
/// apart), so
/// a median or quantile over all boots flips between the two modes.
/// Every boot counts only if every probe missed.
fn setup_s(boots: &[Boot], time: fn(&Boot) -> f64) -> f64 {
    let made: Vec<f64> = boots
        .iter()
        .filter(|b| !b.missed_first_accept)
        .map(time)
        .collect();
    match made.is_empty() {
        false => median(&made),
        true => median(&boots.iter().map(time).collect::<Vec<_>>()),
    }
}

/// Everything one invocation prints.
struct Outcome {
    tally: Tally,
    /// (name, value, unit), in `BENCHMARK.json` order.
    metrics: Vec<(String, f64, &'static str)>,
    detail: Vec<(String, String)>,
}

/// A stretch of consecutive timed requests `first..end` and the
/// reference units run between them.
struct Window {
    first: usize,
    end: usize,
    ref_us: Vec<f64>,
}

/// The end-to-end run: a fresh server, one connection, a closed loop,
/// client and server pinned to one CPU. Replies are kept raw during the
/// timed phase and checked after it, so checking never delays a request.
/// Every time metric is host-normalized (see [`host`]): each request's
/// latency is divided by the speed factor of the reference units run in
/// its 100 ms window, each boot by the spawn time taken just before it
/// over [`host::SPAWN_REF_MS`]. The raw figures are in the detail line.
fn untraced(args: &Args, pool: &[Item]) -> Result<Outcome, String> {
    let k = pool.len();
    let host_before = host::ref_ms();
    let mut boots = Vec::new();
    for _ in 0..SPARE_BOOTS {
        boot(&args.aqo, &mut boots)?;
    }
    let (server, mut conn) = boot(&args.aqo, &mut boots)?;
    host::pin(server.pid(), host::last_allowed_cpu()?)?;
    let mut checker = Checker::default();
    let mut tally = Tally::default();
    warm_up(&mut conn, pool, &mut checker, &mut tally);

    let mut latency_us = Vec::new();
    let mut replies: Vec<String> = Vec::new();
    let mut transport_err = None;
    let mut line = String::new();
    let mut windows = Vec::new();
    let mut ref_us = Vec::new();
    let mut first = 0;
    let t0 = Instant::now();
    let mut w0 = t0;
    while t0.elapsed().as_secs_f64() < args.seconds as f64 {
        let r = replies.len();
        pool[r % k].write_line((k + r) as u64 + 1, &mut line);
        let mut reply = String::new();
        let r0 = Instant::now();
        if let Err(e) = conn.roundtrip(&line, &mut reply) {
            transport_err = Some(e);
            break;
        }
        let us = r0.elapsed().as_secs_f64() * 1e6;
        latency_us.push(us);
        replies.push(reply);
        let units = Instant::now();
        loop {
            let u0 = Instant::now();
            host::ref_unit(ref_us.len() as u64);
            ref_us.push(u0.elapsed().as_secs_f64() * 1e6);
            if units.elapsed().as_secs_f64() * 1e6 >= us * REF_SHARE {
                break;
            }
        }
        if w0.elapsed() >= WINDOW {
            let end = replies.len();
            let ref_us = std::mem::take(&mut ref_us);
            windows.push(Window { first, end, ref_us });
            (first, w0) = (end, Instant::now());
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    if first < replies.len() {
        let (end, ref_us) = (replies.len(), std::mem::take(&mut ref_us));
        windows.push(Window { first, end, ref_us });
    }
    tally.attempted += replies.len();
    let mut peak_rss_kib = 0;
    if let Some(e) = transport_err {
        tally.attempted += 1;
        tally.fail(format!("transport: {e}"));
    } else {
        peak_rss_kib = server.peak_rss_kib()?;
        server.shutdown(conn)?;
    }
    for (r, reply) in replies.iter().enumerate() {
        let id = (k + r) as u64 + 1;
        if let Err(e) = checker.check(pool, r % k, id, reply) {
            tally.fail(format!("request {id}: {e}"));
        }
    }
    let host_after = host::ref_ms();

    let mut factors = Vec::new();
    let mut norm_us = Vec::new();
    for w in &windows {
        let factor = host::factor_of(&w.ref_us);
        factors.push(factor);
        norm_us.extend(latency_us[w.first..w.end].iter().map(|us| us / factor));
    }
    let norm_total_s = norm_us.iter().sum::<f64>() / 1e6;
    let p50 = quantile(&mut norm_us, 0.50) / 1e3;
    let p90 = quantile(&mut norm_us, 0.90) / 1e3;
    let p99 = quantile(&mut norm_us, 0.99) / 1e3;
    let metrics = [
        ("latency_p50_ms", p50, "ms"),
        ("latency_p90_ms", p90, "ms"),
        ("throughput_rps", norm_us.len() as f64 / norm_total_s, "1/s"),
        ("setup_s", setup_s(&boots, |b| b.norm_s), "s"),
        ("peak_rss_mb", peak_rss_kib as f64 / 1024.0, "MB"),
    ]
    .map(|(name, value, unit)| (name.to_string(), value, unit))
    .to_vec();
    let mut detail = host_detail(host_before, host_after);
    let raw_ms = |v: &mut Vec<f64>, q| format!("{}", quantile(v, q) / 1e3);
    detail.extend([
        ("latency_p99_ms".into(), format!("{p99}")),
        ("timed_requests".into(), replies.len().to_string()),
        (
            "beyond_p90".into(),
            norm_us
                .iter()
                .filter(|&&u| u / 1e3 > p90)
                .count()
                .to_string(),
        ),
        ("timed_wall_s".into(), format!("{wall}")),
        (
            "speed_factor_p10".into(),
            format!("{}", quantile(&mut factors, 0.1)),
        ),
        (
            "speed_factor_p50".into(),
            format!("{}", quantile(&mut factors, 0.5)),
        ),
        (
            "speed_factor_p90".into(),
            format!("{}", quantile(&mut factors, 0.9)),
        ),
        ("raw_latency_p50_ms".into(), raw_ms(&mut latency_us, 0.50)),
        ("raw_latency_p90_ms".into(), raw_ms(&mut latency_us, 0.90)),
        ("raw_latency_p99_ms".into(), raw_ms(&mut latency_us, 0.99)),
        (
            "raw_throughput_rps".into(),
            format!("{}", replies.len() as f64 / wall),
        ),
        ("boots".into(), boots.len().to_string()),
        (
            "boots_missing_first_accept".into(),
            boots
                .iter()
                .filter(|b| b.missed_first_accept)
                .count()
                .to_string(),
        ),
        (
            "raw_setup_s".into(),
            format!("{}", setup_s(&boots, |b| b.raw_s)),
        ),
        (
            "spawn_ref_ms".into(),
            format!(
                "{}",
                median(&boots.iter().map(|b| b.spawn_ms).collect::<Vec<_>>())
            ),
        ),
    ]);
    Ok(Outcome {
        tally,
        metrics,
        detail,
    })
}

fn host_detail(before: f64, after: f64) -> Vec<(String, String)> {
    vec![
        ("host.ref_ms_before".into(), format!("{before}")),
        ("host.ref_ms_after".into(), format!("{after}")),
        (
            "host.nproc".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("host.cpu_model".into(), json_str(&host::cpu_model())),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    aqo_obs::json::escape_into(&mut out, s);
    out
}

/// Share of `--seconds` the traced run spends on timed requests: each
/// request runs live and then in-process (driver, tier again, recosts),
/// so a traced request costs about three live ones.
const TRACED_SHARE: f64 = 0.4;

/// Time layers of the traced run: (metric, span, self time or total).
/// `serve.cache.insert` is not among them: a timed request never inserts
/// (the cache is either off or already filled by the warm-up pass), so it
/// only enters the layer-sum remainder.
const TIME_LAYERS: [(&str, &str, bool); 9] = [
    ("serve.proto.parse_us", "serve.proto.parse", true),
    ("core.textio.parse_us", "core.textio.parse", true),
    ("core.fingerprint_us", "core.fingerprint", true),
    ("serve.cache.lookup_us", "serve.cache.lookup", true),
    ("serve.reply.encode_us", "serve.reply.encode", true),
    ("driver.optimize_us", "driver.optimize", false),
    ("optimizer.tier_us", "optimizer.tier", true),
    ("bignum.recost_exact_us", "bignum.recost_exact", true),
    ("bignum.recost_log_us", "bignum.recost_log", true),
];

/// The layers `Engine::handle` calls; the handler time minus their self
/// times is the layer-sum remainder.
const HANDLE_LAYERS: [&str; 5] = [
    "core.textio.parse",
    "core.fingerprint",
    "serve.cache.lookup",
    "serve.cache.insert",
    "driver.optimize",
];

/// Median of the finite values (a request whose live reply failed leaves
/// a NaN in its slot).
fn finite_median(v: &[f64]) -> f64 {
    median(
        &v.iter()
            .copied()
            .filter(|x| x.is_finite())
            .collect::<Vec<_>>(),
    )
}

/// The per-layer run. Each request goes first to the run's own untraced
/// server (client latency, the reply's handler time, and at the end the
/// server's counters), then is replayed in-process with spans. Pairing
/// the two request by request keeps host drift out of their differences.
fn traced_run(args: &Args, pool: &[Item]) -> Result<Outcome, String> {
    let k = pool.len();
    let host_before = host::ref_ms();
    let (server, mut conn, _) = live::Server::boot(&args.aqo)?;
    host::pin(server.pid(), host::last_allowed_cpu()?)?;
    // The server's registry settings: metrics on, journal off.
    aqo_obs::set_enabled(true);
    aqo_obs::journal::set_capture(false);
    let cache = aqo_serve::PlanCache::new(1024);
    let mut tracer = traced::Tracer::new();
    let mut checker = Checker::default();
    let mut tally = Tally::default();
    // Per timed request; NaN where the live reply failed.
    let mut latency_us = Vec::new();
    let mut elapsed_us = Vec::new();
    let (mut line, mut reply) = (String::new(), String::new());
    let mut transport_ok = true;
    // The server's counters when the timed phase starts.
    let mut counters_before = BTreeMap::new();
    let mut t0 = Instant::now();
    let mut r = 0;
    // The warm-up pass (r < k), then the timed requests.
    loop {
        if r == k {
            counters_before = conn.counters()?;
            t0 = Instant::now();
        }
        if r >= k && t0.elapsed().as_secs_f64() >= args.seconds as f64 * TRACED_SHARE {
            break;
        }
        let (idx, id) = (r % k, r as u64 + 1);
        // The live exchange and the in-process replay count as one
        // operation each; a transport error ends the run before the replay.
        tally.attempted += 1;
        pool[idx].write_line(id, &mut line);
        let r0 = Instant::now();
        if let Err(e) = conn.roundtrip(&line, &mut reply) {
            tally.fail(format!("transport: {e}"));
            transport_ok = false;
            break;
        }
        let us = r0.elapsed().as_secs_f64() * 1e6;
        let live = checker.check(pool, idx, id, &reply);
        if r >= k {
            let handled = live.as_ref().map_or(f64::NAN, |ans| ans.elapsed_us as f64);
            latency_us.push(if handled.is_nan() { f64::NAN } else { us });
            elapsed_us.push(handled);
        }
        if let Err(e) = live {
            tally.fail(format!("request {id}: {e}"));
        }
        tally.attempted += 1;
        let replayed = traced::replay_one(&mut tracer, &cache, &pool[idx], id)
            .and_then(|line| checker.check(pool, idx, id, &line).map(|_| ()));
        if let Err(e) = replayed {
            tally.fail(format!("traced request {id}: {e}"));
        }
        r += 1;
    }
    let timed = elapsed_us.len();
    let ids: Vec<u64> = (k..k + timed).map(|r| r as u64 + 1).collect();
    let counters_after = if transport_ok {
        let c = conn.counters()?;
        server.shutdown(conn)?;
        c
    } else {
        counters_before.clone()
    };
    let host_after = host::ref_ms();
    std::fs::create_dir_all(SPANS_DIR).map_err(|e| format!("{SPANS_DIR}: {e}"))?;
    let spans_path = Path::new(SPANS_DIR).join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&spans_path, tracer.to_jsonl())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    // Only the timed requests count (the warm-up pass fills the cache).
    let layers = traced::layer_times(&tracer, &ids)?;
    let zeros = vec![0.0; timed];
    let self_us = |name: &str| layers.self_us.get(name).unwrap_or(&zeros);
    let total_us = |name: &str| layers.total_us.get(name).unwrap_or(&zeros);
    let handle_us = finite_median(&elapsed_us);
    let per_req = |f: &dyn Fn(usize) -> f64| finite_median(&(0..timed).map(f).collect::<Vec<_>>());
    let mut times: Vec<(&str, f64)> = vec![
        ("serve.handle_us", handle_us),
        (
            "serve.transport_us",
            per_req(&|r| latency_us[r] - elapsed_us[r]),
        ),
    ];
    for (metric, span, own) in TIME_LAYERS {
        times.push((
            metric,
            median(if own { self_us(span) } else { total_us(span) }),
        ));
    }
    times.push((
        "driver.overhead_us",
        per_req(&|r| match total_us("driver.optimize")[r] {
            0.0 => 0.0,
            d => d - self_us("optimizer.tier")[r],
        }),
    ));
    let remainder =
        per_req(&|r| elapsed_us[r] - HANDLE_LAYERS.iter().map(|n| self_us(n)[r]).sum::<f64>());
    times.push(("serve.handle.remainder_us", remainder));

    let share = |us: f64| {
        if handle_us > 0.0 {
            us / handle_us * 100.0
        } else {
            0.0
        }
    };
    let mut metrics: Vec<(String, f64, &'static str)> = times
        .iter()
        .map(|&(name, us)| (name.to_string(), us, "us"))
        .collect();
    for &(name, us) in &times[1..] {
        metrics.push((format!("{name}.share_pct"), share(us), "%"));
    }
    // Counts cover the timed requests only: the server's counters at the
    // end minus those read when the timed phase started.
    let per_request = |name: &str| {
        let read = |c: &BTreeMap<String, f64>| c.get(name).copied().unwrap_or(0.0);
        (read(&counters_after) - read(&counters_before)) / timed.max(1) as f64
    };
    let (hits, misses) = (
        per_request("serve.cache.hits"),
        per_request("serve.cache.misses"),
    );
    let counts = [
        (
            "serve.cache.hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
            "ratio",
        ),
        (
            "driver.tiers_tried",
            per_request("driver.tier_start"),
            "count",
        ),
        (
            "optimizer.dp.subsets_expanded",
            per_request("optimizer.dp.subsets_expanded"),
            "count",
        ),
        (
            "optimizer.dp.transitions",
            per_request("optimizer.dp.transitions"),
            "count",
        ),
        (
            "optimizer.pipeline.sequences_costed",
            per_request("optimizer.pipeline.sequences_costed"),
            "count",
        ),
        (
            "budget.memory_charged_bytes",
            per_request("budget.memory_charged_bytes"),
            "bytes",
        ),
        (
            "obs.trace_overhead_pct",
            share(median(total_us("serve.handle"))) - 100.0,
            "%",
        ),
    ];
    metrics.extend(counts.map(|(name, value, unit)| (name.to_string(), value, unit)));
    let mut detail = host_detail(host_before, host_after);
    detail.extend([
        ("traced_requests".into(), timed.to_string()),
        ("spans".into(), tracer.spans.len().to_string()),
        (
            "spans_file".into(),
            json_str(&spans_path.display().to_string()),
        ),
        ("layer_sum_remainder_us".into(), format!("{remainder}")),
    ]);
    Ok(Outcome {
        tally,
        metrics,
        detail,
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(host::NOOP_ARG) {
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let t0 = Instant::now();
    let outcome = pool::build(args.workload, args.seed).and_then(|mut pool| {
        eprintln!(
            "perfbench: pool and oracle built in {:.2} s",
            t0.elapsed().as_secs_f64()
        );
        if args.plant_wrong_cost {
            pool[0].expected.push('1');
        }
        if args.trace {
            traced_run(&args, &pool)
        } else {
            untraced(&args, &pool)
        }
    });
    let Outcome {
        tally,
        metrics,
        mut detail,
    } = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::from(2);
        }
    };
    if let Some(e) = &tally.first_error {
        eprintln!("perfbench: {}: first failure: {e}", args.workload.name());
        detail.push(("first_error".into(), json_str(e)));
    }
    let mut line = format!(
        "{{\"detail\": {{\"workload\": \"{}\", \"seed\": {}",
        args.workload.name(),
        args.seed
    );
    for (k, v) in &detail {
        let _ = write!(line, ", \"{k}\": {v}");
    }
    line.push_str("}}");
    println!("{line}");
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

//! The load generator behind `aqo loadgen`: fires a deterministic mixed
//! QO_N/QO_H workload at a live server, validates every answer against
//! the sequential driver, and emits `BENCH_serve.json`
//! (schema `aqo-bench-serve/v2`).
//!
//! Every request's expected cost is precomputed *in-process* with the
//! same sequential driver defaults the server uses, so "wrong cost" means
//! exactly that: the concurrent service returned a plan whose cost
//! differs from the single-threaded answer for that instance. The
//! acceptance bar is zero.

use crate::client::{Client, RetryConfig};
use crate::proto::{Op, Problem, Request};
use aqo_bignum::BigUint;
use aqo_core::{parallel, textio, workloads};
use aqo_obs::json::{self, JsonValue};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// Which problem families the workload draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// QO_N only.
    Qon,
    /// QO_H only.
    Qoh,
    /// Two thirds QO_N, one third QO_H.
    Mixed,
}

impl Mix {
    /// Parses the `--mix` flag value.
    pub fn parse(s: &str) -> Option<Mix> {
        match s {
            "qon" => Some(Mix::Qon),
            "qoh" => Some(Mix::Qoh),
            "mixed" => Some(Mix::Mixed),
            _ => None,
        }
    }

    /// Wire/report name.
    pub fn name(self) -> &'static str {
        match self {
            Mix::Qon => "qon",
            Mix::Qoh => "qoh",
            Mix::Mixed => "mixed",
        }
    }
}

/// Load-generator configuration (defaults match the committed
/// `BENCH_serve.json` run).
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Requests per concurrency level.
    pub requests: usize,
    /// Concurrency levels, each run in sequence.
    pub concurrency: Vec<usize>,
    /// Problem-family mix.
    pub mix: Mix,
    /// Distinct QO_N instances in the pool (QO_H uses half, min 2).
    pub pool: usize,
    /// Workload seed.
    pub seed: u64,
    /// Retain per-request detail (tier/cost/plan/latency) from the
    /// *first* concurrency level as [`crate::record::RecordedRequest`]s
    /// on the report — the `--record` path. Only the first level is
    /// captured so every request id appears exactly once in the recorded
    /// workload; later levels re-send the same ids for throughput.
    pub record: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7878".into(),
            requests: 200,
            concurrency: vec![1, 2, 4],
            mix: Mix::Mixed,
            pool: 6,
            seed: 42,
            record: false,
        }
    }
}

/// One concurrency level's measurements.
#[derive(Clone, Debug)]
pub struct LevelResult {
    /// Client threads.
    pub concurrency: usize,
    /// Requests sent (and answered).
    pub requests: usize,
    /// Responses with `ok: false` or transport failures.
    pub errors: usize,
    /// Responses whose cost differed from the sequential driver's.
    /// Degraded responses are excluded: an overloaded server answering
    /// with a tagged heuristic plan is working as designed, and its cost
    /// is bounded-worse, not wrong.
    pub wrong_cost: usize,
    /// Responses tagged `"degraded": true` (overload ladder).
    pub degraded: usize,
    /// Responses served from the plan cache.
    pub cached: usize,
    /// Wall-clock for the whole level, microseconds.
    pub elapsed_us: u64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 90th-percentile request latency, microseconds.
    pub p90_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile request latency, microseconds.
    pub p999_us: u64,
    /// Requests per second over the level.
    pub throughput_rps: f64,
    /// Server-side cache hits during the level (status delta).
    pub cache_hits: u64,
    /// Server-side cache misses during the level (status delta).
    pub cache_misses: u64,
    /// `hits / (hits + misses)` during the level.
    pub cache_hit_rate: f64,
}

/// The full run: every level plus totals.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Echo of the mix.
    pub mix: Mix,
    /// QO_N pool size.
    pub pool_qon: usize,
    /// QO_H pool size.
    pub pool_qoh: usize,
    /// Requests per level.
    pub requests_per_level: usize,
    /// Per-level measurements.
    pub levels: Vec<LevelResult>,
    /// Per-request observations from the first concurrency level, sorted
    /// by request id ([`LoadgenConfig::record`]; empty otherwise). Not
    /// part of the `aqo-bench-serve/v2` JSON — the CLI writes them as an
    /// `aqo-workload/v1` file instead.
    pub recorded: Vec<crate::record::RecordedRequest>,
}

impl LoadgenReport {
    /// Total requests across levels.
    pub fn total_requests(&self) -> usize {
        self.levels.iter().map(|l| l.requests).sum()
    }

    /// Total wrong-cost responses across levels (must be 0).
    pub fn total_wrong_cost(&self) -> usize {
        self.levels.iter().map(|l| l.wrong_cost).sum()
    }

    /// Total error responses across levels.
    pub fn total_errors(&self) -> usize {
        self.levels.iter().map(|l| l.errors).sum()
    }

    /// Total degraded responses across levels.
    pub fn total_degraded(&self) -> usize {
        self.levels.iter().map(|l| l.degraded).sum()
    }

    /// `BENCH_serve.json` rendering, schema `aqo-bench-serve/v2` (v2 adds
    /// `p90_us`/`p999_us` per level, computed from the same log-bucketed
    /// histogram that powers the live `metrics` op).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema\": \"aqo-bench-serve/v2\",\n");
        let _ = writeln!(out, "  \"mix\": \"{}\",", self.mix.name());
        let _ = writeln!(out, "  \"pool_qon\": {},", self.pool_qon);
        let _ = writeln!(out, "  \"pool_qoh\": {},", self.pool_qoh);
        let _ = writeln!(out, "  \"requests_per_level\": {},", self.requests_per_level);
        let _ = writeln!(out, "  \"total_requests\": {},", self.total_requests());
        let _ = writeln!(out, "  \"total_errors\": {},", self.total_errors());
        let _ = writeln!(out, "  \"total_wrong_cost\": {},", self.total_wrong_cost());
        let _ = writeln!(out, "  \"total_degraded\": {},", self.total_degraded());
        out.push_str("  \"levels\": [\n");
        for (i, l) in self.levels.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"concurrency\": {}, \"requests\": {}, \"errors\": {}, \
                 \"wrong_cost\": {}, \"degraded\": {}, \"cached\": {}, \"elapsed_us\": {}, \
                 \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \
                 \"throughput_rps\": {:.1}, \
                 \"cache_hits\": {}, \"cache_misses\": {}, \"cache_hit_rate\": {:.4}}}",
                l.concurrency,
                l.requests,
                l.errors,
                l.wrong_cost,
                l.degraded,
                l.cached,
                l.elapsed_us,
                l.p50_us,
                l.p90_us,
                l.p99_us,
                l.p999_us,
                l.throughput_rps,
                l.cache_hits,
                l.cache_misses,
                l.cache_hit_rate,
            );
            out.push_str(if i + 1 < self.levels.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// One pre-built request with its expected (sequential-driver) answer.
struct Prepared {
    req: Request,
    expected_cost: String,
}

/// Builds the instance pool and precomputes expected costs with the
/// sequential driver (threads = 1, default chains, no budget).
fn prepare(cfg: &LoadgenConfig) -> Result<(Vec<Prepared>, usize, usize), String> {
    let params = workloads::WorkloadParams::default();
    let mut qon = Vec::new();
    let mut qoh = Vec::new();
    let pool_qon = cfg.pool.max(1);
    let pool_qoh = (cfg.pool / 2).max(2);
    if cfg.mix != Mix::Qoh {
        for i in 0..pool_qon {
            let n = 6 + (i % 4);
            let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(i as u64));
            let inst = if i % 2 == 0 {
                workloads::chain(n, &params, &mut rng)
            } else {
                workloads::cycle(n, &params, &mut rng)
            };
            let outcome = aqo_driver::optimize_qon(&inst, &aqo_driver::QonDriverConfig::default())
                .map_err(|e| format!("precompute qon[{i}]: {e}"))?;
            qon.push((textio::qon_to_text(&inst), outcome.optimum.cost.to_string()));
        }
    }
    if cfg.mix != Mix::Qon {
        for i in 0..pool_qoh {
            let n = 5 + (i % 2);
            let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(1000 + i as u64));
            let base = workloads::chain(n, &params, &mut rng);
            // Memory = product of all relation sizes: every intermediate
            // is bounded by it and η < 1, so hjmin never exceeds M and
            // the exhaustive tier always finds a feasible plan.
            let memory = base
                .sizes()
                .iter()
                .fold(BigUint::from(1u64), |acc, s| &acc * s);
            let inst = aqo_core::qoh::QoHInstance::new(
                base.graph().clone(),
                base.sizes().to_vec(),
                base.selectivity().clone(),
                memory,
            );
            let outcome = aqo_driver::optimize_qoh(&inst, &aqo_driver::QohDriverConfig::default())
                .map_err(|e| format!("precompute qoh[{i}]: {e}"))?;
            qoh.push((textio::qoh_to_text(&inst), outcome.plan.cost.to_string()));
        }
    }
    let mut prepared = Vec::with_capacity(cfg.requests);
    for j in 0..cfg.requests {
        let use_qoh = match cfg.mix {
            Mix::Qon => false,
            Mix::Qoh => true,
            Mix::Mixed => j % 3 == 2,
        };
        let (pool, problem) = if use_qoh { (&qoh, Problem::Qoh) } else { (&qon, Problem::Qon) };
        let (text, expected) = &pool[j % pool.len()];
        let mut req = Request::new(Op::Optimize, problem);
        req.id = j as u64;
        req.instance = Some(text.clone());
        prepared.push(Prepared { req, expected_cost: expected.clone() });
    }
    Ok((prepared, qon.len(), qoh.len()))
}

/// Server-side cache counters, read via a `status` round trip.
fn cache_counters(addr: &str) -> Result<(u64, u64), String> {
    let mut req = Request::new(Op::Status, Problem::Qon);
    req.id = u64::MAX >> 1;
    let line = crate::client::oneshot(addr, &req).map_err(|e| format!("status: {e}"))?;
    let doc = json::parse(&line).map_err(|e| format!("status response: {e}"))?;
    let cache = doc.get("cache").ok_or("status response has no cache object")?;
    let field = |k: &str| {
        cache
            .get(k)
            .and_then(JsonValue::as_num)
            .map(|n| n as u64)
            .ok_or_else(|| format!("status cache has no `{k}`"))
    };
    Ok((field("hits")?, field("misses")?))
}

/// What one client thread measured.
#[derive(Default)]
struct WorkerTally {
    latencies_us: Vec<u64>,
    errors: usize,
    wrong_cost: usize,
    degraded: usize,
    cached: usize,
    /// Per-request observations (recording levels only) — the detail the
    /// aggregation below used to discard.
    recorded: Vec<crate::record::RecordedRequest>,
}

/// Runs the full loadgen: every concurrency level in sequence against
/// `cfg.addr`. Fails fast on transport errors to the status endpoint;
/// per-request transport errors are counted, not fatal.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    let (prepared, pool_qon, pool_qoh) = prepare(cfg)?;
    let mut levels = Vec::new();
    let mut recorded = Vec::new();
    for (level_idx, &c) in cfg.concurrency.iter().enumerate() {
        let c = c.max(1);
        let recording = cfg.record && level_idx == 0;
        let (hits0, misses0) = cache_counters(&cfg.addr)?;
        let t0 = std::time::Instant::now();
        let retry = RetryConfig::default();
        let tallies = parallel::run_workers(c, |w| {
            let mut tally = WorkerTally::default();
            let mut client =
                match Client::connect_with_timeout(&cfg.addr, retry.read_timeout) {
                    Ok(cl) => cl,
                    Err(_) => {
                        // Count every request this worker owned as an error.
                        tally.errors = (w..prepared.len()).step_by(c).count();
                        return tally;
                    }
                };
            for p in prepared.iter().skip(w).step_by(c) {
                let r0 = std::time::Instant::now();
                // Retrying roundtrip: transient faults (overload,
                // injected errors, dropped connections) are absorbed with
                // backoff; only exhausted retries count as errors.
                let line = match client.roundtrip_retry(&p.req, &retry) {
                    Ok(l) => l,
                    Err(_) => {
                        tally.errors += 1;
                        let _ = client.reconnect();
                        continue;
                    }
                };
                let latency_us = r0.elapsed().as_micros() as u64;
                tally.latencies_us.push(latency_us);
                match json::parse(&line) {
                    Ok(doc) => {
                        if !matches!(doc.get("ok"), Some(JsonValue::Bool(true))) {
                            tally.errors += 1;
                            continue;
                        }
                        if recording {
                            if let Some(rec) =
                                crate::record::capture_from_json(&p.req, &doc, latency_us)
                            {
                                tally.recorded.push(rec);
                            }
                        }
                        if matches!(doc.get("cached"), Some(JsonValue::Bool(true))) {
                            tally.cached += 1;
                        }
                        if matches!(doc.get("degraded"), Some(JsonValue::Bool(true))) {
                            // Tagged heuristic answer under overload: the
                            // exact-cost oracle does not apply to it.
                            tally.degraded += 1;
                            continue;
                        }
                        let cost = doc.get("cost").and_then(JsonValue::as_str);
                        if cost != Some(p.expected_cost.as_str()) {
                            tally.wrong_cost += 1;
                        }
                    }
                    Err(_) => tally.errors += 1,
                }
            }
            tally
        });
        let elapsed_us = t0.elapsed().as_micros().max(1) as u64;
        let (hits1, misses1) = cache_counters(&cfg.addr)?;
        if recording {
            for t in &tallies {
                recorded.extend(t.recorded.iter().cloned());
            }
            recorded.sort_by_key(|r| r.request.id);
        }
        // Quantiles come from the same log-bucketed histogram the live
        // `metrics` op uses, so offline BENCH numbers and online `aqo top`
        // numbers share one definition (eighth-octave resolution).
        let hist = aqo_obs::Histogram::detached();
        let mut answered = 0usize;
        for t in &tallies {
            for &us in &t.latencies_us {
                hist.record_always(us);
                answered += 1;
            }
        }
        let hits = hits1.saturating_sub(hits0);
        let misses = misses1.saturating_sub(misses0);
        levels.push(LevelResult {
            concurrency: c,
            requests: prepared.len(),
            errors: tallies.iter().map(|t| t.errors).sum(),
            wrong_cost: tallies.iter().map(|t| t.wrong_cost).sum(),
            degraded: tallies.iter().map(|t| t.degraded).sum(),
            cached: tallies.iter().map(|t| t.cached).sum(),
            elapsed_us,
            p50_us: hist.quantile(0.50),
            p90_us: hist.quantile(0.90),
            p99_us: hist.quantile(0.99),
            p999_us: hist.quantile(0.999),
            throughput_rps: answered as f64 / (elapsed_us as f64 / 1e6),
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_rate: if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
        });
    }
    Ok(LoadgenReport {
        mix: cfg.mix,
        pool_qon,
        pool_qoh,
        requests_per_level: cfg.requests,
        levels,
        recorded,
    })
}

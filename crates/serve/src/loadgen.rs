//! The load generator behind `aqo loadgen`: the concurrent oracle and
//! workload recorder. It fires a deterministic mixed QO_N/QO_H workload
//! at a live server from `concurrency` client threads and checks every
//! answer against the sequential driver. It times nothing: latency is
//! perfbench's job.
//!
//! Every request's expected cost is precomputed *in-process* with the
//! same sequential driver defaults the server uses, so "wrong cost" means
//! exactly that: the concurrent service returned a plan whose cost
//! differs from the single-threaded answer for that instance. The
//! acceptance bar is zero.

use crate::client::{Client, RetryConfig};
use crate::proto::{Op, Problem, Request};
use crate::record::RecordedRequest;
use aqo_bignum::BigUint;
use aqo_core::{parallel, textio, workloads};
use aqo_obs::json::{self, JsonValue};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
}

/// Load-generator configuration.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Requests sent, each exactly once.
    pub requests: usize,
    /// Client threads sending them.
    pub concurrency: usize,
    /// Problem-family mix.
    pub mix: Mix,
    /// Distinct QO_N instances in the pool (QO_H uses half, min 2).
    pub pool: usize,
    /// Workload seed.
    pub seed: u64,
    /// Retain each replayable answer as a [`RecordedRequest`] on the
    /// report — the `--record` path.
    pub record: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7878".into(),
            requests: 200,
            concurrency: 4,
            mix: Mix::Mixed,
            pool: 6,
            seed: 42,
            record: false,
        }
    }
}

/// What the oracle made of the run.
#[derive(Clone, Debug, Default)]
pub struct LoadgenReport {
    /// Requests sent.
    pub requests: usize,
    /// Requests that ended in an error reply, an unparsable reply or a
    /// transport failure after retries.
    pub errors: usize,
    /// Responses whose cost differed from the sequential driver's.
    pub wrong_cost: usize,
    /// Responses tagged `"degraded": true` (overload ladder). The cost
    /// oracle skips them: an overloaded server answering with a tagged
    /// heuristic plan is working as designed, and its cost is
    /// bounded-worse, not wrong.
    pub degraded: usize,
    /// Responses served from the plan cache.
    pub cached: usize,
    /// Every replayable answer, sorted by request id
    /// ([`LoadgenConfig::record`]; empty otherwise).
    pub recorded: Vec<RecordedRequest>,
}

/// One pre-built request with its expected (sequential-driver) answer.
struct Prepared {
    req: Request,
    expected_cost: String,
}

/// Builds the instance pool and precomputes expected costs with the
/// sequential driver (threads = 1, default chains, no budget).
fn prepare(cfg: &LoadgenConfig) -> Result<Vec<Prepared>, String> {
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
    Ok(prepared)
}

/// The oracle's reading of one reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    /// A non-degraded answer at the expected cost.
    Ok,
    /// A non-degraded answer at any other cost, or with none.
    WrongCost,
    /// A degraded answer: the cost oracle does not apply to it.
    Degraded,
    /// No answer: an error reply, or nothing parsable.
    Error,
}

/// Judges one parsed reply (`None`: none arrived, or it did not parse)
/// against the sequential driver's cost.
fn verdict(doc: Option<&JsonValue>, expected_cost: &str) -> Verdict {
    let Some(doc) = doc.filter(|d| matches!(d.get("ok"), Some(JsonValue::Bool(true)))) else {
        return Verdict::Error;
    };
    if matches!(doc.get("degraded"), Some(JsonValue::Bool(true))) {
        Verdict::Degraded
    } else if doc.get("cost").and_then(JsonValue::as_str) == Some(expected_cost) {
        Verdict::Ok
    } else {
        Verdict::WrongCost
    }
}

/// Sends every prepared request once, over `cfg.concurrency` client
/// threads, and tallies the verdicts. Transport errors count against the
/// request, never abort the run.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    let prepared = prepare(cfg)?;
    let c = cfg.concurrency.max(1);
    let retry = RetryConfig::default();
    let tallies = parallel::run_workers(c, |w| {
        let mut tally = LoadgenReport::default();
        let mut client = Client::connect_with_timeout(&cfg.addr, retry.read_timeout).ok();
        for p in prepared.iter().skip(w).step_by(c) {
            tally.requests += 1;
            // Retrying roundtrip: transient faults (overload, injected
            // errors, dropped connections) are absorbed with backoff; only
            // exhausted retries count as errors.
            let line = client.as_mut().and_then(|cl| {
                let line = cl.roundtrip_retry(&p.req, &retry);
                if line.is_err() {
                    let _ = cl.reconnect();
                }
                line.ok()
            });
            let doc = line.and_then(|l| json::parse(&l).ok());
            match verdict(doc.as_ref(), &p.expected_cost) {
                Verdict::Ok => {}
                Verdict::WrongCost => tally.wrong_cost += 1,
                Verdict::Degraded => tally.degraded += 1,
                Verdict::Error => tally.errors += 1,
            }
            let Some(doc) = doc else { continue };
            if matches!(doc.get("cached"), Some(JsonValue::Bool(true))) {
                tally.cached += 1;
            }
            if cfg.record {
                tally.recorded.extend(crate::record::capture_from_json(&p.req, &doc));
            }
        }
        tally
    });
    let mut report = LoadgenReport::default();
    for t in tallies {
        report.requests += t.requests;
        report.errors += t.errors;
        report.wrong_cost += t.wrong_cost;
        report.degraded += t.degraded;
        report.cached += t.cached;
        report.recorded.extend(t.recorded);
    }
    report.recorded.sort_by_key(|r| r.request.id);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn judge(line: &str) -> Verdict {
        verdict(json::parse(line).ok().as_ref(), "42")
    }

    #[test]
    fn verdict_reads_each_reply_kind() {
        assert_eq!(judge(r#"{"ok": true, "cost": "42", "cached": true}"#), Verdict::Ok);
        assert_eq!(judge(r#"{"ok": true, "cost": "43"}"#), Verdict::WrongCost);
        assert_eq!(judge(r#"{"ok": true}"#), Verdict::WrongCost, "a missing cost cannot match");
        assert_eq!(judge(r#"{"ok": true, "degraded": true, "cost": "99"}"#), Verdict::Degraded);
        assert_eq!(
            judge(r#"{"ok": false, "error": {"kind": "injected", "message": "x"}}"#),
            Verdict::Error
        );
        assert_eq!(judge("not json"), Verdict::Error);
        assert_eq!(verdict(None, "42"), Verdict::Error, "transport failure");
    }
}

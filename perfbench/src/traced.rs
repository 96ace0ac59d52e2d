//! The traced run: the same requests replayed in-process through each
//! layer's public functions, in the order the server calls them, with a
//! span around every call. Spans live in memory and are written out at
//! the end; per-layer self times come from them.

use crate::pool::{self, Inst, Item, Plan};
use aqo_bignum::BigRational;
use aqo_core::fingerprint::{canonical_qoh, canonical_qon, fnv1a};
use aqo_core::{textio, Budget, CostScalar};
use aqo_driver::{BudgetSpec, QohDriverConfig, QohTier, QonDriverConfig, QonTier};
use aqo_optimizer::{ccp, dp, pipeline};
use aqo_serve::cache::CachedPlan;
use aqo_serve::proto::OkReply;
use aqo_serve::{PlanCache, Reply, Request};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `end_ns == 0` means it was never closed.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// An in-memory span recorder with an explicit stack.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    req: u64,
    /// Exits that did not match the innermost open span.
    pub unbalanced: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
            unbalanced: 0,
        }
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            req: self.req,
        });
        self.stack.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        if self.stack.pop() != Some(id) {
            self.unbalanced += 1;
        }
        self.spans[id].end_ns = end_ns.max(self.spans[id].start_ns + 1);
    }

    /// Runs `f` inside a span named `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// The spans as JSON Lines (name, start, end, parent, request id).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        out
    }
}

/// Handles one request in-process exactly as `aqo serve` does (request
/// parse → instance parse → fingerprint → cache lookup → driver → cache
/// insert), then calls the winning tier directly, recosts the returned
/// plan both ways, and encodes the reply. Returns the reply line.
pub fn replay_one(
    t: &mut Tracer,
    cache: &PlanCache,
    item: &Item,
    id: u64,
) -> Result<String, String> {
    let line = item.line(id);
    t.req = id;
    let root = t.enter("request");
    let out = replay_inner(t, cache, item, &line);
    t.exit(root);
    out
}

fn replay_inner(
    t: &mut Tracer,
    cache: &PlanCache,
    item: &Item,
    line: &str,
) -> Result<String, String> {
    let req = t.span("serve.proto.parse", || Request::parse(line.trim_end()))?;
    let handle = t.enter("serve.handle");
    let handled = match &item.inst {
        Inst::Qon(_) => handle_qon(t, cache, &req),
        Inst::Qoh(_) => handle_qoh(t, cache, &req),
    };
    t.exit(handle);
    let mut ok = handled?;
    ok.elapsed_us = (t.spans[handle].end_ns - t.spans[handle].start_ns) / 1000;
    if !ok.cached {
        let tier = ok.tier.clone();
        let direct = t.span("optimizer.tier", || {
            tier_direct(item, &tier, req.allow_cartesian)
        })?;
        if direct != ok.cost {
            return Err(format!(
                "tier {tier} called directly gives {direct}, driver gave {}",
                ok.cost
            ));
        }
    }
    let plan = Plan {
        order: ok.order.clone(),
        decomposition: ok.decomposition.clone(),
    };
    t.span("bignum.recost_exact", || pool::recost_exact(item, &plan))?;
    t.span("bignum.recost_log", || pool::recost_log(item, &plan))?;
    let reply = Reply::Ok(ok);
    Ok(t.span("serve.reply.encode", || reply.to_json_line()))
}

fn budget_spec(req: &Request) -> BudgetSpec {
    BudgetSpec {
        timeout: None,
        max_expansions: req.max_expansions,
        max_memory_bytes: None,
    }
}

fn ok_reply(req: &Request, fingerprint: u64, plan: CachedPlan, cached: bool) -> Box<OkReply> {
    Box::new(OkReply {
        id: req.id,
        op: req.op,
        problem: req.problem,
        fingerprint,
        cached,
        tier: plan.tier,
        exact: plan.exact,
        degraded: false,
        order: plan.order,
        cost: plan.cost,
        cost_log2: plan.cost_log2,
        decomposition: plan.decomposition,
        explain: None,
        elapsed_us: 0,
    })
}

fn lookup(
    t: &mut Tracer,
    cache: &PlanCache,
    req: &Request,
    hash: u64,
    key: &str,
) -> Option<Box<OkReply>> {
    if !req.use_cache {
        return None;
    }
    let hit = t.span("serve.cache.lookup", || cache.lookup(hash, key))?;
    Some(ok_reply(req, hash, hit, true))
}

fn finish(
    t: &mut Tracer,
    cache: &PlanCache,
    req: &Request,
    hash: u64,
    key: String,
    plan: CachedPlan,
) -> Box<OkReply> {
    if req.use_cache && plan.exact {
        let value = plan.clone();
        t.span("serve.cache.insert", || cache.insert(hash, key, value));
    }
    ok_reply(req, hash, plan, false)
}

fn handle_qon(t: &mut Tracer, cache: &PlanCache, req: &Request) -> Result<Box<OkReply>, String> {
    let text = req.instance.as_deref().unwrap_or_default();
    let inst = t
        .span("core.textio.parse", || textio::qon_from_text(text))
        .map_err(|e| e.to_string())?;
    let (key, hash) = t.span("core.fingerprint", || {
        let key = format!(
            "qon cart={} {}",
            u8::from(req.allow_cartesian),
            canonical_qon(&inst)
        );
        let hash = fnv1a(key.as_bytes());
        (key, hash)
    });
    if let Some(hit) = lookup(t, cache, req, hash, &key) {
        return Ok(hit);
    }
    let cfg = QonDriverConfig {
        budget: budget_spec(req),
        chain: QonTier::default_chain(),
        allow_cartesian: req.allow_cartesian,
        threads: req.threads,
        ..QonDriverConfig::default()
    };
    let out = t
        .span("driver.optimize", || aqo_driver::optimize_qon(&inst, &cfg))
        .map_err(|e| e.to_string())?;
    let cost = out.optimum.cost;
    let plan = CachedPlan {
        tier: out.report.tier.to_string(),
        exact: out.report.exact,
        order: out.optimum.sequence.order().to_vec(),
        cost_log2: CostScalar::log2(&cost),
        cost: cost.to_string(),
        decomposition: None,
    };
    Ok(finish(t, cache, req, hash, key, plan))
}

fn handle_qoh(t: &mut Tracer, cache: &PlanCache, req: &Request) -> Result<Box<OkReply>, String> {
    let text = req.instance.as_deref().unwrap_or_default();
    let inst = t
        .span("core.textio.parse", || textio::qoh_from_text(text))
        .map_err(|e| e.to_string())?;
    let (key, hash) = t.span("core.fingerprint", || {
        let key = format!("qoh {}", canonical_qoh(&inst));
        let hash = fnv1a(key.as_bytes());
        (key, hash)
    });
    if let Some(hit) = lookup(t, cache, req, hash, &key) {
        return Ok(hit);
    }
    let cfg = QohDriverConfig {
        budget: budget_spec(req),
        chain: QohTier::default_chain(),
        threads: req.threads,
        ..QohDriverConfig::default()
    };
    let out = t
        .span("driver.optimize", || aqo_driver::optimize_qoh(&inst, &cfg))
        .map_err(|e| e.to_string())?;
    let plan = CachedPlan {
        tier: out.report.tier.to_string(),
        exact: out.report.exact,
        order: out.plan.sequence.order().to_vec(),
        cost_log2: out.plan.cost.log2(),
        cost: out.plan.cost.to_string(),
        decomposition: Some(out.plan.decomposition.fragments().to_vec()),
    };
    Ok(finish(t, cache, req, hash, key, plan))
}

/// The winning tier's public entry point, called directly with the
/// request's settings (one thread, no budget), keyed by the reply's tier.
fn tier_direct(item: &Item, tier: &str, allow_cartesian: bool) -> Result<String, String> {
    let budget = Budget::unlimited();
    let cost: Option<BigRational> = match (&item.inst, tier) {
        (Inst::Qon(q), "dp") => dp::optimize_with_budget(q, allow_cartesian, &budget)
            .map_err(|e| e.to_string())?
            .map(|o| o.cost),
        (Inst::Qon(q), "ccp") => ccp::optimize_two_phase(q, 1, &budget)
            .map_err(|e| e.to_string())?
            .map(|o| o.cost),
        (Inst::Qoh(h), "exhaustive") => pipeline::optimize_exhaustive_with_budget(h, &budget)
            .map_err(|e| e.to_string())?
            .map(|p| p.cost),
        (_, other) => return Err(format!("no direct entry point for tier `{other}`")),
    };
    cost.map(|c| c.to_string())
        .ok_or_else(|| format!("tier {tier} found no plan"))
}

/// Per-request self and total times (µs) of every span name, over the
/// requests in `reqs`; a name absent from a request counts as 0 there.
pub struct LayerTimes {
    pub self_us: BTreeMap<&'static str, Vec<f64>>,
    pub total_us: BTreeMap<&'static str, Vec<f64>>,
}

/// Checks the span forest (every span closed, exits balanced, every
/// request has spans) and folds it into per-request layer times.
pub fn layer_times(t: &Tracer, reqs: &[u64]) -> Result<LayerTimes, String> {
    if t.unbalanced > 0 {
        return Err(format!("{} unbalanced span exit(s)", t.unbalanced));
    }
    if let Some(s) = t.spans.iter().find(|s| s.end_ns == 0) {
        return Err(format!(
            "span `{}` of request {} never closed",
            s.name, s.req
        ));
    }
    let mut child_ns = vec![0u64; t.spans.len()];
    for s in &t.spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let pos: BTreeMap<u64, usize> = reqs.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    let mut seen = vec![false; reqs.len()];
    let mut self_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut total_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (i, s) in t.spans.iter().enumerate() {
        let Some(&r) = pos.get(&s.req) else { continue };
        seen[r] = true;
        let total = (s.end_ns - s.start_ns) as f64 / 1e3;
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e3;
        self_us
            .entry(s.name)
            .or_insert_with(|| vec![0.0; reqs.len()])[r] += own;
        total_us
            .entry(s.name)
            .or_insert_with(|| vec![0.0; reqs.len()])[r] += total;
    }
    if let Some(r) = seen.iter().position(|s| !s) {
        return Err(format!("request {} has no spans", reqs[r]));
    }
    Ok(LayerTimes { self_us, total_us })
}

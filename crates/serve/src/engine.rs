//! The transport-free request handler: parse → fail point → cache →
//! driver → cache insert → reply.
//!
//! [`Engine::handle`] is everything the service does to one
//! optimize/explain request, independent of how the request arrived (TCP,
//! stdio, or a test calling it directly). The server wraps it with
//! admission control and a worker pool; the stress tests call it straight
//! from `aqo_core::parallel::run_workers` threads.
//!
//! Failure containment: the whole of request handling runs under
//! `catch_unwind`, and the `serve::request` fail point
//! ([`aqo_obs::faults`]) fires *inside* that guard — an injected panic
//! or error therefore produces a structured error response instead of a
//! dead worker or a dropped connection.

use crate::cache::{CachedPlan, PlanCache};
use crate::proto::{ErrReply, ErrorKind, OkReply, Op, Problem, Reply, Request};
use aqo_bignum::write_u64;
use aqo_core::fingerprint::{fnv1a, write_canonical_qoh, write_canonical_qon};
use aqo_core::{explain, textio, CostScalar};
use aqo_driver::{BudgetSpec, QohDriverConfig, QohTier, QonDriverConfig, QonTier};
use aqo_obs::faults;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// How far overload has pushed a request down the graceful-degradation
/// ladder. Admission control picks the level from queue pressure *before*
/// shedding: a loaded server first answers with cheaper (heuristic) tiers
/// and only rejects outright once the queue is actually full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Degrade {
    /// No pressure: the request's own chain runs unchanged.
    Full,
    /// Moderate pressure: drop the exponential exact tiers
    /// (`ikkbz → greedy` for QO_N, `greedy` for QO_H).
    Light,
    /// High pressure: polynomial heuristics only (`greedy`).
    Heavy,
}

impl Degrade {
    /// Ladder-level name used in replies, events, and `CHAOS.json`.
    pub fn name(self) -> &'static str {
        match self {
            Degrade::Full => "full",
            Degrade::Light => "light",
            Degrade::Heavy => "heavy",
        }
    }

    fn qon_chain(self) -> Option<Vec<QonTier>> {
        match self {
            Degrade::Full => None,
            Degrade::Light => Some(vec![QonTier::Ikkbz, QonTier::Greedy]),
            Degrade::Heavy => Some(vec![QonTier::Greedy]),
        }
    }

    fn qoh_chain(self) -> Option<Vec<QohTier>> {
        match self {
            Degrade::Full => None,
            Degrade::Light | Degrade::Heavy => Some(vec![QohTier::Greedy]),
        }
    }
}

/// The request handler shared by every worker. Owns the plan cache.
pub struct Engine {
    cache: PlanCache,
    /// Applied when a request carries no `timeout_ms` of its own.
    default_timeout: Option<Duration>,
}

impl Engine {
    /// An engine with a plan cache of `cache_capacity` entries (0
    /// disables caching) and an optional server-side default deadline.
    pub fn new(cache_capacity: usize, default_timeout: Option<Duration>) -> Self {
        Engine { cache: PlanCache::new(cache_capacity), default_timeout }
    }

    /// The plan cache (for status snapshots and tests).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Handles one optimize/explain request end to end and returns the
    /// reply. Never panics: injected faults and panics inside handling
    /// come back as structured error responses.
    pub fn handle(&self, req: &Request) -> Reply {
        self.handle_degraded(req, Degrade::Full)
    }

    /// As [`Engine::handle`], at an overload-chosen ladder level: past
    /// [`Degrade::Full`] the request's fallback chain is replaced with a
    /// cheaper one (unless the client pinned `method`/`fallback`, which is
    /// respected) and the reply is tagged `"degraded": true`.
    pub fn handle_degraded(&self, req: &Request, degrade: Degrade) -> Reply {
        let _span = aqo_obs::span!("serve.request");
        let t0 = Instant::now();
        let outcome = faults::with_quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                if let Err(f) = faults::fail_point("serve::request") {
                    return Reply::Err(ErrReply::new(
                        req.id,
                        ErrorKind::Injected,
                        f.to_string(),
                    ));
                }
                self.solve(req, degrade)
            }))
        });
        let mut reply = outcome.unwrap_or_else(|payload| {
            Reply::Err(ErrReply::new(req.id, ErrorKind::Panic, panic_message(payload)))
        });
        let us = t0.elapsed().as_micros() as u64;
        if let Reply::Ok(ok) = &mut reply {
            ok.elapsed_us = us;
        }
        if aqo_obs::enabled() {
            aqo_obs::histogram_handle!("serve.request_us").record(us);
            if reply.is_ok() {
                aqo_obs::counter_handle!("serve.responses.ok").inc();
            } else {
                aqo_obs::counter_handle!("serve.responses.error").inc();
            }
            // Successful optimize/explain responses journal the full plan
            // observation so `aqo replay extract` can rebuild a workload
            // baseline from the journal alone (`order`/`decomposition` are
            // comma-joined strings — journal values carry no arrays). The
            // journal drops events while capture is off: build no fields
            // for it then.
            if aqo_obs::journal::capturing() {
                let mut fields = vec![
                    ("id", req.id.into()),
                    ("op", req.op.name().into()),
                    ("problem", req.problem.name().into()),
                    ("ok", reply.is_ok().into()),
                    ("cached", matches!(&reply, Reply::Ok(r) if r.cached).into()),
                    ("us", us.into()),
                ];
                if let Reply::Ok(ok) = &reply {
                    fields.push(("fingerprint", format!("{:#018x}", ok.fingerprint).into()));
                    fields.push(("tier", ok.tier.clone().into()));
                    fields.push(("exact", ok.exact.into()));
                    fields.push(("degraded", ok.degraded.into()));
                    fields.push(("cost", ok.cost.clone().into()));
                    fields.push(("cost_log2", ok.cost_log2.into()));
                    fields.push(("order", join_indices(&ok.order).into()));
                    if let Some(frags) = &ok.decomposition {
                        fields.push(("decomposition", join_fragments(frags).into()));
                    }
                }
                aqo_obs::journal::event("serve_response", fields);
            }
        }
        reply
    }

    fn solve(&self, req: &Request, degrade: Degrade) -> Reply {
        match req.problem {
            Problem::Qon => self.solve_qon(req, degrade),
            Problem::Qoh => self.solve_qoh(req, degrade),
            // Clique is answered by one polynomial-in-practice exact
            // routine with no tier ladder; it does not degrade.
            Problem::Clique => self.solve_clique(req),
        }
    }

    /// Resolves the ladder level against the request: explicit
    /// `method`/`fallback` pins win (the client asked for *that*
    /// algorithm; a silently weaker one would be a lie), everything else
    /// degrades. Emits the `serve.degraded` counter and event when a
    /// request is actually degraded.
    fn effective_degrade(req: &Request, degrade: Degrade) -> Degrade {
        if degrade == Degrade::Full || req.method.is_some() || req.fallback.is_some() {
            return Degrade::Full;
        }
        if aqo_obs::enabled() {
            aqo_obs::counter_handle!("serve.degraded").inc();
            aqo_obs::journal::event(
                "serve_degraded",
                vec![("id", req.id.into()), ("level", degrade.name().into())],
            );
        }
        degrade
    }

    /// Whether this request participates in the plan cache. Explain
    /// requests never do: their value is the walkthrough text, which is
    /// cheap to recompute and expensive to store.
    fn caching(req: &Request) -> bool {
        req.use_cache && req.op == Op::Optimize
    }

    fn budget_spec(&self, req: &Request) -> BudgetSpec {
        BudgetSpec {
            timeout: req.timeout_ms.map(Duration::from_millis).or(self.default_timeout),
            max_expansions: req.max_expansions,
            max_memory_bytes: None,
        }
    }

    fn solve_qon(&self, req: &Request, degrade: Degrade) -> Reply {
        let text = req.instance.as_deref().unwrap_or_default();
        let inst = match textio::qon_from_text(text) {
            Ok(i) => i,
            Err(e) => return err(req, ErrorKind::Parse, format!("instance: {e}")),
        };
        // The canonical key carries every request knob that changes the
        // answer; budget and chain do not (only exact plans are cached).
        let mut key = String::with_capacity(text.len() + 16);
        key.push_str(if req.allow_cartesian { "qon cart=1 " } else { "qon cart=0 " });
        write_canonical_qon(&mut key, &inst);
        let hash = fnv1a(key.as_bytes());
        if Self::caching(req) {
            if let Some(hit) = self.cache.lookup(hash, &key) {
                // A cached exact plan is free: no reason to degrade it.
                return Reply::Ok(ok_reply(req, hash, true, hit));
            }
        }
        let degrade = Self::effective_degrade(req, degrade);
        let chain = match degrade.qon_chain() {
            Some(c) => c,
            None => match chain_spec(req) {
                Ok(spec) => match spec {
                    Some(s) => match QonTier::parse_chain(s) {
                        Ok(c) => c,
                        Err(e) => return err(req, ErrorKind::Usage, e),
                    },
                    None => QonTier::default_chain(),
                },
                Err(e) => return err(req, ErrorKind::Usage, e),
            },
        };
        let cfg = QonDriverConfig {
            budget: self.budget_spec(req),
            chain,
            allow_cartesian: req.allow_cartesian,
            threads: req.threads,
            ..QonDriverConfig::default()
        };
        let outcome = match aqo_driver::optimize_qon(&inst, &cfg) {
            Ok(o) => o,
            Err(e) => return err(req, ErrorKind::Driver, e.to_string()),
        };
        let explain_text =
            (req.op == Op::Explain).then(|| explain::explain_qon(&inst, &outcome.optimum.sequence));
        let plan = CachedPlan {
            tier: outcome.report.tier.to_string(),
            exact: outcome.report.exact,
            order: outcome.optimum.sequence.order().to_vec(),
            cost: outcome.optimum.cost.to_string(),
            cost_log2: CostScalar::log2(&outcome.optimum.cost),
            decomposition: None,
        };
        self.answer(req, hash, key, plan, degrade, explain_text)
    }

    fn solve_qoh(&self, req: &Request, degrade: Degrade) -> Reply {
        let text = req.instance.as_deref().unwrap_or_default();
        let inst = match textio::qoh_from_text(text) {
            Ok(i) => i,
            Err(e) => return err(req, ErrorKind::Parse, format!("instance: {e}")),
        };
        let mut key = String::with_capacity(text.len() + 8);
        key.push_str("qoh ");
        write_canonical_qoh(&mut key, &inst);
        let hash = fnv1a(key.as_bytes());
        if Self::caching(req) {
            if let Some(hit) = self.cache.lookup(hash, &key) {
                return Reply::Ok(ok_reply(req, hash, true, hit));
            }
        }
        let degrade = Self::effective_degrade(req, degrade);
        let chain = match degrade.qoh_chain() {
            Some(c) => c,
            None => match chain_spec(req) {
                Ok(spec) => match spec {
                    Some(s) => match QohTier::parse_chain(s) {
                        Ok(c) => c,
                        Err(e) => return err(req, ErrorKind::Usage, e),
                    },
                    None => QohTier::default_chain(),
                },
                Err(e) => return err(req, ErrorKind::Usage, e),
            },
        };
        let cfg = QohDriverConfig {
            budget: self.budget_spec(req),
            chain,
            threads: req.threads,
            ..QohDriverConfig::default()
        };
        let outcome = match aqo_driver::optimize_qoh(&inst, &cfg) {
            Ok(o) => o,
            Err(e) => return err(req, ErrorKind::Driver, e.to_string()),
        };
        let explain_text = (req.op == Op::Explain)
            .then(|| {
                explain::explain_qoh(&inst, &outcome.plan.sequence, &outcome.plan.decomposition)
            })
            .flatten();
        let plan = CachedPlan {
            tier: outcome.report.tier.to_string(),
            exact: outcome.report.exact,
            order: outcome.plan.sequence.order().to_vec(),
            cost: outcome.plan.cost.to_string(),
            cost_log2: outcome.plan.cost.log2(),
            decomposition: Some(outcome.plan.decomposition.fragments().to_vec()),
        };
        self.answer(req, hash, key, plan, degrade, explain_text)
    }

    fn solve_clique(&self, req: &Request) -> Reply {
        if req.method.is_some() || req.fallback.is_some() {
            return err(req, ErrorKind::Usage, "clique has no method/fallback selection".into());
        }
        let text = req.instance.as_deref().unwrap_or_default();
        let g = match aqo_graph::io::from_dimacs(text) {
            Ok(g) => g,
            Err(e) => return err(req, ErrorKind::Parse, format!("instance: {e}")),
        };
        // Canonical DIMACS identity: vertex count plus the edge list,
        // which `Graph::edges` yields once per edge, as `u < v`, in
        // ascending order (same construction as `aqo_core::fingerprint`,
        // specialized to unweighted graphs).
        let mut key = String::from("clique ");
        write_u64(&mut key, g.n() as u64);
        key.push('\n');
        for (u, v) in g.edges() {
            key.push_str("e ");
            write_u64(&mut key, u as u64);
            key.push(' ');
            write_u64(&mut key, v as u64);
            key.push('\n');
        }
        let hash = fnv1a(key.as_bytes());
        if Self::caching(req) {
            if let Some(hit) = self.cache.lookup(hash, &key) {
                return Reply::Ok(ok_reply(req, hash, true, hit));
            }
        }
        let clique = aqo_graph::clique::max_clique(&g);
        let omega = clique.len();
        let explain_text = (req.op == Op::Explain).then(|| {
            format!(
                "max clique: {clique:?} (omega = {omega}; colouring/degeneracy \
                 upper bound {})\n",
                aqo_graph::coloring::clique_upper_bound(&g)
            )
        });
        let plan = CachedPlan {
            tier: "clique".into(),
            exact: true,
            order: clique,
            cost: omega.to_string(),
            cost_log2: omega as f64,
            decomposition: None,
        };
        self.answer(req, hash, key, plan, Degrade::Full, explain_text)
    }

    /// Caches an exact freshly computed plan (when the request caches)
    /// and builds its reply.
    fn answer(
        &self,
        req: &Request,
        hash: u64,
        key: String,
        plan: CachedPlan,
        degrade: Degrade,
        explain: Option<String>,
    ) -> Reply {
        if Self::caching(req) && plan.exact {
            self.cache.insert(hash, key, plan.clone());
        }
        let mut ok = ok_reply(req, hash, false, plan);
        ok.degraded = degrade != Degrade::Full;
        ok.explain = explain;
        Reply::Ok(ok)
    }
}

/// `method` routes as a single-tier chain; `fallback` as written. The
/// two are mutually exclusive (already rejected at parse time, but the
/// engine revalidates because tests construct requests directly).
fn chain_spec(req: &Request) -> Result<Option<&str>, String> {
    match (&req.method, &req.fallback) {
        (Some(_), Some(_)) => Err("`method` and `fallback` are mutually exclusive".into()),
        (Some(m), None) => Ok(Some(m.as_str())),
        (None, Some(f)) => Ok(Some(f.as_str())),
        (None, None) => Ok(None),
    }
}

fn err(req: &Request, kind: ErrorKind, message: String) -> Reply {
    Reply::Err(ErrReply::new(req.id, kind, message))
}

/// The reply carrying `plan`: copy-only, no recomputation.
fn ok_reply(req: &Request, fingerprint: u64, cached: bool, plan: CachedPlan) -> Box<OkReply> {
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

/// `[2, 0, 1]` → `"2,0,1"` for journal fields (no array values).
pub(crate) fn join_indices(order: &[usize]) -> String {
    let mut out = String::with_capacity(order.len() * 3);
    for (i, v) in order.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{v}"));
    }
    out
}

/// `[(1, 1), (2, 3)]` → `"1-1,2-3"` for journal fields.
pub(crate) fn join_fragments(frags: &[(usize, usize)]) -> String {
    let mut out = String::with_capacity(frags.len() * 5);
    for (i, (lo, hi)) in frags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{lo}-{hi}"));
    }
    out
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint_of(problem: Problem, text: &str, allow_cartesian: bool) -> u64 {
        let mut req = Request::new(Op::Optimize, problem);
        req.instance = Some(text.to_string());
        req.allow_cartesian = allow_cartesian;
        match Engine::new(4, None).handle(&req) {
            Reply::Ok(ok) => ok.fingerprint,
            other => panic!("unexpected reply {}", other.to_json_line()),
        }
    }

    /// The cache key is the request-knob prefix followed by the canonical
    /// encoding; its FNV-1a is the `fingerprint` every reply, snapshot and
    /// journal carries, so these values are pinned.
    #[test]
    fn cache_key_fingerprints_are_pinned() {
        let qon = "qon\nvertices 3\nsize 0 10\nsize 1 20\nsize 2 30\n\
                   edge 1 2 2/20 2 3\nedge 0 1 1/2 5 10\n";
        let qoh = "qoh\nvertices 3\nmemory 6000\nsize 0 10\nsize 1 20\nsize 2 30\n\
                   edge 0 1 1/2\nedge 2 1 1/10\n";
        // Edges out of order, one given backwards and one twice: the key
        // holds each edge once, as `u < v`, in ascending order.
        let clique = "p edge 4 5\ne 3 4\ne 2 1\ne 1 3\ne 1 2\ne 2 3\n";
        let got = [
            fingerprint_of(Problem::Qon, qon, true),
            fingerprint_of(Problem::Qon, qon, false),
            fingerprint_of(Problem::Qoh, qoh, true),
            fingerprint_of(Problem::Clique, clique, true),
        ];
        assert_eq!(
            got,
            [
                0x8683_d6e3_43b1_cad1,
                0x1e86_99c0_ae80_93fe,
                0x11f0_0f75_b5d4_e727,
                0xaf8d_da97_149a_6ebd,
            ],
            "{got:#018x?}"
        );
    }
}

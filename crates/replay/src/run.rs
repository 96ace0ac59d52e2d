//! `aqo replay run`: re-drives a recorded workload against the current
//! build and diffs every answer against the recorded baseline.
//!
//! Costs are compared *exactly* — both sides parse to `aqo_bignum`
//! rationals, so a regression of one part in 10^40 is still a regression
//! and float formatting can neither hide nor invent one. Plan shape
//! (order, QO_H decomposition) is compared only between equal-cost
//! answers: a cheaper plan with a different shape is an improvement, an
//! equal-cost shape change is still a diff (same build + same request
//! must be deterministic). Tier changes at equal cost/shape are
//! informational — fallback-chain tuning legitimately moves them.
//!
//! Two backends re-drive requests, and both read the reply back through
//! the same capture `serve --record` uses: serve's own [`Engine`],
//! in-process with the plan cache off and no default deadline
//! ([`engine_backend`], the default — hermetic, what CI gates on), and a
//! live server over the existing client ([`live_backend`], `--addr`).

use crate::workload::Workload;
use aqo_bignum::{BigInt, BigRational, BigUint};
use aqo_core::CostScalar;
use aqo_serve::client::{Client, RetryConfig};
use aqo_serve::record::{capture, capture_from_json, RecordedRequest};
use aqo_serve::{Engine, Reply};
use std::cmp::Ordering;
use std::fmt::Write as _;

/// How a replayed request diverged from its baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffKind {
    /// New cost strictly greater than baseline — the gate's reason to be.
    CostRegression,
    /// New cost strictly smaller than baseline (reported, not failing).
    CostImprovement,
    /// Equal cost, different plan shape (order or decomposition).
    PlanChange,
    /// Equal cost and shape, different producing tier (informational).
    TierChange,
    /// The re-drive failed (driver error, transport error, bad baseline).
    Error,
}

impl DiffKind {
    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            DiffKind::CostRegression => "cost_regression",
            DiffKind::CostImprovement => "cost_improvement",
            DiffKind::PlanChange => "plan_change",
            DiffKind::TierChange => "tier_change",
            DiffKind::Error => "error",
        }
    }

    /// Whether this diff fails the regression gate.
    pub fn is_regression(self) -> bool {
        matches!(self, DiffKind::CostRegression | DiffKind::PlanChange | DiffKind::Error)
    }
}

/// One divergent request in the report.
#[derive(Clone, Debug)]
pub struct RequestDiff {
    /// Recorded request id.
    pub id: u64,
    /// Canonical instance fingerprint.
    pub fingerprint: u64,
    /// Divergence class.
    pub kind: DiffKind,
    /// Baseline cost string.
    pub baseline_cost: String,
    /// Re-driven cost string (empty on errors).
    pub new_cost: String,
    /// Baseline tier.
    pub baseline_tier: String,
    /// Re-driven tier (empty on errors).
    pub new_tier: String,
    /// Human-readable detail.
    pub detail: String,
}

/// The `aqo-replay/v1` report.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Workload provenance (header `source`).
    pub source: String,
    /// Entries in the workload.
    pub requests: usize,
    /// Entries re-driven (always equal to `requests` in v1).
    pub replayed: usize,
    /// Count per [`DiffKind::CostRegression`].
    pub cost_regressions: usize,
    /// Count per [`DiffKind::CostImprovement`].
    pub cost_improvements: usize,
    /// Count per [`DiffKind::PlanChange`].
    pub plan_changes: usize,
    /// Count per [`DiffKind::TierChange`].
    pub tier_changes: usize,
    /// Count per [`DiffKind::Error`].
    pub errors: usize,
    /// Every divergent request, in workload order.
    pub diffs: Vec<RequestDiff>,
}

impl ReplayReport {
    /// Diffs that fail the gate (`exit 1` in the CLI).
    pub fn gate_failures(&self) -> usize {
        self.cost_regressions + self.plan_changes + self.errors
    }

    /// Renders the report as deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\n  \"schema\": \"aqo-replay/v1\",\n");
        out.push_str("  \"source\": ");
        aqo_obs::json::escape_into(&mut out, &self.source);
        let _ = write!(
            out,
            ",\n  \"requests\": {},\n  \"replayed\": {},\n  \"cost_regressions\": {},\n  \
             \"cost_improvements\": {},\n  \"plan_changes\": {},\n  \"tier_changes\": {},\n  \
             \"errors\": {},\n  \"gate_failures\": {},\n  \"diffs\": [",
            self.requests,
            self.replayed,
            self.cost_regressions,
            self.cost_improvements,
            self.plan_changes,
            self.tier_changes,
            self.errors,
            self.gate_failures(),
        );
        for (i, d) in self.diffs.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"id\": {}, \"fingerprint\": \"{:#018x}\", \"kind\": \"{}\", \
                 \"baseline_cost\": ",
                d.id,
                d.fingerprint,
                d.kind.name()
            );
            aqo_obs::json::escape_into(&mut out, &d.baseline_cost);
            out.push_str(", \"new_cost\": ");
            aqo_obs::json::escape_into(&mut out, &d.new_cost);
            out.push_str(", \"baseline_tier\": ");
            aqo_obs::json::escape_into(&mut out, &d.baseline_tier);
            out.push_str(", \"new_tier\": ");
            aqo_obs::json::escape_into(&mut out, &d.new_tier);
            out.push_str(", \"detail\": ");
            aqo_obs::json::escape_into(&mut out, &d.detail);
            out.push('}');
        }
        out.push_str(if self.diffs.is_empty() { "]" } else { "\n  ]" });
        out.push_str("\n}\n");
        out
    }
}

/// Parses a cost string (`"123"` or `"123/7"`, always positive) to an
/// exact rational.
pub fn parse_cost(s: &str) -> Result<BigRational, String> {
    let (num, den) = match s.split_once('/') {
        Some((n, d)) => (n, d),
        None => (s, "1"),
    };
    let n = BigUint::from_decimal(num.trim()).map_err(|_| format!("bad cost numerator `{num}`"))?;
    let d =
        BigUint::from_decimal(den.trim()).map_err(|_| format!("bad cost denominator `{den}`"))?;
    if d.is_zero() {
        return Err(format!("zero cost denominator in `{s}`"));
    }
    Ok(BigRational::new(BigInt::from(n), d))
}

/// Re-drives every workload entry through `backend` and classifies the
/// divergences. Each replayed request gets its own trace + `replay.request`
/// span; every diff bumps `replay.diffs` and journals a `replay_diff`
/// event.
pub fn run<F>(workload: &Workload, mut backend: F) -> ReplayReport
where
    F: FnMut(&RecordedRequest) -> Result<RecordedRequest, String>,
{
    let mut report = ReplayReport {
        source: workload.source.clone(),
        requests: workload.entries.len(),
        replayed: 0,
        cost_regressions: 0,
        cost_improvements: 0,
        plan_changes: 0,
        tier_changes: 0,
        errors: 0,
        diffs: Vec::new(),
    };
    for entry in &workload.entries {
        let traced = aqo_obs::enabled();
        let _trace = traced.then(|| {
            aqo_obs::trace::install(aqo_obs::trace::TraceHandle::root(
                aqo_obs::trace::next_trace_id(),
            ))
        });
        let _span = aqo_obs::span!("replay.request");
        if traced {
            aqo_obs::counter_handle!("replay.requests").inc();
        }
        report.replayed += 1;
        let outcome = backend(entry);
        let Some(diff) = classify(entry, &outcome) else { continue };
        match diff.kind {
            DiffKind::CostRegression => report.cost_regressions += 1,
            DiffKind::CostImprovement => report.cost_improvements += 1,
            DiffKind::PlanChange => report.plan_changes += 1,
            DiffKind::TierChange => report.tier_changes += 1,
            DiffKind::Error => report.errors += 1,
        }
        if traced {
            aqo_obs::counter_handle!("replay.diffs").inc();
            aqo_obs::journal::event(
                "replay_diff",
                vec![
                    ("id", diff.id.into()),
                    ("kind", diff.kind.name().into()),
                    ("baseline_cost", diff.baseline_cost.clone().into()),
                    ("new_cost", diff.new_cost.clone().into()),
                    ("detail", diff.detail.clone().into()),
                ],
            );
        }
        report.diffs.push(diff);
    }
    report
}

/// Diffs one re-driven answer against its baseline; `None` = no diff.
fn classify(
    entry: &RecordedRequest,
    outcome: &Result<RecordedRequest, String>,
) -> Option<RequestDiff> {
    let (base, id) = (&entry.plan, entry.request.id);
    let diff = |kind: DiffKind, new_cost: &str, new_tier: &str, detail: String| RequestDiff {
        id,
        fingerprint: entry.fingerprint,
        kind,
        baseline_cost: base.cost.clone(),
        new_cost: new_cost.to_string(),
        baseline_tier: base.tier.clone(),
        new_tier: new_tier.to_string(),
        detail,
    };
    let obs = match outcome {
        Ok(o) => &o.plan,
        Err(e) => return Some(diff(DiffKind::Error, "", "", format!("re-drive failed: {e}"))),
    };
    let base_cost = match parse_cost(&base.cost) {
        Ok(c) => c,
        Err(e) => {
            return Some(diff(DiffKind::Error, &obs.cost, &obs.tier, format!("baseline: {e}")))
        }
    };
    let new_cost = match parse_cost(&obs.cost) {
        Ok(c) => c,
        Err(e) => {
            return Some(diff(DiffKind::Error, &obs.cost, &obs.tier, format!("re-driven: {e}")))
        }
    };
    match new_cost.cmp(&base_cost) {
        Ordering::Greater => {
            let delta = CostScalar::log2(&new_cost) - CostScalar::log2(&base_cost);
            Some(diff(
                DiffKind::CostRegression,
                &obs.cost,
                &obs.tier,
                format!("cost regressed by {delta:.3} bits"),
            ))
        }
        Ordering::Less => {
            let delta = CostScalar::log2(&base_cost) - CostScalar::log2(&new_cost);
            Some(diff(
                DiffKind::CostImprovement,
                &obs.cost,
                &obs.tier,
                format!("cost improved by {delta:.3} bits"),
            ))
        }
        Ordering::Equal => {
            if obs.order != base.order || obs.decomposition != base.decomposition {
                return Some(diff(
                    DiffKind::PlanChange,
                    &obs.cost,
                    &obs.tier,
                    format!(
                        "equal cost, different plan: {:?} vs baseline {:?}",
                        obs.order, base.order
                    ),
                ));
            }
            if obs.tier != base.tier {
                return Some(diff(
                    DiffKind::TierChange,
                    &obs.cost,
                    &obs.tier,
                    format!("tier {} now answers (was {})", obs.tier, base.tier),
                ));
            }
            None
        }
    }
}

/// The in-process backend: serve's [`Engine`] with the plan cache off
/// and no default deadline answers each recorded request — no server, no
/// transport, fully hermetic.
pub fn engine_backend() -> impl FnMut(&RecordedRequest) -> Result<RecordedRequest, String> {
    let engine = Engine::new(0, None);
    move |entry: &RecordedRequest| {
        let reply = engine.handle(&entry.request);
        capture(&entry.request, &reply).ok_or_else(|| match &reply {
            Reply::Err(e) => format!("{} error: {}", e.kind.as_str(), e.message),
            other => format!("unreplayable reply: {}", other.to_json_line()),
        })
    }
}

/// The live backend: re-drives requests through an `aqo-serve` endpoint
/// with the existing retrying client.
pub fn live_backend(
    addr: &str,
) -> Result<impl FnMut(&RecordedRequest) -> Result<RecordedRequest, String>, String> {
    let retry = RetryConfig::default();
    let mut client = Client::connect_with_timeout(addr, retry.read_timeout)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    Ok(move |entry: &RecordedRequest| {
        let line = client.roundtrip_retry(&entry.request, &retry).map_err(|e| {
            let _ = client.reconnect();
            format!("roundtrip: {e}")
        })?;
        let doc = aqo_obs::json::parse(&line).map_err(|e| format!("reply: {e}"))?;
        if !matches!(doc.get("ok"), Some(aqo_obs::json::JsonValue::Bool(true))) {
            return Err(format!("server error: {line}"));
        }
        capture_from_json(&entry.request, &doc)
            .ok_or_else(|| format!("unreplayable reply: {line}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqo_serve::cache::CachedPlan;
    use aqo_serve::proto::{Op, Problem, Request};

    fn entry(cost: &str, order: Vec<usize>, tier: &str) -> RecordedRequest {
        let mut request = Request::new(Op::Optimize, Problem::Qon);
        request.id = 1;
        request.instance = Some("qon\nvertices 1\nsize 0 5\n".into());
        RecordedRequest {
            request,
            fingerprint: 0xab,
            cached: false,
            latency_us: 50,
            plan: CachedPlan {
                tier: tier.into(),
                exact: true,
                order,
                cost: cost.into(),
                cost_log2: 0.0,
                decomposition: None,
            },
        }
    }

    fn observed(cost: &str, order: Vec<usize>, tier: &str) -> Result<RecordedRequest, String> {
        Ok(entry(cost, order, tier))
    }

    #[test]
    fn exact_cost_comparison_classifies_diffs() {
        // 10/4 == 5/2: different strings, same rational — no diff.
        let e = entry("10/4", vec![0, 1], "dp");
        assert!(classify(&e, &observed("5/2", vec![0, 1], "dp")).is_none());
        // Strictly larger — regression.
        let d = classify(&e, &observed("11/4", vec![0, 1], "dp")).unwrap();
        assert_eq!(d.kind, DiffKind::CostRegression);
        assert!(d.kind.is_regression());
        // Strictly smaller — improvement, not a gate failure.
        let d = classify(&e, &observed("9/4", vec![0, 1], "dp")).unwrap();
        assert_eq!(d.kind, DiffKind::CostImprovement);
        assert!(!d.kind.is_regression());
        // Equal cost, different order — plan change (gate failure).
        let d = classify(&e, &observed("5/2", vec![1, 0], "dp")).unwrap();
        assert_eq!(d.kind, DiffKind::PlanChange);
        assert!(d.kind.is_regression());
        // Equal everything, different tier — informational.
        let d = classify(&e, &observed("5/2", vec![0, 1], "ccp")).unwrap();
        assert_eq!(d.kind, DiffKind::TierChange);
        assert!(!d.kind.is_regression());
        // Backend failure — error (gate failure).
        let d = classify(&e, &Err("boom".into())).unwrap();
        assert_eq!(d.kind, DiffKind::Error);
        assert!(d.kind.is_regression());
    }

    #[test]
    fn report_counts_and_json_shape() {
        let w = Workload::new(
            "test",
            None,
            vec![
                entry("4", vec![0], "dp"),
                entry("4", vec![0], "dp"),
                entry("4", vec![0], "dp"),
            ],
        );
        let mut answers = vec![
            observed("4", vec![0], "dp"),      // match
            observed("5", vec![0], "dp"),      // regression
            Err("transport down".to_string()), // error
        ]
        .into_iter();
        let report = run(&w, |_| answers.next().unwrap());
        assert_eq!(report.replayed, 3);
        assert_eq!(report.cost_regressions, 1);
        assert_eq!(report.errors, 1);
        assert_eq!(report.gate_failures(), 2);
        let json = report.to_json();
        let doc = aqo_obs::json::parse(&json).expect("report is valid JSON");
        assert_eq!(
            doc.get("schema").and_then(aqo_obs::json::JsonValue::as_str),
            Some("aqo-replay/v1")
        );
        assert_eq!(doc.get("gate_failures").and_then(aqo_obs::json::JsonValue::as_num), Some(2.0));
        assert_eq!(
            doc.get("diffs").and_then(aqo_obs::json::JsonValue::as_arr).map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn engine_backend_reproduces_recorded_baselines() {
        // Answer a real instance through the engine twice: the second run
        // must replay the first with zero diffs.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let params = aqo_core::workloads::WorkloadParams::default();
        let mut rng = StdRng::seed_from_u64(7);
        let inst = aqo_core::workloads::chain(6, &params, &mut rng);
        let mut backend = engine_backend();
        let mut e = entry("0", vec![], "dp");
        e.request.instance = Some(aqo_core::textio::qon_to_text(&inst));
        e.plan = backend(&e).expect("first drive").plan;
        let w = Workload::new("test", None, vec![e]);
        let report = run(&w, backend);
        assert_eq!(report.gate_failures(), 0, "diffs: {:?}", report.diffs);
        assert!(report.diffs.is_empty());
    }

    #[test]
    fn engine_backend_reports_error_replies() {
        let mut e = entry("1", vec![0], "dp");
        e.request.instance = Some("not an instance".into());
        let err = engine_backend()(&e).unwrap_err();
        assert!(err.starts_with("parse error: instance:"), "{err}");
    }
}

//! `aqo replay validate`: execution-backed validation of the cost model's
//! *ordering* claims.
//!
//! The optimizer is only as trustworthy as the model it minimizes. This
//! layer closes the loop with `aqo-exec`: synthesize data at an instance's
//! declared sizes and selectivities, execute several candidate plans — the
//! optimizer's choice plus each fallback tier's answer plus naive
//! identity/reversed orders — on the *same* databases, and assert that
//! whenever the model prices one plan at least [`ValidateConfig::min_gap_log2`]
//! bits below another, the model-cheaper plan does no more measured work
//! than the model-dearer one, within a multiplicative
//! [`ValidateConfig::tolerance`] averaged over repeated trials.
//!
//! The gate deliberately checks *ordering*, not absolute calibration:
//! constant factors between `w`-weighted model cost and touched-tuple
//! counts are expected, but the model telling the optimizer to prefer a
//! plan that measurably does more work is a correctness bug (or a
//! miscalibrated instance — see `fixtures/miscalibrated.qon`, which this
//! gate must and does reject).

use crate::workload::Workload;
use aqo_bignum::{BigRational, BigUint};
use aqo_core::workloads::WorkloadParams;
use aqo_core::{textio, workloads, CostScalar, JoinSequence};
use aqo_core::qon::QoNInstance;
use aqo_driver::{QonDriverConfig, QonTier};
use aqo_exec::data::{Database, MAX_TUPLES};
use aqo_exec::engine::Executor;
use aqo_graph::generators;
use aqo_reductions::sparse;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// Validation knobs.
#[derive(Clone, Copy, Debug)]
pub struct ValidateConfig {
    /// Databases generated per instance; plans are measured on all of
    /// them (paired trials) and work is averaged.
    pub trials: usize,
    /// Allowed multiplicative slack: the model-cheaper plan's average
    /// measured work may exceed the model-dearer plan's by this fraction
    /// before the pair counts as a violation.
    pub tolerance: f64,
    /// Only plan pairs whose model costs differ by at least this many
    /// bits are gated — closer pairs are within modeling noise.
    pub min_gap_log2: f64,
    /// Seed for instance generation and data synthesis.
    pub seed: u64,
    /// Largest relation cardinality accepted for execution; workload
    /// entries above it are skipped (and counted). The default admits
    /// `aqo gen`-scale relations (tens of thousands of rows) — actual
    /// execution effort is bounded separately by `max_exec_log2`.
    pub max_rows: u64,
    /// Plans whose model cost exceeds this many bits are priced but not
    /// executed: a star joined leaves-first is a cartesian product that
    /// would materialize `~t^{n-1}` composite tuples, and measuring it
    /// teaches the gate nothing the price tag didn't already say.
    pub max_exec_log2: f64,
    /// Restrict the built-in sweep to the chain and star families.
    pub quick: bool,
}

impl Default for ValidateConfig {
    fn default() -> Self {
        ValidateConfig {
            trials: 3,
            tolerance: 0.3,
            min_gap_log2: 0.5,
            seed: 42,
            max_rows: 200_000,
            max_exec_log2: 22.0,
            quick: false,
        }
    }
}

/// One candidate plan's model price and measured work on an instance.
#[derive(Clone, Debug)]
pub struct PlanMeasurement {
    /// Where the plan came from (`dp`, `ikkbz`, `greedy`, `identity`,
    /// `reversed`).
    pub label: String,
    /// The join order.
    pub order: Vec<usize>,
    /// `log2` of the model cost `C(Z)`.
    pub model_log2: f64,
    /// Average touched-tuple count over the paired trials.
    pub measured_work: f64,
}

/// A plan pair where the model's ordering contradicts measurement.
#[derive(Clone, Debug)]
pub struct OrderingViolation {
    /// Instance the pair was measured on.
    pub instance: String,
    /// The model-cheaper plan (which measured *more* work).
    pub cheaper: PlanMeasurement,
    /// The model-dearer plan.
    pub dearer: PlanMeasurement,
    /// `cheaper.measured_work / dearer.measured_work` (> 1 + tolerance).
    pub ratio: f64,
}

/// Per-instance summary.
#[derive(Clone, Debug)]
pub struct InstanceResult {
    /// Instance label (family name or workload request id).
    pub name: String,
    /// Relation count.
    pub n: usize,
    /// Every deduplicated candidate plan, model-cheapest first.
    pub plans: Vec<PlanMeasurement>,
    /// Candidates priced above [`ValidateConfig::max_exec_log2`] and not
    /// executed.
    pub plans_capped: usize,
    /// Gated pairs on this instance.
    pub pairs_checked: usize,
    /// Violating pairs on this instance.
    pub violations: usize,
}

/// The `aqo-replay-validate/v1` report.
#[derive(Clone, Debug)]
pub struct ValidateReport {
    /// Knobs the run used.
    pub config: ValidateConfig,
    /// Every validated instance.
    pub instances: Vec<InstanceResult>,
    /// Workload entries skipped as non-executable (too large, non-u64
    /// sizes, or not QO_N).
    pub skipped: usize,
    /// Total gated pairs.
    pub pairs_checked: usize,
    /// Every ordering violation.
    pub violations: Vec<OrderingViolation>,
}

impl ValidateReport {
    /// An empty report; [`validate_instance`] accumulates into it.
    pub fn new(config: ValidateConfig) -> Self {
        ValidateReport {
            config,
            instances: Vec::new(),
            skipped: 0,
            pairs_checked: 0,
            violations: Vec::new(),
        }
    }

    /// Whether the ordering gate holds: at least one pair checked and no
    /// violations.
    pub fn passed(&self) -> bool {
        self.pairs_checked > 0 && self.violations.is_empty()
    }

    /// Renders the report as deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\n  \"schema\": \"aqo-replay-validate/v1\",\n  \"trials\": {},\n  \
             \"tolerance\": {:.3},\n  \"min_gap_log2\": {:.3},\n  \"seed\": {},\n  \
             \"instances\": [",
            self.config.trials, self.config.tolerance, self.config.min_gap_log2, self.config.seed,
        );
        for (i, inst) in self.instances.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"name\": ");
            aqo_obs::json::escape_into(&mut out, &inst.name);
            let _ = write!(
                out,
                ", \"n\": {}, \"pairs_checked\": {}, \"violations\": {}, \"plans_capped\": {}, \
                 \"plans\": [",
                inst.n, inst.pairs_checked, inst.violations, inst.plans_capped
            );
            for (j, p) in inst.plans.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                push_plan(&mut out, p);
            }
            out.push_str("]}");
        }
        out.push_str(if self.instances.is_empty() { "]" } else { "\n  ]" });
        let _ = write!(
            out,
            ",\n  \"skipped\": {},\n  \"pairs_checked\": {},\n  \"violation_count\": {},\n  \
             \"violations\": [",
            self.skipped,
            self.pairs_checked,
            self.violations.len()
        );
        for (i, v) in self.violations.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"instance\": ");
            aqo_obs::json::escape_into(&mut out, &v.instance);
            out.push_str(", \"cheaper\": ");
            push_plan(&mut out, &v.cheaper);
            out.push_str(", \"dearer\": ");
            push_plan(&mut out, &v.dearer);
            let _ = write!(out, ", \"ratio\": {:.3}}}", v.ratio);
        }
        out.push_str(if self.violations.is_empty() { "]" } else { "\n  ]" });
        let _ = write!(out, ",\n  \"passed\": {}\n}}\n", self.passed());
        out
    }
}

fn push_plan(out: &mut String, p: &PlanMeasurement) {
    out.push_str("{\"label\": ");
    aqo_obs::json::escape_into(out, &p.label);
    out.push_str(", \"order\": [");
    for (i, v) in p.order.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    let _ = write!(
        out,
        "], \"model_log2\": {:.3}, \"measured_work\": {:.3}}}",
        p.model_log2, p.measured_work
    );
}

/// Whether `inst` is small enough to materialize and execute.
pub fn executable(inst: &QoNInstance, max_rows: u64) -> bool {
    let cap = max_rows.min(MAX_TUPLES as u64);
    inst.sizes().iter().all(|t| matches!(t.to_u64(), Some(v) if v <= cap))
        && inst.edges().all(|(_, _, s, _)| {
            // The executor needs d = 1/s in machine range; our families
            // always use unit-fraction selectivities.
            s.recip().to_f64() <= MAX_TUPLES as f64
        })
}

/// Candidate plans: one per single-tier driver run (`dp` is the
/// optimizer's choice, `ikkbz`/`greedy` the fallback tiers' answers) plus
/// the naive identity and reversed orders, deduplicated by join order.
fn candidates(inst: &QoNInstance) -> Vec<(String, JoinSequence)> {
    let mut out: Vec<(String, JoinSequence)> = Vec::new();
    let mut push = |label: &str, z: JoinSequence| {
        if !out.iter().any(|(_, have)| have.order() == z.order()) {
            out.push((label.to_string(), z));
        }
    };
    for tier in [QonTier::Dp, QonTier::Ikkbz, QonTier::Greedy] {
        let cfg = QonDriverConfig { chain: vec![tier], ..QonDriverConfig::default() };
        // A tier that rejects the instance (e.g. IKKBZ on a cyclic graph)
        // simply contributes no candidate.
        if let Ok(outcome) = aqo_driver::optimize_qon(inst, &cfg) {
            push(outcome.report.tier, outcome.optimum.sequence);
        }
    }
    let n = inst.n();
    push("identity", JoinSequence::identity(n));
    push("reversed", JoinSequence::new((0..n).rev().collect()));
    out
}

/// Validates one instance: measures every candidate on `trials` shared
/// databases and gates each sufficiently-separated model ordering.
pub fn validate_instance(
    name: &str,
    inst: &QoNInstance,
    cfg: &ValidateConfig,
    report: &mut ValidateReport,
) {
    assert!(cfg.trials >= 1, "at least one trial");
    let dbs: Vec<Database> = (0..cfg.trials)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ (t as u64).wrapping_mul(0x9e37_79b9));
            Database::generate(inst, &mut rng)
        })
        .collect();
    let mut plans_capped = 0usize;
    let mut plans: Vec<PlanMeasurement> = candidates(inst)
        .into_iter()
        .filter_map(|(label, z)| {
            let model: BigRational = inst.total_cost(&z);
            let model_log2 = CostScalar::log2(&model);
            if model_log2 > cfg.max_exec_log2 {
                plans_capped += 1;
                return None;
            }
            let measured = dbs
                .iter()
                .map(|db| Executor::new(inst, db).run(&z, true).total_work as f64)
                .sum::<f64>()
                / cfg.trials as f64;
            Some(PlanMeasurement {
                label,
                order: z.order().to_vec(),
                model_log2,
                measured_work: measured,
            })
        })
        .collect();
    plans.sort_by(|a, b| a.model_log2.total_cmp(&b.model_log2));
    let mut pairs = 0usize;
    let mut violations = 0usize;
    for i in 0..plans.len() {
        for j in (i + 1)..plans.len() {
            if plans[j].model_log2 - plans[i].model_log2 < cfg.min_gap_log2 {
                continue;
            }
            pairs += 1;
            // Both plans always touch at least the first relation's rows,
            // so measured work is never zero and the ratio is finite.
            let ratio = plans[i].measured_work / plans[j].measured_work;
            if ratio > 1.0 + cfg.tolerance {
                violations += 1;
                report.violations.push(OrderingViolation {
                    instance: name.to_string(),
                    cheaper: plans[i].clone(),
                    dearer: plans[j].clone(),
                    ratio,
                });
            }
        }
    }
    report.pairs_checked += pairs;
    report.instances.push(InstanceResult {
        name: name.to_string(),
        n: inst.n(),
        plans,
        plans_capped,
        pairs_checked: pairs,
        violations,
    });
}

/// The built-in family sweep: chain/star (always), cycle and a
/// reduction-generated gap instance (unless `quick`). Instance shapes and
/// data are fully determined by `cfg.seed`.
pub fn validate_builtin(cfg: &ValidateConfig) -> ValidateReport {
    let mut report = ValidateReport::new(*cfg);
    let params =
        WorkloadParams { min_rows: 40, max_rows: 120, min_sel_den: 20, max_sel_den: 60 };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let chain = workloads::chain(5, &params, &mut rng);
    validate_instance("chain-5", &chain, cfg, &mut report);
    let star = workloads::star(5, &params, &mut rng);
    validate_instance("star-5", &star, cfg, &mut report);
    if !cfg.quick {
        let cycle = workloads::cycle(5, &params, &mut rng);
        validate_instance("cycle-5", &cycle, cfg, &mut report);
        // An executable gap instance from the sparse f_{N,e} reduction:
        // a K₃ CLIQUE source blown up to 9 relations (t = α³ = 8 rows
        // each) with a chain-plus-bridge auxiliary graph, so join orders
        // that respect the bridge structure are modeled — and measured —
        // far apart from orders that don't.
        let gap = sparse::reduce_fn(
            &generators::dense_known_omega(3, 3),
            2,
            10,
            &BigUint::from(2u32),
            &BigUint::from(2u32),
            3,
        );
        validate_instance("gap-sparse-fn-9", &gap.instance, cfg, &mut report);
    }
    report
}

/// Validates the QO_N instances recorded in a workload. Entries that are
/// not executable at `cfg.max_rows` (or are QO_H) are skipped and
/// counted; duplicate fingerprints are validated once.
pub fn validate_workload(workload: &Workload, cfg: &ValidateConfig) -> Result<ValidateReport, String> {
    let mut report = ValidateReport::new(*cfg);
    let mut seen = std::collections::HashSet::new();
    for entry in &workload.entries {
        let req = &entry.request;
        if req.problem != aqo_serve::proto::Problem::Qon || !seen.insert(entry.fingerprint) {
            if req.problem != aqo_serve::proto::Problem::Qon {
                report.skipped += 1;
            }
            continue;
        }
        let inst = textio::qon_from_text(req.instance.as_deref().unwrap_or_default())
            .map_err(|e| format!("request {}: {e}", req.id))?;
        if !executable(&inst, cfg.max_rows) {
            report.skipped += 1;
            continue;
        }
        validate_instance(&format!("request-{}", req.id), &inst, cfg, &mut report);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> ValidateConfig {
        ValidateConfig { trials: 2, ..ValidateConfig::default() }
    }

    #[test]
    fn builtin_families_respect_model_ordering() {
        let report = validate_builtin(&fast());
        assert_eq!(report.instances.len(), 4, "chain, star, cycle, gap");
        assert!(report.pairs_checked > 0, "gate must actually check pairs");
        assert!(
            report.passed(),
            "ordering violations on built-in families: {:?}",
            report.violations
        );
        let json = report.to_json();
        let doc = aqo_obs::json::parse(&json).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(aqo_obs::json::JsonValue::as_str),
            Some("aqo-replay-validate/v1")
        );
        assert!(matches!(doc.get("passed"), Some(aqo_obs::json::JsonValue::Bool(true))));
    }

    #[test]
    fn quick_mode_runs_chain_and_star_only() {
        let report = validate_builtin(&ValidateConfig { quick: true, ..fast() });
        let names: Vec<&str> = report.instances.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["chain-5", "star-5"]);
        assert!(report.passed(), "violations: {:?}", report.violations);
    }

    #[test]
    fn miscalibrated_fixture_fails_the_gate() {
        // The fixture declares w(2,1) at its legal maximum while the data
        // (driven by t·s) behaves like the legal minimum, so the model
        // steers the optimizer to a plan that measurably does more work.
        // The gate exists to catch exactly this.
        let text = include_str!("../fixtures/miscalibrated.qon");
        let inst = textio::qon_from_text(text).expect("fixture parses");
        let cfg = fast();
        let mut report = ValidateReport::new(cfg);
        validate_instance("miscalibrated", &inst, &cfg, &mut report);
        assert!(!report.passed(), "fixture must trip the ordering gate");
        assert!(!report.violations.is_empty());
        let v = &report.violations[0];
        assert!(v.ratio > 1.0 + cfg.tolerance);
        assert!(
            v.cheaper.model_log2 < v.dearer.model_log2,
            "violation records the model-cheaper plan first"
        );
    }

    #[test]
    fn workload_mode_skips_oversized_and_dedups() {
        use aqo_serve::cache::CachedPlan;
        use aqo_serve::proto::{Op, Problem, Request};
        use aqo_serve::record::RecordedRequest;
        let small = "qon\nvertices 2\nsize 0 10\nsize 1 10\nedge 0 1 1/5 2 2\n";
        let huge = "qon\nvertices 2\nsize 0 4000000000000\nsize 1 10\nedge 0 1 1/5 800000000000 2\n";
        let entry = |id: u64, fp: u64, inst: &str| {
            let mut request = Request::new(Op::Optimize, Problem::Qon);
            request.id = id;
            request.instance = Some(inst.into());
            RecordedRequest {
                request,
                fingerprint: fp,
                cached: false,
                latency_us: 1,
                plan: CachedPlan {
                    tier: "dp".into(),
                    exact: true,
                    order: vec![0, 1],
                    cost: "1".into(),
                    cost_log2: 0.0,
                    decomposition: None,
                },
            }
        };
        let w = Workload::new(
            "test",
            None,
            vec![entry(1, 1, small), entry(2, 1, small), entry(3, 2, huge)],
        );
        let report = validate_workload(&w, &fast()).expect("workload validates");
        assert_eq!(report.instances.len(), 1, "duplicate fingerprint validated once");
        assert_eq!(report.skipped, 1, "oversized instance skipped");
    }
}

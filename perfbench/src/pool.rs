//! Workload definitions, seeded instance pools, the exact oracle and the
//! per-reply check.
//!
//! A workload is one problem family at one size. Its pool is
//! `POOL_SIZE` distinct instances drawn from `--seed`; every run cycles
//! the pool in a fixed order, so one seed always means the same requests.
//! Expected costs come from a second exact method where one exists (not
//! the tier the server answers with), computed once before any timed
//! window opens.

use aqo_bignum::{BigRational, BigUint, LogNum};
use aqo_core::qoh::{PipelineDecomposition, QoHInstance};
use aqo_core::qon::QoNInstance;
use aqo_core::{textio, workloads, Budget, JoinSequence};
use aqo_obs::json::{self, JsonValue};
use aqo_optimizer::{ccp, engine, ikkbz, pipeline};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Distinct instances in every pool. Per-instance request cost varies by
/// about ±15% within a workload; 64 instances keep a seed's mix from
/// moving the medians by more than a few percent.
pub const POOL_SIZE: usize = 64;

/// The benchmark workloads (see `perfbench/README.md` for why each).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// QO_N cliques, n = 9, cartesian products allowed, cache off.
    QonDense,
    /// QO_H chains, n = 5, memory = product of relation sizes, cache off.
    QohExhaustive,
    /// QO_N chains and cycles, n = 28, no cartesian products, cache on.
    ServeHot,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::QonDense,
        Workload::QohExhaustive,
        Workload::ServeHot,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::QonDense => "qon-dense",
            Workload::QohExhaustive => "qoh-exhaustive",
            Workload::ServeHot => "serve-hot",
        }
    }
}

/// A parsed instance, kept for recosting replies.
pub enum Inst {
    Qon(QoNInstance),
    Qoh(QoHInstance),
}

/// One pool entry: the request it becomes and its expected answer.
pub struct Item {
    pub inst: Inst,
    /// The request line after `{"id": <id>, ` (no trailing newline).
    pub line_tail: String,
    pub allow_cartesian: bool,
    /// Oracle cost, as the exact rational the server prints.
    pub expected: String,
}

impl Item {
    /// The request line for request `id`, newline-terminated.
    pub fn line(&self, id: u64) -> String {
        let mut out = String::new();
        self.write_line(id, &mut out);
        out
    }

    /// As [`Item::line`], into a reused buffer.
    pub fn write_line(&self, id: u64, out: &mut String) {
        use std::fmt::Write as _;
        out.clear();
        let _ = write!(out, "{{\"id\": {id}, ");
        out.push_str(&self.line_tail);
        out.push('\n');
    }
}

fn rng_for(seed: u64, i: usize) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64),
    )
}

fn request_tail(problem: &str, text: &str, allow_cartesian: bool, use_cache: bool) -> String {
    let mut out = format!("\"op\": \"optimize\", \"problem\": \"{problem}\", \"instance\": ");
    json::escape_into(&mut out, text);
    if !allow_cartesian {
        out.push_str(", \"allow_cartesian\": false");
    }
    if !use_cache {
        out.push_str(", \"cache\": false");
    }
    out.push('}');
    out
}

/// Builds the pool for `workload` at `seed` and computes every expected
/// cost (spread over the host's threads). Runs before any server starts.
pub fn build(workload: Workload, seed: u64) -> Result<Vec<Item>, String> {
    let k = POOL_SIZE;
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(k);
    let mut slots: Vec<Option<Result<Item, String>>> = (0..k).map(|_| None).collect();
    let built = aqo_core::parallel::run_workers(threads, |w| {
        (w..k)
            .step_by(threads)
            .map(|i| (i, item(workload, seed, i)))
            .collect::<Vec<_>>()
    });
    for (i, it) in built.into_iter().flatten() {
        slots[i] = Some(it);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index built"))
        .collect()
}

/// Pool entry `i`: its own RNG stream, so entries do not depend on each
/// other or on the build order.
fn item(workload: Workload, seed: u64, i: usize) -> Result<Item, String> {
    let params = workloads::WorkloadParams::default();
    let mut rng = rng_for(seed, i);
    let (inst, allow_cartesian, use_cache) = match workload {
        Workload::QonDense => (
            Inst::Qon(workloads::clique(9, &params, &mut rng)),
            true,
            false,
        ),
        Workload::QohExhaustive => {
            let base = workloads::chain(5, &params, &mut rng);
            // Memory = product of all relation sizes (as `aqo loadgen`
            // builds QO_H instances): every join fits, so every sequence
            // is feasible and the search is full.
            let memory = base
                .sizes()
                .iter()
                .fold(BigUint::from(1u64), |acc, s| &acc * s);
            let inst = QoHInstance::new(
                base.graph().clone(),
                base.sizes().to_vec(),
                base.selectivity().clone(),
                memory,
            );
            (Inst::Qoh(inst), true, false)
        }
        Workload::ServeHot => {
            let inst = if i.is_multiple_of(2) {
                workloads::chain(28, &params, &mut rng)
            } else {
                workloads::cycle(28, &params, &mut rng)
            };
            (Inst::Qon(inst), false, true)
        }
    };
    let expected = oracle(&inst, allow_cartesian, &Budget::unlimited())
        .ok_or_else(|| format!("{}: oracle found no plan for instance {i}", workload.name()))?;
    let line_tail = match &inst {
        Inst::Qon(q) => request_tail("qon", &textio::qon_to_text(q), allow_cartesian, use_cache),
        Inst::Qoh(h) => request_tail("qoh", &textio::qoh_to_text(h), allow_cartesian, use_cache),
    };
    Ok(Item {
        inst,
        line_tail,
        allow_cartesian,
        expected,
    })
}

/// The exact optimum by a method other than the serving tier:
/// - QO_N with cartesian products (`dp` serves): the two-phase engine;
/// - QO_N without (`ccp` serves the n = 28 instances): IKKBZ on trees,
///   which is exact for acyclic query graphs; cycles have no second exact
///   method at this size, so `ccp` itself is the reference there;
/// - QO_H (`exhaustive` serves): every sequence with every interval
///   partition tried (`best_decomposition_bruteforce`).
fn oracle(inst: &Inst, allow_cartesian: bool, budget: &Budget) -> Option<String> {
    match inst {
        Inst::Qon(q) if allow_cartesian => {
            let opts = engine::DpOptions {
                allow_cartesian: true,
                threads: 1,
            };
            engine::optimize_two_phase::<BigRational>(q, &opts, budget)
                .ok()?
                .map(|o| o.cost)
        }
        Inst::Qon(q) if q.graph().m() + 1 != q.n() => {
            ccp::optimize_two_phase::<BigRational>(q, 1, budget)
                .ok()?
                .map(|o| o.cost)
        }
        Inst::Qon(q) => Some(ikkbz::optimize(q).cost),
        Inst::Qoh(h) => aqo_core::join::permutations(h.n())
            .filter_map(|p| pipeline::best_decomposition_bruteforce(h, &JoinSequence::new(p)))
            .map(|(_, c)| c)
            .min(),
    }
    .map(|c| c.to_string())
}

/// The plan a reply carries, as recosting needs it.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Plan {
    pub order: Vec<usize>,
    pub decomposition: Option<Vec<(usize, usize)>>,
}

/// Exact recost of a returned plan; `Err` when the plan is malformed
/// (not a permutation, a decomposition that does not cover the joins, an
/// infeasible QO_H fragment, or a cartesian product the request forbade).
pub fn recost_exact(item: &Item, plan: &Plan) -> Result<BigRational, String> {
    let z = sequence(item, &plan.order)?;
    match &item.inst {
        Inst::Qon(q) => {
            if !item.allow_cartesian && q.has_cartesian_product(&z) {
                return Err("plan has a cartesian product the request forbade".into());
            }
            Ok(q.total_cost::<BigRational>(&z))
        }
        Inst::Qoh(h) => {
            let d = decomposition(h.n(), plan.decomposition.as_deref())?;
            h.plan_cost_optimal_alloc(&z, &d)
                .ok_or_else(|| "infeasible QO_H plan".into())
        }
    }
}

/// Log-domain recost of a returned plan (QO_H: optimal allocation per
/// fragment, then `plan_cost` in `LogNum`).
pub fn recost_log(item: &Item, plan: &Plan) -> Result<LogNum, String> {
    let z = sequence(item, &plan.order)?;
    match &item.inst {
        Inst::Qon(q) => Ok(q.total_cost::<LogNum>(&z)),
        Inst::Qoh(h) => {
            let d = decomposition(h.n(), plan.decomposition.as_deref())?;
            let inter: Vec<BigRational> = h.intermediates(&z);
            let allocs = d
                .fragments()
                .iter()
                .map(|&f| h.optimal_allocation(&z, f, &inter))
                .collect::<Option<Vec<_>>>()
                .ok_or("infeasible QO_H fragment")?;
            h.plan_cost::<LogNum>(&z, &d, &allocs)
                .ok_or_else(|| "infeasible QO_H plan".into())
        }
    }
}

fn n_of(item: &Item) -> usize {
    match &item.inst {
        Inst::Qon(q) => q.n(),
        Inst::Qoh(h) => h.n(),
    }
}

fn sequence(item: &Item, order: &[usize]) -> Result<JoinSequence, String> {
    let n = n_of(item);
    let mut seen = vec![false; n];
    if order.len() != n
        || !order
            .iter()
            .all(|&v| v < n && !std::mem::replace(&mut seen[v], true))
    {
        return Err(format!("order {order:?} is not a permutation of 0..{n}"));
    }
    Ok(JoinSequence::new(order.to_vec()))
}

fn decomposition(
    n: usize,
    frags: Option<&[(usize, usize)]>,
) -> Result<PipelineDecomposition, String> {
    let frags = frags.ok_or("QO_H reply has no decomposition")?;
    let mut expect = 1;
    for &(i, k) in frags {
        if i != expect || k < i {
            return Err(format!(
                "decomposition {frags:?} is not an interval partition"
            ));
        }
        expect = k + 1;
    }
    if frags.is_empty() || expect != n {
        return Err(format!(
            "decomposition {frags:?} does not cover J_1..J_{}",
            n - 1
        ));
    }
    Ok(PipelineDecomposition::new(n, frags.to_vec()))
}

/// What a successful reply says, pulled out of its JSON.
pub struct Answer {
    pub id: u64,
    pub cost: String,
    pub elapsed_us: u64,
    pub plan: Plan,
}

/// Parses one reply line. `Err` for an error reply, a degraded or inexact
/// answer, or a malformed line.
pub fn parse_reply(line: &str) -> Result<Answer, String> {
    let doc = json::parse(line.trim_end())?;
    if !matches!(doc.get("ok"), Some(JsonValue::Bool(true))) {
        let kind = doc
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(JsonValue::as_str);
        return Err(format!("error reply ({})", kind.unwrap_or("?")));
    }
    let flag = |k: &str| matches!(doc.get(k), Some(JsonValue::Bool(true)));
    if flag("degraded") || !flag("exact") {
        return Err("degraded or inexact answer".into());
    }
    let num = |k: &str| {
        doc.get(k)
            .and_then(JsonValue::as_num)
            .map(|n| n as u64)
            .ok_or(format!("no `{k}`"))
    };
    let ints = |v: &JsonValue| -> Option<Vec<usize>> {
        v.as_arr()?
            .iter()
            .map(|x| x.as_num().map(|n| n as usize))
            .collect()
    };
    let order = doc.get("order").and_then(ints).ok_or("no `order`")?;
    let decomposition = match doc.get("decomposition") {
        None => None,
        Some(d) => Some(
            d.as_arr()
                .ok_or("bad `decomposition`")?
                .iter()
                .map(|f| match ints(f).as_deref() {
                    Some(&[lo, hi]) => Ok((lo, hi)),
                    _ => Err("bad decomposition fragment".to_string()),
                })
                .collect::<Result<Vec<_>, _>>()?,
        ),
    };
    Ok(Answer {
        id: num("id")?,
        cost: doc
            .get("cost")
            .and_then(JsonValue::as_str)
            .ok_or("no `cost`")?
            .to_string(),
        elapsed_us: num("elapsed_us")?,
        plan: Plan {
            order,
            decomposition,
        },
    })
}

/// Checks replies against the oracle and recosts each distinct returned
/// plan exactly (memoized per instance and plan, so repeated identical
/// answers are recosted once).
#[derive(Default)]
pub struct Checker {
    recosted: HashMap<(usize, Plan), Result<String, String>>,
}

impl Checker {
    /// `Ok(answer)` when the reply to request `id` on pool entry `idx` is
    /// an exact, non-degraded answer whose cost equals the oracle's and
    /// whose returned plan recosts to that same cost.
    pub fn check(
        &mut self,
        pool: &[Item],
        idx: usize,
        id: u64,
        line: &str,
    ) -> Result<Answer, String> {
        let ans = parse_reply(line)?;
        if ans.id != id {
            return Err(format!("reply id {} for request {id}", ans.id));
        }
        let item = &pool[idx];
        if ans.cost != item.expected {
            return Err(format!("cost {} != oracle {}", ans.cost, item.expected));
        }
        let recost = self
            .recosted
            .entry((idx, ans.plan.clone()))
            .or_insert_with(|| recost_exact(item, &ans.plan).map(|c| c.to_string()));
        match recost {
            Ok(c) if *c == ans.cost => Ok(ans),
            Ok(c) => Err(format!(
                "returned plan recosts to {c}, reply says {}",
                ans.cost
            )),
            Err(e) => Err(e.clone()),
        }
    }
}

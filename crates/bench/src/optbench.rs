//! Persistent optimizer benchmark harness behind `aqo bench`.
//!
//! Criterion benches are great interactively but leave no machine-readable
//! trail; this module is the CI-friendly counterpart. It times the
//! sequential and parallel optimizer engines over the deterministic
//! workload generators and emits one JSON document
//! (`BENCH_optimizer.json`, schema `aqo-bench-optimizer/v3`) with the
//! median wall-time per `(family, n, algorithm, scalar, mode)` cell and
//! the sequential-over-parallel speedup on every parallel record — so the
//! perf trajectory is tracked across PRs regardless of which machine ran
//! it. Every timed pair is also cross-checked for cost agreement: a bench
//! run that observes a seq/par divergence panics rather than recording a
//! lie. Since v2 each record embeds the nonzero deterministic counters
//! ([`aqo_obs::counters_snapshot`]) captured from its cross-check run;
//! the timed runs themselves execute with collection disabled, so the
//! medians measure the instrumented-but-disabled hot path. v3 adds
//! `algo = "ccp"` cells (connected-subgraph DP on the sparse families,
//! reaching past the dense engine's practical range — chain `n = 25`
//! against `2^25` all-subsets states) and an optional `note` field for
//! cell-level caveats. A ccp cell is the engine in its connected mode
//! (cartesian products disallowed). Every ccp cell is verified three ways
//! before it is recorded: log-domain cost agreement with the sequential
//! `dp` oracle, exact recosting of the returned sequence, and
//! `optimizer.engine.subsets_expanded` equal to the instance's true
//! connected-subgraph count.

use aqo_bignum::{BigRational, LogNum};
use aqo_core::budget::Budget;
use aqo_core::qon::QoNInstance;
use aqo_core::workloads;
use aqo_optimizer::{ccp, dp, engine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// What to run: the quick profile is sized for CI smoke tests (seconds,
/// debug build friendly); the full profile reaches `n = 18` where layer
/// parallelism pays.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Use the small quick profile instead of the full one.
    pub quick: bool,
    /// Worker threads for the parallel engines (`0` = auto).
    pub threads: usize,
}

/// One timed cell.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Workload generator family (`chain`, `star`, `cycle`, `clique`).
    pub family: &'static str,
    /// Relation count.
    pub n: usize,
    /// Algorithm identifier (`dp`, `engine`, `engine-two-phase`, `ccp`).
    pub algo: &'static str,
    /// Scalar backend (`lognum` or `rational`).
    pub scalar: &'static str,
    /// `seq` or `par`.
    pub mode: &'static str,
    /// Threads used (1 for `seq` records).
    pub threads: usize,
    /// Median wall time over [`BenchRecord::samples`] runs, milliseconds.
    pub median_ms: f64,
    /// Number of timed runs the median is over.
    pub samples: usize,
    /// `seq_median / par_median`, present on `par` records only.
    pub speedup: Option<f64>,
    /// Nonzero counters captured from this cell's (untimed) cross-check
    /// run, sorted by name. Deterministic for the DP/engine algorithms.
    pub metrics: Vec<(String, u64)>,
    /// Cell-level caveat (v3), e.g. how a ccp cell was verified.
    pub note: Option<&'static str>,
}

/// Runs `f` once in a fresh scope with metric collection enabled and
/// returns its result together with the nonzero counters it produced. The
/// caller's scope is untouched, so the timed runs that follow measure its
/// (disabled) path.
fn capture_metrics<R>(f: impl FnOnce() -> R) -> (R, Vec<(String, u64)>) {
    let _scope = aqo_obs::Scope::new().install();
    aqo_obs::set_enabled(true);
    (f(), aqo_obs::counters_snapshot())
}

struct Family {
    name: &'static str,
    /// Sizes for the log-domain DP pair (sequential `dp` vs `engine`).
    lognum_ns: &'static [usize],
    /// Sizes for the exact pair (sequential `dp` vs `engine-two-phase`).
    exact_ns: &'static [usize],
    /// Sizes for the connected-subgraph DP (cartesian-free, exact). The
    /// state space is the connected-subgraph count, so sparse families
    /// reach well past the dense tiers' `2^n` wall (chain `n = 25` holds
    /// 325 states where the engine would hold 33 million).
    ccp_ns: &'static [usize],
}

const QUICK: &[Family] = &[
    Family { name: "chain", lognum_ns: &[9, 11], exact_ns: &[8], ccp_ns: &[11] },
    Family { name: "cycle", lognum_ns: &[9], exact_ns: &[8], ccp_ns: &[] },
];

const FULL: &[Family] = &[
    Family {
        name: "chain",
        lognum_ns: &[12, 14, 16, 18],
        exact_ns: &[12, 14],
        ccp_ns: &[18, 20, 22, 25],
    },
    Family { name: "star", lognum_ns: &[12, 14], exact_ns: &[12], ccp_ns: &[] },
    Family { name: "cycle", lognum_ns: &[12, 16, 18], exact_ns: &[12], ccp_ns: &[18, 22] },
    Family { name: "clique", lognum_ns: &[12, 14], exact_ns: &[12], ccp_ns: &[14] },
];

fn instance(family: &str, n: usize, seed: u64) -> QoNInstance {
    let params = workloads::WorkloadParams::default();
    let mut rng = StdRng::seed_from_u64(seed);
    match family {
        "chain" => workloads::chain(n, &params, &mut rng),
        "star" => workloads::star(n, &params, &mut rng),
        "cycle" => workloads::cycle(n, &params, &mut rng),
        "clique" => workloads::clique(n, &params, &mut rng),
        other => unreachable!("unknown bench family {other}"),
    }
}

/// Median wall time of `samples` runs of `f`, in milliseconds.
fn median_ms<R>(samples: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            let r = f();
            let t = start.elapsed().as_secs_f64() * 1e3;
            drop(r);
            t
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Runs the configured profile and returns every record.
pub fn run(cfg: &BenchConfig) -> Vec<BenchRecord> {
    let families = if cfg.quick { QUICK } else { FULL };
    let samples = if cfg.quick { 3 } else { 5 };
    let threads = aqo_core::parallel::resolve_threads(cfg.threads);
    let budget = Budget::unlimited();
    let mut records = Vec::new();

    for fam in families {
        for &n in fam.lognum_ns {
            let inst = instance(fam.name, n, 42 + n as u64);
            let opts = engine::DpOptions { allow_cartesian: true, threads };
            let (seq_run, seq_metrics) =
                capture_metrics(|| dp::optimize::<LogNum>(&inst, true));
            let seq_cost = seq_run.expect("connected").cost;
            let (par_run, par_metrics) = capture_metrics(|| {
                engine::optimize_log_parallel(&inst, &opts, &budget)
            });
            let par_cost = par_run.expect("unlimited").expect("connected").cost;
            assert!(
                (seq_cost.log2() - par_cost.log2()).abs() < 1e-6,
                "{} n={n}: log-domain seq/par cost divergence",
                fam.name
            );
            let seq_ms = median_ms(samples, || dp::optimize::<LogNum>(&inst, true));
            let par_ms = median_ms(samples, || {
                engine::optimize_log_parallel(&inst, &opts, &budget)
            });
            records.push(BenchRecord {
                family: fam.name,
                n,
                algo: "dp",
                scalar: "lognum",
                mode: "seq",
                threads: 1,
                median_ms: seq_ms,
                samples,
                speedup: None,
                metrics: seq_metrics,
                note: None,
            });
            records.push(BenchRecord {
                family: fam.name,
                n,
                algo: "engine",
                scalar: "lognum",
                mode: "par",
                threads,
                median_ms: par_ms,
                samples,
                speedup: Some(seq_ms / par_ms.max(1e-9)),
                metrics: par_metrics,
                note: None,
            });
        }
        for &n in fam.exact_ns {
            let inst = instance(fam.name, n, 42 + n as u64);
            let opts = engine::DpOptions { allow_cartesian: true, threads };
            let (seq_run, seq_metrics) =
                capture_metrics(|| dp::optimize::<BigRational>(&inst, true));
            let seq_cost = seq_run.expect("connected").cost;
            let (par_run, par_metrics) = capture_metrics(|| {
                engine::optimize_two_phase::<BigRational>(&inst, &opts, &budget)
            });
            let par_cost = par_run.expect("unlimited").expect("connected").cost;
            assert_eq!(seq_cost, par_cost, "{} n={n}: exact seq/par cost divergence", fam.name);
            let seq_ms = median_ms(samples, || dp::optimize::<BigRational>(&inst, true));
            let par_ms = median_ms(samples, || {
                engine::optimize_two_phase::<BigRational>(&inst, &opts, &budget)
            });
            records.push(BenchRecord {
                family: fam.name,
                n,
                algo: "dp",
                scalar: "rational",
                mode: "seq",
                threads: 1,
                median_ms: seq_ms,
                samples,
                speedup: None,
                metrics: seq_metrics,
                note: None,
            });
            records.push(BenchRecord {
                family: fam.name,
                n,
                algo: "engine-two-phase",
                scalar: "rational",
                mode: "par",
                threads,
                median_ms: par_ms,
                samples,
                speedup: Some(seq_ms / par_ms.max(1e-9)),
                metrics: par_metrics,
                note: None,
            });
        }
        for &n in fam.ccp_ns {
            let inst = instance(fam.name, n, 42 + n as u64);
            // Sequential dp oracle, run in the log domain *outside* the
            // metric capture (so the cell's counters are purely
            // `optimizer.engine.*`). At chain n = 25 the exact-rational dp
            // table would be gigabytes; LogNum keeps the oracle cheap
            // while still pinning the argmin to ~1e-6 bits.
            let oracle = dp::optimize::<LogNum>(&inst, false)
                .unwrap_or_else(|| panic!("{} n={n}: disconnected bench instance", fam.name));
            let (seq_run, seq_metrics) = capture_metrics(|| {
                ccp::optimize_two_phase::<BigRational>(&inst, 1, &budget)
            });
            let seq_opt = seq_run.expect("unlimited").expect("connected");
            assert!(
                (seq_opt.cost.log2() - oracle.cost.log2()).abs() < 1e-6,
                "{} n={n}: ccp diverged from the sequential dp oracle",
                fam.name
            );
            let recost: BigRational = inst.total_cost(&seq_opt.sequence);
            assert_eq!(recost, seq_opt.cost, "{} n={n}: ccp recost mismatch", fam.name);
            let expanded = seq_metrics
                .iter()
                .find(|(k, _)| k == "optimizer.engine.subsets_expanded")
                .map(|(_, v)| *v);
            assert_eq!(
                expanded,
                Some(ccp::connected_subset_count(&inst)),
                "{} n={n}: ccp expansion count is not the connected-subgraph count",
                fam.name
            );
            let (par_run, par_metrics) = capture_metrics(|| {
                ccp::optimize_two_phase::<BigRational>(&inst, threads, &budget)
            });
            let par_cost = par_run.expect("unlimited").expect("connected").cost;
            assert_eq!(seq_opt.cost, par_cost, "{} n={n}: ccp seq/par divergence", fam.name);
            let seq_ms = median_ms(samples, || {
                ccp::optimize_two_phase::<BigRational>(&inst, 1, &budget)
            });
            let par_ms = median_ms(samples, || {
                ccp::optimize_two_phase::<BigRational>(&inst, threads, &budget)
            });
            let note = Some(
                "cost verified against the sequential dp oracle (lognum) and by exact \
                 recosting; subsets_expanded equals the connected-subgraph count",
            );
            records.push(BenchRecord {
                family: fam.name,
                n,
                algo: "ccp",
                scalar: "rational",
                mode: "seq",
                threads: 1,
                median_ms: seq_ms,
                samples,
                speedup: None,
                metrics: seq_metrics,
                note,
            });
            records.push(BenchRecord {
                family: fam.name,
                n,
                algo: "ccp",
                scalar: "rational",
                mode: "par",
                threads,
                median_ms: par_ms,
                samples,
                speedup: Some(seq_ms / par_ms.max(1e-9)),
                metrics: par_metrics,
                note,
            });
        }
    }
    records
}

/// Serializes a bench run as the `aqo-bench-optimizer/v3` JSON document.
/// Hand-rolled (no serde in the tree); every string field is a controlled
/// identifier or note literal (no quotes/backslashes), so no escaping is
/// required.
pub fn to_json(cfg: &BenchConfig, records: &[BenchRecord]) -> String {
    let mut out = String::with_capacity(256 + records.len() * 160);
    out.push_str("{\n");
    out.push_str("  \"schema\": \"aqo-bench-optimizer/v3\",\n");
    out.push_str(&format!("  \"profile\": \"{}\",\n", if cfg.quick { "quick" } else { "full" }));
    out.push_str(&format!(
        "  \"threads\": {},\n",
        aqo_core::parallel::resolve_threads(cfg.threads)
    ));
    out.push_str(&format!(
        "  \"hardware_threads\": {},\n",
        aqo_core::parallel::available_threads()
    ));
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"algo\": \"{}\", \"scalar\": \"{}\", \
             \"mode\": \"{}\", \"threads\": {}, \"median_ms\": {:.4}, \"samples\": {}",
            r.family, r.n, r.algo, r.scalar, r.mode, r.threads, r.median_ms, r.samples
        ));
        if let Some(s) = r.speedup {
            out.push_str(&format!(", \"speedup\": {s:.3}"));
        }
        if let Some(note) = r.note {
            debug_assert!(!note.contains('"') && !note.contains('\\'));
            out.push_str(&format!(", \"note\": \"{note}\""));
        }
        out.push_str(", \"metrics\": {");
        for (j, (name, value)) in r.metrics.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{name}\": {value}"));
        }
        out.push_str("}}");
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// [`run`] + [`to_json`] in one call.
pub fn run_to_json(cfg: &BenchConfig) -> String {
    let records = run(cfg);
    to_json(cfg, &records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_profile_produces_wellformed_records() {
        let cfg = BenchConfig { quick: true, threads: 2 };
        let records = run(&cfg);
        assert!(!records.is_empty());
        // Every parallel record carries a positive speedup and pairs with a
        // sequential one.
        for r in &records {
            assert!(r.median_ms >= 0.0);
            match r.mode {
                "seq" => assert!(r.speedup.is_none() && r.threads == 1),
                "par" => {
                    assert!(r.speedup.expect("par has speedup") > 0.0);
                    assert_eq!(r.threads, 2);
                }
                other => panic!("unknown mode {other}"),
            }
        }
        let seq = records.iter().filter(|r| r.mode == "seq").count();
        let par = records.iter().filter(|r| r.mode == "par").count();
        assert_eq!(seq, par);
        // The quick profile exercises a ccp cell; its expansion counter
        // is the chain's connected-subgraph count n(n+1)/2.
        let ccp_cell = records
            .iter()
            .find(|r| r.algo == "ccp" && r.mode == "seq")
            .expect("quick profile benches a ccp cell");
        assert_eq!(ccp_cell.family, "chain");
        assert_eq!(ccp_cell.n, 11);
        let expanded = ccp_cell
            .metrics
            .iter()
            .find(|(k, _)| k == "optimizer.engine.subsets_expanded")
            .map(|(_, v)| *v);
        assert_eq!(expanded, Some(66));
        assert!(ccp_cell.note.is_some());
    }

    #[test]
    fn json_is_structurally_sound() {
        let cfg = BenchConfig { quick: true, threads: 1 };
        let records = vec![
            BenchRecord {
                family: "chain",
                n: 9,
                algo: "dp",
                scalar: "lognum",
                mode: "seq",
                threads: 1,
                median_ms: 1.25,
                samples: 3,
                speedup: None,
                metrics: vec![("optimizer.dp.subsets_expanded".to_string(), 511)],
                note: None,
            },
            BenchRecord {
                family: "chain",
                n: 9,
                algo: "engine",
                scalar: "lognum",
                mode: "par",
                threads: 4,
                median_ms: 0.5,
                samples: 3,
                speedup: Some(2.5),
                metrics: Vec::new(),
                note: Some("synthetic cell for the serializer test"),
            },
        ];
        let json = to_json(&cfg, &records);
        assert!(json.contains("\"schema\": \"aqo-bench-optimizer/v3\""));
        assert!(json.contains("\"speedup\": 2.500"));
        assert!(json.contains("\"note\": \"synthetic cell for the serializer test\""));
        assert!(json.contains("\"metrics\": {\"optimizer.dp.subsets_expanded\": 511}"));
        assert!(json.contains("\"metrics\": {}"));
        // Balanced braces/brackets and no trailing comma before closers.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n  ]"));
        assert!(!json.contains(",}"));
    }
}

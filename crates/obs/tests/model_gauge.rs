//! Interleaving model of gauge level updates (ISSUE 8 satellite).
//!
//! Serve tracks queue depth with a gauge. The tempting update is the
//! composed read-modify-write `g.set(g.get() + 1)` — two instructions,
//! so two enqueuing threads can both read the same level and one
//! increment vanishes. The model below makes the explorer produce that
//! exact lost-update schedule, and proves the single-RMW
//! [`Gauge::add`](aqo_obs::Gauge::add) (an atomic `fetch_add`, one model
//! step) free of it under *every* interleaving. `set_max` is likewise a
//! single `fetch_max` RMW, so the same argument covers both audited
//! call-site patterns; the remaining serve gauges are `set` under the
//! server state lock, which serializes the read and write.

use aqo_core::interleave::{explore, StepOutcome};

/// Two threads each incrementing a shared gauge level once.
#[derive(Clone)]
struct GaugeModel {
    level: u64,
    /// Per-thread program counter.
    pc: [u8; 2],
    /// Per-thread value read by the composed get+set path.
    read: [u64; 2],
}

impl GaugeModel {
    fn new() -> Self {
        GaugeModel { level: 0, pc: [0; 2], read: [0; 2] }
    }
}

/// The racy pattern: `get()` then `set(read + 1)` as two separate atomic
/// operations.
fn get_then_set_step(s: &mut GaugeModel, tid: usize) -> StepOutcome {
    match s.pc[tid] {
        0 => {
            s.read[tid] = s.level;
            s.pc[tid] = 1;
            StepOutcome::Ran
        }
        _ => {
            s.level = s.read[tid] + 1;
            StepOutcome::Done
        }
    }
}

/// `Gauge::add(1)`: one atomic RMW, so one indivisible model step.
fn fetch_add_step(s: &mut GaugeModel, _tid: usize) -> StepOutcome {
    s.level += 1;
    StepOutcome::Done
}

/// After both increments retire, the level must be 2.
fn no_lost_update(s: &GaugeModel, done: bool) -> Result<(), String> {
    if done && s.level != 2 {
        return Err(format!("lost update: level={} after two increments", s.level));
    }
    Ok(())
}

#[test]
fn get_then_set_loses_an_update() {
    let t0 = |s: &mut GaugeModel| get_then_set_step(s, 0);
    let t1 = |s: &mut GaugeModel| get_then_set_step(s, 1);
    let v = explore(&GaugeModel::new(), &[&t0, &t1], &no_lost_update, 16)
        .expect_err("composed get+set must lose an update somewhere");
    assert!(v.message.contains("lost update"), "{v}");
    // The counterexample: both threads read level 0, then both write 1.
    assert_eq!(v.schedule, vec![0, 1, 0, 1], "{v}");
}

#[test]
fn fetch_add_holds_under_every_interleaving() {
    let t0 = |s: &mut GaugeModel| fetch_add_step(s, 0);
    let t1 = |s: &mut GaugeModel| fetch_add_step(s, 1);
    let n = explore(&GaugeModel::new(), &[&t0, &t1], &no_lost_update, 16)
        .unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(n, 2, "two single-step threads have exactly two schedules");
}

/// The real `Gauge` under real threads: `add`/`sub` from concurrent
/// workers never lose updates, and `sub` saturates at zero instead of
/// wrapping. Not exhaustive (the model above is) — this checks the
/// implementation matches the modeled single-RMW semantics.
#[test]
fn real_gauge_add_sub_balance() {
    let _scope = aqo_obs::Scope::new().install();
    aqo_obs::set_enabled(true);
    let g = aqo_obs::gauge("model-gauge.level");
    g.set(0);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..1000 {
                    g.add(3);
                    g.sub(2);
                }
            });
        }
    });
    assert_eq!(g.get(), 4 * 1000);
    g.set(5);
    g.sub(100);
    assert_eq!(g.get(), 0, "sub saturates at zero");
}

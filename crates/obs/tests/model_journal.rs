//! Exhaustive interleaving model of the trace journal's append protocol,
//! plus a real-thread stress check.
//!
//! The journal promises that **buffer order agrees with seq order**: if
//! event A sits before event B in the buffer, then `A.seq < B.seq`. The
//! current protocol claims the seq counter *while holding* the buffer
//! lock. An earlier draft claimed the seq *before* taking the lock —
//! plausible-looking (the counter is atomic, the push is locked), but the
//! model below proves it violates the invariant: a thread can claim seq
//! `n`, get descheduled, and append after the thread holding seq `n+1`.
//! The explorer produces that exact schedule.
//!
//! Uses [`aqo_core::interleave`] (a dev-dependency — Cargo permits the
//! `core → obs` / `obs --dev→ core` cycle because dev-dependencies don't
//! participate in the library build graph).

use aqo_core::interleave::{explore, StepOutcome};

/// Two emitter threads appending one event each.
#[derive(Clone)]
struct JournalModel {
    /// The global seq counter (models the `SEQ` atomic).
    seq: u64,
    /// Which thread holds the buffer lock, if any.
    locked: Option<usize>,
    /// The buffer: claimed seq values in append order.
    buffer: Vec<u64>,
    /// Per-thread program counter.
    pc: [u8; 2],
    /// Per-thread claimed seq.
    claimed: [u64; 2],
}

impl JournalModel {
    fn new() -> Self {
        JournalModel { seq: 0, locked: None, buffer: Vec::new(), pc: [0; 2], claimed: [0; 2] }
    }
}

/// The earlier, racy draft: claim seq with the atomic *first*, then lock
/// and push.
fn seq_before_lock_step(s: &mut JournalModel, tid: usize) -> StepOutcome {
    match s.pc[tid] {
        // Atomic fetch_add outside the lock.
        0 => {
            s.claimed[tid] = s.seq;
            s.seq += 1;
            s.pc[tid] = 1;
            StepOutcome::Ran
        }
        // Acquire the buffer lock.
        1 => {
            if s.locked.is_some() {
                return StepOutcome::Blocked;
            }
            s.locked = Some(tid);
            s.pc[tid] = 2;
            StepOutcome::Ran
        }
        // Push and release.
        _ => {
            s.buffer.push(s.claimed[tid]);
            s.locked = None;
            StepOutcome::Done
        }
    }
}

/// The shipped protocol: acquire the lock, claim seq under it, push,
/// release. Mirrors `aqo_obs::journal::event`.
fn seq_under_lock_step(s: &mut JournalModel, tid: usize) -> StepOutcome {
    match s.pc[tid] {
        0 => {
            if s.locked.is_some() {
                return StepOutcome::Blocked;
            }
            s.locked = Some(tid);
            s.pc[tid] = 1;
            StepOutcome::Ran
        }
        1 => {
            s.claimed[tid] = s.seq;
            s.seq += 1;
            s.pc[tid] = 2;
            StepOutcome::Ran
        }
        _ => {
            s.buffer.push(s.claimed[tid]);
            s.locked = None;
            StepOutcome::Done
        }
    }
}

/// Buffer order must agree with seq order at every point, and every claimed
/// seq must be unique (gap-free at the end).
fn order_invariant(s: &JournalModel, done: bool) -> Result<(), String> {
    for w in s.buffer.windows(2) {
        if w[0] >= w[1] {
            return Err(format!("buffer order disagrees with seq order: {:?}", s.buffer));
        }
    }
    if done {
        let mut sorted = s.buffer.clone();
        sorted.sort_unstable();
        let want: Vec<u64> = (0..s.buffer.len() as u64).collect();
        if sorted != want {
            return Err(format!("seqs not gap-free: {:?}", s.buffer));
        }
    }
    Ok(())
}

#[test]
fn seq_before_lock_violates_buffer_order() {
    let t0 = |s: &mut JournalModel| seq_before_lock_step(s, 0);
    let t1 = |s: &mut JournalModel| seq_before_lock_step(s, 1);
    let v = explore(&JournalModel::new(), &[&t0, &t1], &order_invariant, 32)
        .expect_err("claiming seq outside the lock must reorder somewhere");
    assert!(v.message.contains("disagrees"), "{v}");
    // The counterexample: t0 claims seq 0, t1 claims seq 1 and then wins
    // the lock race and buffers it; t0 locks and buffers seq 0 after it.
    assert_eq!(v.schedule, vec![0, 1, 1, 1, 0, 0], "{v}");
}

#[test]
fn seq_under_lock_holds_under_every_interleaving() {
    let t0 = |s: &mut JournalModel| seq_under_lock_step(s, 0);
    let t1 = |s: &mut JournalModel| seq_under_lock_step(s, 1);
    let n = explore(&JournalModel::new(), &[&t0, &t1], &order_invariant, 32)
        .unwrap_or_else(|v| panic!("{v}"));
    // Both serial orders, in full: lock acquisition serializes the rest.
    assert!(n >= 2, "explored only {n} schedules");
}

/// The real journal under real threads: concurrent emitters, then check
/// the buffered events' seqs are strictly increasing in buffer order.
/// Not exhaustive (the model above is) — this checks the implementation
/// matches the modeled protocol.
#[test]
fn real_journal_buffer_order_agrees_with_seq_order() {
    let _scope = aqo_obs::Scope::new().install();
    aqo_obs::set_enabled(true);
    let ctx = aqo_obs::Context::capture();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let _ctx = ctx.install();
                for _ in 0..250 {
                    aqo_obs::journal::event("model_stress", vec![]);
                }
            });
        }
    });
    let events = aqo_obs::journal::drain();
    let stress: Vec<_> = events.iter().filter(|e| e.etype == "model_stress").collect();
    assert_eq!(stress.len(), 1000);
    for w in stress.windows(2) {
        assert!(
            w[0].seq < w[1].seq,
            "buffer order disagrees with seq order: {} then {}",
            w[0].seq,
            w[1].seq
        );
    }
}

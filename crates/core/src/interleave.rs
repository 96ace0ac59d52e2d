//! A hand-rolled, loom-style exhaustive interleaving explorer for small
//! concurrency models.
//!
//! Real schedulers sample a handful of interleavings per test run; subtle
//! ordering bugs (lost updates, publish-before-lock races) can hide for
//! thousands of runs. This module takes the opposite trade: model the
//! algorithm as a handful of *atomic steps* per thread over a cloneable
//! shared state, then enumerate **every** interleaving of those steps by
//! depth-first search. For the 2-thread, ≤6-step models we care about
//! (the metrics gauge's fetch-add, the trace journal's seq/buffer-order
//! invariant) that is a few hundred to a few thousand schedules —
//! milliseconds, and *exhaustive*.
//!
//! This is a model checker, not an instrumentation layer: it verifies the
//! *protocol* (the sequence of atomic operations), not the compiled code.
//! The CI Miri/ThreadSanitizer jobs cover the latter; together they split
//! the soundness argument into "the protocol is right" (here, exhaustive)
//! and "the code implements the protocol without UB" (sanitizers,
//! sampled). See `docs/ANALYSIS.md`.
//!
//! # Model shape
//!
//! A model is a state type `S: Clone` plus one step closure per thread.
//! Per-thread program counters (and any thread-local registers) must live
//! *inside* `S`, so that cloning the state forks the whole execution. A
//! step performs one atomic action and reports:
//!
//! * [`StepOutcome::Ran`] — advanced; schedule me again later.
//! * [`StepOutcome::Blocked`] — could not act (e.g. a modeled mutex is
//!   held). The state must be unchanged; the explorer prunes the branch
//!   and re-schedules the thread only after someone else runs.
//! * [`StepOutcome::Done`] — advanced and finished; never re-scheduled.
//!
//! The invariant closure is called after *every* step with `done = false`
//! and once per completed schedule with `done = true`, so models can
//! express both always-invariants ("buffer order agrees with seq order")
//! and postconditions ("the final count is the sum of the adds").

use std::fmt;

/// What a single modeled step did. See the module docs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    /// The thread advanced by one atomic action and has more to do.
    Ran,
    /// The thread could not act; the state is unchanged.
    Blocked,
    /// The thread advanced and has finished its program.
    Done,
}

/// A counterexample: the exact schedule (thread index per step) that drove
/// the model into a state violating the invariant, plus the message the
/// invariant produced. Deadlocks and livelocks are reported the same way.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Thread index executed at each step, in order.
    pub schedule: Vec<usize>,
    /// Why the schedule is bad.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule {:?}: {}", self.schedule, self.message)
    }
}

/// A step function: one atomic action against the shared state.
pub type StepFn<'a, S> = &'a dyn Fn(&mut S) -> StepOutcome;

/// An invariant: called after every step (`done = false`) and at the end
/// of every complete schedule (`done = true`).
pub type InvariantFn<'a, S> = &'a dyn Fn(&S, bool) -> Result<(), String>;

/// Exhaustively explores every interleaving of `threads` starting from
/// `init`. Returns the number of complete schedules explored, or the
/// first [`Violation`] found.
///
/// `max_depth` bounds the length of any single schedule; exceeding it is
/// reported as a violation ("possible livelock"), which also catches
/// modeled CAS loops that never converge. If at some point every
/// unfinished thread is [`StepOutcome::Blocked`], that schedule is a
/// deadlock and is reported as a violation.
pub fn explore<S: Clone>(
    init: &S,
    threads: &[StepFn<'_, S>],
    invariant: InvariantFn<'_, S>,
    max_depth: usize,
) -> Result<u64, Violation> {
    let mut finished = vec![false; threads.len()];
    let mut schedule = Vec::new();
    let mut count = 0u64;
    dfs(init, threads, invariant, max_depth, &mut finished, &mut schedule, &mut count)?;
    Ok(count)
}

fn dfs<S: Clone>(
    state: &S,
    threads: &[StepFn<'_, S>],
    invariant: InvariantFn<'_, S>,
    max_depth: usize,
    finished: &mut [bool],
    schedule: &mut Vec<usize>,
    count: &mut u64,
) -> Result<(), Violation> {
    if finished.iter().all(|&f| f) {
        invariant(state, true)
            .map_err(|m| Violation { schedule: schedule.clone(), message: m })?;
        *count += 1;
        return Ok(());
    }
    if schedule.len() >= max_depth {
        return Err(Violation {
            schedule: schedule.clone(),
            message: format!("schedule exceeded {max_depth} steps (possible livelock)"),
        });
    }
    let mut runnable = 0usize;
    let mut blocked = 0usize;
    for tid in 0..threads.len() {
        if finished[tid] {
            continue;
        }
        runnable += 1;
        let mut next = state.clone();
        let outcome = threads[tid](&mut next);
        if outcome == StepOutcome::Blocked {
            blocked += 1;
            continue;
        }
        schedule.push(tid);
        invariant(&next, false)
            .map_err(|m| Violation { schedule: schedule.clone(), message: m })?;
        if outcome == StepOutcome::Done {
            finished[tid] = true;
        }
        let r = dfs(&next, threads, invariant, max_depth, finished, schedule, count);
        finished[tid] = false;
        schedule.pop();
        r?;
    }
    if runnable > 0 && blocked == runnable {
        return Err(Violation {
            schedule: schedule.clone(),
            message: format!("deadlock: all {blocked} unfinished threads blocked"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shared counter bumped via a *non-atomic* read-modify-write split
    /// into two steps. The classic lost update: exhaustive exploration
    /// must find a schedule where the final count is 1, not 2.
    #[derive(Clone, Default)]
    struct Rmw {
        counter: u32,
        pc: [u8; 2],
        reg: [u32; 2],
    }

    fn rmw_step(s: &mut Rmw, tid: usize) -> StepOutcome {
        match s.pc[tid] {
            0 => {
                s.reg[tid] = s.counter;
                s.pc[tid] = 1;
                StepOutcome::Ran
            }
            _ => {
                s.counter = s.reg[tid] + 1;
                StepOutcome::Done
            }
        }
    }

    #[test]
    fn split_rmw_loses_an_update() {
        let t0 = |s: &mut Rmw| rmw_step(s, 0);
        let t1 = |s: &mut Rmw| rmw_step(s, 1);
        let inv = |s: &Rmw, done: bool| {
            if done && s.counter != 2 {
                return Err(format!("lost update: counter = {}", s.counter));
            }
            Ok(())
        };
        let err = explore(&Rmw::default(), &[&t0, &t1], &inv, 16).unwrap_err();
        assert!(err.message.contains("lost update"), "{err}");
        // The canonical bad schedule reads both before either writes.
        assert!(err.schedule.len() >= 3, "{err}");
    }

    #[test]
    fn atomic_rmw_never_loses_an_update() {
        // Same counter, but the whole RMW is one atomic step.
        #[derive(Clone, Default)]
        struct At {
            counter: u32,
        }
        let t0 = |s: &mut At| {
            s.counter += 1;
            StepOutcome::Done
        };
        let t1 = |s: &mut At| {
            s.counter += 1;
            StepOutcome::Done
        };
        let inv = |s: &At, done: bool| {
            if done && s.counter != 2 {
                return Err(format!("lost update: counter = {}", s.counter));
            }
            Ok(())
        };
        let n = explore(&At::default(), &[&t0, &t1], &inv, 8).unwrap();
        assert_eq!(n, 2); // two single-step threads: 2 interleavings
    }

    #[test]
    fn schedule_counts_are_binomial() {
        // Two threads of 3 inert steps each: C(6, 3) = 20 interleavings.
        #[derive(Clone, Default)]
        struct Inert {
            pc: [u8; 2],
        }
        fn step(s: &mut Inert, tid: usize) -> StepOutcome {
            s.pc[tid] += 1;
            if s.pc[tid] == 3 { StepOutcome::Done } else { StepOutcome::Ran }
        }
        let t0 = |s: &mut Inert| step(s, 0);
        let t1 = |s: &mut Inert| step(s, 1);
        let n = explore(&Inert::default(), &[&t0, &t1], &|_, _| Ok(()), 16).unwrap();
        assert_eq!(n, 20);
    }

    #[test]
    fn opposite_lock_order_deadlocks() {
        // Two modeled mutexes acquired in opposite orders: the explorer
        // must find the schedule where each thread holds one lock.
        #[derive(Clone, Default)]
        struct Locks {
            held: [Option<usize>; 2],
            pc: [u8; 2],
        }
        fn acquire(s: &mut Locks, tid: usize, lock: usize) -> StepOutcome {
            if s.held[lock].is_some() {
                return StepOutcome::Blocked;
            }
            s.held[lock] = Some(tid);
            s.pc[tid] += 1;
            if s.pc[tid] == 2 { StepOutcome::Done } else { StepOutcome::Ran }
        }
        let t0 = |s: &mut Locks| {
            let lock = s.pc[0] as usize; // 0 then 1
            acquire(s, 0, lock)
        };
        let t1 = |s: &mut Locks| {
            let lock = 1 - s.pc[1] as usize; // 1 then 0
            acquire(s, 1, lock)
        };
        let err = explore(&Locks::default(), &[&t0, &t1], &|_, _| Ok(()), 16).unwrap_err();
        assert!(err.message.contains("deadlock"), "{err}");
        assert_eq!(err.schedule.len(), 2, "{err}");
    }

    #[test]
    fn livelock_is_reported_via_depth_cap() {
        // A thread that spins forever without finishing.
        #[derive(Clone, Default)]
        struct Spin;
        let t0 = |_: &mut Spin| StepOutcome::Ran;
        let err = explore(&Spin, &[&t0], &|_, _| Ok(()), 32).unwrap_err();
        assert!(err.message.contains("livelock"), "{err}");
    }
}

//! Hand-rolled scoped worker-pool primitives for the parallel optimizers.
//!
//! The build environment vendors no threading crates, so the parallel
//! engines shard their work across plain [`std::thread::scope`] workers.
//! Two primitives cover every use in the workspace:
//!
//! * [`run_workers`] — fork/join over worker indices (the QO_H strided
//!   permutation sweep, the serve worker pool);
//! * [`par_chunks_zip`] — split a read-only item slice and a matching
//!   output slice into aligned contiguous chunks, one scoped worker per
//!   chunk (the layer-parallel subset DP: each worker owns a disjoint
//!   `&mut` window of the layer's result buffer, so no locks and no
//!   `unsafe` are needed).
//!
//! Worker panics are re-raised on the joining thread via
//! [`std::panic::resume_unwind`], so the driver's `catch_unwind` isolation
//! keeps working unchanged. Cooperative cancellation needs no machinery
//! here: workers tick the shared [`Budget`](crate::Budget) (its interior is
//! atomic) and unwind with `BudgetExceeded` individually; `thread::scope`
//! guarantees every worker is joined before the call returns, so a tripped
//! budget can never leak a thread.

/// Largest worker count a serve request or a command line may ask for.
/// Both input boundaries reject more, because [`par_chunks_zip`] spawns
/// one scoped OS thread per chunk of every DP layer.
pub const MAX_THREADS: usize = 64;

/// Number of hardware threads, with a fallback of 1 when the platform
/// cannot say.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Resolves a user-facing thread-count knob: `0` means "auto" (use
/// [`available_threads`]); anything else is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// Runs `worker(t)` for every `t in 0..threads` on scoped threads and
/// returns the results in worker order. Worker 0 runs on the calling
/// thread (a 1-thread pool spawns nothing). A worker panic is re-raised
/// here after every other worker has been joined.
///
/// The caller's [`aqo_obs::Context`] — its scope and trace position — is
/// installed on every spawned worker, so metrics, journal events, spans
/// and fail points inside the pool act on the caller's scope and keep the
/// surrounding request's trace id.
pub fn run_workers<R, F>(threads: usize, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    assert!(threads >= 1, "need at least one worker");
    if threads == 1 {
        return vec![worker(0)];
    }
    let ctx = &aqo_obs::Context::capture();
    std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (1..threads)
            .map(|t| {
                scope.spawn(move || {
                    let _ctx = ctx.install();
                    worker(t)
                })
            })
            .collect();
        let mut results = Vec::with_capacity(threads);
        results.push(worker(0));
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok(r) => results.push(r),
                Err(p) => panic = Some(p),
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
        results
    })
}

/// Splits `items` and the equally long `out` into aligned contiguous
/// chunks (about one per worker) and processes each chunk on a scoped
/// thread via `f(offset, item_chunk, out_chunk)`. Errors are collected
/// after all workers have been joined; the error of the lowest-offset
/// failing chunk is returned, so the outcome is deterministic for a given
/// chunking. The caller's [`aqo_obs::Context`] is installed on every
/// worker, as in [`run_workers`].
pub fn par_chunks_zip<I, O, E, F>(
    threads: usize,
    items: &[I],
    out: &mut [O],
    f: F,
) -> Result<(), E>
where
    I: Sync,
    O: Send,
    E: Send,
    F: Fn(usize, &[I], &mut [O]) -> Result<(), E> + Sync,
{
    assert_eq!(items.len(), out.len(), "items/out must be the same length");
    if items.is_empty() {
        return Ok(());
    }
    let chunk = items.len().div_ceil(threads.max(1));
    if chunk >= items.len() {
        return f(0, items, out);
    }
    let ctx = &aqo_obs::Context::capture();
    std::thread::scope(|scope| {
        let f = &f;
        let mut handles = Vec::new();
        let mut offset = 0usize;
        for (ic, oc) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
            let off = offset;
            offset += ic.len();
            handles.push(scope.spawn(move || {
                let _ctx = ctx.install();
                f(off, ic, oc)
            }));
        }
        let mut result = Ok(());
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    if result.is_ok() {
                        result = Err(e);
                    }
                }
                Err(p) => panic = Some(p),
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_cover_all_indices_in_order() {
        for threads in 1..=4 {
            let out = run_workers(threads, |t| t * 10);
            assert_eq!(out, (0..threads).map(|t| t * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunks_partition_exactly() {
        let items: Vec<u32> = (0..103).collect();
        for threads in [1usize, 2, 3, 8, 200] {
            let mut out = vec![0u32; items.len()];
            par_chunks_zip(threads, &items, &mut out, |off, ic, oc| {
                for (i, (x, o)) in ic.iter().zip(oc.iter_mut()).enumerate() {
                    // Every worker sees a consistent (offset, item) pairing.
                    assert_eq!(*x as usize, off + i);
                    *o = x * 2;
                }
                Ok::<(), ()>(())
            })
            .unwrap();
            assert!(out.iter().zip(&items).all(|(o, i)| *o == i * 2));
        }
    }

    #[test]
    fn first_chunk_error_wins() {
        let items: Vec<usize> = (0..64).collect();
        let mut out = vec![0usize; 64];
        let err = par_chunks_zip(4, &items, &mut out, |off, _, _| {
            if off >= 16 {
                Err(off)
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err, 16);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            run_workers(3, |t| {
                if t == 2 {
                    panic!("boom");
                }
                t
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn thread_resolution() {
        assert!(available_threads() >= 1);
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(0), available_threads());
    }
}

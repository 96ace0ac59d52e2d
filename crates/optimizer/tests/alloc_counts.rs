//! Heap allocations of the exact searches, counted by a global allocator
//! that tallies every allocation and reallocation made on the calling
//! thread. The searches run on one thread here, so a count covers a whole
//! search and nothing else the test harness does meanwhile.
//!
//! The bounds leave headroom over the measured counts (see CHANGES.md):
//! they catch a search that allocates per prefix or per subset again, not
//! a few more buffers.

use aqo_bignum::{BigRational, BigUint};
use aqo_core::budget::Budget;
use aqo_core::qoh::QoHInstance;
use aqo_core::workloads::{self, WorkloadParams};
use aqo_core::{fingerprint, textio};
use aqo_optimizer::{engine, pipeline};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Const-initialized and without a destructor, so reading or bumping
    /// it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller meets `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller meets `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller meets `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A chain of `n` relations shaped as the benchmark's QO_H workload:
/// default workload parameters and memory the product of all sizes, so
/// every sequence is feasible and the search is full.
fn qoh_chain(n: usize, seed: u64) -> QoHInstance {
    let base = workloads::chain(n, &WorkloadParams::default(), &mut StdRng::seed_from_u64(seed));
    let memory = base.sizes().iter().fold(BigUint::one(), |acc, t| &acc * t);
    QoHInstance::new(
        base.graph().clone(),
        base.sizes().to_vec(),
        base.selectivity().clone(),
        memory,
    )
}

/// Allocations of one single-threaded exhaustive QO_H search.
fn exhaustive_allocations(inst: &QoHInstance) -> u64 {
    let (plan, count) = allocations(|| {
        pipeline::optimize_exhaustive_par_with_budget(inst, 1, &Budget::unlimited())
    });
    assert!(plan.expect("unlimited budget").is_some(), "every sequence is feasible");
    count
}

#[test]
fn qoh_exhaustive_chain5_allocates_per_depth_not_per_prefix() {
    // 120 sequences and 325 prefix pushes per search. 14–16 allocations
    // today: the scaled values are `FixedUint<4>`, and the prefix DP
    // sizes its per-depth rows once; 19–21 on `BigUint`'s inline limbs,
    // 68 while every value had a heap buffer.
    for seed in 0..4 {
        let count = exhaustive_allocations(&qoh_chain(5, seed));
        assert!(count <= 16, "seed {seed}: {count} allocations");
    }
}

#[test]
fn qoh_exhaustive_allocations_do_not_scale_with_n_factorial() {
    // A 7-chain has 5040 sequences and 13,699 prefix pushes: fewer
    // allocations than sequences means none is made per prefix.
    for seed in 0..2 {
        let five = exhaustive_allocations(&qoh_chain(5, seed));
        let seven = exhaustive_allocations(&qoh_chain(7, seed));
        assert!(seven <= 3 * five, "seed {seed}: n=7 {seven} vs n=5 {five} allocations");
        assert!(seven < 5040, "seed {seed}: {seven} allocations for 5040 sequences");
    }
}

#[test]
fn qon_two_phase_clique9_allocates_per_layer_not_per_subset() {
    // 511 subsets; `qon-dense`'s shape: cartesian products allowed.
    // 86–91 allocations today, since phase B keeps entries for the
    // survivors of the prune only, in fixed-width limbs; 139–149 while it
    // kept one `BigUint` entry per subset, 166–200 while every value had
    // a heap buffer.
    let opts = engine::DpOptions { allow_cartesian: true, threads: 1 };
    for seed in 0..4 {
        let inst =
            workloads::clique(9, &WorkloadParams::default(), &mut StdRng::seed_from_u64(seed));
        let (opt, count) = allocations(|| {
            engine::optimize_two_phase::<BigRational>(&inst, &opts, &Budget::unlimited())
        });
        assert!(opt.expect("unlimited budget").is_some());
        assert!(count <= 95, "seed {seed}: {count} allocations");
    }
}

#[test]
fn qon_two_phase_with_metrics_on_allocates_no_more_than_with_them_off() {
    // As under `aqo serve` without `--trace-json`: metrics on, journal
    // off. Nothing may build journal fields that nobody keeps.
    let opts = engine::DpOptions { allow_cartesian: true, threads: 1 };
    for seed in 0..4 {
        let inst =
            workloads::clique(9, &WorkloadParams::default(), &mut StdRng::seed_from_u64(seed));
        let run = || engine::optimize_two_phase::<BigRational>(&inst, &opts, &Budget::unlimited());
        // Each scope's first run registers its metrics and fills the
        // handle caches; the second is counted.
        let counted = |metrics: bool| {
            let _scope = aqo_obs::Scope::new().install();
            aqo_obs::set_enabled(metrics);
            aqo_obs::journal::set_capture(false);
            run().expect("unlimited budget");
            allocations(run).1
        };
        let (off, on) = (counted(false), counted(true));
        assert!(on <= off, "seed {seed}: {on} allocations with metrics on, {off} with them off");
    }
}

/// Allocations of one `qon_from_text` of `inst`'s text, which must read
/// back to the same text.
fn parse_allocations(inst: &aqo_core::qon::QoNInstance) -> u64 {
    let text = textio::qon_to_text(inst);
    let (parsed, count) = allocations(|| textio::qon_from_text(&text));
    assert_eq!(textio::qon_to_text(&parsed.expect("round trip")), text);
    count
}

#[test]
fn qon_from_text_chain28_allocates_per_edge_not_per_probe() {
    // `serve-hot`'s shape: a chain of 28 relations, 27 edge lines. 33
    // allocations today, 29 of them the graph's rows; 205 while every
    // number was a heap `BigUint`, 310 with hash-map storage.
    for seed in 0..4 {
        let inst =
            workloads::chain(28, &WorkloadParams::default(), &mut StdRng::seed_from_u64(seed));
        let count = parse_allocations(&inst);
        assert!(count <= 40, "seed {seed}: {count} allocations");
    }
}

#[test]
fn qon_from_text_clique9_allocates_per_table_not_per_number() {
    // `qon-dense`'s shape: 9 relations, 36 edge lines, every number one
    // limb. 18 allocations today (10 for the graph).
    for seed in 0..4 {
        let inst =
            workloads::clique(9, &WorkloadParams::default(), &mut StdRng::seed_from_u64(seed));
        let count = parse_allocations(&inst);
        assert!(count <= 25, "seed {seed}: {count} allocations");
    }
}

#[test]
fn canonical_key_makes_only_its_scratch_allocations() {
    // Into a buffer presized as the server does, the key writer allocates
    // its record buffer and its range list and nothing per number.
    for (seed, inst) in (0..4).flat_map(|seed| {
        let params = WorkloadParams::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let chain = workloads::chain(28, &params, &mut rng);
        [(seed, chain), (seed, workloads::clique(9, &params, &mut rng))]
    }) {
        let mut key = String::with_capacity(textio::qon_to_text(&inst).len() + 16);
        key.push_str("qon cart=1 ");
        let ((), count) = allocations(|| fingerprint::write_canonical_qon(&mut key, &inst));
        assert_eq!(key, format!("qon cart=1 {}", fingerprint::canonical_qon(&inst)));
        assert!(count <= 2, "seed {seed}: {count} allocations");
    }
}

#[test]
fn cached_handles_in_a_scope_allocate_nothing_after_the_first() {
    let _scope = aqo_obs::Scope::new().install();
    aqo_obs::set_enabled(true);
    let bump = |v: u64| {
        aqo_obs::counter_handle!("alloc-test.counter").add(v);
        aqo_obs::histogram_handle!("alloc-test.us").record(v);
    };
    // The first pass registers both metrics and fills both caches.
    bump(0);
    let ((), count) = allocations(|| (1..=1000).for_each(bump));
    assert_eq!(count, 0, "1,000 cached-handle updates allocated");
    assert_eq!(aqo_obs::counter("alloc-test.counter").get(), 500_500);
    assert_eq!(aqo_obs::histogram("alloc-test.us").stats().0, 1001);
}

#[test]
fn closed_spans_in_a_scope_allocate_nothing_after_the_first() {
    let _scope = aqo_obs::Scope::new().install();
    aqo_obs::set_enabled(true);
    // As under `aqo serve` without `--trace-json`: metrics on, journal off.
    aqo_obs::journal::set_capture(false);
    let close = || drop(aqo_obs::span!("alloc-test.span"));
    // The first span registers `span.alloc-test.span` and fills its cache.
    close();
    let ((), count) = allocations(|| (0..1000).for_each(|_| close()));
    assert_eq!(count, 0, "1,000 closed spans allocated");
    assert_eq!(aqo_obs::histogram("span.alloc-test.span").stats().0, 1001);
}

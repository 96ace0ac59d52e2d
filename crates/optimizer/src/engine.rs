//! Parallel, allocation-lean two-phase subset-DP engine for QO_N over
//! sparse per-layer frontiers.
//!
//! The classic subset DP in [`crate::dp`] is exact but single-threaded and
//! costs every transition of a dense `2^n` table in the exact scalar. This
//! engine restructures the same recurrence for speed without giving up a
//! single bit of exactness — same cost, same plan — and is the only exact
//! subset DP the driver and the service run (`dp` stays as its oracle):
//!
//! 1. **Pull-style evaluation, phase A layer-parallel.** Subsets of size
//!    `k` depend only on subsets of size `k − 1`, so each layer is
//!    evaluated over *target* subsets:
//!    `dp[T] = min_{j ∈ T} dp[T∖{j}] + N(T∖{j})·min_{k ∈ T∖{j}} w*(j,k)`,
//!    reading only the previous layer. Phase A splits a layer over
//!    workers; every target is written by exactly one worker (disjoint
//!    `&mut` chunks of a layer buffer), so results are bit-identical for
//!    every thread count. Phase B recosts only the few targets the prune
//!    lets through and runs on the calling thread.
//! 2. **Sparse per-layer frontiers.** Cost tables are per-layer vectors
//!    aligned with a sorted frontier of subset masks, not dense `2^n`
//!    arrays. The frontier is built in one of two modes
//!    ([`FrontierMode`]): *all subsets* when cartesian products are
//!    admissible (every subset is reachable), or *connected subgraphs
//!    only* — grown by neighborhood-restricted breadth-first `csg`
//!    expansion à la DPccp (Moerkotte–Neumann) — when they are not, since
//!    under the no-cartesian rule exactly the connected subsets are
//!    reachable. On the paper's §6 sparse families that collapses the
//!    table from `2^n` to `O(n²)` entries. Predecessor ranks come from
//!    the combinatorial number system (all-subsets mode, `O(k)` for all
//!    `k` predecessors of a target together) or a binary search in the
//!    sorted previous layer (connected mode) — no dense mask→rank table.
//! 3. **Two-phase costing.** Phase A runs the whole DP in floating point,
//!    producing a candidate plan and, per frontier entry, an estimate of
//!    the cheapest way to reach it. Bit lengths alone prove, before it
//!    starts, whether every value it will meet is zero, `+∞` or a normal
//!    `f64` (`phase_a_exponents`); then it runs on raw `f64`, and
//!    otherwise on [`LogNum`], an `f64` mantissa with a coarse exponent
//!    whose every operation rounds once, which reaches the reductions'
//!    `2^100000`. One body serves both, and inside the proven range they
//!    round alike, so estimates, candidate and prune decisions are the
//!    same bit for bit. Phase B re-runs the DP exactly, but *prunes*
//!    every subset whose phase-A estimate exceeds the exact candidate cost times
//!    `1 + prune_margin`, a relative bound on phase A's accumulated
//!    rounding error that depends on `n` only. Costs only grow along a
//!    sequence, so every subset whose exact best prefix cost is at most
//!    the optimum — ties included — survives; on realistic instances
//!    nothing else does, which removes almost all big-number arithmetic
//!    (DESIGN.md §9). Phase B walks each layer once and keeps entries
//!    for the survivors only. It runs on integers with one scale: with
//!    `D = ∏_e q_e` over the query edges' reduced selectivities
//!    `p_e/q_e`, every `D·N(S)` and `D·dp[S]` is an integer, so a
//!    transition is one fused multiply-add and one integer compare — no
//!    GCD, no cross-multiplication — and the answer is the single
//!    rational `D·dp[full] / D`, reduced by `D`'s own factors, the `q_e`,
//!    in machine words (`BigRational::from_scaled`). A bit bound known
//!    before phase B picks the integers: [`FixedUint`] limbs of a fixed
//!    width, or [`BigUint`] past it (`phase_b_bits`). If pruning ever lost the
//!    optimum (phase B finds no plan, or one dearer than the candidate),
//!    phase B reruns unpruned and `optimizer.engine.prune_fallbacks`
//!    counts it.
//!
//! The per-transition access cost `min_{k ∈ S} w*(j,k)` is read off row
//! `j` kept in ascending value order — one entry per neighbour `k`, one
//! for the default `t_j` that any non-neighbour in `S` offers — at the
//! first entry `S` meets. Phase A finds that entry without a
//! data-dependent exit: every live entry of the row sets one bit of a
//! hit mask, and the lowest set bit is the entry; its running minimum
//! over `j` is a select, not a branch. Phase B and the reference `dp`
//! stop at the first match instead ([`AccessRows`]). The rows replaced
//! the incremental min-weight tables the dense engine used to carry (two
//! `widest·n` [`LogNum`] generations, the dominant share of its 2.5×
//! memory overhead over the sequential DP).
//!
//! Cancellation and deadlines keep working mid-layer: every phase-A
//! worker and phase B tick the shared [`Budget`] (atomic interior) and
//! unwind with [`BudgetExceeded`]; `std::thread::scope` joins every
//! worker before the error surfaces, so no threads outlive the call.

use crate::Optimum;
use aqo_bignum::{BigRational, BigUint, FixedUint, LogNum, ScaledInt};
use aqo_core::budget::{Budget, BudgetExceeded};
use aqo_core::parallel::{par_chunks_zip, resolve_threads};
use aqo_core::qon::QoNInstance;
use aqo_core::{CostScalar, JoinSequence};
use std::ops::{Add, Mul};
use std::sync::LazyLock;

/// The largest `n` the engine accepts in the mode `allow_cartesian`
/// selects: [`crate::dp::MAX_N`] for all subsets (a `2^n` frontier is
/// materialized), [`crate::ccp::MAX_N`] (the `u32` mask width) for
/// connected subgraphs.
pub fn max_n(allow_cartesian: bool) -> usize {
    if allow_cartesian {
        crate::dp::MAX_N
    } else {
        crate::ccp::MAX_N
    }
}

/// Worst-case roundings of one phase-A step (see [`prune_margin`]),
/// *including* the conversion of the operand it brings in. Every
/// [`LogNum`] `add`, `mul` and `div` rounds its `f64` mantissa once, to a
/// relative error ≤ u = 2⁻⁵³; moving between coarse exponents rescales by
/// `2^±512` exactly, and an addend two or more exponents below the other
/// is under `2^-512` of it, so dropping it is that same single rounding.
/// [`LogNum::from_uint`] rounds correctly (one rounding), a selectivity
/// `p/q` takes three (`p`, `q`, the division).
///
/// Steps: a multiply by a size `t` or access cost `w` is its conversion
/// and the product, 2 roundings; a multiply by a selectivity is 3 + 1 = 4;
/// an add is 1. Add, multiply and `min` of positive values with relative
/// errors `(1 + δ)` keep the largest input error and add their own, so a
/// path's error is at most the product of its steps' factors.
const PHASE_A_ROUNDINGS_PER_STEP: f64 = 4.0;

/// Multiplier on the derived first-order bound in [`prune_margin`]: it
/// covers the second-order terms (the bound is `(1 + u)^R − 1` for `R`
/// roundings, and `R·u < 2⁻⁴⁰` here) many times over.
const PRUNE_SAFETY_FACTOR: f64 = 4.0;

/// The phase-B pruning margin for an `n`-relation request, relative:
/// every subset whose phase-A estimate exceeds `candidate·(1 + margin)`
/// is skipped.
///
/// Error bound. A phase-A path to a subset `T` takes at most
/// `K = n + n(n−1)/2 + 2n` [`LogNum`] steps: ≤ n multiplies by a size
/// `t_v` and ≤ n(n−1)/2 by a selectivity (building `N(S)`), and per layer
/// one multiply by an access cost `w*` and one add. Each step rounds at
/// most [`PHASE_A_ROUNDINGS_PER_STEP`] times, each rounding a factor in
/// `[1 − u, 1 + u]` with `u = 2⁻⁵³`, so the estimate satisfies
/// `est(T) ≤ dp[T]·(1 + u)^(4K)`, with `dp[T]` the exact best prefix
/// cost. The bound `candidate·(1 + margin)` is `D·C / D` on two exact
/// integers (two conversions and a division, three roundings) times the
/// `f64` `1 + margin` (one rounding) in one multiply (one more), so it is
/// at least `C·(1 + margin)·(1 − u)^5`. With
/// `margin ≥ (1 + u)^(4K) / (1 − u)^5 − 1 ≈ 4(K + 2)·u`,
/// `dp[T] ≤ optimum ≤ candidate` implies `est(T) ≤ bound`: every subset
/// that can prefix an optimal plan, or tie with one, is recosted. The
/// margin applies [`PRUNE_SAFETY_FACTOR`] on top. No magnitude enters:
/// the error is relative at every scale.
pub(crate) fn prune_margin(n: usize) -> f64 {
    let steps = (n + n * (n - 1) / 2 + 2 * n) as f64;
    PRUNE_SAFETY_FACTOR * PHASE_A_ROUNDINGS_PER_STEP * (steps + 2.0) * f64::EPSILON / 2.0
}

/// The phase-B prune bound `candidate·(1 + margin)` and the margin in
/// bits, `log₂(1 + margin)`, from the candidate's scaled cost `D·C` and
/// the scale `D`.
fn prune_bound(n: usize, candidate: &BigUint, scale: &BigUint) -> (LogNum, f64) {
    let margin = prune_margin(n);
    let cost = LogNum::from_uint(candidate) / LogNum::from_uint(scale);
    (cost * LogNum::from_value(1.0 + margin), margin.ln_1p() / std::f64::consts::LN_2)
}

/// Knobs for the engine.
#[derive(Clone, Copy, Debug)]
pub struct DpOptions {
    /// Whether sequences with cartesian products are admissible.
    pub allow_cartesian: bool,
    /// Worker threads; `0` means one per available hardware thread.
    pub threads: usize,
}

/// How the per-layer frontiers are populated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FrontierMode {
    /// Every nonempty subset, grouped by popcount (cartesian products
    /// admissible: all of them are reachable).
    AllSubsets,
    /// Connected subgraphs only, grown by breadth-first neighborhood
    /// expansion (the reachable prefixes under the no-cartesian rule).
    Connected,
}

impl FrontierMode {
    /// The mode a request needs: every subset is reachable when cartesian
    /// products are admissible, only connected subgraphs when they are not.
    pub(crate) fn of(allow_cartesian: bool) -> FrontierMode {
        if allow_cartesian {
            FrontierMode::AllSubsets
        } else {
            FrontierMode::Connected
        }
    }
}

/// Pascal's triangle up to `n`, backing the combinatorial-number-system
/// subset ranking that replaced the dense mask→rank table. Each row holds
/// a column for every `i ≤` [`crate::ccp::MAX_N`], zero past `p`, so
/// `C(p, i)` is one load with no `i > p` test.
pub(crate) struct Binom {
    rows: Vec<[u32; crate::ccp::MAX_N + 1]>,
}

impl Binom {
    pub(crate) fn build(n: usize) -> Binom {
        let mut rows = vec![[0u32; crate::ccp::MAX_N + 1]; n + 1];
        rows[0][0] = 1;
        for p in 1..=n {
            rows[p][0] = 1;
            for i in 1..=p {
                rows[p][i] = rows[p - 1][i - 1] + rows[p - 1][i];
            }
        }
        Binom { rows }
    }

    #[inline]
    fn c(&self, p: usize, i: usize) -> u32 {
        self.rows[p][i]
    }
}

/// Per-layer subset frontiers: `layers[k]` holds the masks the DP visits
/// at popcount `k`, sorted ascending. Cost tables are vectors aligned
/// with these frontiers, so their size tracks the *reachable* state
/// space, not `2^n`.
pub(crate) struct Frontiers {
    mode: FrontierMode,
    layers: Vec<Vec<u32>>,
}

impl Frontiers {
    /// Builds the frontiers for `n` relations with per-vertex neighbour
    /// bitmasks `nbr`. Every layer's bytes are charged against the budget
    /// before allocation; construction checkpoints (deadline/cancel) per
    /// layer but does not consume expansion ticks — only DP transitions
    /// do.
    pub(crate) fn build(
        n: usize,
        nbr: &[u32],
        mode: FrontierMode,
        budget: &Budget,
    ) -> Result<Frontiers, BudgetExceeded> {
        let mut layers: Vec<Vec<u32>> = vec![Vec::new(); n + 1];
        layers[1] = (0..n).map(|v| 1u32 << v).collect();
        budget.charge_memory((n * 4) as u64)?;
        match mode {
            FrontierMode::AllSubsets => {
                let full = (1usize << n) - 1;
                budget.charge_memory((full * 4) as u64)?;
                budget.checkpoint()?;
                let binom = Binom::build(n);
                for (k, layer) in layers.iter_mut().enumerate().skip(2) {
                    layer.reserve_exact(binom.c(n, k) as usize);
                }
                for m in (1..=full).map(|m| m as u32) {
                    let k = m.count_ones() as usize;
                    if k >= 2 {
                        layers[k].push(m);
                    }
                }
            }
            FrontierMode::Connected => {
                for k in 1..n {
                    budget.checkpoint()?;
                    // Candidate count first, so the expansion buffer is
                    // charged before it is allocated.
                    let mut cand = 0usize;
                    for &s in &layers[k] {
                        cand += (nbr_union(nbr, s) & !s).count_ones() as usize;
                    }
                    budget.charge_memory((cand * 4) as u64)?;
                    let mut next: Vec<u32> = Vec::with_capacity(cand);
                    for &s in &layers[k] {
                        let mut ext = nbr_union(nbr, s) & !s;
                        while ext != 0 {
                            let j = ext.trailing_zeros();
                            ext &= ext - 1;
                            next.push(s | 1 << j);
                        }
                    }
                    next.sort_unstable();
                    next.dedup();
                    if next.is_empty() {
                        break; // disconnected graph: no larger subgraph
                    }
                    layers[k + 1] = next;
                }
            }
        }
        Ok(Frontiers { mode, layers })
    }

    pub(crate) fn layer(&self, k: usize) -> &[u32] {
        &self.layers[k]
    }

    /// Total frontier entries across all layers (singletons included).
    pub(crate) fn total_subsets(&self) -> u64 {
        self.layers.iter().map(|l| l.len() as u64).sum()
    }
}

/// Union of the neighbour masks over the members of `s`.
#[inline]
fn nbr_union(nbr: &[u32], s: u32) -> u32 {
    let mut acc = 0u32;
    let mut b = s;
    while b != 0 {
        let v = b.trailing_zeros() as usize;
        b &= b - 1;
        acc |= nbr[v];
    }
    acc
}

/// Writes, for each set bit `b_i` of `t` (ascending), the rank of
/// `t ∖ {b_i}` in the previous layer into `out[i]`, or `u32::MAX` when
/// that subset is not on the frontier (a cut vertex in connected mode).
/// Returns the popcount of `t`.
///
/// All-subsets mode needs no search: the rank of a `k`-subset in the
/// ascending order is its combinatorial number system value
/// `Σ C(b_i, i+1)`, and removing `b_i` keeps the prefix terms while the
/// suffix bits each drop one index — two running sums give all `k`
/// predecessor ranks in `O(k)`.
fn pred_ranks(
    mode: FrontierMode,
    binom: &Binom,
    prev_layer: &[u32],
    t: u32,
    out: &mut [u32; 32],
) -> usize {
    let mut bits = [0u8; 32];
    let mut k = 0usize;
    let mut b = t;
    while b != 0 {
        bits[k] = b.trailing_zeros() as u8;
        b &= b - 1;
        k += 1;
    }
    match mode {
        FrontierMode::AllSubsets => {
            let mut suf = 0u32;
            for i in (0..k).rev() {
                out[i] = suf;
                suf += binom.c(bits[i] as usize, i);
            }
            let mut pre = 0u32;
            for (i, &bi) in bits[..k].iter().enumerate() {
                out[i] += pre;
                pre += binom.c(bi as usize, i + 1);
            }
        }
        FrontierMode::Connected => {
            for (i, &bi) in bits[..k].iter().enumerate() {
                let s = t & !(1u32 << bi);
                out[i] = prev_layer.binary_search(&s).map_or(u32::MAX, |r| r as u32);
            }
        }
    }
    k
}

/// The scalar phase A runs in: raw `f64` when [`phase_a_fits`] proves
/// that every value it meets is zero, `+∞` or a normal `f64`, and
/// [`LogNum`] otherwise. Inside that range `LogNum` rounds exactly as
/// `f64` does (its rescales are exact powers of two), so both give the
/// same estimates, parents and prune decisions, bit for bit.
trait Estimate: Copy + PartialOrd + Add<Output = Self> + Mul<Output = Self> + Send + Sync {
    const ZERO: Self;
    const ONE: Self;
    /// The unreached sentinel; never an operand of arithmetic.
    const INFINITY: Self;
    /// A value from its [`LogNum`] conversion, exactly inside the range.
    fn from_log(v: LogNum) -> Self;
}

impl Estimate for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    const INFINITY: f64 = f64::INFINITY;
    #[inline]
    fn from_log(v: LogNum) -> f64 {
        v.to_f64()
    }
}

impl Estimate for LogNum {
    const ZERO: LogNum = LogNum::ZERO;
    const ONE: LogNum = LogNum::ONE;
    const INFINITY: LogNum = LogNum::INFINITY;
    #[inline]
    fn from_log(v: LogNum) -> LogNum {
        v
    }
}

/// Precomputed phase-A view of an instance: the call's neighbour bitmasks
/// and the `t`, `w*`, `s` scalars converted once (through [`LogNum`]'s
/// conversions, so both scalars start from the same roundings), so the
/// phase-A hot loop allocates nothing and touches no big numbers.
struct LogView<'a, E> {
    nbr: &'a [u32],
    tlog: Vec<E>,
    /// Row `j` of `w*` in ascending value order, `n` slots per row, as
    /// parallel mask and value arrays: one `(1 << k, w(j,k))` per
    /// neighbour `k` and one `(!nbr(j), t_j)` for the default access
    /// path, which every non-neighbour offers.
    wmask: Vec<u32>,
    wval: Vec<E>,
    /// Live entries per row: the default and one per neighbour.
    wlen: Vec<usize>,
    /// Selectivities row-major; `1` off the query graph.
    slog: Vec<E>,
}

impl<'a, E: Estimate> LogView<'a, E> {
    fn build(inst: &QoNInstance, nbr: &'a [u32]) -> LogView<'a, E> {
        let n = inst.n();
        let of = |v: &BigUint| E::from_log(LogNum::from_uint(v));
        let tlog: Vec<E> = inst.sizes().iter().map(of).collect();
        let mut wmask = vec![0u32; n * n];
        let mut wval = vec![E::INFINITY; n * n];
        let mut wlen = vec![1usize; n];
        for (j, &t) in tlog.iter().enumerate() {
            (wmask[j * n], wval[j * n]) = (!nbr[j], t);
        }
        let mut slog = vec![E::ONE; n * n];
        for (u, v, s, [w_uv, w_vu]) in inst.edges() {
            let s = E::from_log(<LogNum as CostScalar>::from_ratio(s));
            (slog[u * n + v], slog[v * n + u]) = (s, s);
            for (j, k, w) in [(u, v, w_uv), (v, u, w_vu)] {
                (wmask[j * n + wlen[j]], wval[j * n + wlen[j]]) = (1 << k, of(w));
                wlen[j] += 1;
            }
        }
        for (j, &l) in wlen.iter().enumerate() {
            let (mask, val) = (&mut wmask[j * n..j * n + l], &mut wval[j * n..j * n + l]);
            // Insertion sort: stable, short rows, and little code per scalar.
            for i in 1..l {
                let mut p = i;
                while p > 0 && val[p] < val[p - 1] {
                    mask.swap(p, p - 1);
                    val.swap(p, p - 1);
                    p -= 1;
                }
            }
        }
        LogView { nbr, tlog, wmask, wval, wlen, slog }
    }
}

/// Phase-A output: per-layer cost estimates, frontier-aligned, and the
/// winning predecessor per entry.
struct LogDp<E> {
    dp: Vec<Vec<E>>,
    parent: Vec<Vec<u8>>,
}

#[inline]
fn unreached<E: Estimate>(v: E) -> bool {
    v == E::INFINITY
}

/// Walks parent pointers down the frontiers from the full set. `None`
/// when the full set never made it onto the frontier (disconnected graph
/// in connected mode) or was never reached.
fn reconstruct_order(frontiers: &Frontiers, parent: &[Vec<u8>], n: usize) -> Option<JoinSequence> {
    if frontiers.layer(n).is_empty() {
        return None;
    }
    let mut order = Vec::with_capacity(n);
    let mut mask = frontiers.layer(n)[0];
    let mut rank = 0usize;
    for k in (2..=n).rev() {
        let j = parent[k][rank];
        if j == u8::MAX {
            return None;
        }
        order.push(j as usize);
        mask &= !(1u32 << j);
        rank = frontiers.layer(k - 1).binary_search(&mask).ok()?;
    }
    order.push(mask.trailing_zeros() as usize);
    order.reverse();
    Some(JoinSequence::new(order))
}

/// `min_{k ∈ S} w*(j,k)`: row `j` in ascending value order, read at its
/// first entry `s` meets — a neighbour of `j` inside `s`, or the default
/// `t_j` once `s` holds a non-neighbour. Every live entry sets its bit
/// of a hit mask, with no data-dependent exit, and the lowest set bit is
/// that first entry.
#[inline]
fn wmin_log<E: Estimate>(view: &LogView<E>, n: usize, j: usize, s: u32) -> E {
    let row = j * n;
    let mut hits = 0u32;
    for &mask in view.wmask[row..row + view.wlen[j]].iter().rev() {
        hits = hits << 1 | u32::from(mask & s != 0);
    }
    if hits == 0 {
        E::INFINITY
    } else {
        view.wval[row + hits.trailing_zeros() as usize]
    }
}

/// Phase A: the subset DP in `E` over the sparse frontiers,
/// layer-parallel.
fn log_phase<E: Estimate>(
    inst: &QoNInstance,
    frontiers: &Frontiers,
    nbr: &[u32],
    allow_cartesian: bool,
    threads: usize,
    budget: &Budget,
) -> Result<LogDp<E>, BudgetExceeded> {
    let _span = aqo_obs::span!("engine.log_phase");
    let n = inst.n();
    let view = LogView::<E>::build(inst, nbr);
    let binom = Binom::build(n);
    // The view's n×n tables (`w*` masks and values, selectivities), its
    // sizes and row lengths, charged before the layer loop.
    let row_bytes = std::mem::size_of::<u32>() + 2 * std::mem::size_of::<E>();
    let col_bytes = std::mem::size_of::<E>() + std::mem::size_of::<usize>();
    budget.charge_memory((n * n * row_bytes + n * col_bytes) as u64)?;
    budget.checkpoint()?;

    let mut dp_layers: Vec<Vec<E>> = vec![Vec::new(); n + 1];
    let mut parent_layers: Vec<Vec<u8>> = vec![Vec::new(); n + 1];
    dp_layers[1] = vec![E::ZERO; n];
    parent_layers[1] = vec![u8::MAX; n];
    let mut nlog_prev: Vec<E> = view.tlog.clone();
    let mut nlog_cur: Vec<E> = Vec::new();
    let mut results: Vec<(E, E, u8)> = Vec::new();
    let mut scratch_charged = 0usize;
    // Singletons are DP states too: with them the count equals
    // `Frontiers::total_subsets()` in both modes.
    aqo_obs::counter_handle!("optimizer.engine.subsets_expanded").add(n as u64);

    for k in 2..=n {
        let targets = frontiers.layer(k);
        if targets.is_empty() {
            break; // connected mode on a disconnected graph
        }
        let width = targets.len();
        // Persistent per-layer tables plus the reusable worker scratch
        // (results + the rolling N(S) buffer), charged before resizing.
        let persist = width * (std::mem::size_of::<E>() + 1);
        let scratch = width * (std::mem::size_of::<(E, E, u8)>() + std::mem::size_of::<E>());
        let grow = scratch.saturating_sub(scratch_charged);
        budget.charge_memory((persist + grow) as u64)?;
        scratch_charged = scratch_charged.max(scratch);
        results.clear();
        results.resize(width, (E::INFINITY, E::ZERO, u8::MAX));
        let dp_prev: &[E] = &dp_layers[k - 1];
        let prev_layer = frontiers.layer(k - 1);

        par_chunks_zip(threads, targets, &mut results, |_, ts, res| {
            let mut ranks = [u32::MAX; 32];
            for (i, &tm) in ts.iter().enumerate() {
                budget.tick_n(k as u64)?;
                let kk = pred_ranks(frontiers.mode, &binom, prev_layer, tm, &mut ranks);
                // N(T), order-invariant, from the canonical parent: the
                // lowest removed bit whose remainder is on the frontier
                // (in all-subsets mode that is always the lowest bit).
                let mut nl = E::ZERO;
                let mut best = E::INFINITY;
                let mut bj = u8::MAX;
                let mut canonical = false;
                let mut tb = tm;
                for &r in &ranks[..kk] {
                    let j = tb.trailing_zeros() as usize;
                    tb &= tb - 1;
                    if r == u32::MAX {
                        continue; // T∖{j} is off the frontier (cut vertex)
                    }
                    let s = tm & !(1u32 << j);
                    if !canonical {
                        canonical = true;
                        nl = nlog_prev[r as usize] * view.tlog[j];
                        let mut bits = view.nbr[j] & s;
                        while bits != 0 {
                            let v = bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            nl = nl * view.slog[j * n + v];
                        }
                    }
                    let d = dp_prev[r as usize];
                    if unreached(d) {
                        continue;
                    }
                    if !allow_cartesian && view.nbr[j] & s == 0 {
                        continue;
                    }
                    let cand = d + nlog_prev[r as usize] * wmin_log(&view, n, j, s);
                    // A select, not a branch: strict `<` keeps the lowest
                    // `j` on ties.
                    let better = cand < best;
                    best = if better { cand } else { best };
                    bj = if better { j as u8 } else { bj };
                }
                res[i] = (best, nl, bj);
            }
            Ok(())
        })?;

        nlog_cur.clear();
        nlog_cur.reserve(width);
        let mut dp_k = Vec::with_capacity(width);
        let mut parent_k = Vec::with_capacity(width);
        for &(c, nl, pj) in &results {
            dp_k.push(c);
            nlog_cur.push(nl);
            parent_k.push(pj);
        }
        dp_layers[k] = dp_k;
        parent_layers[k] = parent_k;
        std::mem::swap(&mut nlog_prev, &mut nlog_cur);
        // Layer stats are pure functions of the layer geometry, recorded
        // once per layer on the coordinating thread — deterministic for
        // every thread count, zero cost inside the worker hot loop. Journal
        // fields are built only while the journal keeps them.
        if aqo_obs::enabled() {
            aqo_obs::counter_handle!("optimizer.engine.subsets_expanded").add(width as u64);
            aqo_obs::counter_handle!("optimizer.engine.transitions").add((width * k) as u64);
        }
        if aqo_obs::journal::capturing() {
            let chunk = width.div_ceil(threads.max(1));
            let chunks = if chunk >= width { 1 } else { width.div_ceil(chunk) };
            aqo_obs::journal::event(
                "dp_layer",
                vec![
                    ("phase", "log".into()),
                    ("k", k.into()),
                    ("width", width.into()),
                    ("chunks", chunks.into()),
                ],
            );
        }
    }
    Ok(LogDp { dp: dp_layers, parent: parent_layers })
}

/// The exact access-cost rows of an instance, shared by phase B and the
/// reference [`crate::dp`]: `w*(j,k)` row-major with `t_j` on the
/// diagonal, borrowed from the instance, plus each row's entries in value
/// order, so picking `min_{k ∈ S} w*(j,k)` stops at the first entry `S`
/// meets instead of comparing big numbers.
pub(crate) struct AccessRows<'a> {
    pub(crate) n: usize,
    pub(crate) nbr: &'a [u32],
    /// `w*(j,k)` row-major; the diagonal holds `t_j`.
    pub(crate) w: Vec<&'a BigUint>,
    /// Row `j` in ascending exact value, `n` slots per row, as
    /// `(mask, index into w)`: `(!nbr(j), j·n + j)` for the default `t_j`,
    /// which every non-neighbour offers, and `(1 << k, j·n + k)` per
    /// neighbour `k`. Equal values keep the default first, then ascending
    /// `k`. Unused slots have mask `0` and never match.
    by_value: Vec<(u32, u32)>,
}

impl<'a> AccessRows<'a> {
    /// The rows of `inst`, over its neighbour bitmasks `nbr`
    /// ([`nbr_masks`]).
    pub(crate) fn build(inst: &'a QoNInstance, nbr: &'a [u32]) -> AccessRows<'a> {
        let n = inst.n();
        // `t_j` fills row `j`, the diagonal and the non-edges; the edges
        // overwrite.
        let mut w: Vec<&BigUint> =
            inst.sizes().iter().flat_map(|t| std::iter::repeat_n(t, n)).collect();
        for (u, v, _, [w_uv, w_vu]) in inst.edges() {
            (w[u * n + v], w[v * n + u]) = (w_uv, w_vu);
        }
        let mut by_value = vec![(0u32, 0u32); n * n];
        for (j, row) in by_value.chunks_exact_mut(n).enumerate() {
            let at = |k: usize| (j * n + k) as u32;
            row[0] = (!nbr[j], at(j));
            let mut len = 1;
            for k in (0..n).filter(|&k| nbr[j] >> k & 1 == 1) {
                row[len] = (1 << k, at(k));
                len += 1;
            }
            // Stable: ties keep the default first, then ascending `k`.
            row[..len].sort_by(|a, b| w[a.1 as usize].cmp(w[b.1 as usize]));
        }
        AccessRows { n, nbr, w, by_value }
    }

    /// The index into [`AccessRows::w`] of `min_{k ∈ s} w*(j,k)` for a
    /// nonempty `s ∌ j`: edges of `j` inside `s` offer `w(j,k)`, and any
    /// non-neighbour in `s` lets the default access path `t_j` compete.
    /// Among equal values the default wins, then the lowest `k`.
    #[inline]
    pub(crate) fn wmin_at(&self, j: usize, s: u32) -> usize {
        let row = &self.by_value[j * self.n..(j + 1) * self.n];
        row.iter().find(|&&(mask, _)| s & mask != 0).map_or(j * self.n + j, |&(_, at)| at as usize)
    }
}

/// `p_e = q_e = 1`: the selectivity of a pair off the query graph.
static ONE: LazyLock<BigUint> = LazyLock::new(BigUint::one);

/// The set bits of a mask, ascending.
#[inline]
fn bit_indices(mut bits: u32) -> impl Iterator<Item = usize> + Clone {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let v = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            v
        })
    })
}

/// `D = ∏_e q_e` over the query edges' reduced selectivities `p_e/q_e`.
fn scale_of(inst: &QoNInstance) -> BigUint {
    let mut scale = BigUint::one();
    for (_, _, s, _) in inst.edges() {
        scale *= s.denom();
    }
    scale
}

/// `Σ_v bits(t_v) + max bits(w*) + bits(n)`: every unscaled `N(S)`, prefix
/// cost and candidate is below `2^cost_bits`.
///
/// Proof. `p_e ≤ q_e` on every edge (an instance's access costs enforce
/// `t_j·p_e/q_e ≤ w ≤ t_j`), so `N(S) = ∏_{v∈S} t_v · ∏_{e⊆S} p_e/q_e ≤
/// ∏_v t_v < 2^Σ bits(t_v)`. A prefix cost, or a candidate `a + b·c` for
/// one, is a sum of at most `n − 1` terms `N(S)·w*`, each below
/// `2^(Σ bits(t_v) + max bits(w*))`, so below that times
/// `n − 1 < 2^bits(n)`. `w*` ranges over the access costs and the sizes
/// `t_j` (the default access path). `max bits(w*)` is slack: a term's
/// `w*(j, S) ≤ t_j` with `j ∉ S`, so it is below `2^Σ bits(t_v)` already.
fn cost_bits(inst: &QoNInstance) -> u64 {
    let sizes = inst.sizes().iter().map(BigUint::bits);
    let access = inst.edges().flat_map(|(_, _, _, w)| w.iter().map(BigUint::bits));
    let widest = sizes.clone().chain(access).max().unwrap_or(0);
    let n = inst.n() as u64;
    sizes.sum::<u64>() + widest + u64::from(u64::BITS - n.leading_zeros())
}

/// The largest exponent, at either end, that [`phase_a_exponents`] may
/// name for phase A to run on raw `f64`. The normal range spans
/// `[2^-1022, 2^1024)`; the rest covers phase A's rounding, a factor
/// within `1 ± 2^-40` on every value ([`prune_margin`]), many times over.
const PHASE_A_EXP_LIMIT: u64 = 1000;

/// `(lo, hi)` from bit lengths alone: every positive value phase A
/// computes or converts lies in `(2^-lo, 2^hi)` before rounding, with
/// `lo = Σ_e bits(q_e) ≥ bits(D)` and `hi` = [`cost_bits`].
///
/// Proof. An instance has `t_v ≥ 1` and selectivities `p_e/q_e` in
/// `(0, 1]`, so `1 ≤ p_e ≤ q_e < 2^lo`, and integer access costs
/// `w ≥ t_j·p_e/q_e > 0`, so `w ≥ 1`. Hence `p_e/q_e ≥ 1/q_e`, and
/// `N(S) = ∏_{v∈S} t_v · ∏_{e⊆S} p_e/q_e ≥ 1/∏_{e⊆S} q_e > 2^-lo`; so is
/// every partial product on the way to it, since each selectivity still
/// to come is at most 1, and every cost term `N(S)·w*`. From above,
/// sizes and access costs are below `2^hi` and so are `N(S)` and every
/// cost ([`cost_bits`]). Zero enters only as the singletons' cost and
/// `+∞` only as the unreached sentinel; neither is an operand of a
/// product, so no `0·∞` arises.
fn phase_a_exponents(inst: &QoNInstance) -> (u64, u64) {
    let lo = inst.edges().map(|(_, _, s, _)| s.denom().bits()).sum();
    (lo, cost_bits(inst))
}

/// Whether phase A runs on raw `f64`: both [`phase_a_exponents`] are at
/// most [`PHASE_A_EXP_LIMIT`]. Otherwise it runs on [`LogNum`], whose
/// coarse exponent reaches the reductions' `2^100000`.
fn phase_a_fits(inst: &QoNInstance) -> bool {
    let (lo, hi) = phase_a_exponents(inst);
    lo.max(hi) <= PHASE_A_EXP_LIMIT
}

/// A bound on the bits of every value phase B computes, from bit lengths
/// alone: `bits(D) +` [`cost_bits`] `+ 1`.
///
/// Proof. Every scaled value is `D` times an unscaled one below
/// `2^cost_bits`, and so is every value `extend_n` passes through: it
/// divides before it multiplies, and each multiplier is at least 1, so it
/// never exceeds `D·∏_v t_v`. The `+ 1` is slack.
fn phase_b_bits(inst: &QoNInstance, scale: &BigUint) -> u64 {
    scale.bits() + cost_bits(inst) + 1
}

/// The [`FixedUint`] width phase B runs at, in limbs. Both `qon-dense`
/// pools (clique 9, 444–601 bits) fit it.
const PHASE_B_LIMBS: usize = 10;

/// Whether phase B runs on `FixedUint<PHASE_B_LIMBS>`: its `64·L` bits
/// hold [`phase_b_bits`] and every size, access cost and selectivity term
/// fits one limb. Otherwise phase B runs on [`BigUint`].
fn phase_b_fits(inst: &QoNInstance, scale: &BigUint) -> bool {
    one_limb_factors(inst) && phase_b_bits(inst, scale) <= 64 * PHASE_B_LIMBS as u64
}

/// Whether every size, access cost and selectivity term fits one limb,
/// as a [`FixedUint`] phase B needs.
fn one_limb_factors(inst: &QoNInstance) -> bool {
    let one_limb = |v: &BigUint| v.limbs().len() <= 1;
    inst.sizes().iter().all(one_limb)
        && inst.edges().all(|(_, _, s, [w_uv, w_vu])| {
            [s.numer().magnitude(), s.denom(), w_uv, w_vu].into_iter().all(one_limb)
        })
}

/// Phase B's integer view of an instance. With each edge selectivity
/// reduced to `p_e/q_e` and the scale `D = ∏_e q_e` over the query edges,
/// `D·N(S) = ∏_{v∈S} t_v · ∏_{e⊆S} p_e · ∏_{e⊄S} q_e` is an integer, and
/// so is `D` times every prefix cost. Scaling by one positive constant
/// keeps every comparison, and so every tie-break, exactly as in the
/// rationals.
struct ScaledView<'a, N: ScaledInt<'a>> {
    rows: AccessRows<'a>,
    /// [`AccessRows::w`] as factors: `w*(j,k)` row-major, `t_j` on the
    /// diagonal.
    w: Vec<N::Factor>,
    /// `(p_e, q_e)` of the edge `{j, k}` at `j·n + k`; `(1, 1)` off the
    /// query graph.
    pq: Vec<(N::Factor, N::Factor)>,
    /// `D`.
    scale: N,
}

impl<'a, N: ScaledInt<'a>> ScaledView<'a, N> {
    fn build(inst: &'a QoNInstance, nbr: &'a [u32], scale: &BigUint) -> Self {
        let n = inst.n();
        let one = N::factor(&ONE);
        let mut pq = vec![(one, one); n * n];
        for (u, v, s, _) in inst.edges() {
            let pq_e = (N::factor(s.numer().magnitude()), N::factor(s.denom()));
            (pq[u * n + v], pq[v * n + u]) = (pq_e, pq_e);
        }
        let rows = AccessRows::build(inst, nbr);
        let w = rows.w.iter().map(|&w| N::factor(w)).collect();
        ScaledView { rows, w, pq, scale: N::from_big(scale) }
    }

    /// `min_{k ∈ s} w*(j,k)` (unscaled: it multiplies a scaled `D·N(s)`).
    #[inline]
    fn wmin(&self, j: usize, s: u32) -> N::Factor {
        self.w[self.rows.wmin_at(j, s)]
    }

    /// `D·N({v}) = D·t_v`.
    fn scaled_size(&self, v: usize) -> N {
        let mut size = self.scale.clone();
        size.mul_factor(self.w[v * self.rows.n + v]);
        size
    }

    /// `nn = D·N(s)` becomes `D·N(s ∪ {j})` in place: one exact division
    /// by the product of the `q_e` of the edges from `j` into `s` (each is
    /// a factor of `nn`, since those edges are not inside `s`, and so is
    /// their product), then one multiplication by `t_j` times their `p_e`
    /// — each split only where a product outgrows one factor.
    fn extend_n(&self, nn: &mut N, j: usize, s: u32) {
        let row = j * self.rows.n;
        let joined = bit_indices(self.rows.nbr[j] & s);
        nn.div_exact_product(joined.clone().map(|v| self.pq[row + v].1));
        nn.mul_product(std::iter::once(self.w[row + j]).chain(joined.map(|v| self.pq[row + v].0)));
    }

    /// `D·C(order)`, the scaled cost of one join sequence.
    fn path_cost(&self, order: &[usize]) -> N {
        let mut s = 1u32 << order[0];
        let mut ns = self.scaled_size(order[0]);
        let (mut cost, mut next) = (N::default(), N::default());
        for &j in &order[1..] {
            next.set_mul_add(&cost, &ns, self.wmin(j, s));
            std::mem::swap(&mut cost, &mut next);
            self.extend_n(&mut ns, j, s);
            s |= 1 << j;
        }
        cost
    }
}

/// A phase-B entry: `D·dp[T]` and `D·N(T)` of a target that survived the
/// prune and was reached. Only survivors have one.
#[derive(Default)]
struct Survivor<N> {
    cost: N,
    size: N,
}

/// Phase A's output in the scalar [`phase_a_fits`] picked.
enum PhaseA {
    F64(LogDp<f64>),
    Log(LogDp<LogNum>),
}

impl PhaseA {
    /// Phase A on raw `f64` when the instance's bit bounds allow it, on
    /// [`LogNum`] otherwise.
    fn run(
        inst: &QoNInstance,
        frontiers: &Frontiers,
        nbr: &[u32],
        allow_cartesian: bool,
        threads: usize,
        budget: &Budget,
    ) -> Result<PhaseA, BudgetExceeded> {
        Ok(if phase_a_fits(inst) {
            PhaseA::F64(log_phase(inst, frontiers, nbr, allow_cartesian, threads, budget)?)
        } else {
            PhaseA::Log(log_phase(inst, frontiers, nbr, allow_cartesian, threads, budget)?)
        })
    }

    fn parent(&self) -> &[Vec<u8>] {
        match self {
            PhaseA::F64(log) => &log.parent,
            PhaseA::Log(log) => &log.parent,
        }
    }

    /// Whether the full set, the one entry of layer `n`, was reached.
    fn reached_full(&self, n: usize) -> bool {
        match self {
            PhaseA::F64(log) => !unreached(log.dp[n][0]),
            PhaseA::Log(log) => !unreached(log.dp[n][0]),
        }
    }

    /// Phase B's filter under `bound`. On the `f64` path the bound lies in
    /// the same proven range as the estimates, so it converts exactly and
    /// every decision is the one `LogNum` would make.
    fn prune(&self, bound: LogNum) -> Prune<'_> {
        match self {
            PhaseA::F64(log) => Prune::F64(&log.dp, bound.to_f64()),
            PhaseA::Log(log) => Prune::Log(&log.dp, bound),
        }
    }
}

/// Phase A's estimates and the prune bound, in the scalar phase A ran in.
#[derive(Clone, Copy)]
enum Prune<'r> {
    F64(&'r [Vec<f64>], f64),
    Log(&'r [Vec<LogNum>], LogNum),
}

impl Prune<'_> {
    /// Whether target `i` of layer `k` is estimated above the bound.
    #[inline]
    fn exceeds(self, k: usize, i: usize) -> bool {
        match self {
            Prune::F64(est, bound) => est[k][i] > bound,
            Prune::Log(est, bound) => est[k][i] > bound,
        }
    }
}

/// A dead slot in a layer's rank → survivor map: the target was pruned
/// or is unreachable.
const DEAD: u32 = u32::MAX;

/// Pruned targets whose ticks are added to the budget in one call: the
/// filter makes no atomic add per target, and deadlines are still checked
/// at the same order of work.
const PRUNED_TICK_BLOCK: u64 = 256;

/// Phase B: the exact DP over the same frontiers in scaled integers, on
/// the calling thread. Each layer is walked once: a target whose phase-A
/// estimate exceeds the bound is pruned (one expansion) and gets a dead
/// slot; every other target is recosted from its live predecessors (`k`
/// expansions) and, once reached, gets a survivor entry and a slot. With
/// `prune = None` every target survives. Returns `D·C*` and the plan.
fn exact_phase<'a, N: ScaledInt<'a>>(
    view: &ScaledView<'a, N>,
    frontiers: &Frontiers,
    allow_cartesian: bool,
    budget: &Budget,
    prune: Option<Prune<'_>>,
) -> Result<Option<(N, JoinSequence)>, BudgetExceeded> {
    let _span = aqo_obs::span!("engine.exact_phase");
    let n = view.rows.n;
    let nbr = view.rows.nbr;
    let binom = Binom::build(n);
    let entry = std::mem::size_of::<Survivor<N>>();
    let slot = std::mem::size_of::<u32>();
    // The singletons' entries and slots.
    budget.charge_memory((n * (entry + slot)) as u64)?;
    budget.checkpoint()?;

    let singleton = |v| Survivor { cost: N::default(), size: view.scaled_size(v) };
    let mut prev: Vec<Survivor<N>> = (0..n).map(singleton).collect();
    let mut prev_slots: Vec<u32> = (0..n as u32).collect();
    // Entries past a layer's survivors keep their buffers for a later one.
    let mut cur: Vec<Survivor<N>> = Vec::new();
    let mut cur_slots: Vec<u32> = Vec::new();
    // Layer `k`'s parent row is pushed as entry `k`.
    let mut parent_layers: Vec<Vec<u8>> = Vec::with_capacity(n + 1);
    parent_layers.extend([Vec::new(), vec![u8::MAX; n]]);
    let mut slots_charged = n;
    // The running minimum and the candidate under test: each candidate is
    // formed in `scratch` and swapped in when it wins, and the winner is
    // swapped into its entry, so the transition loop allocates nothing
    // once the buffers have grown.
    let (mut best, mut scratch) = (N::default(), N::default());
    let mut ranks = [u32::MAX; 32];

    for k in 2..=n {
        let targets = frontiers.layer(k);
        if targets.is_empty() {
            return Ok(None);
        }
        let width = targets.len();
        // The parent row, plus growth of the two slot maps (this layer's
        // and the previous one's), charged before allocation.
        let grow = (2 * width).saturating_sub(slots_charged);
        budget.charge_memory((width + grow * slot) as u64)?;
        slots_charged = slots_charged.max(2 * width);
        let mut parent = vec![u8::MAX; width];
        cur_slots.clear();
        cur_slots.reserve(width);
        let (mut used, mut recosted, mut pending) = (0usize, 0u64, 0u64);

        for (i, &tm) in targets.iter().enumerate() {
            if prune.is_some_and(|p| p.exceeds(k, i)) {
                // Provably off every improving path.
                cur_slots.push(DEAD);
                pending += 1;
                if pending == PRUNED_TICK_BLOCK {
                    budget.tick_n(pending)?;
                    pending = 0;
                }
                continue;
            }
            recosted += 1;
            budget.tick_n(pending + k as u64)?;
            pending = 0;
            let kk = pred_ranks(frontiers.mode, &binom, frontiers.layer(k - 1), tm, &mut ranks);
            let mut winner: Option<(usize, usize)> = None;
            let mut tb = tm;
            for &r in &ranks[..kk] {
                let j = tb.trailing_zeros() as usize;
                tb &= tb - 1;
                let Some(&p) = prev_slots.get(r as usize).filter(|&&p| p != DEAD) else {
                    continue; // off the frontier, pruned or unreached
                };
                let s = tm & !(1u32 << j);
                if !allow_cartesian && nbr[j] & s == 0 {
                    continue;
                }
                let pred = &prev[p as usize];
                scratch.set_mul_add(&pred.cost, &pred.size, view.wmin(j, s));
                // `<=`: among equal costs the highest `j` wins, the
                // predecessor `dp` keeps (it visits `T∖{j}` in ascending
                // mask order, i.e. `j` descending, under a strict `<`) —
                // so both return the same plan.
                if winner.is_none() || scratch <= best {
                    std::mem::swap(&mut scratch, &mut best);
                    winner = Some((j, p as usize));
                }
            }
            let Some((j, p)) = winner else {
                cur_slots.push(DEAD);
                continue;
            };
            if used == cur.len() {
                let more = cur.len().max(4);
                budget.charge_memory((more * entry) as u64)?;
                cur.resize_with(cur.len() + more, Survivor::default);
            }
            // N(T) once per subset, from the winning parent only.
            let out = &mut cur[used];
            std::mem::swap(&mut out.cost, &mut best);
            out.size.clone_from(&prev[p].size);
            view.extend_n(&mut out.size, j, tm & !(1u32 << j));
            parent[i] = j as u8;
            cur_slots.push(used as u32);
            used += 1;
        }
        budget.tick_n(pending)?;

        parent_layers.push(parent);
        std::mem::swap(&mut prev, &mut cur);
        std::mem::swap(&mut prev_slots, &mut cur_slots);
        // Prune/recost counts are a pure function of the phase-A
        // estimates and the bound, counted in the same pass.
        if aqo_obs::enabled() {
            let pruned = width as u64 - recosted;
            aqo_obs::counter_handle!("optimizer.engine.exact_recosts").add(recosted);
            aqo_obs::counter_handle!("optimizer.engine.pruned").add(pruned);
            if aqo_obs::journal::capturing() {
                aqo_obs::journal::event(
                    "dp_layer",
                    vec![
                        ("phase", "exact".into()),
                        ("k", k.into()),
                        ("width", width.into()),
                        ("recosted", recosted.into()),
                        ("pruned", pruned.into()),
                    ],
                );
            }
        }
    }

    let Some(&full) = prev_slots.first().filter(|&&p| p != DEAD) else {
        return Ok(None);
    };
    let cost = std::mem::take(&mut prev[full as usize].cost);
    Ok(reconstruct_order(frontiers, &parent_layers, n).map(|sequence| (cost, sequence)))
}

/// Phase B under `prune`, checked against the candidate's scaled cost: a
/// pruned run that finds no plan, or one dearer than the candidate, has
/// lost the optimum to the prune, so phase B reruns without pruning. The
/// flag reports whether that rerun happened.
fn certified_exact_phase<'a, N: ScaledInt<'a>>(
    view: &ScaledView<'a, N>,
    frontiers: &Frontiers,
    allow_cartesian: bool,
    budget: &Budget,
    prune: Prune<'_>,
    candidate: &N,
) -> Result<(Option<(N, JoinSequence)>, bool), BudgetExceeded> {
    let pruned = exact_phase(view, frontiers, allow_cartesian, budget, Some(prune))?;
    if pruned.as_ref().is_some_and(|(cost, _)| cost <= candidate) {
        return Ok((pruned, false));
    }
    let full = exact_phase(view, frontiers, allow_cartesian, budget, None)?;
    Ok((full, true))
}

/// Phase B's inputs: the request, its scale `D` and phase A's output.
struct PhaseB<'a, 'r> {
    inst: &'a QoNInstance,
    nbr: &'a [u32],
    scale: &'r BigUint,
    frontiers: &'r Frontiers,
    allow_cartesian: bool,
    budget: &'r Budget,
    phase_a: &'r PhaseA,
    candidate: &'r JoinSequence,
}

/// Phase B in `N`: the candidate's scaled cost, the prune bound from it,
/// and the certified optimum as `D·C*`, with the fallback flag.
fn certify<'a, N: ScaledInt<'a>>(
    b: &PhaseB<'a, '_>,
) -> Result<(Option<(BigUint, JoinSequence)>, bool), BudgetExceeded> {
    // The view's tables, charged before they are built.
    let n = b.inst.n();
    let table =
        3 * std::mem::size_of::<N::Factor>() + std::mem::size_of::<(&BigUint, (u32, u32))>();
    b.budget.charge_memory((n * n * table) as u64)?;
    let view = ScaledView::<N>::build(b.inst, b.nbr, b.scale);
    let candidate_cost = view.path_cost(b.candidate.order());
    let (bound, margin_bits) = prune_bound(n, &candidate_cost.to_big(), b.scale);
    if aqo_obs::journal::capturing() {
        aqo_obs::journal::event(
            "engine_bound",
            vec![("bound_log2", bound.log2().into()), ("margin_bits", margin_bits.into())],
        );
    }
    let (opt, fell_back) = certified_exact_phase(
        &view,
        b.frontiers,
        b.allow_cartesian,
        b.budget,
        b.phase_a.prune(bound),
        &candidate_cost,
    )?;
    Ok((opt.map(|(cost, sequence)| (cost.to_big(), sequence)), fell_back))
}

/// Per-vertex neighbour bitmasks of the query graph.
pub(crate) fn nbr_masks(inst: &QoNInstance) -> Vec<u32> {
    (0..inst.n())
        .map(|j| inst.graph().neighbors(j).iter().fold(0u32, |m, k| m | 1 << k))
        .collect()
}

/// The two-phase engine: log-domain phase A for a candidate and per-subset
/// pruning estimates, exact phase B (in the caller's scalar `S`) that
/// verifies or repairs the candidate and returns the certified optimum.
///
/// With `allow_cartesian = false` the frontiers hold connected subgraphs
/// only — exactly the reachable prefixes — so table sizes follow the
/// query graph's density instead of `2^n`.
///
/// Returns exactly what [`crate::dp::optimize_with_budget`] returns, for
/// every thread count: the same cost and the same plan. Among equal-cost
/// predecessors phase B keeps the highest joined index, as `dp` does, and
/// pruning cannot change that choice: a predecessor tied on the returned
/// path costs at most the optimum, so its phase-A estimate is below the
/// bound and it is never pruned (DESIGN.md §9).
///
/// `n` is capped per mode ([`max_n`]): 25 for all subsets, 32 for
/// connected subgraphs.
pub fn optimize_two_phase<S: CostScalar + Send + Sync>(
    inst: &QoNInstance,
    opts: &DpOptions,
    budget: &Budget,
) -> Result<Option<Optimum<S>>, BudgetExceeded> {
    let n = inst.n();
    let allow_cartesian = opts.allow_cartesian;
    let cap = max_n(allow_cartesian);
    assert!((1..=cap).contains(&n), "engine DP is for n in 1..={cap}");
    let _span = aqo_obs::span!("engine.two_phase");
    if n == 1 {
        return Ok(Some(Optimum { sequence: JoinSequence::identity(1), cost: S::zero() }));
    }
    aqo_obs::counter_handle!("optimizer.engine.runs").inc();
    let threads = resolve_threads(opts.threads);
    let nbr = nbr_masks(inst);
    let frontiers = Frontiers::build(n, &nbr, FrontierMode::of(allow_cartesian), budget)?;
    let phase_a = PhaseA::run(inst, &frontiers, &nbr, allow_cartesian, threads, budget)?;
    if frontiers.layer(n).is_empty() || !phase_a.reached_full(n) {
        // Unreachable full set is a combinatorial fact (disconnected graph
        // under the no-cartesian rule), identical in every scalar.
        return Ok(None);
    }
    let Some(candidate) = reconstruct_order(&frontiers, phase_a.parent(), n) else {
        return Ok(None);
    };
    // Fixed-width limbs when phase B's values provably fit (DESIGN.md §9).
    let scale = scale_of(inst);
    let b = PhaseB {
        inst,
        nbr: &nbr,
        scale: &scale,
        frontiers: &frontiers,
        allow_cartesian,
        budget,
        phase_a: &phase_a,
        candidate: &candidate,
    };
    let (opt, fell_back) = if phase_b_fits(inst, &scale) {
        certify::<FixedUint<PHASE_B_LIMBS>>(&b)?
    } else {
        certify::<BigUint>(&b)?
    };
    if fell_back {
        aqo_obs::counter_handle!("optimizer.engine.prune_fallbacks").inc();
    }
    // `D·C*/D` reduced by `D`'s own factors, the `q_e`, in machine words.
    let denoms = inst.edges().map(|(_, _, s, _)| s.denom());
    Ok(opt.map(|(cost, sequence)| Optimum {
        sequence,
        cost: S::from_ratio(&BigRational::from_scaled(cost, denoms)),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp;
    use aqo_bignum::{BigInt, BigRational, BigUint};
    use aqo_core::{AccessCostMatrix, SelectivityMatrix};
    use aqo_graph::Graph;
    use proptest::prelude::*;

    fn random_instance(seed: u64, n: usize, extra_edges: usize) -> QoNInstance {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut g = Graph::new(n);
        for v in 1..n {
            g.add_edge((next() % v as u64) as usize, v);
        }
        for _ in 0..extra_edges {
            let u = (next() % n as u64) as usize;
            let v = (next() % n as u64) as usize;
            if u != v {
                g.add_edge(u, v);
            }
        }
        let sizes: Vec<BigUint> = (0..n).map(|_| BigUint::from(2 + next() % 40)).collect();
        let mut s = SelectivityMatrix::new();
        let mut w = AccessCostMatrix::new();
        for (u, v) in g.edges().collect::<Vec<_>>() {
            let sel = BigRational::new(BigInt::one(), BigUint::from(2 + next() % 9));
            s.set(u, v, sel.clone());
            for (j, k) in [(u, v), (v, u)] {
                let lower = (BigRational::from(sizes[j].clone()) * &sel).ceil();
                w.set(j, k, lower.magnitude().clone());
            }
        }
        QoNInstance::new(g, sizes, s, w)
    }

    fn chain_instance(n: usize) -> QoNInstance {
        let mut g = Graph::new(n);
        let mut s = SelectivityMatrix::new();
        let mut w = AccessCostMatrix::new();
        let sizes: Vec<BigUint> = (0..n).map(|i| BigUint::from(3 + i as u64)).collect();
        for v in 1..n {
            g.add_edge(v - 1, v);
            let sel = BigRational::new(BigInt::one(), BigUint::from(3u64));
            s.set(v - 1, v, sel.clone());
            for (j, k) in [(v - 1, v), (v, v - 1)] {
                let lower = (BigRational::from(sizes[j].clone()) * &sel).ceil();
                w.set(j, k, lower.magnitude().clone());
            }
        }
        QoNInstance::new(g, sizes, s, w)
    }

    /// Every relation of size 10 and every edge of selectivity 1/2: a
    /// tie-heavy instance on which many plans share the optimal cost.
    fn uniform_instance(g: Graph) -> QoNInstance {
        let n = g.n();
        let sel = BigRational::new(BigInt::one(), BigUint::from(2u64));
        let mut s = SelectivityMatrix::new();
        let mut w = AccessCostMatrix::new();
        for (u, v) in g.edges().collect::<Vec<_>>() {
            s.set(u, v, sel.clone());
            w.set(u, v, BigUint::from(5u64));
            w.set(v, u, BigUint::from(5u64));
        }
        QoNInstance::new(g, vec![BigUint::from(10u64); n], s, w)
    }

    fn uniform_family(n: usize) -> Vec<QoNInstance> {
        let mut chain = Graph::new(n);
        let mut star = Graph::new(n);
        let mut clique = Graph::new(n);
        for v in 1..n {
            chain.add_edge(v - 1, v);
            star.add_edge(0, v);
            for u in 0..v {
                clique.add_edge(u, v);
            }
        }
        let mut cycle = chain.clone();
        cycle.add_edge(0, n - 1);
        [chain, cycle, star, clique]
            .into_iter()
            .map(uniform_instance)
            .collect()
    }

    /// An `f_N`-style instance (the shape E5 measures): every relation of
    /// size `a^e`, every edge of selectivity `1/a` and access cost
    /// `a^{e−1}`, over a graph with a planted clique of size `k`.
    fn fn_instance(n: usize, k: usize, a: &BigUint, e: u64) -> QoNInstance {
        let g = aqo_graph::generators::dense_known_omega(n, k);
        let sel = BigRational::recip_of(a.clone());
        let mut s = SelectivityMatrix::new();
        let mut w = AccessCostMatrix::new();
        for (u, v) in g.edges().collect::<Vec<_>>() {
            s.set(u, v, sel.clone());
            w.set(u, v, a.pow(e - 1));
            w.set(v, u, a.pow(e - 1));
        }
        QoNInstance::new(g, vec![a.pow(e); n], s, w)
    }

    /// The exact best prefix cost `dp[T]` of every subset `T` (dense, by
    /// mask; `None` when unreachable under the cartesian rule), by a plain
    /// push-style `BigRational` subset DP written for this test only.
    fn exact_prefix_costs(inst: &QoNInstance, allow_cartesian: bool) -> Vec<Option<BigRational>> {
        let n = inst.n();
        let full = (1usize << n) - 1;
        let mut dp: Vec<Option<BigRational>> = vec![None; full + 1];
        let mut size: Vec<BigRational> = vec![BigRational::zero(); full + 1];
        let mut sel = vec![BigRational::one(); n * n];
        for (u, v, s, _) in inst.edges() {
            (sel[u * n + v], sel[v * n + u]) = (s.clone(), s.clone());
        }
        for v in 0..n {
            dp[1 << v] = Some(BigRational::zero());
            size[1 << v] = BigRational::from(inst.sizes()[v].clone());
        }
        for mask in 1..=full {
            let Some(cost) = dp[mask].clone() else { continue };
            let members: Vec<usize> = (0..n).filter(|&v| mask >> v & 1 == 1).collect();
            for j in (0..n).filter(|&j| mask >> j & 1 == 0) {
                let linked = members.iter().any(|&v| inst.graph().has_edge(j, v));
                if !allow_cartesian && !linked {
                    continue;
                }
                let w = members.iter().map(|&k| inst.w(j, k)).min().expect("nonempty prefix");
                let cand = &cost + &(&size[mask] * &BigRational::from(w.clone()));
                let next = mask | 1 << j;
                if dp[next].as_ref().is_none_or(|cur| cand < *cur) {
                    dp[next] = Some(cand);
                }
                let mut grown = &size[mask] * &BigRational::from(inst.sizes()[j].clone());
                for &v in members.iter().filter(|&&v| inst.graph().has_edge(j, v)) {
                    grown = &grown * &sel[j * n + v];
                }
                size[next] = grown;
            }
        }
        dp
    }

    /// The rational a scaled value stands for.
    fn unscale(scaled: BigUint, scale: &BigUint) -> BigRational {
        BigRational::new(BigInt::from(scaled), scale.clone())
    }

    /// `f64` estimates as the [`LogNum`]s they equal.
    fn as_lognum(log: LogDp<f64>) -> LogDp<LogNum> {
        let dp = log.dp.iter().map(|l| l.iter().map(|&v| LogNum::from_value(v)).collect());
        LogDp { dp: dp.collect(), parent: log.parent }
    }

    /// Phase A's estimates on the path the engine takes (as `LogNum`s,
    /// exactly, on the `f64` path), the candidate's scaled cost and the
    /// prune bound, exactly as [`optimize_two_phase`] derives them.
    fn phase_a_and_bound(
        inst: &QoNInstance,
        allow_cartesian: bool,
    ) -> (Frontiers, LogDp<LogNum>, LogNum) {
        let n = inst.n();
        let nbr = nbr_masks(inst);
        let budget = Budget::unlimited();
        let frontiers =
            Frontiers::build(n, &nbr, FrontierMode::of(allow_cartesian), &budget).unwrap();
        let log = match PhaseA::run(inst, &frontiers, &nbr, allow_cartesian, 1, &budget).unwrap() {
            PhaseA::F64(log) => as_lognum(log),
            PhaseA::Log(log) => log,
        };
        let candidate = reconstruct_order(&frontiers, &log.parent, n).unwrap();
        let scale = scale_of(inst);
        let view = ScaledView::<BigUint>::build(inst, &nbr, &scale);
        let scaled = view.path_cost(candidate.order());
        let exact: BigRational = inst.total_cost(&candidate);
        assert_eq!(unscale(scaled.clone(), &scale), exact, "scaled candidate cost");
        let (bound, margin) = prune_bound(n, &scaled, &scale);
        assert!(margin > 0.0 && margin < 1e-6, "margin {margin} bits");
        (frontiers, log, bound)
    }

    #[test]
    fn prune_keeps_every_subset_that_can_reach_the_optimum() {
        let mut instances: Vec<QoNInstance> =
            (0..12u64).map(|seed| random_instance(seed, 8, 6)).collect();
        instances.extend((20..24u64).map(|seed| random_instance(seed, 10, 12)));
        for n in [6usize, 8, 10] {
            instances.extend(uniform_family(n));
        }
        let four = BigUint::from(4u64);
        instances.push(fn_instance(8, 5, &four, 6));
        instances.push(fn_instance(10, 6, &four, 7));
        // A two-limb `a`: multi-limb selectivity denominators and scale.
        instances.push(fn_instance(9, 5, &(BigUint::one() << 70), 4));
        let mut tied = 0usize;
        for (i, inst) in instances.iter().enumerate() {
            for allow in [true, false] {
                let exact = exact_prefix_costs(inst, allow);
                let Some(opt) = exact[(1usize << inst.n()) - 1].clone() else { continue };
                let (frontiers, log, bound) = phase_a_and_bound(inst, allow);
                for k in 2..=inst.n() {
                    for (r, &m) in frontiers.layer(k).iter().enumerate() {
                        let Some(cost) = exact[m as usize].as_ref() else { continue };
                        if *cost > opt {
                            continue;
                        }
                        tied += usize::from(*cost == opt);
                        let est = log.dp[k][r];
                        assert!(
                            est <= bound,
                            "instance {i} allow {allow}: subset {m:b} costs <= the optimum \
                             but its estimate {est:?} exceeds the bound {bound:?}"
                        );
                    }
                }
            }
        }
        assert!(tied > 0, "the tie-heavy instances must exercise exact ties");
    }

    #[test]
    fn violated_prune_falls_back_to_an_unpruned_rerun() {
        let inst = random_instance(4, 8, 6);
        let want = dp::optimize::<BigRational>(&inst, true).unwrap();
        let (frontiers, log, bound) = phase_a_and_bound(&inst, true);
        let nbr = nbr_masks(&inst);
        let scale = scale_of(&inst);
        let view = ScaledView::<BigUint>::build(&inst, &nbr, &scale);
        let candidate = reconstruct_order(&frontiers, &log.parent, inst.n()).unwrap();
        let scaled = view.path_cost(candidate.order());
        let run = |bound: LogNum, candidate: &BigUint| {
            let (opt, fell_back) = certified_exact_phase(
                &view,
                &frontiers,
                true,
                &Budget::unlimited(),
                Prune::Log(&log.dp, bound),
                candidate,
            )
            .unwrap();
            let (cost, sequence) = opt.unwrap();
            assert_eq!(unscale(cost, &scale), want.cost);
            assert_eq!(sequence.order(), want.sequence.order());
            fell_back
        };
        assert!(!run(bound, &scaled), "a sound bound needs no rerun");
        // Everything pruned: phase B finds no plan and reruns unpruned.
        assert!(run(LogNum::ZERO, &scaled));
        // A pruned answer dearer than the candidate is rejected too.
        assert!(run(bound, &BigUint::zero()));
    }

    #[test]
    fn two_phase_matches_sequential_dp_exactly() {
        let mut instances: Vec<QoNInstance> =
            (0..10u64).map(|seed| random_instance(seed, 7, 7)).collect();
        for n in [5usize, 7, 9] {
            instances.extend(uniform_family(n));
        }
        for (i, inst) in instances.iter().enumerate() {
            for allow in [true, false] {
                let seq = dp::optimize::<BigRational>(inst, allow);
                for threads in [1usize, 2, 4] {
                    let opts = DpOptions { allow_cartesian: allow, threads };
                    let par = optimize_two_phase::<BigRational>(inst, &opts, &Budget::unlimited())
                        .unwrap();
                    match (&seq, &par) {
                        (Some(a), Some(b)) => {
                            assert_eq!(a.cost, b.cost, "instance {i} threads {threads}");
                            // Same tie-break as dp: the same plan, not just
                            // an equal-cost one.
                            assert_eq!(
                                a.sequence.order(),
                                b.sequence.order(),
                                "instance {i} allow {allow} threads {threads}"
                            );
                            let recost: BigRational = inst.total_cost(&b.sequence);
                            assert_eq!(recost, b.cost);
                            if !allow {
                                assert!(!inst.has_cartesian_product(&b.sequence));
                            }
                        }
                        (None, None) => {}
                        other => panic!("feasibility mismatch: {other:?}"),
                    }
                }
            }
        }
    }

    /// Phase A in `LogNum` and on raw `f64`: every estimate the same value,
    /// bit for bit, and every parent the same.
    fn assert_same_phase_a(log: &LogDp<LogNum>, raw: &LogDp<f64>, label: &str) {
        assert_eq!(log.parent, raw.parent, "{label}: parents");
        for (k, (l, r)) in log.dp.iter().zip(&raw.dp).enumerate() {
            assert_eq!(l.len(), r.len(), "{label}: layer {k}");
            for (i, (&l, &r)) in l.iter().zip(r).enumerate() {
                assert_eq!(l, LogNum::from_value(r), "{label}: layer {k} entry {i}");
            }
        }
    }

    #[test]
    fn log_parallel_deterministic_and_close_to_sequential_log_dp() {
        for seed in [3u64, 11, 29] {
            let inst = random_instance(seed, 8, 6);
            let seq = dp::optimize::<LogNum>(&inst, true).unwrap();
            let (n, budget, nbr) = (inst.n(), Budget::unlimited(), nbr_masks(&inst));
            let frontiers = Frontiers::build(n, &nbr, FrontierMode::AllSubsets, &budget).unwrap();
            let mut baseline: Option<(u64, Vec<usize>)> = None;
            assert!(phase_a_fits(&inst), "seed {seed}: small sizes run on f64");
            for threads in [1usize, 2, 3, 7] {
                // Phase A alone: the candidate `optimize_two_phase` starts from,
                // in both scalars, bit for bit the same.
                let log = log_phase(&inst, &frontiers, &nbr, true, threads, &budget).unwrap();
                let raw =
                    log_phase::<f64>(&inst, &frontiers, &nbr, true, threads, &budget).unwrap();
                assert_same_phase_a(&log, &raw, &format!("seed {seed} threads {threads}"));
                let cost = log.dp[n][0];
                let order = reconstruct_order(&frontiers, &log.parent, n).unwrap();
                // The engine evaluates the same canonical recurrence for any
                // thread count: bit-identical cost AND identical plan.
                let fp = (cost.log2().to_bits(), order.order().to_vec());
                match &baseline {
                    None => baseline = Some(fp),
                    Some(b) => assert_eq!(*b, fp, "seed {seed} threads {threads}"),
                }
                // Against the sequential push-style log DP the association
                // order of the f64 products differs, so agreement is to
                // float precision, not to the bit.
                assert!(
                    (cost.log2() - seq.cost.log2()).abs() < 1e-9,
                    "seed {seed}: engine {} vs dp {}",
                    cost.log2(),
                    seq.cost.log2()
                );
            }
        }
    }

    #[test]
    fn disconnected_instances() {
        let g = Graph::new(4);
        let inst = QoNInstance::new(
            g,
            vec![BigUint::from(3u64); 4],
            SelectivityMatrix::new(),
            AccessCostMatrix::new(),
        );
        let opts = DpOptions { allow_cartesian: false, threads: 2 };
        assert!(optimize_two_phase::<BigRational>(&inst, &opts, &Budget::unlimited())
            .unwrap()
            .is_none());
        let opts = DpOptions { allow_cartesian: true, threads: 2 };
        let opt = optimize_two_phase::<BigRational>(&inst, &opts, &Budget::unlimited())
            .unwrap()
            .unwrap();
        let seq = dp::optimize::<BigRational>(&inst, true).unwrap();
        assert_eq!(opt.cost, seq.cost);
    }

    #[test]
    fn single_vertex() {
        let inst = QoNInstance::new(
            Graph::new(1),
            vec![BigUint::from(9u64)],
            SelectivityMatrix::new(),
            AccessCostMatrix::new(),
        );
        let opts = DpOptions { allow_cartesian: true, threads: 1 };
        let opt = optimize_two_phase::<BigRational>(&inst, &opts, &Budget::unlimited())
            .unwrap()
            .unwrap();
        assert!(opt.cost.is_zero());
    }

    #[test]
    fn expansion_cap_trips_in_parallel_layers() {
        let inst = random_instance(5, 9, 6);
        let budget = Budget::unlimited().with_max_expansions(40);
        let opts = DpOptions { allow_cartesian: true, threads: 4 };
        let err = optimize_two_phase::<BigRational>(&inst, &opts, &budget).unwrap_err();
        assert_eq!(err.kind, aqo_core::budget::BudgetKind::Expansions);
    }

    #[test]
    fn memory_cap_trips_before_any_expansion() {
        let inst = random_instance(6, 12, 8);
        let budget = Budget::unlimited().with_max_memory_bytes(64);
        let opts = DpOptions { allow_cartesian: true, threads: 2 };
        let err = optimize_two_phase::<BigRational>(&inst, &opts, &budget).unwrap_err();
        assert_eq!(err.kind, aqo_core::budget::BudgetKind::Memory);
        assert_eq!(err.expansions, 0, "charged before any expansion");
    }

    #[test]
    fn connected_frontier_charges_far_less_memory_than_all_subsets() {
        let inst = chain_instance(14);
        let dense_budget = Budget::unlimited();
        let opts = DpOptions { allow_cartesian: true, threads: 2 };
        optimize_two_phase::<BigRational>(&inst, &opts, &dense_budget).unwrap().unwrap();
        let sparse_budget = Budget::unlimited();
        let opts = DpOptions { allow_cartesian: false, threads: 2 };
        optimize_two_phase::<BigRational>(&inst, &opts, &sparse_budget).unwrap().unwrap();
        // A chain has n(n+1)/2 connected subsets vs 2^n − 1 subsets
        // overall; the charge must collapse accordingly (well over 10×).
        assert!(
            sparse_budget.memory_charged() * 10 < dense_budget.memory_charged(),
            "sparse {} vs dense {}",
            sparse_budget.memory_charged(),
            dense_budget.memory_charged()
        );
    }

    #[test]
    fn frontiers_cover_all_masks_in_order() {
        let nbr = vec![0u32; 5];
        let f =
            Frontiers::build(5, &nbr, FrontierMode::AllSubsets, &Budget::unlimited()).unwrap();
        let mut seen = std::collections::HashSet::new();
        for k in 1..=5usize {
            let layer = f.layer(k);
            assert!(layer.windows(2).all(|w| w[0] < w[1]));
            for &m in layer {
                assert_eq!(m.count_ones() as usize, k);
                assert!(seen.insert(m));
            }
        }
        assert_eq!(seen.len(), 31);
        assert_eq!(f.total_subsets(), 31);
    }

    #[test]
    fn connected_frontier_of_a_chain_has_interval_subsets_only() {
        let inst = chain_instance(6);
        let nbr = nbr_masks(&inst);
        let f = Frontiers::build(6, &nbr, FrontierMode::Connected, &Budget::unlimited()).unwrap();
        // Connected subsets of a 6-chain are exactly the 21 intervals.
        assert_eq!(f.total_subsets(), 21);
        for k in 1..=6usize {
            assert_eq!(f.layer(k).len(), 6 - k + 1, "layer {k}");
            for &m in f.layer(k) {
                // An interval mask is a contiguous run of ones.
                let shifted = m >> m.trailing_zeros();
                assert_eq!(shifted & (shifted + 1), 0, "mask {m:b} not contiguous");
            }
        }
    }

    /// Access costs tied on purpose: sizes 8 or 12, selectivity 1/2 and
    /// each `w(j,k)` drawn from `{t_j/2, 3t_j/4, t_j}`, so neighbours tie
    /// with each other and with the default `t_j`.
    fn tied_access_instance(seed: u64, n: usize, extra_edges: usize) -> QoNInstance {
        access_instance_on(random_instance(seed, n, extra_edges).graph().clone(), seed, true)
    }

    /// Selectivity 1/2 on every edge of `g`. `tied`: sizes 8 or 12 and
    /// each `w(j,k)` drawn from `{t_j/2, 3t_j/4, t_j}`, so neighbours tie
    /// with each other and with the default `t_j`; otherwise sizes in
    /// `[2, 1001]` and each `w(j,k)` anywhere in `[⌈t_j/2⌉, t_j]`.
    fn access_instance_on(g: Graph, seed: u64, tied: bool) -> QoNInstance {
        let n = g.n();
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let sizes: Vec<BigUint> = (0..n)
            .map(|_| BigUint::from(if tied { 8 + 4 * (next() % 2) } else { 2 + next() % 1000 }))
            .collect();
        let sel = BigRational::new(BigInt::one(), BigUint::from(2u64));
        let mut s = SelectivityMatrix::new();
        let mut w = AccessCostMatrix::new();
        for (u, v) in g.edges().collect::<Vec<_>>() {
            s.set(u, v, sel.clone());
            for (j, k) in [(u, v), (v, u)] {
                let w_jk = if tied {
                    &(&sizes[j] * &BigUint::from(2 + next() % 3)) / &BigUint::from(4u64)
                } else {
                    let lower = (BigRational::from(sizes[j].clone()) * &sel).ceil();
                    let room = &sizes[j] - lower.magnitude();
                    let pick = &(&room * &BigUint::from(next() % 1024)) / &BigUint::from(1023u64);
                    lower.magnitude() + &pick
                };
                w.set(j, k, w_jk);
            }
        }
        QoNInstance::new(g, sizes, s, w)
    }

    /// The full scan the early exit and the hit mask replace: every
    /// neighbour of `j` in `s`, and the default `t_j` when `s` holds a
    /// non-neighbour; the default wins ties, then the lowest `k`. The
    /// index into [`AccessRows::w`].
    fn wmin_full_scan(inst: &QoNInstance, nbr: &[u32], j: usize, s: u32) -> usize {
        let n = inst.n();
        let mut best = (s & !nbr[j] != 0).then_some(j);
        for k in (0..n).filter(|&k| (nbr[j] & s) >> k & 1 == 1) {
            if best.is_none_or(|b| inst.w(j, k) < inst.w(j, b)) {
                best = Some(k);
            }
        }
        j * n + best.expect("nonempty s")
    }

    #[test]
    fn early_exit_wmin_matches_a_full_scan() {
        let n = 8;
        let mut instances = vec![chain_instance(n), random_instance(7, n, 6)];
        instances.extend(uniform_family(n));
        instances.extend((0..4u64).map(|seed| tied_access_instance(seed, n, 5)));
        let full = (1u32 << n) - 1;
        let (mut with_default, mut without_default) = (0usize, 0usize);
        for inst in &instances {
            let nbr = nbr_masks(inst);
            let view = LogView::<LogNum>::build(inst, &nbr);
            let raw = LogView::<f64>::build(inst, &nbr);
            let rows = AccessRows::build(inst, &nbr);
            for j in 0..n {
                // Every nonempty mask without `j`: with and without a
                // non-neighbour of `j`.
                for s in (1..=full).filter(|s| s >> j & 1 == 0) {
                    let want = wmin_full_scan(inst, &nbr, j, s);
                    assert_eq!(rows.wmin_at(j, s), want, "j {j} s {s:b}");
                    let got = wmin_log(&view, n, j, s);
                    assert_eq!(got, LogNum::from_uint(rows.w[want]), "j {j} s {s:b}");
                    assert_eq!(wmin_log(&raw, n, j, s), got.to_f64(), "j {j} s {s:b}");
                    if s & !nbr[j] != 0 {
                        with_default += 1;
                    } else {
                        without_default += 1;
                    }
                }
            }
        }
        assert!(with_default > 0 && without_default > 0);
    }

    proptest! {
        /// The hit-mask `wmin_log`, on both scalars, against the full scan
        /// at every `n` up to [`crate::ccp::MAX_N`], the `u32` mask width:
        /// a sparse random graph, one with a hub adjacent to every vertex,
        /// or the complete graph, whose rows hold `n` live entries; random
        /// or tied access costs. Per row: every singleton, which meets one
        /// entry alone (the default when it is a non-neighbour of `j`), and
        /// sampled masks over all other vertices and inside `nbr(j)`, where
        /// the default entry never matches. On a tied complete graph of 32,
        /// every bit of the hit mask is some transition's lowest hit.
        #[test]
        fn hit_mask_wmin_matches_a_full_scan(
            seed in any::<u64>(),
            n in 2usize..=2 * crate::ccp::MAX_N,
            extra in 0usize..=40,
            shape in 0u8..3,
            tied in any::<bool>(),
            samples in prop::collection::vec(any::<u32>(), 1..16),
        ) {
            // Half the cases at the full width.
            let n = n.min(crate::ccp::MAX_N);
            let mut g = random_instance(seed, n, extra).graph().clone();
            let hub = (seed % n as u64) as usize;
            for v in 0..n {
                for u in 0..v {
                    if shape == 2 || (shape == 1 && (hub == u || hub == v)) {
                        g.add_edge(u, v);
                    }
                }
            }
            let inst = access_instance_on(g, seed, tied);
            let nbr = nbr_masks(&inst);
            let view = LogView::<LogNum>::build(&inst, &nbr);
            let raw = LogView::<f64>::build(&inst, &nbr);
            let rows = AccessRows::build(&inst, &nbr);
            let everyone = u32::MAX >> (32 - n);
            let mut lowest_hits = 0u32;
            for j in 0..n {
                let others = everyone & !(1u32 << j);
                let singletons = (0..n).filter(|&k| k != j).map(|k| 1u32 << k);
                let sampled = samples.iter().flat_map(|&m| [m & others, m & nbr[j]]);
                for s in singletons.chain(sampled).filter(|&s| s != 0) {
                    let want = rows.w[wmin_full_scan(&inst, &nbr, j, s)];
                    let got = wmin_log(&view, n, j, s);
                    prop_assert_eq!(got, LogNum::from_uint(want), "j {} s {:b}", j, s);
                    prop_assert_eq!(wmin_log(&raw, n, j, s), got.to_f64(), "j {} s {:b}", j, s);
                    let row = &view.wmask[j * n..j * n + view.wlen[j]];
                    let first = row.iter().position(|&mask| mask & s != 0);
                    lowest_hits |= 1 << first.expect("a nonempty s meets its row");
                }
            }
            if shape == 2 && tied && n == crate::ccp::MAX_N {
                prop_assert_eq!(lowest_hits, u32::MAX);
            }
        }
    }

    #[test]
    fn dense_pred_ranks_match_binary_search() {
        let nbr = vec![0u32; 8];
        let f =
            Frontiers::build(8, &nbr, FrontierMode::AllSubsets, &Budget::unlimited()).unwrap();
        let binom = Binom::build(8);
        let mut out = [u32::MAX; 32];
        for k in 2..=8usize {
            let prev = f.layer(k - 1);
            for &t in f.layer(k) {
                let kk = pred_ranks(FrontierMode::AllSubsets, &binom, prev, t, &mut out);
                assert_eq!(kk, k);
                let mut tb = t;
                for &r in &out[..kk] {
                    let j = tb.trailing_zeros();
                    tb &= tb - 1;
                    let s = t & !(1u32 << j);
                    assert_eq!(r as usize, prev.binary_search(&s).unwrap(), "t={t:b} j={j}");
                }
            }
        }
    }

    /// Phase A, then phase B in `N`: under the derived prune bound, or
    /// with `impossible` under a bound of zero that prunes every subset.
    /// The optimum as a rational and plan, and whether phase B reran
    /// unpruned.
    fn phase_b_in<'a, N: ScaledInt<'a>>(
        inst: &'a QoNInstance,
        nbr: &'a [u32],
        allow_cartesian: bool,
        impossible: bool,
    ) -> (Option<(BigRational, Vec<usize>)>, bool) {
        let n = inst.n();
        let budget = Budget::unlimited();
        let frontiers =
            Frontiers::build(n, nbr, FrontierMode::of(allow_cartesian), &budget).unwrap();
        let phase_a = PhaseA::run(inst, &frontiers, nbr, allow_cartesian, 1, &budget).unwrap();
        let Some(candidate) = reconstruct_order(&frontiers, phase_a.parent(), n) else {
            return (None, false);
        };
        let scale = scale_of(inst);
        let view = ScaledView::<N>::build(inst, nbr, &scale);
        let scaled = view.path_cost(candidate.order());
        let bound =
            if impossible { LogNum::ZERO } else { prune_bound(n, &scaled.to_big(), &scale).0 };
        let prune = phase_a.prune(bound);
        let (opt, fell_back) =
            certified_exact_phase(&view, &frontiers, allow_cartesian, &budget, prune, &scaled)
                .unwrap();
        let opt = opt.map(|(cost, seq)| (unscale(cost.to_big(), &scale), seq.order().to_vec()));
        (opt, fell_back)
    }

    /// A random connected instance on at least `n` relations whose
    /// [`phase_b_bits`] is `target`, up to the rounding of the bits of a
    /// product: the selectivity denominators are sized to leave the sizes
    /// about 32 bits each, and the sizes' bit lengths then make up the
    /// rest, the largest first. With `wide`, one size needs two limbs.
    fn instance_with_bound(seed: u64, n: usize, target: u64, wide: bool) -> QoNInstance {
        // SplitMix64: every output bit is usable, low ones included.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ state >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ z >> 27).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ z >> 31
        };
        // Enough relations that 63-bit denominators on every pair and
        // 64-bit sizes could reach the target.
        let reach = |n: usize| (n * (n - 1) / 2) as u64 * 63 + 64 * (n as u64 + 1) + 5;
        let n = (n..).find(|&n| reach(n) >= target + 64).unwrap();
        let nbits = u64::from(usize::BITS - n.leading_zeros());
        let d_bits = target.saturating_sub(nbits + 1 + 32 * (n as u64 + 1));
        let mut g = Graph::new(n);
        for v in 1..n {
            g.add_edge((next() % v as u64) as usize, v);
        }
        while (g.edges().count() as u64) * 63 < d_bits + 63 && g.edges().count() < n * (n - 1) / 2 {
            let (u, v) = ((next() % n as u64) as usize, (next() % n as u64) as usize);
            if u != v {
                g.add_edge(u, v);
            }
        }
        let edges: Vec<(usize, usize)> = g.edges().collect();
        // Denominators sharing `d_bits`; `p` is 1 or `q − 1`, coprime to
        // `q`, so the fraction stays as drawn.
        let mut left = d_bits;
        let mut sels = Vec::new();
        for i in 0..edges.len() {
            let b = (left / (edges.len() - i) as u64).min(63);
            left -= b;
            let q = if b == 0 { 1 } else { 1u64 << (b - 1) | next() & ((1u64 << (b - 1)) - 1) };
            let p = if q > 2 && next() % 2 == 0 { q - 1 } else { 1 };
            sels.push(BigRational::new(BigInt::from(BigUint::from(p)), BigUint::from(q)));
        }
        let d: u64 = sels.iter().fold(BigUint::one(), |d, s| &d * s.denom()).bits();
        // Σ bits(t) + max bits(t) must be `rest`.
        let rest = target.saturating_sub(d + nbits + 1);
        let mut extra = rest.saturating_sub(n as u64 + 1);
        let top = 1 + (extra / 2).min(63);
        extra -= 2 * (top - 1);
        let mut bits = vec![top; 1];
        for _ in 1..n {
            let add = extra.min(top - 1);
            bits.push(1 + add);
            extra -= add;
        }
        let mut sizes: Vec<BigUint> = bits
            .iter()
            .map(|&b| BigUint::from(1u64 << (b - 1) | next() & ((1u64 << (b - 1)) - 1)))
            .collect();
        if wide {
            sizes[0] = (&sizes[0] << 64) + BigUint::from(next());
        }
        let mut s = SelectivityMatrix::new();
        let mut w = AccessCostMatrix::new();
        for (&(u, v), sel) in edges.iter().zip(&sels) {
            s.set(u, v, sel.clone());
            for (j, k) in [(u, v), (v, u)] {
                // Anywhere in the model's range `[⌈t_j·s⌉, t_j]`.
                let lower = (BigRational::from(sizes[j].clone()) * sel).ceil().magnitude().clone();
                let room = &sizes[j] - &lower;
                let pick = &(&room * &BigUint::from(next() % 1024)) / &BigUint::from(1023u64);
                w.set(j, k, &lower + &pick);
            }
        }
        QoNInstance::new(g, sizes, s, w)
    }

    proptest! {
        /// Phase B on fixed-width limbs, where its bound allows, against
        /// the `BigUint` path and the reference `dp`: the same cost and
        /// plan, under the derived bound and, through the unpruned rerun,
        /// under an impossible one. Bounds of exactly `64·L` and
        /// `64·L + 1` land on both sides of the width; a two-limb size
        /// forces `BigUint`.
        #[test]
        fn phase_b_width_matches_biguint_and_dp(
            seed in any::<u64>(),
            n in 3usize..=7,
            kind in 0usize..4,
            allow_cartesian in any::<bool>(),
        ) {
            let edge = 64 * PHASE_B_LIMBS as u64;
            let (target, wide) = match kind {
                0 => (edge, false),
                1 => (edge + 1, false),
                2 => (40 + seed % 1100, false),
                _ => (40 + seed % 1100, true),
            };
            let inst = instance_with_bound(seed, n, target, wide);
            let scale = scale_of(&inst);
            let bits = phase_b_bits(&inst, &scale);
            if kind < 2 {
                prop_assume!(bits == target);
            }
            let fits = !wide && bits <= edge;
            prop_assert_eq!(phase_b_fits(&inst, &scale), fits);
            let nbr = nbr_masks(&inst);
            let want = dp::optimize::<BigRational>(&inst, allow_cartesian)
                .map(|o| (o.cost, o.sequence.order().to_vec()));
            prop_assert!(want.is_some());
            for impossible in [false, true] {
                let mut runs = vec![phase_b_in::<BigUint>(&inst, &nbr, allow_cartesian, impossible)];
                if fits {
                    runs.push(phase_b_in::<FixedUint<PHASE_B_LIMBS>>(
                        &inst,
                        &nbr,
                        allow_cartesian,
                        impossible,
                    ));
                }
                for (got, fell_back) in runs {
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(fell_back, impossible);
                }
            }
        }
    }

    /// A random connected instance on `n` relations whose
    /// [`phase_a_exponents`] are `(lo, hi)` with `lo` or `hi` equal to
    /// `target` (by `at_lo`) and the other far below the limit. Some edges
    /// have `q_e = 1` and some `p_e > 1`. At the `lo` end the denominators
    /// share `target` bits, several limbs each on few edges; at the `hi`
    /// end the sizes share it, several limbs each.
    fn instance_at_exponent(seed: u64, n: usize, target: u64, at_lo: bool) -> QoNInstance {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ state >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ z >> 27).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ z >> 31
        };
        // A number of exactly `b >= 1` bits.
        let mut of_bits = |b: u64| {
            let top = BigUint::one() << (b - 1);
            &top + &(&BigUint::from_limbs((0..b.div_ceil(64)).map(|_| next()).collect()) % &top)
        };
        let mut g = Graph::new(n);
        for v in 1..n {
            g.add_edge((seed as usize >> (v % 8)) % v, v);
        }
        for u in 0..n {
            for v in u + 2..n {
                if (seed >> ((u * n + v) % 61)) & 1 == 1 {
                    g.add_edge(u, v);
                }
            }
        }
        let edges: Vec<(usize, usize)> = g.edges().collect();
        // Bits per denominator: the first edge has `q = 1` (one bit); the
        // rest share what is left of the target, or 2–4 bits each.
        let m = edges.len() as u64;
        let q_bits: Vec<u64> = (0..m)
            .map(|i| match (i, at_lo) {
                (0, _) => 1,
                (_, true) => (target - 1) / (m - 1) + u64::from(i <= (target - 1) % (m - 1)),
                (_, false) => 2 + i % 3,
            })
            .collect();
        // At the `lo` end every size is 1, every `q_e` odd and just under
        // `2^b`, and `p_e = 1` but for `p_e = 2` on one edge, so that
        // `N(full) = 2/∏ q_e` falls to about `2^(1 − lo)`: a limit 22 bits
        // higher would send it below `f64`'s normal range.
        let mut sels = Vec::new();
        for (i, &b) in q_bits.iter().enumerate() {
            let (q, p) = if at_lo && b > 4 {
                let q = &(&(BigUint::one() << b) - &(&of_bits(3) << 1)) - &BigUint::one();
                (q, BigUint::from(1 + u64::from(i == 1)))
            } else {
                let q = of_bits(b);
                let p = if b > 2 && i % 2 == 0 { &q - &BigUint::one() } else { BigUint::one() };
                (q, p)
            };
            sels.push(BigRational::new(BigInt::from(p), q));
        }
        // Size bits `x` each, and `Σ + max = rest` exactly (see below).
        let nbits = u64::from(usize::BITS - n.leading_zeros());
        let rest = if at_lo { n as u64 + 1 } else { target - nbits };
        let (x, rem) = (rest / (n as u64 + 1), rest % (n as u64 + 1));
        let mut bits = vec![x; n];
        match rem {
            0 => {}
            // Top `x + 1` adds 2; one other at `x − 1` takes one back.
            1 => (bits[0], bits[1]) = (x + 1, x - 1),
            // Top `x + 1` adds 2, then `rem − 2` others rise to `x + 1`.
            _ => (0..rem as usize - 1).for_each(|i| bits[i] = x + 1),
        }
        let sizes: Vec<BigUint> = bits.iter().map(|&b| of_bits(b)).collect();
        let mut s = SelectivityMatrix::new();
        let mut w = AccessCostMatrix::new();
        for (&(u, v), sel) in edges.iter().zip(&sels) {
            s.set(u, v, sel.clone());
            for (j, k) in [(u, v), (v, u)] {
                let lower = (BigRational::from(sizes[j].clone()) * sel).ceil().magnitude().clone();
                let room = &sizes[j] - &lower;
                let pick = &(&room * &BigUint::from(next() % 1024)) / &BigUint::from(1023u64);
                w.set(j, k, &lower + &pick);
            }
        }
        QoNInstance::new(g, sizes, s, w)
    }

    #[test]
    fn phase_a_range_sends_the_wide_f_n_instance_to_lognum() {
        // The two-limb `a` of the prune test: sizes of 281 bits each.
        let inst = fn_instance(9, 5, &(BigUint::one() << 70), 4);
        assert!(phase_a_exponents(&inst).1 > PHASE_A_EXP_LIMIT);
        let (n, budget, nbr) = (inst.n(), Budget::unlimited(), nbr_masks(&inst));
        let frontiers = Frontiers::build(n, &nbr, FrontierMode::AllSubsets, &budget).unwrap();
        let phase_a = PhaseA::run(&inst, &frontiers, &nbr, true, 1, &budget).unwrap();
        assert!(matches!(phase_a, PhaseA::Log(_)));
        // A base-4 one, the shape E5 solves exactly, fits.
        assert!(phase_a_fits(&fn_instance(10, 6, &BigUint::from(4u64), 7)));
    }

    proptest! {
        /// Phase A at the edge of its `f64` range: instances whose bound
        /// is exactly [`PHASE_A_EXP_LIMIT`] or one bit past it, at the
        /// `lo` end (the denominators) and at the `hi` end (the sizes).
        /// The engine takes the path the bound names, and both scalars
        /// give the same estimates, parents, candidate and prune
        /// decisions, bit for bit, in both modes and at 1 and 2 threads.
        #[test]
        fn phase_a_range_edge_takes_the_bound_path_and_agrees_bit_for_bit(
            seed in any::<u64>(),
            n in 3usize..=7,
            past in any::<bool>(),
            at_lo in any::<bool>(),
        ) {
            let target = PHASE_A_EXP_LIMIT + u64::from(past);
            let inst = instance_at_exponent(seed, n, target, at_lo);
            let (lo, hi) = phase_a_exponents(&inst);
            prop_assert_eq!(if at_lo { lo } else { hi }, target);
            prop_assert!(if at_lo { hi } else { lo } < PHASE_A_EXP_LIMIT);
            prop_assert_eq!(phase_a_fits(&inst), !past);
            let (budget, nbr) = (Budget::unlimited(), nbr_masks(&inst));
            let scale = scale_of(&inst);
            let view = ScaledView::<BigUint>::build(&inst, &nbr, &scale);
            for allow in [true, false] {
                let mode = FrontierMode::of(allow);
                let frontiers = Frontiers::build(n, &nbr, mode, &budget).unwrap();
                for threads in [1usize, 2] {
                    let label = format!("allow {allow} threads {threads}");
                    let taken = PhaseA::run(&inst, &frontiers, &nbr, allow, threads, &budget)
                        .unwrap();
                    prop_assert_eq!(matches!(taken, PhaseA::F64(_)), !past, "{}", label);
                    let log = log_phase::<LogNum>(&inst, &frontiers, &nbr, allow, threads, &budget)
                        .unwrap();
                    let raw = log_phase::<f64>(&inst, &frontiers, &nbr, allow, threads, &budget)
                        .unwrap();
                    assert_same_phase_a(&log, &raw, &label);
                    let candidate = reconstruct_order(&frontiers, &log.parent, n).unwrap();
                    let want = reconstruct_order(&frontiers, taken.parent(), n).unwrap();
                    prop_assert_eq!(candidate.order(), want.order(), "{}", label);
                    let scaled = view.path_cost(candidate.order());
                    let bound = prune_bound(n, &scaled, &scale).0;
                    let (log, raw) = (PhaseA::Log(log), PhaseA::F64(raw));
                    let (by_log, by_raw) = (log.prune(bound), raw.prune(bound));
                    let mut kept = 0usize;
                    for k in 2..=n {
                        for i in 0..frontiers.layer(k).len() {
                            let pruned = by_log.exceeds(k, i);
                            let raw_pruned = by_raw.exceeds(k, i);
                            prop_assert_eq!(pruned, raw_pruned, "{} k {} i {}", label, k, i);
                            kept += usize::from(!pruned);
                        }
                    }
                    prop_assert!(kept >= n - 1, "{}: the candidate's own prefixes survive", label);
                }
            }
        }
    }
}

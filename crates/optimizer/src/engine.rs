//! Parallel, allocation-lean two-phase subset-DP engine for QO_N over
//! sparse per-layer frontiers.
//!
//! The classic subset DP in [`crate::dp`] is exact but single-threaded and
//! costs every transition of a dense `2^n` table in the exact scalar. This
//! engine restructures the same recurrence for speed without giving up a
//! single bit of exactness — same cost, same plan — and is the only exact
//! subset DP the driver and the service run (`dp` stays as its oracle):
//!
//! 1. **Pull-style, layer-parallel evaluation.** Subsets of size `k`
//!    depend only on subsets of size `k − 1`, so each layer is evaluated
//!    in parallel over *target* subsets: a worker computes
//!    `dp[T] = min_{j ∈ T} dp[T∖{j}] + N(T∖{j})·min_{k ∈ T∖{j}} w*(j,k)`
//!    reading only the previous layer. Every target is written by exactly
//!    one worker (disjoint `&mut` chunks of a layer buffer), so results
//!    are bit-identical for every thread count.
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
//! 3. **Two-phase costing.** Phase A runs the whole DP in the `f64`
//!    log-domain [`LogNum`] scalar, producing a candidate plan and, per
//!    frontier entry, a log-domain estimate of the cheapest way to reach
//!    it. Phase B re-runs the DP exactly, but *prunes* every subset whose
//!    phase-A estimate exceeds the exact candidate cost by more than
//!    `prune_margin`, a per-request bound on phase A's accumulated
//!    rounding error. Costs only grow along a sequence, so every subset
//!    whose exact best prefix cost is at most the optimum — ties included —
//!    survives; on realistic instances nothing else does, which removes
//!    almost all big-number arithmetic (DESIGN.md §9). Phase B runs on
//!    integers with one scale: with `D = ∏_e q_e` over the query edges'
//!    reduced selectivities `p_e/q_e`, every `D·N(S)` and `D·dp[S]` is a
//!    [`BigUint`], so a transition is one fused multiply-add and one
//!    integer compare — no GCD, no cross-multiplication — and the answer
//!    is the single rational `D·dp[full] / D`. If pruning ever lost the
//!    optimum (phase B finds no plan, or one dearer than the candidate),
//!    phase B reruns unpruned and `optimizer.engine.prune_fallbacks`
//!    counts it.
//!
//! The per-transition access cost `min_{k ∈ S} w*(j,k)` is computed
//! directly from the neighbour bitmasks — `w(j,k)` over `nbr(j) ∩ S`,
//! with the default `t_j` competing whenever `S` holds a non-neighbour of
//! `j` — instead of through the incremental min-weight tables the dense
//! engine used to carry (two `widest·n` [`LogNum`] generations, the
//! dominant share of its 2.5× memory overhead over the sequential DP).
//!
//! Cancellation and deadlines keep working mid-layer: every worker ticks
//! the shared [`Budget`] (atomic interior) and unwinds with
//! [`BudgetExceeded`]; `std::thread::scope` joins every worker before the
//! error surfaces, so no threads outlive the call.

use crate::Optimum;
use aqo_bignum::{BigInt, BigRational, BigUint, LogNum};
use aqo_core::budget::{Budget, BudgetExceeded};
use aqo_core::parallel::{par_chunks_zip, resolve_threads};
use aqo_core::qon::QoNInstance;
use aqo_core::{CostScalar, JoinSequence};

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

/// Worst-case error of one phase-A step, in units `U` (see
/// [`prune_margin`]), *including* the conversion of the operand it
/// brings in. Per primitive, with `U ≥ 2⁻⁵²`:
///
/// * `f64` add/sub (IEEE round-to-nearest): ½ ulp of a result within
///   `±L`, so ≤ ½U; the difference `lo − hi` inside a log-sum-exp can
///   reach `2L`, so ≤ U;
/// * `exp2` (libm, result in `(0, 1]`): ≤ 1 ulp ≤ 2⁻⁵² ≤ U;
/// * `ln_1p` (libm, result in `[0, ln 2]`): ≤ 1 ulp ≤ 2⁻⁵³ ≤ U;
/// * `BigUint::log2`: the top 128 bits stand for the value (relative
///   error < 2⁻⁶³), one `u128 → f64` rounding (2⁻⁵³ relative, so
///   < 2⁻⁵² bits after the log), one libm `log2` (≤ 1 ulp ≤ U) and one
///   exact-integer add (≤ ½U): ≤ 3U.
///
/// Steps: a LogNum multiply by a size `t` or access cost `w` is one `f64`
/// add (½U) plus the operand's `BigUint::log2` (3U): 3½U. A multiply by a
/// selectivity is ½U plus `log2 p − log2 q` (3U + 3U + ½U): 7U. A LogNum
/// add `hi + ln_1p(exp2(lo − hi))/ln 2` has slope ≤ ½ in `lo − hi`
/// (½U), relative `exp2` error damped by `x/((1+x) ln 2) ≤ 0.73`
/// (0.73U), `ln_1p` (U), the `ln 2` constant and the division (U), and
/// the final add (½U): under 4U. Both the LogNum add and `min` are
/// 1-Lipschitz in the sup norm, so input errors pass through them
/// without growing and a path's error is at most the sum of its steps.
const PHASE_A_ULPS_PER_OP: f64 = 7.0;

/// Multiplier on the derived error bound in [`prune_margin`]: a libm
/// that misses its documented accuracy by up to 4× still prunes safely.
const PRUNE_SAFETY_FACTOR: f64 = 4.0;

/// The phase-B pruning margin, in bits, for an `n`-relation request:
/// every subset whose phase-A estimate exceeds `log₂(candidate) + margin`
/// is skipped.
///
/// Error bound. Let `L ≥ 1` bound every `|log₂|` phase A meets, and
/// `U = 2^(⌈log₂ L⌉ − 52)`, which is at least one ulp of every `f64` of
/// magnitude ≤ L. A phase-A path to a subset `T` takes at most
/// `K = n + n(n−1)/2 + 2n` LogNum steps: ≤ n multiplies by a size `t_v`
/// and ≤ n(n−1)/2 by a selectivity (building `N(S)`), and per layer one
/// multiply by an access cost `w*` and one add. Each step errs by at
/// most [`PHASE_A_ULPS_PER_OP`]·U, so the estimate `est(T)` is within
/// `7K·U` of `log₂ dp[T]`, the exact best prefix cost. The bound's
/// `log₂(candidate)` is `log₂(D·C) − log₂(D)` on two exact integers (two
/// `BigUint::log2` and one subtraction, under 7U), and adding the margin
/// rounds once more (½U). So with `margin ≥ 7(K + 2)·U`,
/// `dp[T] ≤ optimum ≤ candidate` implies `est(T) ≤ bound`: every subset
/// that can prefix an optimal plan, or tie with one, is recosted. The
/// margin applies [`PRUNE_SAFETY_FACTOR`] on top.
///
/// `max_log2` is phase A's a-priori magnitude bound (the `|log₂|` of
/// every size and selectivity summed, plus the largest access cost's and
/// `log₂ n`); `candidate` and `scale` are the candidate's scaled cost
/// `D·C` and `D`.
pub(crate) fn prune_margin(n: usize, max_log2: f64, candidate: &BigUint, scale: &BigUint) -> f64 {
    let l = max_log2.max(candidate.log2()).max(scale.log2()).max(1.0);
    let ulp = (l.log2().ceil() - 52.0).exp2();
    let ops = (n + n * (n - 1) / 2 + 2 * n) as f64;
    PRUNE_SAFETY_FACTOR * PHASE_A_ULPS_PER_OP * (ops + 2.0) * ulp
}

/// The phase-B prune bound `log₂(candidate) + margin`, in bits, and the
/// margin itself, from the candidate's scaled cost `D·C` and the scale `D`.
fn prune_bound(n: usize, max_log2: f64, candidate: &BigUint, scale: &BigUint) -> (f64, f64) {
    let margin = prune_margin(n, max_log2, candidate, scale);
    ((candidate.log2() - scale.log2()) + margin, margin)
}

/// Knobs for the engine.
#[derive(Clone, Copy, Debug)]
pub struct DpOptions {
    /// Whether sequences with cartesian products are admissible.
    pub allow_cartesian: bool,
    /// Worker threads; `0` means one per available hardware thread.
    pub threads: usize,
}

impl Default for DpOptions {
    fn default() -> Self {
        DpOptions { allow_cartesian: true, threads: 0 }
    }
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
/// subset ranking that replaced the dense mask→rank table.
pub(crate) struct Binom {
    w: usize,
    c: Vec<u32>,
}

impl Binom {
    pub(crate) fn build(n: usize) -> Binom {
        let w = n + 1;
        let mut c = vec![0u32; w * w];
        c[0] = 1;
        for p in 1..=n {
            c[p * w] = 1;
            for i in 1..=p {
                let up = c[(p - 1) * w + i - 1];
                let left = if i < p { c[(p - 1) * w + i] } else { 0 };
                c[p * w + i] = up + left;
            }
        }
        Binom { w, c }
    }

    #[inline]
    fn c(&self, p: usize, i: usize) -> u32 {
        if i > p {
            0
        } else {
            self.c[p * self.w + i]
        }
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

/// Precomputed log-domain view of an instance: the call's neighbour
/// bitmasks and the `t`, `w*`, `s` scalars converted to [`LogNum`] once,
/// so the phase-A hot loop allocates nothing and touches no big numbers.
struct LogView<'a> {
    nbr: &'a [u32],
    tlog: Vec<LogNum>,
    /// `w*(j,k)` row-major; diagonal entries are `+inf` (never selected).
    wlog: Vec<LogNum>,
    /// Selectivities row-major; `1` off the query graph.
    slog: Vec<LogNum>,
    /// An upper bound on every `|log₂|` phase A meets: each value it
    /// forms is a sum of distinct `log₂ t_v` and `log₂ s_e`, plus one
    /// `log₂ w*`, or a LogNum sum of fewer than `n` such terms.
    max_log2: f64,
}

impl<'a> LogView<'a> {
    fn build(inst: &QoNInstance, nbr: &'a [u32]) -> LogView<'a> {
        let n = inst.n();
        let tlog: Vec<LogNum> =
            inst.sizes().iter().map(<LogNum as CostScalar>::from_count).collect();
        let mut wlog = vec![LogNum::INFINITY; n * n];
        let mut slog = vec![LogNum::ONE; n * n];
        let mut max_log2 = tlog.iter().map(|t| t.log2().abs()).sum::<f64>();
        let mut wmax = 0f64;
        for j in 0..n {
            for k in 0..n {
                if j == k {
                    continue;
                }
                wlog[j * n + k] = <LogNum as CostScalar>::from_count(inst.w(j, k));
                wmax = wmax.max(wlog[j * n + k].log2().abs());
                if inst.graph().has_edge(j, k) {
                    slog[j * n + k] =
                        <LogNum as CostScalar>::from_ratio(&inst.selectivity().get(j, k));
                    if j < k {
                        max_log2 += slog[j * n + k].log2().abs();
                    }
                }
            }
        }
        max_log2 += wmax + (n as f64).log2();
        LogView { nbr, tlog, wlog, slog, max_log2 }
    }
}

/// Phase-A output: per-layer log-domain cost estimates, frontier-aligned,
/// the winning predecessor per entry, and the view's magnitude bound.
struct LogDp {
    dp: Vec<Vec<LogNum>>,
    parent: Vec<Vec<u8>>,
    max_log2: f64,
}

#[inline]
fn unreached(v: LogNum) -> bool {
    v.log2() == f64::INFINITY
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

/// `min_{k ∈ S} w*(j,k)` straight off the neighbour bitmask: edges of `j`
/// inside `s` contribute `w(j,k)`; any non-neighbour in `s` lets the
/// default access path `t_j` compete. Replaces the dense engine's
/// incremental min-weight tables.
#[inline]
fn wmin_log(view: &LogView, n: usize, j: usize, s: u32) -> LogNum {
    let mut wmin = LogNum::INFINITY;
    let mut bits = view.nbr[j] & s;
    while bits != 0 {
        let k = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        wmin = wmin.min(view.wlog[j * n + k]);
    }
    if s & !view.nbr[j] != 0 {
        wmin = wmin.min(view.tlog[j]);
    }
    wmin
}

/// Phase A: the subset DP in log domain over the sparse frontiers,
/// layer-parallel.
fn log_phase(
    inst: &QoNInstance,
    frontiers: &Frontiers,
    nbr: &[u32],
    allow_cartesian: bool,
    threads: usize,
    budget: &Budget,
) -> Result<LogDp, BudgetExceeded> {
    let _span = aqo_obs::span("engine.log_phase");
    let n = inst.n();
    let view = LogView::build(inst, nbr);
    let binom = Binom::build(n);
    // The n×n log-domain view tables, charged before the layer loop.
    budget.charge_memory(((2 * n * n + n) * std::mem::size_of::<LogNum>()) as u64)?;
    budget.checkpoint()?;

    let mut dp_layers: Vec<Vec<LogNum>> = vec![Vec::new(); n + 1];
    let mut parent_layers: Vec<Vec<u8>> = vec![Vec::new(); n + 1];
    dp_layers[1] = vec![LogNum::ZERO; n];
    parent_layers[1] = vec![u8::MAX; n];
    let mut nlog_prev: Vec<LogNum> = view.tlog.clone();
    let mut nlog_cur: Vec<LogNum> = Vec::new();
    let mut results: Vec<(LogNum, LogNum, u8)> = Vec::new();
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
        let persist = width * (std::mem::size_of::<LogNum>() + 1);
        let scratch = width
            * (std::mem::size_of::<(LogNum, LogNum, u8)>() + std::mem::size_of::<LogNum>());
        let grow = scratch.saturating_sub(scratch_charged);
        budget.charge_memory((persist + grow) as u64)?;
        scratch_charged = scratch_charged.max(scratch);
        results.clear();
        results.resize(width, (LogNum::INFINITY, LogNum::ZERO, u8::MAX));
        let dp_prev: &[LogNum] = &dp_layers[k - 1];
        let prev_layer = frontiers.layer(k - 1);

        par_chunks_zip(threads, targets, &mut results, |_, ts, res| {
            let mut ranks = [u32::MAX; 32];
            for (i, &tm) in ts.iter().enumerate() {
                budget.tick_n(k as u64)?;
                let kk = pred_ranks(frontiers.mode, &binom, prev_layer, tm, &mut ranks);
                // N(T), order-invariant, from the canonical parent: the
                // lowest removed bit whose remainder is on the frontier
                // (in all-subsets mode that is always the lowest bit).
                let mut nl = LogNum::ZERO;
                let mut best = LogNum::INFINITY;
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
                    if cand < best {
                        best = cand;
                        bj = j as u8;
                    }
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
        // every thread count, zero cost inside the worker hot loop.
        if aqo_obs::enabled() {
            aqo_obs::counter_handle!("optimizer.engine.subsets_expanded").add(width as u64);
            aqo_obs::counter_handle!("optimizer.engine.transitions").add((width * k) as u64);
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
    Ok(LogDp { dp: dp_layers, parent: parent_layers, max_log2: view.max_log2 })
}

/// The exact access-cost rows of an instance, shared by phase B and the
/// reference [`crate::dp`]: `w*(j,k)` row-major with `t_j` on the
/// diagonal, plus each row's rank order, so picking `min_{k ∈ S} w*(j,k)`
/// compares `u32` ranks instead of big numbers.
pub(crate) struct AccessRows<'a> {
    pub(crate) n: usize,
    pub(crate) nbr: &'a [u32],
    /// `w*(j,k)` row-major; the diagonal holds `t_j`.
    pub(crate) w: Vec<BigUint>,
    /// Rank of `w[j·n + k]` within row `j` by exact value: equal values
    /// share a rank, so the least rank always selects the least value.
    rank: Vec<u32>,
}

impl<'a> AccessRows<'a> {
    /// The rows of `inst`, over its neighbour bitmasks `nbr`
    /// ([`nbr_masks`]).
    pub(crate) fn build(inst: &QoNInstance, nbr: &'a [u32]) -> AccessRows<'a> {
        let n = inst.n();
        let mut w: Vec<BigUint> = Vec::with_capacity(n * n);
        let mut rank: Vec<u32> = Vec::with_capacity(n * n);
        for j in 0..n {
            let row: Vec<BigUint> = (0..n)
                .map(|k| if k == j { inst.sizes()[j].clone() } else { inst.w(j, k).clone() })
                .collect();
            let mut by_value: Vec<usize> = (0..n).collect();
            by_value.sort_by(|&a, &b| row[a].cmp(&row[b]));
            let mut r = vec![0u32; n];
            for pair in by_value.windows(2) {
                let step = u32::from(row[pair[0]] != row[pair[1]]);
                r[pair[1]] = r[pair[0]] + step;
            }
            w.extend(row);
            rank.extend(r);
        }
        AccessRows { n, nbr, w, rank }
    }

    /// The index into [`AccessRows::w`] of `min_{k ∈ s} w*(j,k)` for a
    /// nonempty `s ∌ j`: edges of `j` inside `s` offer `w(j,k)`, and any
    /// non-neighbour in `s` lets the default access path `t_j` compete.
    #[inline]
    pub(crate) fn wmin_at(&self, j: usize, s: u32) -> usize {
        let row = j * self.n;
        let mut best = row + j;
        let mut best_rank = if s & !self.nbr[j] != 0 { self.rank[best] } else { u32::MAX };
        let mut bits = self.nbr[j] & s;
        while bits != 0 {
            let k = row + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if self.rank[k] < best_rank {
                best_rank = self.rank[k];
                best = k;
            }
        }
        best
    }
}

/// Phase B's integer view of an instance. With each edge selectivity
/// reduced to `p_e/q_e` and the scale `D = ∏_e q_e` over the query edges,
/// `D·N(S) = ∏_{v∈S} t_v · ∏_{e⊆S} p_e · ∏_{e⊄S} q_e` is an integer, and
/// so is `D` times every prefix cost. Scaling by one positive constant
/// keeps every comparison, and so every tie-break, exactly as in the
/// rationals.
struct ScaledView<'a> {
    rows: AccessRows<'a>,
    /// Selectivity numerators and denominators row-major; `1` off the
    /// query graph.
    p: Vec<BigUint>,
    q: Vec<BigUint>,
    /// `D`.
    scale: BigUint,
}

impl<'a> ScaledView<'a> {
    fn build(inst: &QoNInstance, nbr: &'a [u32]) -> ScaledView<'a> {
        let n = inst.n();
        let mut p = vec![BigUint::one(); n * n];
        let mut q = vec![BigUint::one(); n * n];
        let mut scale = BigUint::one();
        for (u, v) in inst.graph().edges() {
            let s = inst.selectivity().get(u, v);
            for (j, k) in [(u, v), (v, u)] {
                p[j * n + k] = s.numer().magnitude().clone();
                q[j * n + k] = s.denom().clone();
            }
            scale *= s.denom();
        }
        ScaledView { rows: AccessRows::build(inst, nbr), p, q, scale }
    }

    /// `min_{k ∈ s} w*(j,k)` (unscaled: it multiplies a scaled `D·N(s)`).
    #[inline]
    fn wmin(&self, j: usize, s: u32) -> &BigUint {
        &self.rows.w[self.rows.wmin_at(j, s)]
    }

    /// `D·N({v}) = D·t_v`.
    fn scaled_size(&self, v: usize) -> BigUint {
        &self.scale * &self.rows.w[v * self.rows.n + v]
    }

    /// `D·N(s ∪ {j})` from `ns = D·N(s)`: exact divisions by the `q_e` of
    /// the edges from `j` into `s` (each is a factor of `ns`, since those
    /// edges are not inside `s`), then times `t_j` and their `p_e`.
    fn extend_n(&self, ns: &BigUint, j: usize, s: u32) -> BigUint {
        let row = j * self.rows.n;
        let mut nn = ns.clone();
        let mut bits = self.rows.nbr[j] & s;
        while bits != 0 {
            let v = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            nn.div_exact_assign(&self.q[row + v]);
        }
        nn *= &self.rows.w[row + j];
        let mut bits = self.rows.nbr[j] & s;
        while bits != 0 {
            let v = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if !self.p[row + v].is_one() {
                nn *= &self.p[row + v];
            }
        }
        nn
    }

    /// `D·C(order)`, the scaled cost of one join sequence.
    fn path_cost(&self, order: &[usize]) -> BigUint {
        let mut s = 1u32 << order[0];
        let mut ns = self.scaled_size(order[0]);
        let (mut cost, mut next) = (BigUint::zero(), BigUint::zero());
        for &j in &order[1..] {
            next.set_mul_add(&cost, &ns, self.wmin(j, s));
            std::mem::swap(&mut cost, &mut next);
            ns = self.extend_n(&ns, j, s);
            s |= 1 << j;
        }
        cost
    }

    /// The rational a scaled value stands for, in lowest terms.
    fn unscale(&self, scaled: BigUint) -> BigRational {
        BigRational::new(BigInt::from(scaled), self.scale.clone())
    }
}

/// One phase-B frontier entry: `D·dp[T]`, `D·N(T)` and the relation
/// joined last. `None` when pruned or unreachable.
type ScaledEntry = Option<(BigUint, BigUint, u8)>;

/// Phase B: the exact DP over the same frontiers in scaled integers,
/// layer-parallel, skipping every entry whose phase-A estimate exceeds
/// the bound. Returns `D·C*` and the plan.
fn exact_phase(
    view: &ScaledView,
    frontiers: &Frontiers,
    allow_cartesian: bool,
    threads: usize,
    budget: &Budget,
    prune: Option<(&[Vec<LogNum>], f64)>,
) -> Result<Option<(BigUint, JoinSequence)>, BudgetExceeded> {
    let _span = aqo_obs::span("engine.exact_phase");
    let n = view.rows.n;
    let nbr = view.rows.nbr;
    let binom = Binom::build(n);
    let entry = std::mem::size_of::<ScaledEntry>();
    budget.charge_memory(((3 * n * n + n) * std::mem::size_of::<BigUint>()) as u64)?;
    budget.checkpoint()?;

    let mut prev: Vec<ScaledEntry> =
        (0..n).map(|v| Some((BigUint::zero(), view.scaled_size(v), u8::MAX))).collect();
    let mut cur: Vec<ScaledEntry> = Vec::new();
    let mut parent_layers: Vec<Vec<u8>> = vec![Vec::new(); n + 1];
    parent_layers[1] = vec![u8::MAX; n];
    let mut charged = 0usize;

    for k in 2..=n {
        let targets = frontiers.layer(k);
        if targets.is_empty() {
            return Ok(None);
        }
        let width = targets.len();
        // The parent row, plus growth of the two entry buffers (this
        // layer and the previous one), charged before resizing.
        let grow = (2 * width * entry).saturating_sub(charged);
        budget.charge_memory((width + grow) as u64)?;
        charged = charged.max(2 * width * entry);
        cur.clear();
        cur.resize(width, None);
        let prev_layer = frontiers.layer(k - 1);
        let est = prune.map(|(layers, bound)| (&layers[k], bound));
        let prev_ref: &[ScaledEntry] = &prev;

        par_chunks_zip(threads, targets, &mut cur, |offset, ts, res| {
            let mut ranks = [u32::MAX; 32];
            // The running minimum and the candidate under test: each
            // candidate is formed in `scratch` and swapped in when it wins,
            // so the transition loop allocates nothing.
            let mut best = BigUint::zero();
            let mut scratch = BigUint::zero();
            for (i, &tm) in ts.iter().enumerate() {
                if let Some((est, bound)) = est {
                    if est[offset + i].log2() > bound {
                        budget.tick_n(1)?;
                        continue; // provably off every improving path
                    }
                }
                budget.tick_n(k as u64)?;
                let kk = pred_ranks(frontiers.mode, &binom, prev_layer, tm, &mut ranks);
                let mut winner: Option<(usize, usize)> = None;
                let mut tb = tm;
                for &r in &ranks[..kk] {
                    let j = tb.trailing_zeros() as usize;
                    tb &= tb - 1;
                    if r == u32::MAX {
                        continue;
                    }
                    let Some((dps, ns, _)) = prev_ref[r as usize].as_ref() else { continue };
                    let s = tm & !(1u32 << j);
                    if !allow_cartesian && nbr[j] & s == 0 {
                        continue;
                    }
                    scratch.set_mul_add(dps, ns, view.wmin(j, s));
                    // `<=`: among equal costs the highest `j` wins, the
                    // predecessor `dp` keeps (it visits `T∖{j}` in
                    // ascending mask order, i.e. `j` descending, under a
                    // strict `<`) — so both return the same plan.
                    if winner.is_none() || scratch <= best {
                        std::mem::swap(&mut scratch, &mut best);
                        winner = Some((j, r as usize));
                    }
                }
                // N(T) once per subset, from the winning parent only.
                res[i] = winner.and_then(|(j, r)| {
                    let (_, ns, _) = prev_ref[r].as_ref()?;
                    let s = tm & !(1u32 << j);
                    Some((best.clone(), view.extend_n(ns, j, s), j as u8))
                });
            }
            Ok(())
        })?;

        parent_layers[k] = cur.iter().map(|e| e.as_ref().map_or(u8::MAX, |e| e.2)).collect();
        std::mem::swap(&mut prev, &mut cur);
        // Prune/recost counts are a pure function of the phase-A estimates
        // and the bound — replayed here on the coordinating thread so the
        // totals are deterministic for every thread count.
        if aqo_obs::enabled() {
            let (mut pruned, mut recosted) = (0u64, 0u64);
            match est {
                Some((est, bound)) => {
                    for e in est {
                        if e.log2() > bound {
                            pruned += 1;
                        } else {
                            recosted += 1;
                        }
                    }
                }
                None => recosted = width as u64,
            }
            aqo_obs::counter_handle!("optimizer.engine.exact_recosts").add(recosted);
            aqo_obs::counter_handle!("optimizer.engine.pruned").add(pruned);
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

    let Some((cost, _, _)) = prev.swap_remove(0) else { return Ok(None) };
    Ok(reconstruct_order(frontiers, &parent_layers, n).map(|sequence| (cost, sequence)))
}

/// Phase B under the prune `bound`, checked against the candidate's
/// scaled cost: a pruned run that finds no plan, or one dearer than the
/// candidate, has lost the optimum to the prune, so phase B reruns without
/// pruning. The flag reports whether that rerun happened.
#[allow(clippy::too_many_arguments)]
fn certified_exact_phase(
    view: &ScaledView,
    frontiers: &Frontiers,
    allow_cartesian: bool,
    threads: usize,
    budget: &Budget,
    est: &[Vec<LogNum>],
    bound: f64,
    candidate: &BigUint,
) -> Result<(Option<(BigUint, JoinSequence)>, bool), BudgetExceeded> {
    let pruned =
        exact_phase(view, frontiers, allow_cartesian, threads, budget, Some((est, bound)))?;
    if pruned.as_ref().is_some_and(|(cost, _)| cost <= candidate) {
        return Ok((pruned, false));
    }
    let full = exact_phase(view, frontiers, allow_cartesian, threads, budget, None)?;
    Ok((full, true))
}

/// Per-vertex neighbour bitmasks of the query graph.
pub(crate) fn nbr_masks(inst: &QoNInstance) -> Vec<u32> {
    (0..inst.n())
        .map(|j| inst.graph().neighbors(j).iter().fold(0u32, |m, k| m | 1 << k))
        .collect()
}

/// Phase A alone: the layer-parallel log-domain DP. Fast and allocation
/// free in the hot loop, but subject to `f64` rounding like any
/// [`LogNum`] optimizer; use [`optimize_two_phase`] when exact optimality
/// must be certified.
pub fn optimize_log_parallel(
    inst: &QoNInstance,
    opts: &DpOptions,
    budget: &Budget,
) -> Result<Option<Optimum<LogNum>>, BudgetExceeded> {
    let n = inst.n();
    let cap = max_n(opts.allow_cartesian);
    assert!((1..=cap).contains(&n), "engine DP is for n in 1..={cap}");
    if n == 1 {
        return Ok(Some(Optimum { sequence: JoinSequence::identity(1), cost: LogNum::ZERO }));
    }
    let threads = resolve_threads(opts.threads);
    let nbr = nbr_masks(inst);
    let frontiers = Frontiers::build(n, &nbr, FrontierMode::of(opts.allow_cartesian), budget)?;
    let log = log_phase(inst, &frontiers, &nbr, opts.allow_cartesian, threads, budget)?;
    if frontiers.layer(n).is_empty() || unreached(log.dp[n][0]) {
        return Ok(None);
    }
    let cost = log.dp[n][0];
    Ok(reconstruct_order(&frontiers, &log.parent, n).map(|sequence| Optimum { sequence, cost }))
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
    let _span = aqo_obs::span("engine.two_phase");
    if n == 1 {
        return Ok(Some(Optimum { sequence: JoinSequence::identity(1), cost: S::zero() }));
    }
    aqo_obs::counter_handle!("optimizer.engine.runs").inc();
    let threads = resolve_threads(opts.threads);
    let nbr = nbr_masks(inst);
    let frontiers = Frontiers::build(n, &nbr, FrontierMode::of(allow_cartesian), budget)?;
    let log = log_phase(inst, &frontiers, &nbr, allow_cartesian, threads, budget)?;
    if frontiers.layer(n).is_empty() || unreached(log.dp[n][0]) {
        // Unreachable full set is a combinatorial fact (disconnected graph
        // under the no-cartesian rule), identical in both scalars.
        return Ok(None);
    }
    let Some(candidate) = reconstruct_order(&frontiers, &log.parent, n) else {
        return Ok(None);
    };
    let view = ScaledView::build(inst, &nbr);
    let candidate_cost = view.path_cost(candidate.order());
    let (bound, margin) = prune_bound(n, log.max_log2, &candidate_cost, &view.scale);
    aqo_obs::journal::event(
        "engine_bound",
        vec![("bound_log2", bound.into()), ("margin_bits", margin.into())],
    );
    let (opt, fell_back) = certified_exact_phase(
        &view,
        &frontiers,
        allow_cartesian,
        threads,
        budget,
        &log.dp,
        bound,
        &candidate_cost,
    )?;
    if fell_back {
        aqo_obs::counter_handle!("optimizer.engine.prune_fallbacks").inc();
    }
    Ok(opt.map(|(cost, sequence)| Optimum { sequence, cost: S::from_ratio(&view.unscale(cost)) }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp;
    use aqo_bignum::{BigInt, BigRational, BigUint};
    use aqo_core::{AccessCostMatrix, SelectivityMatrix};
    use aqo_graph::Graph;

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
                    grown = &grown * &inst.selectivity().get(j, v);
                }
                size[next] = grown;
            }
        }
        dp
    }

    /// Phase A's estimates, the candidate's scaled cost and the prune
    /// bound, exactly as [`optimize_two_phase`] derives them.
    fn phase_a_and_bound(inst: &QoNInstance, allow_cartesian: bool) -> (Frontiers, LogDp, f64) {
        let n = inst.n();
        let nbr = nbr_masks(inst);
        let budget = Budget::unlimited();
        let frontiers =
            Frontiers::build(n, &nbr, FrontierMode::of(allow_cartesian), &budget).unwrap();
        let log = log_phase(inst, &frontiers, &nbr, allow_cartesian, 1, &budget).unwrap();
        let candidate = reconstruct_order(&frontiers, &log.parent, n).unwrap();
        let view = ScaledView::build(inst, &nbr);
        let scaled = view.path_cost(candidate.order());
        let exact: BigRational = inst.total_cost(&candidate);
        assert_eq!(view.unscale(scaled.clone()), exact, "scaled candidate cost");
        let (bound, margin) = prune_bound(n, log.max_log2, &scaled, &view.scale);
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
                        let est = log.dp[k][r].log2();
                        assert!(
                            est <= bound,
                            "instance {i} allow {allow}: subset {m:b} costs <= the optimum \
                             but its estimate {est} exceeds the bound {bound}"
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
        let view = ScaledView::build(&inst, &nbr);
        let candidate = reconstruct_order(&frontiers, &log.parent, inst.n()).unwrap();
        let scaled = view.path_cost(candidate.order());
        let run = |bound: f64, candidate: &BigUint| {
            let (opt, fell_back) = certified_exact_phase(
                &view,
                &frontiers,
                true,
                2,
                &Budget::unlimited(),
                &log.dp,
                bound,
                candidate,
            )
            .unwrap();
            let (cost, sequence) = opt.unwrap();
            assert_eq!(view.unscale(cost), want.cost);
            assert_eq!(sequence.order(), want.sequence.order());
            fell_back
        };
        assert!(!run(bound, &scaled), "a sound bound needs no rerun");
        // Everything pruned: phase B finds no plan and reruns unpruned.
        assert!(run(f64::NEG_INFINITY, &scaled));
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

    #[test]
    fn log_parallel_deterministic_and_close_to_sequential_log_dp() {
        for seed in [3u64, 11, 29] {
            let inst = random_instance(seed, 8, 6);
            let seq = dp::optimize::<LogNum>(&inst, true).unwrap();
            let mut baseline: Option<(u64, Vec<usize>)> = None;
            for threads in [1usize, 2, 3, 7] {
                let opts = DpOptions { allow_cartesian: true, threads };
                let par =
                    optimize_log_parallel(&inst, &opts, &Budget::unlimited()).unwrap().unwrap();
                // The engine evaluates the same canonical recurrence for any
                // thread count: bit-identical cost AND identical plan.
                let fp = (par.cost.log2().to_bits(), par.sequence.order().to_vec());
                match &baseline {
                    None => baseline = Some(fp),
                    Some(b) => assert_eq!(*b, fp, "seed {seed} threads {threads}"),
                }
                // Against the sequential push-style log DP the association
                // order of the f64 products differs, so agreement is to
                // float precision, not to the bit.
                assert!(
                    (par.cost.log2() - seq.cost.log2()).abs() < 1e-9,
                    "seed {seed}: engine {} vs dp {}",
                    par.cost.log2(),
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
        let opt = optimize_two_phase::<BigRational>(
            &inst,
            &DpOptions::default(),
            &Budget::unlimited(),
        )
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
}

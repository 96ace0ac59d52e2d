//! **QO_H** — query optimization under pipelined hash joins (paper §2.2).
//!
//! An instance is `(n, Q, S, T, M)`: as in QO_N but with a memory budget `M`
//! in place of the access-cost matrix. A plan is a join sequence `Z`, a
//! *pipeline decomposition* of its `n−1` join operations into contiguous
//! fragments, and a *memory-allocation vector* per fragment.
//!
//! ## Concrete instantiation of the paper's abstract cost shape
//!
//! The paper abstracts the I/O cost of one hash join as
//! `h(m, b_R, b_S) = (b_R + b_S)·Θ(g(m, b_S)) + b_S` for `m ≥ hjmin(b_S)`,
//! with `g` linear decreasing in `m`, `g(b_S) = 0`, `g(hjmin(b_S)) = Θ(1)`,
//! and `hjmin(b_S) = Θ(b_S^η)` for some `0 < η < 1`. We instantiate every
//! Θ-constant to 1:
//!
//! * `hjmin(b) = ⌈b^η⌉` with `η = num/den` (default `1/2`);
//! * `g(m, b) = (b − m)/(b − hjmin(b))` clamped to `[0, 1]` (and `0` when
//!   `b ≤ hjmin(b)`);
//! * `h(m, b_R, b_S) = (b_R + b_S)·g(m, b_S) + b_S`.
//!
//! All constraints of §2.2.2 hold verbatim, so the paper's lemmas apply to
//! this instantiation unchanged (DESIGN.md, substitution table).
//!
//! The cost of executing a fragment `P(Z, i, k)` under allocation `m_i…m_k`
//! is `N_{i−1}(Z) + Σ_j h(m_j, N_{j−1}(Z), t_inner(j)) + N_k(Z)` — read the
//! materialized input, run the pipelined joins, write the output.

use crate::{CostScalar, JoinSequence};
use aqo_bignum::{BigInt, BigRational, BigUint, ScaledInt};
use aqo_graph::Graph;

/// An instance of the QO_H problem.
#[derive(Clone, Debug)]
pub struct QoHInstance {
    graph: Graph,
    sizes: Vec<BigUint>,
    selectivity: crate::SelectivityMatrix,
    memory: BigUint,
    /// `hjmin(b) = ⌈b^{eta.0/eta.1}⌉`; the paper requires `0 < η < 1`.
    eta: (u32, u32),
    /// `hjmin(t_v)` for every relation `v`, computed once at construction.
    hjmins: Vec<BigUint>,
}

/// A pipeline decomposition: the join operations `J_1 … J_{n−1}` (1-based,
/// as in the paper) partitioned into contiguous fragments `P(Z, i, k)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelineDecomposition {
    fragments: Vec<(usize, usize)>,
}

impl PipelineDecomposition {
    /// Validates that `fragments` are 1-based, contiguous, and exactly cover
    /// `J_1 … J_{n−1}` for an `n`-relation sequence.
    pub fn new(n: usize, fragments: Vec<(usize, usize)>) -> Self {
        assert!(n >= 2, "need at least one join");
        assert!(!fragments.is_empty(), "empty decomposition");
        let mut expect = 1usize;
        for &(i, k) in &fragments {
            assert_eq!(i, expect, "fragment start {i} != expected {expect}");
            assert!(k >= i, "fragment ({i},{k}) reversed");
            expect = k + 1;
        }
        assert_eq!(expect, n, "fragments must cover J_1..J_{}", n - 1);
        PipelineDecomposition { fragments }
    }

    /// One fragment per join: maximal materialization.
    pub fn singletons(n: usize) -> Self {
        PipelineDecomposition::new(n, (1..n).map(|i| (i, i)).collect())
    }

    /// A single fragment containing every join: maximal pipelining.
    pub fn single_pipeline(n: usize) -> Self {
        PipelineDecomposition::new(n, vec![(1, n - 1)])
    }

    /// The fragments `(i, k)` (1-based inclusive join indices).
    pub fn fragments(&self) -> &[(usize, usize)] {
        &self.fragments
    }
}

impl QoHInstance {
    /// Builds and validates an instance (see [`crate::qon::QoNInstance::new`]
    /// for the shared selectivity checks; QO_H has no access-cost matrix).
    pub fn new(
        graph: Graph,
        sizes: Vec<BigUint>,
        selectivity: crate::SelectivityMatrix,
        memory: BigUint,
    ) -> Self {
        Self::with_eta(graph, sizes, selectivity, memory, (1, 2))
    }

    /// As [`QoHInstance::new`] with an explicit `η = eta.0/eta.1 ∈ (0, 1)`.
    pub fn with_eta(
        graph: Graph,
        sizes: Vec<BigUint>,
        mut selectivity: crate::SelectivityMatrix,
        memory: BigUint,
        eta: (u32, u32),
    ) -> Self {
        let n = graph.n();
        assert_eq!(sizes.len(), n, "sizes length must equal vertex count");
        for (i, t) in sizes.iter().enumerate() {
            assert!(!t.is_zero(), "relation {i} has zero cardinality");
        }
        assert!(eta.0 > 0 && eta.0 < eta.1, "η must be in (0, 1)");
        selectivity.align_to(&graph);
        for (e, (u, v)) in graph.edges().enumerate() {
            assert!(selectivity.covers(e, (u, v)), "edge ({u},{v}) lacks a selectivity entry");
        }
        assert!(!memory.is_zero(), "zero memory");
        let hjmins = sizes.iter().map(|t| t.root_pow_ceil(eta.0, eta.1)).collect();
        QoHInstance { graph, sizes, selectivity, memory, eta, hjmins }
    }

    /// Number of relations.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// The query graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Relation cardinalities.
    pub fn sizes(&self) -> &[BigUint] {
        &self.sizes
    }

    /// The selectivity matrix, one entry per query edge.
    pub fn selectivity(&self) -> &crate::SelectivityMatrix {
        &self.selectivity
    }

    /// The query edges `(u, v, s_uv)`, `u < v`, in the order of
    /// `Graph::edges()`.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (usize, usize, &BigRational)> + '_ {
        self.selectivity.entries().iter().map(|(u, v, s)| (*u, *v, s))
    }

    /// Total memory `M` available to each pipeline.
    pub fn memory(&self) -> &BigUint {
        &self.memory
    }

    /// The hash-join exponent `η` as a `(numerator, denominator)` pair.
    pub fn eta(&self) -> (u32, u32) {
        self.eta
    }

    /// `hjmin(b) = ⌈b^η⌉` for an arbitrary size `b`. For a relation of the
    /// instance use the precomputed [`QoHInstance::relation_hjmin`].
    pub fn hjmin(&self, b: &BigUint) -> BigUint {
        b.root_pow_ceil(self.eta.0, self.eta.1)
    }

    /// `hjmin(t_v)` of relation `v`.
    pub fn relation_hjmin(&self, v: usize) -> &BigUint {
        &self.hjmins[v]
    }

    /// Whether relation `v` can be a hash join's inner (build) relation at
    /// all: `hjmin(t_v) ≤ M`.
    pub fn buildable(&self, v: usize) -> bool {
        self.hjmins[v] <= self.memory
    }

    /// `g(m, b)`: the paper's linear spill fraction, or `None` when
    /// `m < hjmin(b)` (the join is infeasible with that little memory).
    pub fn g(&self, m: &BigRational, b: &BigUint) -> Option<BigRational> {
        g_with(m, b, &self.hjmin(b))
    }

    /// `h(m, b_R, b_S)` over scalar backend `S` (`b_R` is an intermediate
    /// size and may be huge); `None` when infeasible.
    pub fn h<S: CostScalar>(&self, m: &BigRational, b_r: &S, b_s: &BigUint) -> Option<S> {
        h_with(m, b_r, b_s, &self.hjmin(b_s))
    }

    /// Intermediate sizes `N_0 … N_{n−1}` of `z` (same product estimate as
    /// QO_N, `N_i = N_{i−1}·t_j·∏ s_{jk}` over the prefix's `k`;
    /// `intermediates[i]` is the paper's `N_i`).
    pub fn intermediates<S: CostScalar>(&self, z: &JoinSequence) -> Vec<S> {
        let n = self.n();
        assert_eq!(z.len(), n);
        let mut out: Vec<S> = Vec::with_capacity(n);
        out.push(S::from_count(&self.sizes[z.at(0)]));
        for i in 1..n {
            let j = z.at(i);
            let mut nx = out[i - 1].mul(&S::from_count(&self.sizes[j]));
            let in_prefix = self.graph.neighbors(j).iter().filter(|k| z.prefix(i).contains(k));
            for e in in_prefix.filter_map(|k| self.selectivity.index(j, k)) {
                nx = nx.mul(&S::from_ratio(&self.selectivity.entries()[e].2));
            }
            out.push(nx);
        }
        out
    }

    /// Inner-relation size of join `J_j` (1-based): the base relation at
    /// sequence position `j+1`, i.e. `t_{z_{j+1}}`.
    pub fn inner_size(&self, z: &JoinSequence, j: usize) -> &BigUint {
        &self.sizes[z.at(j)]
    }

    /// Whether a fragment `(i, k)` admits *any* feasible allocation:
    /// `Σ_j hjmin(inner_j) ≤ M`.
    pub fn fragment_feasible(&self, z: &JoinSequence, frag: (usize, usize)) -> bool {
        let mut need = BigUint::zero();
        for j in frag.0..=frag.1 {
            need += &self.hjmins[z.at(j)];
        }
        need <= self.memory
    }

    /// Whether the sequence is feasible at all (every join can be run in
    /// some fragment — singletons suffice as witnesses).
    pub fn sequence_feasible(&self, z: &JoinSequence) -> bool {
        (1..z.len()).all(|j| self.buildable(z.at(j)))
    }

    /// Cost of fragment `(i, k)` under allocation `alloc` (one entry per
    /// join, `alloc[0]` for `J_i`). `None` if the allocation is infeasible
    /// (under a join's `hjmin`, or exceeding `M` in total).
    pub fn fragment_cost<S: CostScalar>(
        &self,
        z: &JoinSequence,
        frag: (usize, usize),
        alloc: &[BigRational],
        intermediates: &[S],
    ) -> Option<S> {
        let (i, k) = frag;
        assert_eq!(alloc.len(), k - i + 1, "allocation length mismatch");
        let mut used = BigRational::zero();
        for m in alloc {
            assert!(!m.is_negative(), "negative memory allocation");
            used = &used + m;
        }
        if used > BigRational::from(self.memory.clone()) {
            return None;
        }
        // Read materialized input + write output.
        let mut cost = intermediates[i - 1].add(&intermediates[k]);
        for j in i..=k {
            let v = z.at(j);
            let h = h_with(&alloc[j - i], &intermediates[j - 1], &self.sizes[v], &self.hjmins[v])?;
            cost = cost.add(&h);
        }
        Some(cost)
    }

    /// The provably optimal memory allocation for a fragment under the
    /// linear cost model, or `None` if the fragment is infeasible.
    ///
    /// Each join's cost is linear decreasing in its memory on
    /// `[hjmin, b_S]` with constant marginal saving
    /// `(b_R + b_S)/(b_S − hjmin)` per page, and flat beyond `b_S`; the
    /// total is separable and convex, so a continuous greedy — mandatory
    /// `hjmin` first, then fill joins in order of steepest marginal saving
    /// up to `b_S` — is exact.
    pub fn optimal_allocation(
        &self,
        z: &JoinSequence,
        (i, k): (usize, usize),
        intermediates: &[BigRational],
    ) -> Option<Vec<BigRational>> {
        let mut mandatory = BigUint::zero();
        for j in i..=k {
            mandatory += &self.hjmins[z.at(j)];
        }
        let mut leftover = self.memory.checked_sub(&mandatory)?;
        let mut alloc: Vec<BigRational> =
            (i..=k).map(|j| BigRational::from(self.hjmins[z.at(j)].clone())).collect();
        // `(slope, offset, room)` of every join that can grow past `hjmin`.
        let mut growth = Vec::new();
        for j in i..=k {
            let (bs, hj) = (&self.sizes[z.at(j)], &self.hjmins[z.at(j)]);
            if hj < bs {
                let room = bs - hj;
                let weight = &intermediates[j - 1] + &BigRational::from(bs.clone());
                growth.push((&weight / &BigRational::from(room.clone()), j - i, room));
            }
        }
        // Stable: equal slopes fill in join order.
        growth.sort_by(|a, b| b.0.cmp(&a.0));
        for (_, offset, room) in growth {
            let take = if room <= leftover { room } else { leftover.clone() };
            leftover -= &take;
            if !take.is_zero() {
                alloc[offset] = &alloc[offset] + &BigRational::from(take);
            }
        }
        Some(alloc)
    }

    /// Cost of `z` under decomposition `decomp` with per-fragment *optimal*
    /// allocations; `None` if any fragment is infeasible.
    pub fn plan_cost_optimal_alloc(
        &self,
        z: &JoinSequence,
        decomp: &PipelineDecomposition,
    ) -> Option<BigRational> {
        let inter: Vec<BigRational> = self.intermediates(z);
        let mut total = BigRational::zero();
        for &frag in decomp.fragments() {
            let alloc = self.optimal_allocation(z, frag, &inter)?;
            let c = self.fragment_cost(z, frag, &alloc, &inter)?;
            total = &total + &c;
        }
        Some(total)
    }

    /// Cost of a fully explicit plan (sequence + decomposition + one
    /// allocation vector per fragment).
    pub fn plan_cost<S: CostScalar>(
        &self,
        z: &JoinSequence,
        decomp: &PipelineDecomposition,
        allocs: &[Vec<BigRational>],
    ) -> Option<S> {
        assert_eq!(allocs.len(), decomp.fragments().len(), "one allocation per fragment");
        let inter: Vec<S> = self.intermediates(z);
        let mut total = S::zero();
        for (frag, alloc) in decomp.fragments().iter().zip(allocs) {
            let c = self.fragment_cost(z, *frag, alloc, &inter)?;
            total = total.add(&c);
        }
        Some(total)
    }
}

/// `g(m, b)` given `hj = hjmin(b)`.
fn g_with(m: &BigRational, b: &BigUint, hj: &BigUint) -> Option<BigRational> {
    let hj_rat = BigRational::from(hj.clone());
    if *m < hj_rat {
        return None;
    }
    let b_rat = BigRational::from(b.clone());
    if *m >= b_rat || hj >= b {
        return Some(BigRational::zero());
    }
    Some((&b_rat - m) / (&b_rat - &hj_rat))
}

/// `h(m, b_R, b_S)` given `hj = hjmin(b_S)`.
fn h_with<S: CostScalar>(m: &BigRational, b_r: &S, b_s: &BigUint, hj: &BigUint) -> Option<S> {
    let g = g_with(m, b_s, hj)?;
    let bs = S::from_count(b_s);
    Some(b_r.add(&bs).mul(&S::from_ratio(&g)).add(&bs))
}

/// `K = ∏_e q_e · ∏_{v : hjmin(t_v) < t_v} room_v`, the scale of a
/// [`ScaledView`], where `p_e/q_e` is the reduced selectivity of edge `e`
/// and `room_v = t_v − hjmin(t_v)`.
pub fn scale_of(inst: &QoHInstance) -> BigUint {
    let mut scale = BigUint::one();
    for (_, _, s) in inst.edges() {
        scale *= s.denom();
    }
    for (t, hjmin) in inst.sizes.iter().zip(&inst.hjmins) {
        if hjmin < t {
            scale *= &(t - hjmin);
        }
    }
    scale
}

/// A bound on the bits of every value a [`ScaledView`] of `inst` with
/// scale `K` computes, from bit lengths alone:
/// `bits(K) + Σ_v bits(t_v) + bits(4n)`.
///
/// Proof. Let `Q = ∏_v (t_v + 1) ≤ 2^(Σ bits(t_v))`; expanded, `Q` is the
/// sum of `∏_{v∈S} t_v` over every set `S` of relations. Every
/// selectivity is at most 1 (`p_e ≤ q_e`), so `N_j ≤ P_j`, the product of
/// the sizes of `z_0 … z_j`. A scaled prefix cost, or a candidate
/// `dp[i−1] + frag(i, d)` for one, is `K` times the cost of one
/// decomposition of `J_1 … J_d`: its fragments read `N_{i−1}` and write
/// `N_k` at distinct positions, and join `J_j` adds its build `t_{z_j}`
/// and at most its spill weight `N_{j−1} + t_{z_j}`. That is at most
/// `2·(Σ_{j<d} N_j + Σ_{1≤j≤d} t_{z_j}) + Σ_{1≤j≤d} N_j < 3Q`, as the
/// prefixes and the singletons `{z_j}`, `j ≥ 1`, are distinct sets in
/// `Q`'s expansion. Every partial sum on the way is smaller, and so are
/// `K·N_j` (and the values [`ScaledView::step_into`] passes through: it
/// divides before it multiplies, by factors of at least 1), `K·weight_j`,
/// `K·slope_j`, `Σ K·t`, and `Σ t`, `Σ hjmin`, the leftover memory and
/// `M` itself, which the view clamps at `Σ_v t_v`. So every value is
/// below `3·K·Q < 2^(bits(K) + Σ bits(t_v) + 2)`, and `bits(4n) ≥ 3`.
pub fn scaled_bits(inst: &QoHInstance, scale: &BigUint) -> u64 {
    let n = 4 * inst.n() as u64;
    scale.bits() + inst.sizes.iter().map(BigUint::bits).sum::<u64>()
        + u64::from(u64::BITS - n.leading_zeros())
}

/// Whether every size and selectivity term of `inst` fits one limb, as a
/// [`ScaledView`] on [`aqo_bignum::FixedUint`] needs. `hjmin(t)` and the
/// room `t − hjmin(t)` are at most `t`, so they fit too.
pub fn one_limb_factors(inst: &QoHInstance) -> bool {
    let one_limb = |v: &BigUint| v.limbs().len() <= 1;
    inst.sizes.iter().all(one_limb)
        && inst.edges().all(|(_, _, s)| one_limb(s.numer().magnitude()) && one_limb(s.denom()))
}

/// The instance scaled by one integer `K` ([`scale_of`]), so that the
/// exhaustive search's decomposition DP runs on integers `N` with no
/// rational arithmetic: [`aqo_bignum::FixedUint`] when [`scaled_bits`]
/// fits its width, [`BigUint`] past it.
///
/// * `K·N_d = ∏_{room_v > 0} room_v · ∏_{e ∉ z_0…z_d} q_e · ∏ t · ∏_{e ∈ z_0…z_d} p_e`,
///   so appending a relation divides exactly by the `q_e` of its new edges.
/// * `K·weight_j = K·N_{j−1} + K·t_{z_j}`: both terms carry the factor
///   `room_{z_j}`, so `K·slope_j = K·weight_j / room_{z_j}` is exact.
/// * A partly filled join costs `K·slope_j·(room − take)`, a filled one
///   nothing, an unfilled one `K·weight_j`; builds cost `K·t`, and `hjmin`
///   and `M` are integers already.
///
/// `K > 0`, so scaled values compare as the rationals they stand for.
/// Every division is exact and panics on a remainder: exactness is
/// checked, not assumed.
pub struct ScaledView<'a, N: ScaledInt<'a>> {
    inst: &'a QoHInstance,
    /// `K`.
    scale: BigUint,
    relations: Vec<ScaledRelation<'a, N>>,
    /// `M`, clamped at `Σ_v t_v`: `M` only meets `Σ hjmin` and `Σ t` of a
    /// fragment, both at most `Σ_v t_v`, before a fragment with `Σ t > M`
    /// hands out `M − Σ hjmin`.
    memory: N,
}

/// One relation `v` of a [`ScaledView`].
struct ScaledRelation<'a, N: ScaledInt<'a>> {
    /// `t_v` as a factor.
    t: N::Factor,
    /// `t_v`, `K·t_v` and `hjmin(t_v)`.
    size: N,
    scaled_size: N,
    hjmin: N,
    /// `room_v`; zero when `hjmin(t_v) = t_v` and the join cannot grow.
    room: N,
    /// The neighbours `k` of `v` with `(p, q)` of edge `{v, k}`.
    edges: Vec<(usize, N::Factor, N::Factor)>,
}

/// The working values of [`ScaledView::last_fragments`]. The caller owns
/// them and passes the same scratch to every call, so a search refills
/// these buffers instead of allocating new ones per prefix.
#[derive(Debug, Default)]
pub struct FragmentScratch<N> {
    /// `Σ hjmin` of the fragment's inner relations.
    need: N,
    /// `Σ t` of the same.
    sizes: N,
    /// `Σ K·t`, the cost of building them.
    builds: N,
    /// `M − Σ hjmin`, not yet handed out.
    leftover: N,
    /// `room − leftover` of the join that is partly filled.
    part: N,
    /// `K·` the fragment's cost, handed to `each`.
    cost: N,
    /// Target of the fused multiply-add, swapped with `cost`.
    spare: N,
    /// `K·slope_j` by position `j`, once the fragment spills.
    slopes: Vec<N>,
    /// Positions of the fragment's joins that can grow, steepest slope
    /// first, once the fragment spills.
    growth: Vec<usize>,
}

impl<'a, N: ScaledInt<'a>> ScaledView<'a, N> {
    /// The per-relation tables of `inst` scaled by `scale`, its
    /// [`scale_of`].
    pub fn new(inst: &'a QoHInstance, scale: BigUint) -> Self {
        let mut edges = vec![Vec::new(); inst.n()];
        for (u, v, s) in inst.edges() {
            let (p, q) = (N::factor(s.numer().magnitude()), N::factor(s.denom()));
            edges[u].push((v, p, q));
            edges[v].push((u, p, q));
        }
        let relations = (inst.sizes.iter().zip(&inst.hjmins).zip(edges))
            .map(|((t, hjmin), edges)| ScaledRelation {
                t: N::factor(t),
                size: N::from_big(t),
                scaled_size: N::from_big(&(&scale * t)),
                hjmin: N::from_big(hjmin),
                room: N::from_big(&(t - hjmin)),
                edges,
            })
            .collect();
        let total = inst.sizes.iter().fold(BigUint::zero(), |acc, t| &acc + t);
        let memory = N::from_big((&inst.memory).min(&total));
        ScaledView { inst, scale, relations, memory }
    }

    /// The instance this view scales.
    pub fn instance(&self) -> &'a QoHInstance {
        self.inst
    }

    /// The rational a scaled value stands for, in lowest terms.
    pub fn unscale(&self, scaled: &N) -> BigRational {
        BigRational::new(BigInt::from(scaled.to_big()), self.scale.clone())
    }

    /// Writes into `out` `K·N_d` of the prefix `prefix` extended by `v`
    /// at position `d = prefix.len()`, from `last = K·N_{d−1}` (`None` at
    /// `d = 0`). Only `out` is written: once its buffer has grown to the
    /// sizes a search meets, a step allocates nothing.
    pub fn step_into(&self, out: &mut N, last: Option<&N>, v: usize, prefix: &[usize]) {
        let r = &self.relations[v];
        let Some(last) = last else {
            out.clone_from(&r.scaled_size);
            return;
        };
        out.clone_from(last);
        let joined = r.edges.iter().filter(|(k, _, _)| prefix.contains(k));
        out.div_exact_product(joined.clone().map(|&(_, _, q)| q));
        out.mul_product(std::iter::once(r.t).chain(joined.map(|&(_, p, _)| p)));
    }

    /// `K·` the cost of every feasible fragment `(i, d)` ending at the last
    /// position `d` of the prefix `order` (with `steps[j] = K·N_j`) under
    /// its optimal allocation, passed to `each(i, cost)` for `i = d` down
    /// to 1 until `Σ hjmin` exceeds `M`. `cost` is a buffer of the
    /// caller's `scratch`: `each` may swap it for another buffer, and
    /// whichever buffer is left there is refilled for the next `i`.
    ///
    /// The allocation is [`QoHInstance::optimal_allocation`]'s greedy:
    /// `hjmin` for every join, then the leftover to the joins in order of
    /// steepest slope, each up to its `room`. `hjmin + room = t`, so while
    /// `Σ t ≤ M` every join is filled, and neither the slopes nor their
    /// order are needed. The first `i` with `Σ t > M` computes the slopes
    /// of `i ..= d` and inserts those joins from `d` down, and as `i` falls
    /// further each new join is inserted the same way: before every join
    /// of equal slope, since equal slopes fill in join order.
    pub fn last_fragments(
        &self,
        order: &[usize],
        steps: &[N],
        scratch: &mut FragmentScratch<N>,
        mut each: impl FnMut(usize, &mut N),
    ) {
        let d = order.len() - 1;
        let FragmentScratch { need, sizes, builds, leftover, part, cost, spare, slopes, growth } =
            scratch;
        let zero = N::default();
        need.clone_from(&zero);
        sizes.clone_from(&zero);
        builds.clone_from(&zero);
        let mut spills = false;
        for i in (1..=d).rev() {
            let r = &self.relations[order[i]];
            need.add_assign(&r.hjmin);
            if *need > self.memory {
                return;
            }
            sizes.add_assign(&r.size);
            builds.add_assign(&r.scaled_size);
            // Read the input, write the output, build every inner relation.
            cost.clone_from(&steps[i - 1]);
            cost.add_assign(&steps[d]);
            cost.add_assign(builds);
            if *sizes > self.memory {
                if !spills {
                    // The first spill: the joins past `i` enter first.
                    spills = true;
                    if slopes.len() <= d {
                        slopes.resize_with(d + 1, N::default);
                    }
                    growth.clear();
                    for j in (i + 1..=d).rev() {
                        self.grow(order, steps, j, slopes, growth);
                    }
                }
                self.grow(order, steps, i, slopes, growth);
                leftover.clone_from(&self.memory);
                leftover.sub_assign(need);
                for &j in growth.iter() {
                    let rj = &self.relations[order[j]];
                    if leftover.is_zero() {
                        // Unfilled: it spills `K·weight_j`.
                        cost.add_assign(&steps[j - 1]);
                        cost.add_assign(&rj.scaled_size);
                    } else if rj.room <= *leftover {
                        leftover.sub_assign(&rj.room);
                    } else {
                        part.clone_from(&rj.room);
                        part.sub_assign(leftover);
                        spare.set_mul_add_small(cost, &slopes[j], part);
                        std::mem::swap(cost, spare);
                        leftover.clone_from(&zero);
                    }
                }
            }
            each(i, cost);
        }
    }

    /// If join `J_j` of `order` can grow, writes `K·slope_j`, its saving
    /// per extra page, into `slopes[j]` and inserts `j` into `growth`
    /// before every join of equal or lower slope.
    fn grow(
        &self,
        order: &[usize],
        steps: &[N],
        j: usize,
        slopes: &mut [N],
        growth: &mut Vec<usize>,
    ) {
        let r = &self.relations[order[j]];
        if r.room.is_zero() {
            return;
        }
        let slope = &mut slopes[j];
        slope.clone_from(&steps[j - 1]);
        slope.add_assign(&r.scaled_size);
        slope.div_exact_small(&r.room);
        let at = growth.iter().position(|&k| slopes[k] <= slopes[j]);
        growth.insert(at.unwrap_or(growth.len()), j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SelectivityMatrix;

    /// Path query 0—1—2—3, t = (100, 100, 100, 100), s = 1/10 per edge,
    /// M = 250 pages, η = 1/2 so hjmin(100) = 10.
    fn path4() -> QoHInstance {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let sizes = vec![BigUint::from(100u64); 4];
        let mut s = SelectivityMatrix::new();
        let tenth = BigRational::new(BigInt::one(), BigUint::from(10u64));
        s.set(0, 1, tenth.clone());
        s.set(1, 2, tenth.clone());
        s.set(2, 3, tenth);
        QoHInstance::new(g, sizes, s, BigUint::from(250u64))
    }

    #[test]
    fn hjmin_is_ceil_root() {
        let inst = path4();
        assert_eq!(inst.hjmin(&BigUint::from(100u64)), BigUint::from(10u64));
        assert_eq!(inst.hjmin(&BigUint::from(101u64)), BigUint::from(11u64));
        assert_eq!(inst.hjmin(&BigUint::from(1u64)), BigUint::from(1u64));
    }

    #[test]
    fn g_shape() {
        let inst = path4();
        let b = BigUint::from(100u64);
        // Below hjmin: infeasible.
        assert!(inst.g(&BigRational::from(9u64), &b).is_none());
        // At hjmin: g = 1.
        assert_eq!(inst.g(&BigRational::from(10u64), &b).unwrap(), BigRational::one());
        // At b: g = 0; beyond: 0.
        assert_eq!(inst.g(&BigRational::from(100u64), &b).unwrap(), BigRational::zero());
        assert_eq!(inst.g(&BigRational::from(500u64), &b).unwrap(), BigRational::zero());
        // Midpoint m = 55: g = (100−55)/90 = 1/2.
        assert_eq!(
            inst.g(&BigRational::from(55u64), &b).unwrap(),
            BigRational::new(BigInt::one(), BigUint::from(2u64))
        );
    }

    #[test]
    fn h_full_memory_costs_only_build() {
        let inst = path4();
        let br = BigRational::from(1000u64);
        let b = BigUint::from(100u64);
        // m = b: h = (br + b)·0 + b = 100.
        let h = inst.h(&BigRational::from(100u64), &br, &b).unwrap();
        assert_eq!(h, BigRational::from(100u64));
        // m = hjmin: h = (1000+100)·1 + 100 = 1200.
        let h = inst.h(&BigRational::from(10u64), &br, &b).unwrap();
        assert_eq!(h, BigRational::from(1200u64));
    }

    #[test]
    fn intermediates_product_formula() {
        let inst = path4();
        let z = JoinSequence::new(vec![0, 1, 2, 3]);
        let inter: Vec<BigRational> = inst.intermediates(&z);
        // N_0 = 100; N_1 = 100·100/10 = 1000; N_2 = 1000·100/10 = 10_000;
        // N_3 = 10_000·100/10 = 100_000.
        assert_eq!(inter[0], BigRational::from(100u64));
        assert_eq!(inter[1], BigRational::from(1000u64));
        assert_eq!(inter[2], BigRational::from(10_000u64));
        assert_eq!(inter[3], BigRational::from(100_000u64));
    }

    #[test]
    fn single_pipeline_cost_full_memory() {
        let inst = path4();
        let z = JoinSequence::new(vec![0, 1, 2, 3]);
        let decomp = PipelineDecomposition::single_pipeline(4);
        // M = 250 ≥ 3·100: every join gets its full inner relation in
        // memory? No: greedy gives the two steepest-slope joins 100 each and
        // the third 50 (hjmin 10 + leftover 40 → 50 total).
        let cost = inst.plan_cost_optimal_alloc(&z, &decomp).unwrap();
        // Allocation: mandatory 10+10+10 = 30, leftover 220.
        // Slopes: join j has slope (N_{j−1}+100)/90 → J3 (N_2 = 10_000)
        // steepest, then J2 (N_1 = 1000), then J1 (N_0 = 100).
        // J3 → 100, J2 → 100, leftover 40 → J1 gets m = 50, g = 50/90 = 5/9.
        // Cost = N_0 + N_3 + h(50, N_0, 100) + h(100, N_1, 100) + h(100, N_2, 100)
        //      = 100 + 100000 + (200·5/9 + 100) + 100 + 100.
        let expected = BigRational::from(100u64)
            + BigRational::from(100_000u64)
            + (BigRational::new(BigInt::from(1000i64), BigUint::from(9u64))
                + BigRational::from(100u64))
            + BigRational::from(100u64)
            + BigRational::from(100u64);
        assert_eq!(cost, expected);
    }

    #[test]
    fn singleton_decomposition_rereads_intermediates() {
        let inst = path4();
        let z = JoinSequence::new(vec![0, 1, 2, 3]);
        let single = inst
            .plan_cost_optimal_alloc(&z, &PipelineDecomposition::single_pipeline(4))
            .unwrap();
        let singles = inst
            .plan_cost_optimal_alloc(&z, &PipelineDecomposition::singletons(4))
            .unwrap();
        // Materializing after each join pays each intermediate twice; with
        // ample memory the pipelined plan is strictly cheaper.
        assert!(single < singles);
    }

    #[test]
    fn infeasible_when_memory_too_small() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let mut s = SelectivityMatrix::new();
        s.set(0, 1, BigRational::new(BigInt::one(), BigUint::from(2u64)));
        let inst = QoHInstance::new(
            g,
            vec![BigUint::from(100u64), BigUint::from(10_000u64)],
            s,
            BigUint::from(50u64), // hjmin(10_000) = 100 > 50
        );
        let z = JoinSequence::new(vec![0, 1]);
        assert!(!inst.sequence_feasible(&z));
        let decomp = PipelineDecomposition::single_pipeline(2);
        assert!(inst.plan_cost_optimal_alloc(&z, &decomp).is_none());
        // The reverse order builds on the small relation and is feasible.
        let z2 = JoinSequence::new(vec![1, 0]);
        assert!(inst.sequence_feasible(&z2));
        assert!(inst.plan_cost_optimal_alloc(&z2, &decomp).is_some());
    }

    #[test]
    fn optimal_allocation_beats_uniform() {
        let inst = path4();
        let z = JoinSequence::new(vec![0, 1, 2, 3]);
        let inter: Vec<BigRational> = inst.intermediates(&z);
        let frag = (1usize, 3usize);
        let opt_alloc = inst.optimal_allocation(&z, frag, &inter).unwrap();
        let opt = inst.fragment_cost(&z, frag, &opt_alloc, &inter).unwrap();
        // Uniform split: 250/3 each.
        let third = BigRational::new(BigInt::from(250i64), BigUint::from(3u64));
        let uniform = inst
            .fragment_cost(&z, frag, &[third.clone(), third.clone(), third], &inter)
            .unwrap();
        assert!(opt <= uniform);
    }

    #[test]
    fn decomposition_validation() {
        let d = PipelineDecomposition::new(5, vec![(1, 2), (3, 3), (4, 4)]);
        assert_eq!(d.fragments().len(), 3);
        assert_eq!(PipelineDecomposition::singletons(4).fragments(), &[(1, 1), (2, 2), (3, 3)]);
        assert_eq!(PipelineDecomposition::single_pipeline(4).fragments(), &[(1, 3)]);
    }

    #[test]
    #[should_panic(expected = "must cover")]
    fn decomposition_gap_rejected() {
        PipelineDecomposition::new(5, vec![(1, 2), (3, 3)]);
    }

    #[test]
    #[should_panic(expected = "!= expected")]
    fn decomposition_overlap_rejected() {
        PipelineDecomposition::new(5, vec![(1, 2), (2, 4)]);
    }
}

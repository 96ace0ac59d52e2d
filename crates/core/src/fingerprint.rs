//! Canonical, order-independent instance fingerprints.
//!
//! The serving layer (`aqo-serve`) keys its plan cache on the *instance*,
//! not on the request text: two clients sending the same query graph with
//! the edge lines permuted, or the same instance regenerated from a
//! different in-memory representation, must land on the same cache entry.
//! This module defines that identity:
//!
//! * [`canonical_qon`] / [`canonical_qoh`] — a normalized line encoding of
//!   an instance: fixed header, sizes in index order, one record per edge
//!   with `u < v`, records sorted lexicographically. Equal instances
//!   produce byte-identical encodings regardless of edge enumeration
//!   order, so the encoding doubles as a collision-proof cache key.
//! * [`fingerprint_qon`] / [`fingerprint_qoh`] — 64-bit FNV-1a over the
//!   canonical encoding. Because the encoding is normalized first, the
//!   fingerprint is independent of input order by construction.
//!
//! The fingerprint is a *routing* hash (shard selection, fast compare); it
//! is never trusted alone. Cache lookups compare the full canonical key,
//! so even a 64-bit collision can only cost a miss, never a wrong plan —
//! the property the `aqo-serve` interleaving model test pins down.

use crate::qoh::QoHInstance;
use crate::qon::QoNInstance;
use crate::SelectivityMatrix;
use aqo_bignum::BigUint;
use aqo_graph::Graph;
use std::fmt::Write as _;
use std::ops::Range;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher (no `std::hash` indirection, so the
/// value is stable across platforms and Rust versions — it appears in
/// wire responses and committed bench artifacts).
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Feeds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of `bytes` in one call.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Appends `s_ab` as `numer/denom`, always both, even for an integer.
/// Every edge of a valid instance has an explicit entry; the matrix's
/// default `1` stands in otherwise.
fn write_selectivity(out: &mut String, sel: &SelectivityMatrix, a: usize, b: usize) {
    match sel.entry(a, b) {
        Some(s) => {
            let _ = write!(out, "{}/{}", s.numer(), s.denom());
        }
        None => out.push_str("1/1"),
    }
}

/// Appends the edge records of `graph`, one per edge with endpoints
/// normalized `a < b` and the records sorted as bytes — the sort is what
/// buys order independence. `record(out, a, b)` renders one record's
/// fields after `e a b `. Records are rendered once into a scratch buffer
/// and only their byte ranges are sorted.
fn write_edge_records(
    out: &mut String,
    graph: &Graph,
    mut record: impl FnMut(&mut String, usize, usize),
) {
    let mut records = String::with_capacity(graph.m() * 32);
    let mut ranges: Vec<Range<usize>> = Vec::with_capacity(graph.m());
    for (u, v) in graph.edges() {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        let start = records.len();
        let _ = write!(records, "e {a} {b} ");
        record(&mut records, a, b);
        ranges.push(start..records.len());
    }
    ranges.sort_unstable_by(|x, y| records[x.clone()].cmp(&records[y.clone()]));
    out.reserve(records.len() + ranges.len());
    for r in ranges {
        out.push_str(&records[r]);
        out.push('\n');
    }
}

/// Appends `t i t_i` for every relation.
fn write_sizes(out: &mut String, sizes: &[BigUint]) {
    for (i, t) in sizes.iter().enumerate() {
        let _ = writeln!(out, "t {i} {t}");
    }
}

/// Appends the canonical encoding of a QO_N instance to `out` (see
/// [`canonical_qon`]), so a caller can put its own prefix in front of it
/// in one buffer.
pub fn write_canonical_qon(out: &mut String, inst: &QoNInstance) {
    let _ = writeln!(out, "qon {}", inst.n());
    write_sizes(out, inst.sizes());
    write_edge_records(out, inst.graph(), |out, a, b| {
        write_selectivity(out, inst.selectivity(), a, b);
        // The two access costs follow in the normalized `(a,b), (b,a)`
        // order.
        let _ = write!(out, " {} {}", inst.w(a, b), inst.w(b, a));
    });
}

/// Canonical encoding of a QO_N instance (see module docs). Stable across
/// edge enumeration order; distinct instances yield distinct encodings
/// because every component (sizes, selectivities, access costs) is spelled
/// out exactly.
pub fn canonical_qon(inst: &QoNInstance) -> String {
    let mut out = String::new();
    write_canonical_qon(&mut out, inst);
    out
}

/// Appends the canonical encoding of a QO_H instance to `out` (see
/// [`canonical_qoh`]).
pub fn write_canonical_qoh(out: &mut String, inst: &QoHInstance) {
    let (en, ed) = inst.eta();
    let _ = writeln!(out, "qoh {}", inst.n());
    let _ = writeln!(out, "m {}", inst.memory());
    let _ = writeln!(out, "eta {en}/{ed}");
    write_sizes(out, inst.sizes());
    write_edge_records(out, inst.graph(), |out, a, b| {
        write_selectivity(out, inst.selectivity(), a, b);
    });
}

/// Canonical encoding of a QO_H instance (see module docs).
pub fn canonical_qoh(inst: &QoHInstance) -> String {
    let mut out = String::new();
    write_canonical_qoh(&mut out, inst);
    out
}

/// 64-bit FNV-1a fingerprint of a QO_N instance's canonical encoding.
pub fn fingerprint_qon(inst: &QoNInstance) -> u64 {
    fnv1a(canonical_qon(inst).as_bytes())
}

/// 64-bit FNV-1a fingerprint of a QO_H instance's canonical encoding.
pub fn fingerprint_qoh(inst: &QoHInstance) -> u64 {
    fnv1a(canonical_qoh(inst).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{textio, workloads};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain(n: usize, seed: u64) -> QoNInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        workloads::chain(n, &workloads::WorkloadParams::default(), &mut rng)
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn permuted_edge_text_hashes_identically() {
        let inst = chain(6, 3);
        let text = textio::qon_to_text(&inst);
        // Reverse the edge lines: same instance, different input order.
        let mut head: Vec<&str> = Vec::new();
        let mut edges: Vec<&str> = Vec::new();
        for line in text.lines() {
            if line.starts_with("edge") {
                edges.push(line);
            } else {
                head.push(line);
            }
        }
        edges.reverse();
        let permuted = format!("{}\n{}\n", head.join("\n"), edges.join("\n"));
        let reparsed = textio::qon_from_text(&permuted).expect("permuted text parses");
        assert_eq!(canonical_qon(&inst), canonical_qon(&reparsed));
        assert_eq!(fingerprint_qon(&inst), fingerprint_qon(&reparsed));
    }

    #[test]
    fn different_instances_fingerprint_differently() {
        let a = chain(6, 3);
        let b = chain(6, 4); // same shape, different sizes/selectivities
        let c = chain(7, 3);
        assert_ne!(fingerprint_qon(&a), fingerprint_qon(&b));
        assert_ne!(fingerprint_qon(&a), fingerprint_qon(&c));
    }

    #[test]
    fn qoh_fingerprint_covers_memory() {
        let base = chain(5, 9);
        let mk = |mem: u64| {
            QoHInstance::new(
                base.graph().clone(),
                base.sizes().to_vec(),
                base.selectivity().clone(),
                aqo_bignum::BigUint::from(mem),
            )
        };
        let a = mk(1_000_000);
        let b = mk(2_000_000);
        assert_ne!(fingerprint_qoh(&a), fingerprint_qoh(&b));
        assert_eq!(fingerprint_qoh(&a), fingerprint_qoh(&mk(1_000_000)));
    }

    #[test]
    fn canonical_text_round_trips_identity_through_textio() {
        // Serializing and reparsing an instance must not move its
        // fingerprint — this is what makes the wire format cache-stable.
        let inst = chain(8, 11);
        let reparsed = textio::qon_from_text(&textio::qon_to_text(&inst)).expect("parses");
        assert_eq!(fingerprint_qon(&inst), fingerprint_qon(&reparsed));
    }
}

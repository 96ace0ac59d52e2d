//! A line-oriented text format for QO_N / QO_H instances, so reduction
//! outputs can be archived, diffed and replayed (sizes are arbitrary-
//! precision decimals — instances from the hardness chain do not fit in any
//! machine integer).
//!
//! ```text
//! qon                       qoh
//! vertices 3                vertices 3
//! size 0 10                 memory 250
//! size 1 20                 eta 1 2
//! size 2 30                 size 0 100
//! edge 0 1 1/2 5 10         edge 0 1 1/10
//! edge 1 2 1/10 2 3
//! ```
//!
//! QO_N `edge u v s w(u,v) w(v,u)`; QO_H `edge u v s`. Selectivities are
//! `num/den` (or a bare integer). Lines starting with `#` are comments.
//!
//! Tokens are separated by ASCII whitespace only, and numbers are ASCII
//! digits only: a non-ASCII space (U+00A0, U+2003, …) stays inside its
//! token, which is then a bad integer or an unrecognized line.

use crate::qoh::QoHInstance;
use crate::qon::QoNInstance;
use crate::{AccessCostMatrix, SelectivityMatrix};
use aqo_bignum::{write_u64, BigInt, BigRational, BigUint};
use aqo_graph::Graph;

/// Error from the parsers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, message: message.into() }
}

/// Appends a selectivity as `num/den`, or `num` for an integer.
/// Selectivities are positive, so the numerator is its magnitude.
fn write_ratio(out: &mut String, r: &BigRational) {
    r.numer().magnitude().write_decimal(out);
    if !r.is_integer() {
        out.push('/');
        r.denom().write_decimal(out);
    }
}

/// The header line and `vertices n`.
fn start_text(header: &str, n: usize) -> String {
    let mut out = String::from(header);
    out.push_str("\nvertices ");
    write_u64(&mut out, n as u64);
    out.push('\n');
    out
}

/// Appends a `size i t_i` line for every relation.
fn write_sizes(out: &mut String, sizes: &[BigUint]) {
    for (i, t) in sizes.iter().enumerate() {
        out.push_str("size ");
        write_u64(out, i as u64);
        out.push(' ');
        t.write_decimal(out);
        out.push('\n');
    }
}

/// Appends `edge u v s`, the selectivity as [`write_ratio`] spells it.
fn write_edge(out: &mut String, u: usize, v: usize, s: &BigRational) {
    out.push_str("edge ");
    write_u64(out, u as u64);
    out.push(' ');
    write_u64(out, v as u64);
    out.push(' ');
    write_ratio(out, s);
}

/// Parses a selectivity `num/den` (or a bare integer) and checks it lies
/// in `(0, 1]` — in integers, before the fraction is reduced.
fn parse_selectivity(tok: &str, line: usize) -> Result<BigRational, ParseError> {
    let (num, den) = match tok.split_once('/') {
        Some((n, d)) => (n, Some(d)),
        None => (tok, None),
    };
    let n = BigUint::from_decimal(num).map_err(|_| err(line, format!("bad numerator {num}")))?;
    let d = match den {
        Some(d) => {
            BigUint::from_decimal(d).map_err(|_| err(line, format!("bad denominator {d}")))?
        }
        None => BigUint::one(),
    };
    if d.is_zero() {
        return Err(err(line, "zero denominator"));
    }
    if n.is_zero() || n > d {
        return Err(err(line, "selectivity out of (0, 1]"));
    }
    Ok(BigRational::new(BigInt::from(n), d))
}

fn parse_uint(tok: &str, line: usize) -> Result<BigUint, ParseError> {
    BigUint::from_decimal(tok).map_err(|_| err(line, format!("bad integer {tok}")))
}

fn parse_usize(tok: &str, line: usize) -> Result<usize, ParseError> {
    parse_machine(tok).ok_or_else(|| err(line, format!("bad index {tok}")))
}

/// A decimal integer of ASCII digits only that fits `T`. `T::from_str`
/// alone would also take a leading `+`.
fn parse_machine<T: std::str::FromStr>(tok: &str) -> Option<T> {
    let digits = !tok.is_empty() && tok.bytes().all(|b| b.is_ascii_digit());
    digits.then(|| tok.parse().ok()).flatten()
}

/// Serializes a QO_N instance.
pub fn qon_to_text(inst: &QoNInstance) -> String {
    let mut out = start_text("qon", inst.n());
    write_sizes(&mut out, inst.sizes());
    for (u, v, s, [w_uv, w_vu]) in inst.edges() {
        write_edge(&mut out, u, v, s);
        for w in [w_uv, w_vu] {
            out.push(' ');
            w.write_decimal(&mut out);
        }
        out.push('\n');
    }
    out
}

/// Parses a QO_N instance (validating through [`QoNInstance::new`]).
pub fn qon_from_text(input: &str) -> Result<QoNInstance, ParseError> {
    let mut lines = numbered(input);
    let (ln, first) = lines.next().ok_or_else(|| err(0, "empty input"))?;
    if first != "qon" {
        return Err(err(ln, "expected 'qon' header"));
    }
    let mut n: Option<usize> = None;
    let mut sizes: Vec<Option<BigUint>> = Vec::new();
    let mut graph: Option<Graph> = None;
    let mut sel = SelectivityMatrix::new();
    let mut acc = AccessCostMatrix::new();
    for (ln, line) in lines {
        let (toks, len) = tokens(line);
        match &toks[..len] {
            ["vertices", v] => {
                let v = parse_usize(v, ln)?;
                n = Some(v);
                // Built in place: `vec![None; v]` would clone into every slot.
                sizes = (0..v).map(|_| None).collect();
                graph = Some(Graph::new(v));
                // Room for one edge per relation (a chain or a cycle) up
                // front. An edge line only counts after the `vertices`
                // line of its graph, so nothing that counts is set before.
                sel = SelectivityMatrix::with_capacity(v);
                acc = AccessCostMatrix::with_capacity(2 * v);
            }
            ["size", i, t] => {
                let i = parse_usize(i, ln)?;
                let slot = sizes
                    .get_mut(i)
                    .ok_or_else(|| err(ln, format!("size index {i} out of range")))?;
                *slot = Some(parse_uint(t, ln)?);
            }
            ["edge", u, v, s, wuv, wvu] => {
                let g = graph.as_mut().ok_or_else(|| err(ln, "edge before vertices"))?;
                let u = parse_usize(u, ln)?;
                let v = parse_usize(v, ln)?;
                if u == v {
                    return Err(err(ln, "self-loop edge"));
                }
                if u >= g.n() || v >= g.n() {
                    return Err(err(ln, "edge endpoint out of range"));
                }
                let sv = parse_selectivity(s, ln)?;
                g.add_edge(u, v);
                sel.set(u, v, sv);
                acc.set(u, v, parse_uint(wuv, ln)?);
                acc.set(v, u, parse_uint(wvu, ln)?);
            }
            _ => return Err(err(ln, format!("unrecognized line: {line}"))),
        }
    }
    let n = n.ok_or_else(|| err(0, "missing 'vertices'"))?;
    let sizes: Vec<BigUint> = sizes
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.ok_or_else(|| err(0, format!("missing size for vertex {i}"))))
        .collect::<Result<_, _>>()?;
    #[expect(clippy::expect_used, reason = "the graph is set together with n, checked above")]
    let graph = graph.expect("set with n");
    debug_assert_eq!(graph.n(), n);
    QoNInstance::try_new(graph, sizes, sel, acc).map_err(|e| err(0, e.to_string()))
}

/// Serializes a QO_H instance. The `eta` line is written only for an η
/// other than the default 1/2, so default-η text is unchanged.
pub fn qoh_to_text(inst: &QoHInstance) -> String {
    let mut out = start_text("qoh", inst.n());
    out.push_str("memory ");
    inst.memory().write_decimal(&mut out);
    out.push('\n');
    let (num, den) = inst.eta();
    if (num, den) != (1, 2) {
        out.push_str("eta ");
        write_u64(&mut out, num.into());
        out.push(' ');
        write_u64(&mut out, den.into());
        out.push('\n');
    }
    write_sizes(&mut out, inst.sizes());
    for (u, v, s) in inst.edges() {
        write_edge(&mut out, u, v, s);
        out.push('\n');
    }
    out
}

/// Parses a QO_H instance (default η = 1/2).
pub fn qoh_from_text(input: &str) -> Result<QoHInstance, ParseError> {
    let mut lines = numbered(input);
    let (ln, first) = lines.next().ok_or_else(|| err(0, "empty input"))?;
    if first != "qoh" {
        return Err(err(ln, "expected 'qoh' header"));
    }
    let mut sizes: Vec<Option<BigUint>> = Vec::new();
    let mut graph: Option<Graph> = None;
    let mut sel = SelectivityMatrix::new();
    let mut memory: Option<BigUint> = None;
    let mut eta = (1u32, 2u32);
    for (ln, line) in lines {
        let (toks, len) = tokens(line);
        match &toks[..len] {
            ["vertices", v] => {
                let v = parse_usize(v, ln)?;
                sizes = (0..v).map(|_| None).collect();
                graph = Some(Graph::new(v));
                sel = SelectivityMatrix::with_capacity(v);
            }
            ["memory", m] => memory = Some(parse_uint(m, ln)?),
            ["eta", num, den] => {
                let term = |tok: &str| {
                    parse_machine::<u32>(tok).ok_or_else(|| err(ln, format!("bad eta term {tok}")))
                };
                eta = (term(num)?, term(den)?);
            }
            ["size", i, t] => {
                let i = parse_usize(i, ln)?;
                let slot = sizes
                    .get_mut(i)
                    .ok_or_else(|| err(ln, format!("size index {i} out of range")))?;
                *slot = Some(parse_uint(t, ln)?);
            }
            ["edge", u, v, s] => {
                let g = graph.as_mut().ok_or_else(|| err(ln, "edge before vertices"))?;
                let u = parse_usize(u, ln)?;
                let v = parse_usize(v, ln)?;
                if u == v {
                    return Err(err(ln, "self-loop edge"));
                }
                if u >= g.n() || v >= g.n() {
                    return Err(err(ln, "edge endpoint out of range"));
                }
                let sv = parse_selectivity(s, ln)?;
                g.add_edge(u, v);
                sel.set(u, v, sv);
            }
            _ => return Err(err(ln, format!("unrecognized line: {line}"))),
        }
    }
    let sizes: Vec<BigUint> = sizes
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.ok_or_else(|| err(0, format!("missing size for vertex {i}"))))
        .collect::<Result<_, _>>()?;
    let graph = graph.ok_or_else(|| err(0, "missing 'vertices'"))?;
    let memory = memory.ok_or_else(|| err(0, "missing 'memory'"))?;
    for (i, t) in sizes.iter().enumerate() {
        if t.is_zero() {
            return Err(err(0, format!("relation {i} has zero cardinality")));
        }
    }
    if memory.is_zero() {
        return Err(err(0, "zero memory"));
    }
    if eta.0 == 0 || eta.0 >= eta.1 {
        return Err(err(0, "eta must be a fraction in (0, 1)"));
    }
    Ok(QoHInstance::with_eta(graph, sizes, sel, memory, eta))
}

/// The ASCII-whitespace-separated tokens of `line` and their count,
/// without allocating. The longest record has six tokens, so a seventh
/// only has to make the line unrecognized: the rest are not looked at.
fn tokens(line: &str) -> ([&str; 7], usize) {
    let mut toks = [""; 7];
    let mut len = 0;
    for (slot, tok) in toks.iter_mut().zip(line.split_ascii_whitespace()) {
        *slot = tok;
        len += 1;
    }
    (toks, len)
}

fn numbered(input: &str) -> impl Iterator<Item = (usize, &str)> {
    input
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim_ascii()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qoh::PipelineDecomposition;
    use crate::JoinSequence;

    fn chain() -> QoNInstance {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let sizes = vec![BigUint::from(10u64), BigUint::from(20u64), BigUint::from(30u64)];
        let mut s = SelectivityMatrix::new();
        s.set(0, 1, BigRational::new(BigInt::one(), BigUint::from(2u64)));
        s.set(1, 2, BigRational::new(BigInt::one(), BigUint::from(10u64)));
        let mut w = AccessCostMatrix::new();
        w.set(0, 1, BigUint::from(5u64));
        w.set(1, 0, BigUint::from(10u64));
        w.set(1, 2, BigUint::from(2u64));
        w.set(2, 1, BigUint::from(3u64));
        QoNInstance::new(g, sizes, s, w)
    }

    #[test]
    fn qon_roundtrip_preserves_costs() {
        let inst = chain();
        let text = qon_to_text(&inst);
        let back = qon_from_text(&text).unwrap();
        for perm in crate::join::permutations(3) {
            let z = JoinSequence::new(perm);
            let a: BigRational = inst.total_cost(&z);
            let b: BigRational = back.total_cost(&z);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn qon_roundtrip_huge_sizes() {
        // Reduction-scale sizes survive the text format.
        let g = Graph::from_edges(2, &[(0, 1)]);
        let t = BigUint::from(4u64).pow(500);
        let mut s = SelectivityMatrix::new();
        s.set(0, 1, BigRational::recip_of(BigUint::from(4u64).pow(100)));
        let mut w = AccessCostMatrix::new();
        let wv = BigUint::from(4u64).pow(400);
        w.set(0, 1, wv.clone());
        w.set(1, 0, wv);
        let inst = QoNInstance::new(g, vec![t.clone(), t], s, w);
        let back = qon_from_text(&qon_to_text(&inst)).unwrap();
        assert_eq!(back.sizes()[0], inst.sizes()[0]);
        assert_eq!(back.w(0, 1), inst.w(0, 1));
    }

    #[test]
    fn qoh_roundtrip() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut s = SelectivityMatrix::new();
        s.set(0, 1, BigRational::new(BigInt::one(), BigUint::from(4u64)));
        s.set(1, 2, BigRational::new(BigInt::one(), BigUint::from(8u64)));
        let inst = QoHInstance::new(
            g,
            vec![BigUint::from(100u64); 3],
            s,
            BigUint::from(64u64),
        );
        let back = qoh_from_text(&qoh_to_text(&inst)).unwrap();
        assert_eq!(back.n(), 3);
        assert_eq!(back.memory(), inst.memory());
        let z = JoinSequence::identity(3);
        let a: Vec<BigRational> = inst.intermediates(&z);
        let b: Vec<BigRational> = back.intermediates(&z);
        assert_eq!(a, b);
    }

    /// The cheapest plan cost over every sequence and every pipeline
    /// decomposition, each fragment under its optimal allocation.
    fn qoh_exhaustive_optimum(inst: &QoHInstance) -> Option<BigRational> {
        let n = inst.n();
        let mut best: Option<BigRational> = None;
        for perm in crate::join::permutations(n) {
            let z = JoinSequence::new(perm);
            // Bit `c` of `cuts` ends a fragment after join `J_{c+1}`.
            for cuts in 0..1u32 << (n - 2) {
                let mut fragments = Vec::new();
                let mut start = 1;
                for k in 1..n {
                    if k == n - 1 || cuts >> (k - 1) & 1 == 1 {
                        fragments.push((start, k));
                        start = k + 1;
                    }
                }
                let decomp = PipelineDecomposition::new(n, fragments);
                if let Some(c) = inst.plan_cost_optimal_alloc(&z, &decomp) {
                    if best.as_ref().is_none_or(|b| c < *b) {
                        best = Some(c);
                    }
                }
            }
        }
        best
    }

    #[test]
    fn qoh_roundtrip_keeps_a_non_default_eta() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut s = SelectivityMatrix::new();
        s.set(0, 1, BigRational::new(BigInt::one(), BigUint::from(4u64)));
        s.set(1, 2, BigRational::new(BigInt::one(), BigUint::from(8u64)));
        s.set(2, 3, BigRational::new(BigInt::one(), BigUint::from(2u64)));
        let sizes: Vec<BigUint> = [100u64, 400, 90, 250].map(BigUint::from).to_vec();
        let memory = BigUint::from(64u64);
        let inst =
            QoHInstance::with_eta(g.clone(), sizes.clone(), s.clone(), memory.clone(), (2, 3));
        let text = qoh_to_text(&inst);
        assert!(text.contains("\neta 2 3\n"), "{text}");
        let back = qoh_from_text(&text).unwrap();
        assert_eq!(back.eta(), (2, 3));
        let b = BigUint::from(1000u64);
        assert_eq!(back.hjmin(&b), inst.hjmin(&b));
        assert_eq!(back.hjmin(&b), BigUint::from(100u64));
        let opt = qoh_exhaustive_optimum(&inst);
        assert!(opt.is_some());
        assert_eq!(qoh_exhaustive_optimum(&back), opt);
        // η matters on this instance: read back at 1/2, it would answer
        // differently.
        let default_eta = QoHInstance::new(g, sizes, s, memory);
        assert_ne!(qoh_exhaustive_optimum(&default_eta), opt);
        // Default-η text carries no `eta` line.
        assert!(!qoh_to_text(&default_eta).contains("eta"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# archive\nqon\n\nvertices 1\nsize 0 5\n";
        let inst = qon_from_text(text).unwrap();
        assert_eq!(inst.n(), 1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = qon_from_text("qon\nvertices 2\nsize 0 4\nsize 1 4\nedge 0 5 1/2 2 2\n")
            .unwrap_err();
        assert_eq!(e.line, 5);
        assert!(qon_from_text("nope\n").is_err());
        assert!(qon_from_text("qon\nvertices 1\n").is_err(), "missing size");
    }

    #[test]
    fn indices_and_eta_terms_are_plain_digits_within_range() {
        let qon = |body: &str| qon_from_text(&format!("qon\n{body}"));
        let qoh = |body: &str| qoh_from_text(&format!("qoh\nmemory 100\n{body}"));
        let base = "vertices 2\nsize 0 10\nsize 1 10\n";
        assert!(qon(&format!("{base}edge 0 1 1/2 5 5\n")).is_ok());
        assert!(qoh(&format!("{base}edge 0 1 1/2\neta 1 2\n")).is_ok());
        for (bad, tok) in [
            ("vertices +2\nsize 0 10\nsize 1 10\n", "+2"),
            ("vertices 2\nsize +0 10\nsize 1 10\n", "+0"),
            ("vertices 2\nsize -0 10\nsize 1 10\n", "-0"),
        ] {
            assert_eq!(qon(bad).unwrap_err().message, format!("bad index {tok}"));
            assert_eq!(qoh(bad).unwrap_err().message, format!("bad index {tok}"));
        }
        let e = qon(&format!("{base}edge 0 +1 1/2 5 5\n")).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (5, "bad index +1"));
        let e = qoh(&format!("{base}edge 0 +1 1/2\n")).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (6, "bad index +1"));
        // 2^32 + 1 wrapped to 1 under a plain cast: η would read 1/2.
        let e = qoh(&format!("{base}eta 4294967297 2\n")).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (6, "bad eta term 4294967297"));
        let e = qoh(&format!("{base}eta 1 4294967297\n")).unwrap_err();
        assert_eq!(e.message, "bad eta term 4294967297");
        assert_eq!(qoh(&format!("{base}eta +1 2\n")).unwrap_err().message, "bad eta term +1");
        assert!(qoh(&format!("{base}eta 1 4294967295\n")).is_ok(), "u32::MAX is in range");
    }

    #[test]
    fn non_ascii_whitespace_stays_inside_its_token() {
        // U+00A0 (no-break space) and U+2003 (em space) separate tokens
        // for `str::split_whitespace`, but not here: the token holding one
        // is rejected, like any other non-digit.
        let base = "qon\nvertices 2\nsize 0 10\n";
        let e = qon_from_text(&format!("{base}size 1\u{a0}10\n")).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (4, "unrecognized line: size 1\u{a0}10"));
        let e = qon_from_text(&format!("{base}size 1 10\u{2003}\n")).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (4, "bad integer 10\u{2003}"));
        let e = qon_from_text("\u{a0}qon\nvertices 1\nsize 0 5\n").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (1, "expected 'qon' header"));
        assert!(qon_from_text(&format!("{base}size 1\t10 \r\n")).is_ok(), "ASCII tab and CR");
    }

    #[test]
    fn semantic_violations_are_parse_errors_naming_the_invariant() {
        let edge = |w01: u64, w10: u64| {
            format!("qon\nvertices 2\nsize 0 4\nsize 1 8\nedge 0 1 1/4 {w01} {w10}\n")
        };
        assert!(qon_from_text(&edge(1, 2)).is_ok(), "w at its lower bounds t_j*s");
        assert!(qon_from_text(&edge(4, 8)).is_ok(), "w at its upper bounds t_j");
        let message = |text: &str| qon_from_text(text).unwrap_err().message;
        assert_eq!(message(&edge(1, 1)), "w(1,0) below t_j*s_jk");
        assert_eq!(message(&edge(5, 2)), "w(0,1) above t_j");
        assert_eq!(
            message("qon\nvertices 2\nsize 0 0\nsize 1 8\n"),
            "relation 0 has zero cardinality"
        );
    }
}

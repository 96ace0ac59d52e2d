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

use crate::qoh::QoHInstance;
use crate::qon::QoNInstance;
use crate::{AccessCostMatrix, SelectivityMatrix};
use aqo_bignum::{BigInt, BigRational, BigUint};
use aqo_graph::Graph;
use std::fmt::Write as _;

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

fn write_ratio(out: &mut String, r: &BigRational) {
    if r.is_integer() {
        let _ = write!(out, "{}", r.numer());
    } else {
        let _ = write!(out, "{}/{}", r.numer(), r.denom());
    }
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
    tok.parse().map_err(|_| err(line, format!("bad index {tok}")))
}

/// Serializes a QO_N instance.
pub fn qon_to_text(inst: &QoNInstance) -> String {
    let mut out = String::from("qon\n");
    let _ = writeln!(out, "vertices {}", inst.n());
    for (i, t) in inst.sizes().iter().enumerate() {
        let _ = writeln!(out, "size {i} {t}");
    }
    for (u, v) in inst.graph().edges() {
        let _ = write!(out, "edge {u} {v} ");
        write_ratio(&mut out, &inst.selectivity().get(u, v));
        let _ = writeln!(out, " {} {}", inst.w(u, v), inst.w(v, u));
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
                sizes = vec![None; v];
                graph = Some(Graph::new(v));
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
    let graph = graph.expect("set with n");
    debug_assert_eq!(graph.n(), n);
    QoNInstance::try_new(graph, sizes, sel, acc).map_err(|e| err(0, e.to_string()))
}

/// Serializes a QO_H instance.
pub fn qoh_to_text(inst: &QoHInstance) -> String {
    let mut out = String::from("qoh\n");
    let _ = writeln!(out, "vertices {}", inst.n());
    let _ = writeln!(out, "memory {}", inst.memory());
    for (i, t) in inst.sizes().iter().enumerate() {
        let _ = writeln!(out, "size {i} {t}");
    }
    for (u, v) in inst.graph().edges() {
        let _ = write!(out, "edge {u} {v} ");
        write_ratio(&mut out, &inst.selectivity().get(u, v));
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
                sizes = vec![None; v];
                graph = Some(Graph::new(v));
            }
            ["memory", m] => memory = Some(parse_uint(m, ln)?),
            ["eta", num, den] => {
                eta = (
                    parse_usize(num, ln)? as u32,
                    parse_usize(den, ln)? as u32,
                );
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

/// The whitespace-separated tokens of `line` and their count, without
/// allocating. The longest record has six tokens, so a seventh only has to
/// make the line unrecognized: the rest are not looked at.
fn tokens(line: &str) -> ([&str; 7], usize) {
    let mut toks = [""; 7];
    let mut len = 0;
    for (slot, tok) in toks.iter_mut().zip(line.split_whitespace()) {
        *slot = tok;
        len += 1;
    }
    (toks, len)
}

fn numbered(input: &str) -> impl Iterator<Item = (usize, &str)> {
    input
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
}

#[cfg(test)]
mod tests {
    use super::*;
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

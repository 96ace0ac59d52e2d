//! Trace reconstruction from JSONL journals.
//!
//! [`check`] validates the tracing invariants of a journal (every
//! `span_start` has a closing `span`, ids are unique, no event references
//! a parent span that never opened), and [`render`] reassembles the
//! per-request span trees — with total/self time, per-span event counts,
//! and the critical path marked — from the same text. Both operate on
//! the serialized journal alone, so they work on files from any process
//! (the CLI's `aqo trace-check` / `aqo trace view`).
//!
//! Untraced journals (schema v1, or runs without a trace context) have
//! no `span_start` events and no `trace_id` fields; [`check`] accepts
//! them trivially and [`render`] reports that there is nothing to show.

use crate::json;
use std::collections::BTreeMap;

/// One journal line's trace-relevant projection.
struct Ev {
    seq: u64,
    etype: String,
    name: String,
    span_id: u64,
    trace_id: u64,
    parent: u64,
    /// Span duration (`dur_us` field of traced `span` end events).
    dur_us: u64,
}

fn num(v: &json::JsonValue, key: &str) -> u64 {
    v.get(key).and_then(json::JsonValue::as_num).map(|n| n as u64).unwrap_or(0)
}

fn parse_events(text: &str) -> Result<Vec<Ev>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let etype = v
            .get("type")
            .and_then(json::JsonValue::as_str)
            .ok_or_else(|| format!("line {}: missing \"type\"", lineno + 1))?
            .to_string();
        out.push(Ev {
            seq: num(&v, "seq"),
            etype,
            name: v.get("name").and_then(json::JsonValue::as_str).unwrap_or("").to_string(),
            span_id: num(&v, "span_id"),
            trace_id: num(&v, "trace_id"),
            parent: num(&v, "parent_span_id"),
            dur_us: num(&v, "dur_us"),
        });
    }
    // Journals are written in seq order, but sort defensively so a
    // concatenation of two journals still checks per its merged order.
    out.sort_by_key(|e| e.seq);
    Ok(out)
}

/// Summary returned by a successful [`check`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Distinct trace ids seen.
    pub traces: usize,
    /// Traced spans (matched `span_start`/`span` pairs).
    pub spans: usize,
    /// Journal events carrying a trace id.
    pub traced_events: usize,
}

/// Validates trace nesting over a serialized journal: span ids unique,
/// every `span_start` matched by a closing `span` in the same trace,
/// and every traced event's `parent_span_id` either 0 or a span that
/// opened earlier in the journal. Journals without tracing pass with an
/// all-zero report.
pub fn check(text: &str) -> Result<CheckReport, String> {
    let events = parse_events(text)?;
    // span_id -> (trace_id, closed)
    let mut spans: BTreeMap<u64, (u64, bool)> = BTreeMap::new();
    let mut traces: BTreeMap<u64, ()> = BTreeMap::new();
    let mut traced_events = 0usize;
    for e in &events {
        if e.trace_id == 0 {
            continue;
        }
        traced_events += 1;
        traces.insert(e.trace_id, ());
        if e.parent != 0 {
            match spans.get(&e.parent) {
                None => {
                    return Err(format!(
                        "seq {}: {} references parent span {} that never opened (orphan parent)",
                        e.seq, e.etype, e.parent
                    ));
                }
                Some((tid, _)) if *tid != e.trace_id => {
                    return Err(format!(
                        "seq {}: {} in trace {} has parent span {} from trace {tid}",
                        e.seq, e.etype, e.trace_id, e.parent
                    ));
                }
                Some(_) => {}
            }
        }
        match e.etype.as_str() {
            "span_start" => {
                if e.span_id == 0 {
                    return Err(format!("seq {}: span_start without span_id", e.seq));
                }
                if spans.insert(e.span_id, (e.trace_id, false)).is_some() {
                    return Err(format!("seq {}: duplicate span_id {}", e.seq, e.span_id));
                }
            }
            "span" if e.span_id != 0 => match spans.get_mut(&e.span_id) {
                None => {
                    return Err(format!(
                        "seq {}: span end for id {} without a span_start",
                        e.seq, e.span_id
                    ));
                }
                Some((_, closed @ false)) => *closed = true,
                Some((_, true)) => {
                    return Err(format!("seq {}: span id {} closed twice", e.seq, e.span_id));
                }
            },
            _ => {}
        }
    }
    let open: Vec<u64> =
        spans.iter().filter(|(_, (_, closed))| !closed).map(|(id, _)| *id).collect();
    if !open.is_empty() {
        return Err(format!("unbalanced spans: ids {open:?} opened but never closed"));
    }
    Ok(CheckReport { traces: traces.len(), spans: spans.len(), traced_events })
}

struct Node {
    name: String,
    parent: u64,
    start_seq: u64,
    us: u64,
    closed: bool,
    events: usize,
    children: Vec<u64>,
}

/// Renders the per-trace span trees of a serialized journal: one block
/// per trace id, each span with total time, self time (total minus
/// children, saturating — parallel children can overlap), the count of
/// non-span events parented to it, and the critical path (greedy
/// max-total descent) marked with `*`. Lenient about imbalance so it can
/// inspect journals [`check`] would reject; returns an explanatory line
/// when the journal carries no traces at all.
pub fn render(text: &str) -> Result<String, String> {
    let events = parse_events(text)?;
    // trace_id -> span_id -> node; plus per-trace root event counts.
    let mut traces: BTreeMap<u64, BTreeMap<u64, Node>> = BTreeMap::new();
    let mut root_events: BTreeMap<u64, usize> = BTreeMap::new();
    for e in &events {
        if e.trace_id == 0 {
            continue;
        }
        let spans = traces.entry(e.trace_id).or_default();
        match e.etype.as_str() {
            "span_start" if e.span_id != 0 => {
                spans.insert(
                    e.span_id,
                    Node {
                        name: e.name.clone(),
                        parent: e.parent,
                        start_seq: e.seq,
                        us: 0,
                        closed: false,
                        events: 0,
                        children: Vec::new(),
                    },
                );
            }
            "span" if e.span_id != 0 => {
                if let Some(n) = spans.get_mut(&e.span_id) {
                    n.us = e.dur_us;
                    n.closed = true;
                }
            }
            _ => {
                if e.parent != 0 {
                    if let Some(n) = spans.get_mut(&e.parent) {
                        n.events += 1;
                    }
                } else {
                    *root_events.entry(e.trace_id).or_default() += 1;
                }
            }
        }
    }
    if traces.is_empty() {
        return Ok("no traced spans in journal (schema v1 or tracing inactive)\n".to_string());
    }
    let mut out = String::new();
    for (trace_id, mut spans) in traces {
        // Wire up children; unknown parents (e.g. a span inherited from
        // a journal cut) render as roots.
        let ids: Vec<u64> = spans.keys().copied().collect();
        let start_seqs: BTreeMap<u64, u64> =
            spans.iter().map(|(id, n)| (*id, n.start_seq)).collect();
        let mut roots = Vec::new();
        for id in &ids {
            let parent = spans[id].parent;
            if parent != 0 && spans.contains_key(&parent) {
                #[expect(
                    clippy::unwrap_used,
                    reason = "key membership checked on the line above; BTreeMap cannot lose it"
                )]
                spans.get_mut(&parent).unwrap().children.push(*id);
            } else {
                roots.push(*id);
            }
        }
        for n in spans.values_mut() {
            n.children.sort_by_key(|id| start_seqs.get(id).copied().unwrap_or(u64::MAX));
        }
        roots.sort_by_key(|id| spans[id].start_seq);
        let nevents: usize = spans.values().map(|n| n.events).sum::<usize>()
            + root_events.get(&trace_id).copied().unwrap_or(0);
        out.push_str(&format!(
            "trace {trace_id} ({} span{}, {} event{})\n",
            spans.len(),
            if spans.len() == 1 { "" } else { "s" },
            nevents,
            if nevents == 1 { "" } else { "s" },
        ));
        // Critical path: greedy descent by max total time from the
        // longest root.
        let mut critical = Vec::new();
        if let Some(&start) = roots.iter().max_by_key(|id| spans[id].us) {
            let mut cur = start;
            loop {
                critical.push(cur);
                match spans[&cur].children.iter().max_by_key(|id| spans[id].us) {
                    Some(&next) => cur = next,
                    None => break,
                }
            }
        }
        for root in &roots {
            render_node(&spans, *root, 1, &critical, &mut out);
        }
    }
    Ok(out)
}

fn render_node(spans: &BTreeMap<u64, Node>, id: u64, depth: usize, critical: &[u64], out: &mut String) {
    let n = &spans[&id];
    let child_us: u64 = n.children.iter().map(|c| spans[c].us).sum();
    let self_us = n.us.saturating_sub(child_us);
    let marker = if critical.contains(&id) { "*" } else { "-" };
    out.push_str(&"  ".repeat(depth));
    out.push_str(&format!(
        "{marker} {:<28} total={}us self={}us",
        if n.name.is_empty() { "?" } else { &n.name },
        n.us,
        self_us
    ));
    if n.events > 0 {
        out.push_str(&format!(" events={}", n.events));
    }
    if !n.closed {
        out.push_str(" (open)");
    }
    out.push('\n');
    for c in &n.children {
        render_node(spans, *c, depth + 1, critical, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = concat!(
        "{\"seq\": 0, \"us\": 1, \"type\": \"span_start\", \"name\": \"serve.request\", \"span_id\": 1, \"trace_id\": 7, \"parent_span_id\": 0}\n",
        "{\"seq\": 1, \"us\": 2, \"type\": \"span_start\", \"name\": \"tier.dp\", \"span_id\": 2, \"trace_id\": 7, \"parent_span_id\": 1}\n",
        "{\"seq\": 2, \"us\": 3, \"type\": \"tier_start\", \"tier\": \"dp\", \"trace_id\": 7, \"parent_span_id\": 2}\n",
        "{\"seq\": 3, \"us\": 9, \"type\": \"span\", \"name\": \"tier.dp\", \"span_id\": 2, \"dur_us\": 7, \"trace_id\": 7, \"parent_span_id\": 1}\n",
        "{\"seq\": 4, \"us\": 11, \"type\": \"span\", \"name\": \"serve.request\", \"span_id\": 1, \"dur_us\": 10, \"trace_id\": 7, \"parent_span_id\": 0}\n",
    );

    #[test]
    fn check_accepts_balanced_trace() {
        let r = check(GOOD).expect("balanced journal");
        assert_eq!(r, CheckReport { traces: 1, spans: 2, traced_events: 5 });
    }

    #[test]
    fn check_accepts_untraced_journal() {
        let v1 = "{\"seq\": 0, \"us\": 1, \"type\": \"span\", \"name\": \"x\", \"us\": 3}\n";
        let r = check(v1).expect("v1 journal still parses");
        assert_eq!(r, CheckReport::default());
    }

    #[test]
    fn check_rejects_unbalanced_and_orphans() {
        let unbalanced = "{\"seq\": 0, \"us\": 1, \"type\": \"span_start\", \"name\": \"a\", \"span_id\": 1, \"trace_id\": 3, \"parent_span_id\": 0}\n";
        assert!(check(unbalanced).unwrap_err().contains("never closed"));
        let orphan = "{\"seq\": 0, \"us\": 1, \"type\": \"tier_start\", \"trace_id\": 3, \"parent_span_id\": 9}\n";
        assert!(check(orphan).unwrap_err().contains("orphan parent"));
    }

    #[test]
    fn render_nests_and_marks_critical_path() {
        let tree = render(GOOD).expect("renders");
        assert!(tree.contains("trace 7 (2 spans, 1 event)"), "{tree}");
        let serve_line = tree.lines().find(|l| l.contains("serve.request")).unwrap();
        let dp_line = tree.lines().find(|l| l.contains("tier.dp")).unwrap();
        assert!(serve_line.contains("total=10us self=3us"), "{tree}");
        assert!(dp_line.contains("total=7us self=7us"), "{tree}");
        assert!(dp_line.contains("events=1"), "{tree}");
        assert!(serve_line.trim_start().starts_with('*'), "{tree}");
        // Child is indented deeper than the parent.
        let indent = |l: &str| l.len() - l.trim_start().len();
        assert!(indent(dp_line) > indent(serve_line), "{tree}");
    }
}

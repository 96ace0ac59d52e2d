//! The rule catalog. Every rule is a pure function from scanned sources
//! to [`Finding`]s; `docs/ANALYSIS.md` is the human-facing catalog with
//! rationale and examples, this module is the executable one.

use crate::scanner::SourceModel;

/// How bad a finding is. The gate treats both identically (any finding
/// fails it); severity is for human triage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// A violated invariant (panic path, float in exact code, …).
    Error,
    /// A smell worth a look (SeqCst in a hot path, missing budget hook).
    Warning,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        })
    }
}

/// One rule violation, anchored to a file and line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (`ordering-audit`, …).
    pub rule: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// What tripped, with enough context to act on.
    pub message: String,
    /// Witness call chain for graph rules (`panic-path`,
    /// `blocking-under-lock`): entry → … → offending item.
    pub chain: Vec<String>,
    /// Witness lock cycle for `lock-order`: the lock labels in
    /// acquisition order, with the first repeated implicitly.
    pub cycle: Vec<String>,
}

impl Finding {
    /// A plain finding with empty witnesses.
    pub fn new(
        rule: &'static str,
        severity: Severity,
        path: impl Into<String>,
        line: usize,
        message: impl Into<String>,
    ) -> Finding {
        Finding {
            rule,
            severity,
            path: path.into(),
            line,
            message: message.into(),
            chain: Vec::new(),
            cycle: Vec::new(),
        }
    }
}

/// Rule ids in catalog order.
pub const RULE_IDS: [&str; 8] = [
    "ordering-audit",
    "no-float-in-exact",
    "counter-catalog-sync",
    "budget-hook-coverage",
    "panic-path",
    "lock-order",
    "blocking-under-lock",
    "error-kind-sync",
];

/// One row of the rule catalog: the same table renders
/// `aqo analyze --explain <rule>` and anchors docs/ANALYSIS.md.
pub struct RuleDoc {
    /// Rule id.
    pub id: &'static str,
    /// Severity the rule's findings carry.
    pub severity: Severity,
    /// One-line summary (shown in `--explain` and the doc catalog).
    pub summary: &'static str,
    /// Paragraph-length rationale + how to fix or allow.
    pub detail: &'static str,
}

/// The rule catalog, one entry per id in [`RULE_IDS`] order.
pub const RULE_DOCS: [RuleDoc; 8] = [
    RuleDoc {
        id: "ordering-audit",
        severity: Severity::Error,
        summary: "every Ordering::Relaxed needs an `// ordering: <why>` justification; \
                  SeqCst is flagged as a perf smell",
        detail: "Relaxed atomics are correct only under an argument about independence or \
                 external synchronization; the rule makes that argument part of the code. \
                 SeqCst is a full fence nothing in this workspace needs — use \
                 Acquire/Release or a justified Relaxed.",
    },
    RuleDoc {
        id: "no-float-in-exact",
        severity: Severity::Error,
        summary: "no f64/f32 tokens in the exact-cost modules (qon.rs, qoh.rs, bignum)",
        detail: "The paper's certified inequalities are only meaningful under exact \
                 arithmetic. The one sanctioned float domain is LogNum pruning, which \
                 lives in lognum.rs and is excluded from the rule's scope.",
    },
    RuleDoc {
        id: "counter-catalog-sync",
        severity: Severity::Error,
        summary: "every metric/span/event registered in code appears in \
                  docs/OBSERVABILITY.md and vice versa",
        detail: "An undocumented counter is invisible operationally; a stale catalog row \
                 is a lie. Registration sites are matched against the catalog tables with \
                 `{placeholder}` / `<placeholder>` wildcards normalized.",
    },
    RuleDoc {
        id: "budget-hook-coverage",
        severity: Severity::Warning,
        summary: "every public optimize* entry point is cancellable (takes a Budget or \
                  has a _with_budget sibling)",
        detail: "The driver's tiered fallback can only isolate what it can cancel; an \
                 unbudgeted entry point is a tier that can wedge the ladder.",
    },
    RuleDoc {
        id: "panic-path",
        severity: Severity::Error,
        summary: "no panic token (unwrap/expect/panic!/indexing) reachable from a serve \
                  entry point through the call graph",
        detail: "A panic mid-request voids the approximation-ratio contract the response \
                 claims and can poison locks. The pass walks the workspace call graph \
                 from the serve entry points (request/connection/worker/writer fns), \
                 stops at catch_unwind containment, and prints the full offending call \
                 chain. Fix by returning an error, containing the unwind, or \
                 `// analyze:allow(panic-path) -- <why>` at the panic site.",
    },
    RuleDoc {
        id: "lock-order",
        severity: Severity::Error,
        summary: "the nested lock-acquisition graph (propagated through calls) must be \
                  acyclic, and every nesting lock must appear in the canonical order in \
                  docs/ANALYSIS.md",
        detail: "Two threads taking the same locks in different orders is a deadlock \
                 waiting for load. The pass extracts every Mutex/RwLock field and \
                 static, tracks guard liveness per function (let-bound guards live to \
                 end of block or drop(); temporaries to end of statement), propagates \
                 acquisitions through the call graph, and fails on any cycle with a \
                 witness. Never allow a cycle — fix the order or restructure.",
    },
    RuleDoc {
        id: "blocking-under-lock",
        severity: Severity::Error,
        summary: "no blocking call (write/flush/read/sleep/recv/…) while a lock guard is \
                  live, directly or one call deep",
        detail: "A blocking syscall under a lock turns one slow peer into a stalled \
                 server. Condvar::wait is exempt (it releases the lock). Where the block \
                 is intentional and bounded (e.g. socket writes under the per-connection \
                 writer lock with a write timeout), allow it with the justification \
                 spelled out: `// analyze:allow(blocking-under-lock) -- <why>`.",
    },
    RuleDoc {
        id: "error-kind-sync",
        severity: Severity::Error,
        summary: "every wire error kind emitted by crates/serve is classified by the \
                  client and documented in docs/SERVING.md",
        detail: "The retry loop is only as complete as its classification table: an \
                 unclassified kind falls into a default arm that may retry a fatal error \
                 or give up on a retriable one. Wire kinds are read from \
                 ErrorKind::name(); each must appear in ErrorKind::from_wire, in \
                 crates/serve/src/client.rs, and backticked in docs/SERVING.md.",
    },
];

/// Exact-cost modules for `no-float-in-exact`: QO_N/QO_H cost semantics
/// and the exact big-number backends. `lognum.rs` is the log-domain prune
/// representation — floats are its whole point — so it is out of scope.
const EXACT_MODULES: [&str; 2] = ["crates/core/src/qon.rs", "crates/core/src/qoh.rs"];

/// Docs the doc-sync rules check against. A `None` skips that rule's
/// doc-side checks (e.g. in fixture workspaces without the doc).
#[derive(Default)]
pub struct RuleContext {
    /// `docs/OBSERVABILITY.md` for `counter-catalog-sync`.
    pub observability_doc: Option<String>,
    /// `docs/SERVING.md` for `error-kind-sync`.
    pub serving_doc: Option<String>,
    /// `docs/ANALYSIS.md` for `lock-order`'s canonical-order check.
    pub analysis_doc: Option<String>,
}

/// Runs every rule — the four lexical ones and the four graph passes —
/// over the scanned workspace.
pub fn run_all(models: &[SourceModel], ctx: &RuleContext) -> Vec<Finding> {
    let mut findings = Vec::new();
    for m in models {
        findings.extend(ordering_audit(m));
        findings.extend(no_float_in_exact(m));
        findings.extend(budget_hook_coverage(m));
    }
    if let Some(doc) = ctx.observability_doc.as_deref() {
        findings.extend(counter_catalog_sync(models, doc));
    }
    let ws = crate::symbols::extract(models);
    let graph = crate::callgraph::CallGraph::build(&ws);
    findings.extend(crate::callgraph::panic_path(&graph));
    findings.extend(crate::locks::lock_rules(
        &graph,
        models,
        ctx.analysis_doc.as_deref(),
    ));
    findings.extend(crate::error_kinds::error_kind_sync(
        &ws,
        models,
        ctx.serving_doc.as_deref(),
    ));
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings
}

/// True when `code[idx..]` matches `pat` at an identifier boundary (the
/// char before is not part of an identifier).
fn token_at(code: &str, idx: usize) -> bool {
    idx == 0
        || !code[..idx]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Every identifier-boundary occurrence of `pat` in `code`.
pub(crate) fn token_matches<'a>(code: &'a str, pat: &str) -> impl Iterator<Item = usize> + 'a {
    let pat = pat.to_string();
    let mut from = 0usize;
    std::iter::from_fn(move || loop {
        let rel = code[from..].find(&pat)?;
        let idx = from + rel;
        from = idx + pat.len();
        if token_at(code, idx) {
            return Some(idx);
        }
    })
}

/// **ordering-audit** — every `Ordering::Relaxed` in a file that uses
/// `std::sync::atomic` must carry an `ordering:` justification in the
/// same-line or immediately preceding comment; `Ordering::SeqCst` is
/// flagged as a perf smell (nothing in this workspace needs total order).
pub fn ordering_audit(m: &SourceModel) -> Vec<Finding> {
    const RULE: &str = "ordering-audit";
    // Scope: files that import the atomic Ordering (this is what keeps
    // `std::cmp::Ordering` matches in bignum out).
    let uses_atomics = m.lines.iter().any(|l| {
        l.code.contains("sync::atomic") || l.code.contains("atomic::Ordering")
    });
    if !uses_atomics || !m.rel_path.ends_with(".rs") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in m.lines.iter().enumerate() {
        if line.in_test || m.is_allowed(RULE, idx + 1) {
            continue;
        }
        if line.code.contains("Ordering::Relaxed")
            && !line.code.contains("use ")
            && !m.comment_context(idx + 1).contains("ordering:")
        {
            out.push(Finding::new(
                RULE,
                Severity::Error,
                m.rel_path.clone(),
                idx + 1,
                "`Ordering::Relaxed` without an `// ordering: <why>` \
                 justification in the same-line or preceding comment",
            ));
        }
        if line.code.contains("Ordering::SeqCst") && !line.code.contains("use ") {
            out.push(Finding::new(
                RULE,
                Severity::Warning,
                m.rel_path.clone(),
                idx + 1,
                "`Ordering::SeqCst` is a full-fence perf smell on hot \
                 paths; Acquire/Release (or justified Relaxed) is \
                 almost always what is meant",
            ));
        }
    }
    out
}

/// **no-float-in-exact** — no `f64`/`f32` tokens in the exact-cost
/// modules (`qon.rs`, `qoh.rs`, the exact `bignum` backends). The paper's
/// certified inequalities are only meaningful under exact arithmetic; the
/// one sanctioned float domain is `LogNum` pruning, which lives in
/// `lognum.rs` and is excluded.
pub fn no_float_in_exact(m: &SourceModel) -> Vec<Finding> {
    const RULE: &str = "no-float-in-exact";
    let in_scope = EXACT_MODULES.contains(&m.rel_path.as_str())
        || (m.rel_path.starts_with("crates/bignum/src/")
            && !m.rel_path.ends_with("lognum.rs"));
    if !in_scope {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in m.lines.iter().enumerate() {
        if line.in_test || m.is_allowed(RULE, idx + 1) {
            continue;
        }
        for ty in ["f64", "f32"] {
            if token_matches(&line.code, ty).next().is_some() {
                out.push(Finding::new(
                    RULE,
                    Severity::Error,
                    m.rel_path.clone(),
                    idx + 1,
                    format!(
                        "`{ty}` in an exact-cost module; exact paths must stay \
                         in integer/rational arithmetic (LogNum bridging \
                         belongs in lognum.rs or behind an allow)"
                    ),
                ));
                break;
            }
        }
    }
    out
}

/// A metric name with format placeholders / doc placeholders normalized
/// (`{site}` and `<site>` both become `*`).
fn normalize_metric(name: &str) -> String {
    let mut out = String::new();
    let mut chars = name.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '{' => {
                for n in chars.by_ref() {
                    if n == '}' {
                        break;
                    }
                }
                out.push('*');
            }
            '<' => {
                for n in chars.by_ref() {
                    if n == '>' {
                        break;
                    }
                }
                out.push('*');
            }
            c => out.push(c),
        }
    }
    out
}

/// What kind of observability name a use site or catalog row declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    /// Counter/gauge/histogram registration.
    Metric,
    /// `span!(…)` name (cataloged in the span-names paragraph).
    Span,
    /// `journal::event("type", …)` event type (Journal events table).
    Event,
}

/// A metric-name use site found in code.
#[derive(Debug)]
struct MetricUse {
    name: String,
    path: String,
    line: usize,
    kind: MetricKind,
}

/// Extracts metric registrations (`counter(…)`, `counter_handle!(…)`,
/// `gauge(…)`, `gauge_handle!(…)`, `histogram(…)`, `histogram_handle!(…)`,
/// `span!(…)`) from the scanned sources, skipping `aqo-obs` itself (the
/// registry's internals and its unit tests use throwaway names) except
/// its fail points, which emit metrics like any instrumented crate.
fn collect_metric_uses(models: &[SourceModel]) -> Vec<MetricUse> {
    let mut out = Vec::new();
    for m in models {
        let obs_internal = m.rel_path.starts_with("crates/obs/src/")
            && m.rel_path != "crates/obs/src/faults.rs";
        if !m.rel_path.ends_with(".rs") || obs_internal {
            continue;
        }
        for (idx, line) in m.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let triggers = [
                ("counter_handle!", MetricKind::Metric),
                ("gauge_handle!", MetricKind::Metric),
                ("histogram_handle!", MetricKind::Metric),
                ("counter(", MetricKind::Metric),
                ("gauge(", MetricKind::Metric),
                ("histogram(", MetricKind::Metric),
                ("span(", MetricKind::Span),
                ("event(", MetricKind::Event),
            ];
            for (trigger, kind) in triggers {
                let bare = trigger.trim_end_matches(['!', '(']);
                if token_matches(&line.code, bare)
                    .any(|i| line.code[i + bare.len()..].starts_with(['!', '(']))
                {
                    // The name is the first string literal at or shortly
                    // after the call (rustfmt may wrap the argument list).
                    let Some(name) = m.lines[idx..m.lines.len().min(idx + 3)]
                        .iter()
                        .flat_map(|l| l.strings.first())
                        .next()
                        .cloned()
                    else {
                        break;
                    };
                    // Only catalog dotted metric names; spans and event
                    // types are bare words by design.
                    if name.contains('.') || kind != MetricKind::Metric {
                        out.push(MetricUse {
                            name,
                            path: m.rel_path.clone(),
                            line: idx + 1,
                            kind,
                        });
                    }
                    break;
                }
            }
        }
    }
    out
}

/// Names declared in `docs/OBSERVABILITY.md`, with 1-based doc lines:
/// metric names from the table rows of the `## Counters` and `## Gauges
/// and histograms` sections, span names from the backticked "Span names
/// in the tree" paragraph, and event types from the `## Journal events`
/// table. Table header rows (the row directly above a `|---|` separator)
/// are skipped.
fn collect_doc_metrics(doc: &str) -> Vec<(String, usize, MetricKind)> {
    let mut out = Vec::new();
    let lines: Vec<&str> = doc.lines().collect();
    let mut section = "";
    let mut in_span_para = false;
    for (idx, raw) in lines.iter().enumerate() {
        let line = raw.trim();
        if let Some(h) = line.strip_prefix("## ") {
            section = match h {
                "Counters" => "metrics",
                "Gauges and histograms" => "metrics",
                "Journal events" => "events",
                _ => "",
            };
        }
        if line.starts_with("Span names in the tree") {
            in_span_para = true;
        } else if line.is_empty() {
            in_span_para = false;
        }
        if in_span_para {
            for name in backticked(line) {
                out.push((name, idx + 1, MetricKind::Span));
            }
            continue;
        }
        let kind = match section {
            "metrics" => MetricKind::Metric,
            "events" => MetricKind::Event,
            _ => continue,
        };
        // Skip the header row (the one right above the `|---|` rule).
        if lines.get(idx + 1).is_some_and(|n| n.trim_start().starts_with("|--")) {
            continue;
        }
        if let Some(cell) = line.strip_prefix("| `") {
            if let Some(end) = cell.find('`') {
                out.push((cell[..end].to_string(), idx + 1, kind));
            }
        }
    }
    out
}

/// Every `` `…` `` span in a line.
fn backticked(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('`') {
        let Some(close) = rest[open + 1..].find('`') else { break };
        out.push(rest[open + 1..open + 1 + close].to_string());
        rest = &rest[open + 1 + close + 1..];
    }
    out
}

/// Whether normalized names `a` and `b` denote the same metric: exact
/// match, or equal up to a `*` placeholder tail on either side.
fn metric_matches(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    let prefix = |s: &str| s.split('*').next().unwrap_or(s).to_string();
    (a.contains('*') && b.starts_with(&prefix(a)))
        || (b.contains('*') && a.starts_with(&prefix(b)))
}

/// **counter-catalog-sync** — every metric registered in code must appear
/// in `docs/OBSERVABILITY.md`, and every cataloged name must still have a
/// registration site. An undocumented counter is invisible operationally;
/// a stale catalog row is a lie.
pub fn counter_catalog_sync(models: &[SourceModel], doc: &str) -> Vec<Finding> {
    const RULE: &str = "counter-catalog-sync";
    const DOC_PATH: &str = "docs/OBSERVABILITY.md";
    let uses = collect_metric_uses(models);
    let doc_names = collect_doc_metrics(doc);
    let mut out = Vec::new();

    for u in &uses {
        let n = normalize_metric(&u.name);
        let documented = doc_names
            .iter()
            .any(|(d, _, k)| *k == u.kind && metric_matches(&n, &normalize_metric(d)));
        if !documented {
            let model = models.iter().find(|m| m.rel_path == u.path);
            if model.is_some_and(|m| m.is_allowed(RULE, u.line)) {
                continue;
            }
            out.push(Finding::new(
                RULE,
                Severity::Error,
                u.path.clone(),
                u.line,
                format!("metric `{}` is registered here but missing from {DOC_PATH}", u.name),
            ));
        }
    }

    for (d, line, kind) in &doc_names {
        let n = normalize_metric(d);
        // `span.<name>` histograms are a derived family, and the `span` /
        // `span_start` journal events are emitted inside `aqo-obs` itself
        // (out of the code-side scan's scope); none has a registration
        // site here.
        if n == "span.*" || ((n == "span" || n == "span_start") && *kind == MetricKind::Event) {
            continue;
        }
        let registered = uses
            .iter()
            .any(|u| u.kind == *kind && metric_matches(&n, &normalize_metric(&u.name)));
        if !registered {
            out.push(Finding::new(
                RULE,
                Severity::Error,
                DOC_PATH,
                *line,
                format!(
                    "catalog lists `{d}` but no registration site in the \
                     workspace emits it"
                ),
            ));
        }
    }
    out
}

/// **budget-hook-coverage** — every public `optimize*` entry point in
/// `crates/optimizer/src` must be cancellable: either a sibling
/// `<name>_with_budget` exists in the same module, or the function itself
/// takes a `Budget`. The driver's tiered fallback can only isolate what
/// it can cancel.
pub fn budget_hook_coverage(m: &SourceModel) -> Vec<Finding> {
    const RULE: &str = "budget-hook-coverage";
    if !m.rel_path.starts_with("crates/optimizer/src/") {
        return Vec::new();
    }
    // Collect (name, line, signature) of top-level pub fns.
    let mut fns: Vec<(String, usize, String)> = Vec::new();
    let mut depth = 0i64;
    for (idx, line) in m.lines.iter().enumerate() {
        if depth == 0 && !line.in_test {
            if let Some(pos) = line.code.find("pub fn ") {
                let rest = &line.code[pos + "pub fn ".len()..];
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    // Signature: this line through the opening brace or `;`.
                    let mut sig = String::new();
                    for l in &m.lines[idx..m.lines.len().min(idx + 12)] {
                        sig.push_str(&l.code);
                        sig.push(' ');
                        if l.code.contains('{') || l.code.contains(';') {
                            break;
                        }
                    }
                    fns.push((name, idx + 1, sig));
                }
            }
        }
        for c in line.code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    for (name, line, sig) in &fns {
        if !name.starts_with("optimize") || name.ends_with("_with_budget") {
            continue;
        }
        if m.is_allowed(RULE, *line) {
            continue;
        }
        let has_variant = fns.iter().any(|(n, _, _)| n == &format!("{name}_with_budget"));
        let takes_budget = sig.contains("Budget");
        if !has_variant && !takes_budget {
            out.push(Finding::new(
                RULE,
                Severity::Warning,
                m.rel_path.clone(),
                *line,
                format!(
                    "public entry point `{name}` has no `{name}_with_budget` \
                     sibling and takes no `Budget`; the driver cannot cancel it"
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_boundaries() {
        assert!(token_matches("panic!(\"x\")", "panic").next().is_some());
        assert!(token_matches("no_panic!(...)", "panic").next().is_none());
        assert!(token_matches("a f64 b", "f64").next().is_some());
        assert!(token_matches("xf64", "f64").next().is_none());
    }

    #[test]
    fn metric_normalization_and_matching() {
        assert_eq!(normalize_metric("faults.hit.{site}"), "faults.hit.*");
        assert_eq!(normalize_metric("faults.hit.<site>"), "faults.hit.*");
        assert!(metric_matches("faults.hit.*", "faults.hit.*"));
        assert!(metric_matches("budget.exceeded.*", "budget.exceeded.deadline"));
        assert!(!metric_matches("a.b", "a.c"));
    }

    #[test]
    fn ordering_rule_wants_justification() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\nfn f(a: &AtomicU64) {\n    a.load(Ordering::Relaxed);\n    // ordering: independent counter, readers join first\n    a.fetch_add(1, Ordering::Relaxed);\n    a.store(0, Ordering::SeqCst);\n}\n";
        let m = SourceModel::scan("crates/core/src/x.rs", src);
        let hits = ordering_audit(&m);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert_eq!(hits[0].line, 3);
        assert_eq!(hits[0].severity, Severity::Error);
        assert_eq!(hits[1].line, 6);
        assert_eq!(hits[1].severity, Severity::Warning);
    }

    #[test]
    fn cmp_ordering_is_out_of_scope() {
        let src = "use std::cmp::Ordering;\nfn f() -> Ordering { Ordering::Less }\n";
        let m = SourceModel::scan("crates/bignum/src/int.rs", src);
        assert!(ordering_audit(&m).is_empty());
    }
}

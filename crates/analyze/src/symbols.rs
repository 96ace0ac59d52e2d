//! Symbol layer: functions, impl blocks, struct fields, and statics
//! extracted from the scanned token stream — the input the call-graph
//! passes ([`crate::callgraph`], [`crate::locks`]) resolve against.
//!
//! This is still not a parser: items are recovered by brace matching on
//! the code view, and call sites by identifier-adjacent-`(` scanning.
//! The known approximations are documented in docs/ANALYSIS.md; the
//! guiding rule is to over-approximate reachability (extra edges are
//! noise a human can allow away; missing edges are unsound silence).

use crate::scanner::{self, ScanLine, SourceModel};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `self.foo(…)` — method on the caller's own impl type.
    SelfMethod,
    /// `recv.foo(…)` — method on some receiver; `receiver` holds the
    /// last field segment of the receiver chain (`self.cache.insert(`
    /// → `cache`) for field-type-directed resolution.
    Method {
        /// Last receiver-chain segment before the method name.
        receiver: Option<String>,
    },
    /// `Qual::foo(…)` — associated function or module-qualified free fn.
    Path {
        /// The path segment before the `::`.
        qualifier: String,
    },
    /// `foo(…)` — unqualified free function.
    Free,
}

/// One call site inside an item body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// 1-based line.
    pub line: usize,
    /// How the callee is named.
    pub kind: CallKind,
    /// The callee identifier.
    pub name: String,
    /// Inside a `catch_unwind(…)` statement extent: the unwind cannot
    /// escape, so panic-path reachability stops here (lock analysis
    /// still traverses — catching a panic does not release a deadlock).
    pub contained: bool,
}

/// A potential panic site (unwrap/expect/panic!/indexing/…).
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based line.
    pub line: usize,
    /// Human label, e.g. `` `unwrap()` ``.
    pub label: String,
    /// Suppressed by `analyze:allow(panic-path)`.
    pub allowed: bool,
}

/// A function item (free fn or method).
#[derive(Debug)]
pub struct Item {
    /// Function name.
    pub name: String,
    /// `Some(type)` when declared inside `impl Type { … }` /
    /// `impl Trait for Type { … }`.
    pub self_type: Option<String>,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based declaration line.
    pub line: usize,
    /// 1-based inclusive body extent (lines of `{` … `}`); `(0, 0)` for
    /// bodyless trait-method declarations.
    pub body: (usize, usize),
    /// Declared inside a `#[cfg(test)]` / `#[test]` region.
    pub is_test: bool,
    /// Declaration through the opening brace, concatenated.
    pub signature: String,
    /// Call sites in the body (innermost-item attribution).
    pub calls: Vec<CallSite>,
    /// Potential panic sites in the body.
    pub panics: Vec<PanicSite>,
}

/// A struct field (for receiver-type-directed call resolution and lock
/// discovery).
#[derive(Debug)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Full type text after the `:`, e.g. `Mutex<QueueState>`.
    pub ty: String,
    /// 1-based declaration line.
    pub line: usize,
}

/// A struct definition with its fields.
#[derive(Debug)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// Brace-body fields in declaration order.
    pub fields: Vec<Field>,
}

/// A `static NAME: Type = …;` item (module- or function-scoped).
#[derive(Debug)]
pub struct StaticDef {
    /// Static name.
    pub name: String,
    /// Full type text after the `:`.
    pub ty: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based declaration line.
    pub line: usize,
}

/// Everything the graph passes need, extracted in one pass.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Every function item.
    pub items: Vec<Item>,
    /// Every brace-bodied struct.
    pub structs: Vec<StructDef>,
    /// Every `static NAME: Type` item.
    pub statics: Vec<StaticDef>,
}

/// Extracts the symbol layer from every scanned `.rs` source.
pub fn extract(models: &[SourceModel]) -> Workspace {
    let mut ws = Workspace::default();
    for m in models {
        if !m.rel_path.ends_with(".rs") {
            continue;
        }
        extract_file(m, &mut ws);
    }
    ws
}

/// Rust keywords that look like `ident(` call sites but are not.
const KEYWORDS: [&str; 14] = [
    "if", "while", "for", "match", "loop", "return", "fn", "move", "unsafe", "as", "in",
    "else", "let", "ref",
];

fn extract_file(m: &SourceModel, ws: &mut Workspace) {
    let lines = &m.lines;
    // Cumulative brace depth *before* each line (index 0 = line 1).
    let mut depth_before: Vec<i64> = Vec::with_capacity(lines.len() + 1);
    let mut d = 0i64;
    for line in lines {
        depth_before.push(d);
        for c in line.code.chars() {
            match c {
                '{' => d += 1,
                '}' => d -= 1,
                _ => {}
            }
        }
    }
    depth_before.push(d);

    // `catch_unwind` containment ranges (1-based inclusive).
    let contained_ranges: Vec<(usize, usize)> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.code.contains("catch_unwind"))
        .map(|(idx, _)| scanner::statement_extent(lines, idx + 1))
        .collect();
    let is_contained =
        |line: usize| contained_ranges.iter().any(|&(s, e)| line >= s && line <= e);

    // Impl contexts: (type, start line, end line), found by brace
    // matching from each `impl` header.
    let mut impls: Vec<(String, usize, usize)> = Vec::new();
    // Struct defs likewise.
    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        if let Some(ty) = impl_type(code) {
            if let Some(end) = block_end(lines, idx, code.find('{')) {
                impls.push((ty, idx + 1, end));
            }
        }
        if let Some(name) = header_name(code, "struct ") {
            // Only brace-bodied structs have fields worth collecting.
            if code.contains('{') || lines.get(idx + 1).is_some_and(|l| l.code.contains('{')) {
                let open = if code.contains('{') { idx } else { idx + 1 };
                if let Some(end) = block_end(lines, open, lines[open].code.find('{')) {
                    let fields = collect_fields(lines, open, end);
                    ws.structs.push(StructDef { name, file: m.rel_path.clone(), fields });
                }
            }
        }
        if let Some(rest) = after_token(code, "static ") {
            // `static NAME: Type = …` (skip `ref` from lazy_static-style
            // macros; none in this workspace, but cheap to guard).
            let rest = rest.trim_start_matches("mut ").trim_start();
            let name: String = rest.chars().take_while(|c| ident_char(*c)).collect();
            let after = &rest[name.len()..];
            if !name.is_empty() && after.trim_start().starts_with(':') {
                let ty = after.trim_start()[1..]
                    .split(['=', ';'])
                    .next()
                    .unwrap_or("")
                    .trim()
                    .to_string();
                ws.statics.push(StaticDef {
                    name,
                    ty,
                    file: m.rel_path.clone(),
                    line: idx + 1,
                });
            }
        }
    }

    // Function items.
    let mut file_items: Vec<Item> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let Some(rest) = after_token(&line.code, "fn ") else { continue };
        let name: String = rest.chars().take_while(|c| ident_char(*c)).collect();
        if name.is_empty() {
            continue; // `fn(` pointer type
        }
        // Signature: decl line through the opening brace or `;`.
        let mut sig = String::new();
        let mut open_line: Option<usize> = None;
        let mut bodyless = false;
        for (off, l) in lines[idx..lines.len().min(idx + 16)].iter().enumerate() {
            sig.push_str(&l.code);
            sig.push(' ');
            if let Some(brace) = l.code.find('{') {
                // A `;` before the `{` on the same line means a bodyless
                // declaration followed by something else.
                if l.code[..brace].contains(';') && off == 0 {
                    bodyless = true;
                }
                open_line = Some(idx + off);
                break;
            }
            if l.code.contains(';') {
                bodyless = true;
                break;
            }
        }
        let body = match (bodyless, open_line) {
            (false, Some(open)) => {
                let end = block_end(lines, open, lines[open].code.find('{'));
                (open + 1, end.unwrap_or(lines.len()))
            }
            _ => (0, 0),
        };
        let self_type = impls
            .iter()
            .find(|(_, s, e)| idx >= *s && idx < *e)
            .map(|(t, _, _)| t.clone());
        file_items.push(Item {
            name,
            self_type,
            file: m.rel_path.clone(),
            line: idx + 1,
            body,
            is_test: line.in_test,
            signature: sig,
            calls: Vec::new(),
            panics: Vec::new(),
        });
    }

    // Attribute each body line to the *innermost* enclosing item, so a
    // nested fn's calls are not double-counted against its parent.
    for line_no in 1..=lines.len() {
        let owner = file_items
            .iter_mut()
            .filter(|it| it.body.0 != 0 && line_no >= it.body.0 && line_no <= it.body.1)
            .min_by_key(|it| it.body.1 - it.body.0);
        let Some(item) = owner else { continue };
        let l = &lines[line_no - 1];
        collect_calls(&l.code, line_no, is_contained(line_no), &mut item.calls);
        collect_panics(m, line_no, &mut item.panics);
    }

    // A free call whose name is `let`-bound in the same body is a closure
    // invocation, not a free-fn call — and since a local shadows any fn
    // of the same name in Rust, dropping the edge cannot hide a real one.
    for it in &mut file_items {
        if it.body.0 == 0 {
            continue;
        }
        let mut locals: Vec<String> = Vec::new();
        for ln in it.body.0..=it.body.1 {
            let_bound_names(&lines[ln - 1].code, &mut locals);
        }
        it.calls.retain(|c| !(c.kind == CallKind::Free && locals.contains(&c.name)));
    }

    ws.items.extend(file_items);
}

/// `impl Type {` / `impl Trait for Type {` → the implementing type's
/// last path segment (generics stripped).
fn impl_type(code: &str) -> Option<String> {
    let rest = after_token(code, "impl")?;
    // Skip generic params: `impl<T: Ord> Foo<T>`.
    let rest = if let Some(r) = rest.strip_prefix('<') {
        let mut depth = 1;
        let mut cut = r.len();
        for (i, c) in r.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        &r[cut..]
    } else {
        rest
    };
    let rest = rest.trim_start();
    let target = match rest.find(" for ") {
        Some(pos) => rest[pos + 5..].trim_start(),
        None => rest,
    };
    let ty: String = target
        .chars()
        .take_while(|c| ident_char(*c) || *c == ':')
        .collect();
    let ty = ty.rsplit("::").next().unwrap_or(&ty).to_string();
    if ty.is_empty() { None } else { Some(ty) }
}

/// The identifier following `pat` when `pat` occurs at a token boundary.
fn after_token<'a>(code: &'a str, pat: &str) -> Option<&'a str> {
    let bare = pat.trim_end();
    let mut from = 0;
    while let Some(rel) = code[from..].find(pat) {
        let idx = from + rel;
        let boundary = idx == 0
            || !code[..idx].chars().next_back().is_some_and(ident_char);
        if boundary {
            return Some(code[idx + pat.len()..].trim_start());
        }
        from = idx + bare.len();
    }
    None
}

/// `struct Name` header → `Name`.
fn header_name(code: &str, kw: &str) -> Option<String> {
    let rest = after_token(code, kw)?;
    let name: String = rest.chars().take_while(|c| ident_char(*c)).collect();
    if name.is_empty() { None } else { Some(name) }
}

/// The 1-based line on which the block opened at `open_idx` (0-based
/// line, char offset of its `{`) closes.
fn block_end(lines: &[ScanLine], open_idx: usize, open_col: Option<usize>) -> Option<usize> {
    let col = open_col?;
    let mut depth = 0i64;
    for (off, line) in lines[open_idx..].iter().enumerate() {
        let code = if off == 0 { &line.code[col..] } else { &line.code[..] };
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(open_idx + off + 1);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Fields of a struct body: `name: Type,` lines between `open` and `end`.
fn collect_fields(lines: &[ScanLine], open: usize, end: usize) -> Vec<Field> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate().take(end).skip(open) {
        let code = line.code.trim();
        let code = code.strip_prefix("pub ").unwrap_or(code);
        let code = code.strip_prefix("pub(crate) ").unwrap_or(code);
        let Some(colon) = code.find(':') else { continue };
        let name = code[..colon].trim();
        if name.is_empty() || !name.chars().all(ident_char) {
            continue; // not a plain field line (method sig, match arm, …)
        }
        let ty = code[colon + 1..].trim_end_matches(',').trim().to_string();
        if ty.is_empty() {
            continue;
        }
        out.push(Field { name: name.to_string(), ty, line: idx + 1 });
    }
    out
}

pub(crate) fn ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Appends every `let [mut] <ident>` binding name on this code line.
fn let_bound_names(code: &str, out: &mut Vec<String>) {
    let mut rest = code;
    while let Some(pos) = rest.find("let ") {
        let boundary = pos == 0
            || !ident_char(rest[..pos].chars().next_back().unwrap_or(' '));
        let after = rest[pos + 4..].trim_start().trim_start_matches("mut ").trim_start();
        if boundary {
            let name: String = after.chars().take_while(|c| ident_char(*c)).collect();
            if !name.is_empty() && !name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                out.push(name);
            }
        }
        rest = &rest[pos + 4..];
    }
}

/// Call sites on one code line: every identifier directly followed by
/// `(`, classified by what precedes it.
fn collect_calls(code: &str, line: usize, contained: bool, out: &mut Vec<CallSite>) {
    let bytes: Vec<char> = code.chars().collect();
    let mut i = 0usize;
    while i < bytes.len() {
        if !ident_char(bytes[i]) || bytes[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && ident_char(bytes[i]) {
            i += 1;
        }
        if bytes.get(i) != Some(&'(') {
            continue;
        }
        let name: String = bytes[start..i].iter().collect();
        if KEYWORDS.contains(&name.as_str()) {
            continue;
        }
        // `fn name(` is a declaration, not a call (a body that opens on
        // its declaration line would otherwise call itself).
        let before: String = bytes[..start].iter().collect();
        if before.trim_end().ends_with("fn") {
            continue;
        }
        let kind = match (start.checked_sub(1).map(|p| bytes[p]), start.checked_sub(2)) {
            (Some('.'), _) => {
                let recv = receiver_chain(&bytes, start - 1);
                if recv.first().map(String::as_str) == Some("self") && recv.len() == 1 {
                    CallKind::SelfMethod
                } else {
                    CallKind::Method { receiver: recv.last().cloned() }
                }
            }
            (Some(':'), Some(p2)) if bytes[p2] == ':' => {
                // Qualifier: the identifier before the `::`.
                let q_end = start - 2;
                let mut q_start = q_end;
                while q_start > 0 && ident_char(bytes[q_start - 1]) {
                    q_start -= 1;
                }
                let qualifier: String = bytes[q_start..q_end].iter().collect();
                CallKind::Path { qualifier }
            }
            _ => CallKind::Free,
        };
        out.push(CallSite { line, kind, name, contained });
    }
}

/// Walks a receiver chain backwards from the `.` at `dot` (exclusive),
/// returning the dot-separated identifier segments in source order.
/// Balanced `(…)` / `[…]` groups are skipped, so
/// `EVENTS.get_or_init(init).lock()` yields `[EVENTS, get_or_init]` and
/// `self.shards[i].lock()` yields `[self, shards]`. Shared with the lock
/// pass, which matches every segment against the lock registry.
pub(crate) fn receiver_chain(bytes: &[char], dot: usize) -> Vec<String> {
    let mut segments: Vec<String> = Vec::new();
    let mut i = dot; // index of the `.`
    loop {
        // Before the dot: optional balanced group(s), then an identifier.
        let mut j = i;
        while let Some(prev) = j.checked_sub(1).map(|p| bytes[p]) {
            match prev {
                ')' | ']' => {
                    let open = if prev == ')' { '(' } else { '[' };
                    let mut depth = 0i64;
                    let mut k = j;
                    while k > 0 {
                        k -= 1;
                        if bytes[k] == prev {
                            depth += 1;
                        } else if bytes[k] == open {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                    }
                    j = k;
                }
                c if ident_char(c) => break,
                _ => return finish(segments),
            }
        }
        let end = j;
        let mut s = end;
        while s > 0 && ident_char(bytes[s - 1]) {
            s -= 1;
        }
        if s == end {
            return finish(segments);
        }
        segments.push(bytes[s..end].iter().collect());
        if s == 0 || bytes[s - 1] != '.' {
            return finish(segments);
        }
        i = s - 1;
    }

    fn finish(mut segments: Vec<String>) -> Vec<String> {
        segments.reverse();
        segments
    }
}

/// Panic tokens: the panicking calls and macros, plus indexing below.
const PANIC_NEEDLES: [(&str, &str); 7] = [
    (".unwrap()", "`unwrap()`"),
    (".expect(", "`expect()`"),
    (".expect_err(", "`expect_err()`"),
    ("panic!", "`panic!`"),
    ("unreachable!", "`unreachable!`"),
    ("todo!", "`todo!`"),
    ("unimplemented!", "`unimplemented!`"),
];

fn collect_panics(m: &SourceModel, line_no: usize, out: &mut Vec<PanicSite>) {
    let line = &m.lines[line_no - 1];
    if line.in_test {
        return;
    }
    let allowed = m.is_allowed("panic-path", line_no);
    for (needle, label) in PANIC_NEEDLES {
        let hit = if needle.starts_with('.') {
            line.code.contains(needle)
        } else {
            crate::rules::token_matches(&line.code, needle).next().is_some()
        };
        if hit {
            out.push(PanicSite { line: line_no, label: label.to_string(), allowed });
        }
    }
    // Indexing: `x[…]` — `[` directly after an identifier char or a
    // closing bracket. Attribute syntax (`#[…]`), slice types (`[u8; 4]`)
    // and literals (`[a, b]`) all fail the prefix test.
    let chars: Vec<char> = line.code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c == '['
            && i > 0
            && (ident_char(chars[i - 1]) || chars[i - 1] == ')' || chars[i - 1] == ']')
        {
            out.push(PanicSite {
                line: line_no,
                label: "indexing `[…]`".to_string(),
                allowed,
            });
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_of(path: &str, src: &str) -> Workspace {
        extract(&[SourceModel::scan(path, src)])
    }

    #[test]
    fn items_and_impl_types_are_extracted() {
        let src = "impl Server {\n    pub fn handle(&self) {\n        self.submit();\n    }\n}\nfn free_helper() -> u32 {\n    1\n}\n";
        let ws = ws_of("crates/serve/src/server.rs", src);
        assert_eq!(ws.items.len(), 2);
        assert_eq!(ws.items[0].name, "handle");
        assert_eq!(ws.items[0].self_type.as_deref(), Some("Server"));
        assert_eq!(ws.items[0].body, (2, 4));
        assert_eq!(ws.items[1].name, "free_helper");
        assert_eq!(ws.items[1].self_type, None);
    }

    #[test]
    fn call_sites_are_classified() {
        let src = "fn f(s: &Server) {\n    s.go();\n    self.own();\n    Request::parse(x);\n    helper(1);\n    mac!(arg);\n    self.cache.insert(k, v);\n}\n";
        let ws = ws_of("x.rs", src);
        let calls = &ws.items[0].calls;
        let kinds: Vec<(&str, &CallKind)> =
            calls.iter().map(|c| (c.name.as_str(), &c.kind)).collect();
        assert!(kinds.iter().any(|(n, k)| *n == "go"
            && matches!(k, CallKind::Method { receiver: Some(r) } if r == "s")));
        assert!(kinds.iter().any(|(n, k)| *n == "own" && **k == CallKind::SelfMethod));
        assert!(kinds.iter().any(|(n, k)| *n == "parse"
            && matches!(k, CallKind::Path { qualifier } if qualifier == "Request")));
        assert!(kinds.iter().any(|(n, k)| *n == "helper" && **k == CallKind::Free));
        assert!(!kinds.iter().any(|(n, _)| *n == "mac"));
        assert!(kinds.iter().any(|(n, k)| *n == "insert"
            && matches!(k, CallKind::Method { receiver: Some(r) } if r == "cache")));
    }

    #[test]
    fn catch_unwind_marks_calls_contained() {
        let src = "fn f() {\n    let r = std::panic::catch_unwind(|| {\n        danger();\n    });\n    after();\n}\n";
        let ws = ws_of("x.rs", src);
        let calls = &ws.items[0].calls;
        let danger = calls.iter().find(|c| c.name == "danger").unwrap();
        assert!(danger.contained);
        let after = calls.iter().find(|c| c.name == "after").unwrap();
        assert!(!after.contained);
    }

    #[test]
    fn panic_sites_and_indexing() {
        let src = "fn f(v: &[u32], i: usize) -> u32 {\n    let x = v[i];\n    let y: [u8; 4] = [0; 4];\n    #[allow(dead_code)]\n    foo.unwrap();\n    x\n}\n";
        let ws = ws_of("x.rs", src);
        let p = &ws.items[0].panics;
        assert!(p.iter().any(|s| s.line == 2 && s.label.contains("indexing")));
        assert!(!p.iter().any(|s| s.line == 3 || s.line == 4));
        assert!(p.iter().any(|s| s.line == 5 && s.label.contains("unwrap")));
    }

    #[test]
    fn struct_fields_and_statics() {
        let src = "pub struct Server {\n    state: Mutex<QueueState>,\n    pub cache: PlanCache,\n}\nstatic EVENTS: OnceLock<Mutex<Vec<Event>>> = OnceLock::new();\n";
        let ws = ws_of("x.rs", src);
        assert_eq!(ws.structs.len(), 1);
        let s = &ws.structs[0];
        assert_eq!(s.name, "Server");
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[0].name, "state");
        assert_eq!(s.fields[0].ty, "Mutex<QueueState>");
        assert_eq!(ws.statics.len(), 1);
        assert_eq!(ws.statics[0].name, "EVENTS");
        assert!(ws.statics[0].ty.starts_with("OnceLock<Mutex<"));
    }

    #[test]
    fn receiver_chains_skip_balanced_groups() {
        let src = "fn f() {\n    EVENTS.get_or_init(Vec::new).lock();\n    self.shards[i].lock();\n}\n";
        let ws = ws_of("x.rs", src);
        let calls = &ws.items[0].calls;
        let l1 = calls.iter().find(|c| c.name == "lock" && c.line == 2).unwrap();
        assert!(matches!(&l1.kind, CallKind::Method { receiver: Some(r) } if r == "get_or_init"));
        let l2 = calls.iter().find(|c| c.name == "lock" && c.line == 3).unwrap();
        assert!(matches!(&l2.kind, CallKind::Method { receiver: Some(r) } if r == "shards"));
    }
}

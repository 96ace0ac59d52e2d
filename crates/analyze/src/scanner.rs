//! Hand-rolled Rust token scanner — the front end every rule shares.
//!
//! The scanner makes one pass over a source file and produces, per line,
//! three parallel views plus two bits of derived structure:
//!
//! * **code** — the line with comments stripped and string/char literal
//!   *contents* blanked (the delimiting quotes survive, so `foo("bar")`
//!   scans as `foo("")`). Rules pattern-match on this view only, which is
//!   what keeps `panic!` inside a doc comment or a format string from
//!   tripping `panic-path`.
//! * **comment** — the comment text of the line (`//`, `///`, `/* */`,
//!   nested block comments included). Allow directives and ordering
//!   justifications are read from here.
//! * **strings** — the contents of every string literal that *closes* on
//!   the line, in order. `counter-catalog-sync` reads metric names from
//!   this view.
//!
//! On top of the lexed views the scanner marks **test regions** (the body
//! of any item annotated `#[cfg(test)]` or `#[test]`, found by brace
//! matching on the code view) and resolves **allow directives**:
//!
//! ```text
//! // analyze:allow(rule-id) -- why this is sound
//! // analyze:allow(rule-a, rule-b)
//! // analyze:allow-file(rule-id) -- whole-file suppression
//! ```
//!
//! A directive on a code line suppresses that line; a directive on its own
//! line suppresses the next statement — including the whole body when the
//! next statement opens a block (`fn`, `impl`, `mod`), which is how a
//! documented-panic constructor is waived once instead of per line.
//!
//! This is a *scanner*, not a parser: it does not build an AST, and the
//! test-region heuristic keys on the literal attribute text. That trade
//! keeps it dependency-free and fast (the whole workspace scans in
//! milliseconds), in the same spirit as `aqo_obs::json`.

/// One scanned source line: the three lexed views plus the test marker.
#[derive(Debug, Default, Clone)]
pub struct ScanLine {
    /// Code view: comments stripped, literal contents blanked.
    pub code: String,
    /// Comment text (line and block comments, concatenated).
    pub comment: String,
    /// Contents of string literals closing on this line.
    pub strings: Vec<String>,
    /// Inside (or opening/closing) a `#[cfg(test)]` / `#[test]` region.
    pub in_test: bool,
}

/// A suppression range produced by an allow directive.
#[derive(Debug, Clone)]
struct AllowRange {
    rule: String,
    /// 1-based inclusive line range.
    start: usize,
    end: usize,
}

/// A scanned source file: per-line views plus resolved allow ranges.
#[derive(Debug)]
pub struct SourceModel {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Scanned lines, index 0 = line 1.
    pub lines: Vec<ScanLine>,
    allows: Vec<AllowRange>,
}

/// Lexer state across lines.
enum Mode {
    Code,
    LineComment,
    /// Nested depth (Rust block comments nest).
    BlockComment(u32),
    /// Inside `"…"` (escapes honoured).
    Str,
    /// Inside `r"…"` / `r#"…"#` with this many hashes.
    RawStr(u32),
}

impl SourceModel {
    /// Scans `text` into a model. `rel_path` is kept verbatim; rules use
    /// it for scoping, so tests can direct a fixture at any rule's scope
    /// by picking the path.
    pub fn scan(rel_path: &str, text: &str) -> SourceModel {
        let mut lines = lex(text);
        mark_test_regions(&mut lines);
        let allows = resolve_allows(&lines);
        SourceModel { rel_path: rel_path.to_string(), lines, allows }
    }

    /// Whether `rule` is suppressed at 1-based `line` by an allow range.
    pub fn is_allowed(&self, rule: &str, line: usize) -> bool {
        self.allows
            .iter()
            .any(|a| line >= a.start && line <= a.end && (a.rule == rule || a.rule == "*"))
    }

    /// The justification context for 1-based `line`: its own comment plus
    /// the contiguous comment-only block immediately above it.
    pub fn comment_context(&self, line: usize) -> String {
        let mut parts: Vec<&str> = Vec::new();
        let idx = line - 1;
        let mut up = idx;
        while up > 0 {
            let prev = &self.lines[up - 1];
            if prev.code.trim().is_empty() && !prev.comment.trim().is_empty() {
                parts.push(prev.comment.as_str());
                up -= 1;
            } else {
                break;
            }
        }
        parts.reverse();
        if let Some(own) = self.lines.get(idx) {
            parts.push(own.comment.as_str());
        }
        parts.join("\n")
    }
}

/// First pass: split the raw text into per-line code/comment/string views.
fn lex(text: &str) -> Vec<ScanLine> {
    let chars: Vec<char> = text.chars().collect();
    let mut lines: Vec<ScanLine> = Vec::new();
    let mut cur = ScanLine::default();
    let mut cur_string = String::new();
    let mut mode = Mode::Code;
    let mut i = 0usize;

    macro_rules! newline {
        () => {{
            lines.push(std::mem::take(&mut cur));
            if let Mode::LineComment = mode {
                mode = Mode::Code;
            }
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if matches!(mode, Mode::Str | Mode::RawStr(_)) {
                cur_string.push('\n');
            }
            newline!();
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                let next = chars.get(i + 1).copied();
                // A string/byte/raw prefix is only a prefix at a token
                // boundary: in `var"s"` rustc lexes the identifier `var`
                // and then a *normal* string — the trailing `r` must not
                // open raw-string mode (same for `abr"…"` and `b"…"`).
                let at_boundary = i == 0 || !is_ident_char(chars[i - 1]);
                if c == '/' && next == Some('/') {
                    mode = Mode::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(1);
                    i += 2;
                } else if let Some(consumed) =
                    raw_string_prefix(&chars[i..]).filter(|_| at_boundary)
                {
                    // r"…", r#"…"#, br"…" — enter raw-string mode.
                    let hashes = consumed - 1 - usize::from(chars[i] == 'b') - 1;
                    cur.code.push('"');
                    cur_string.clear();
                    mode = Mode::RawStr(hashes as u32);
                    i += consumed;
                } else if c == '"' || (c == 'b' && next == Some('"') && at_boundary) {
                    if c == 'b' {
                        i += 1;
                    }
                    cur.code.push('"');
                    cur_string.clear();
                    mode = Mode::Str;
                    i += 1;
                } else if c == '\'' {
                    // Char literal vs lifetime: a backslash or a
                    // single-char-then-quote pattern means literal.
                    let is_char_lit = matches!(
                        (next, chars.get(i + 2)),
                        (Some('\\'), _) | (Some(_), Some('\''))
                    );
                    if is_char_lit {
                        cur.code.push('\'');
                        i += 1;
                        // Skip contents up to the closing quote. Char
                        // literals never span lines; stopping at `\n`
                        // keeps line counting aligned on malformed input.
                        while i < chars.len() && chars[i] != '\'' && chars[i] != '\n' {
                            if chars[i] == '\\' && chars.get(i + 1).is_some_and(|&n| n != '\n') {
                                i += 1;
                            }
                            i += 1;
                        }
                        if chars.get(i) == Some(&'\'') {
                            cur.code.push('\'');
                            i += 1;
                        }
                    } else {
                        cur.code.push(c);
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            Mode::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            Mode::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    mode = if depth == 1 { Mode::Code } else { Mode::BlockComment(depth - 1) };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    cur_string.push(c);
                    match chars.get(i + 1) {
                        // `\` + newline is a continuation: let the newline
                        // go through the normal handler so line counting
                        // stays aligned.
                        Some('\n') | None => i += 1,
                        Some(&esc) => {
                            cur_string.push(esc);
                            i += 2;
                        }
                    }
                } else if c == '"' {
                    cur.code.push('"');
                    cur.strings.push(std::mem::take(&mut cur_string));
                    mode = Mode::Code;
                    i += 1;
                } else {
                    cur_string.push(c);
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars[i + 1..], hashes) {
                    cur.code.push('"');
                    cur.strings.push(std::mem::take(&mut cur_string));
                    mode = Mode::Code;
                    i += 1 + hashes as usize;
                } else {
                    cur_string.push(c);
                    i += 1;
                }
            }
        }
    }
    lines.push(cur);
    lines
}

/// Whether `c` can appear inside an identifier (used for token-boundary
/// checks when deciding if `r"`/`b"` opens a prefixed string literal).
fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// If `rest` starts a raw string (`r"`, `r#"`, `br##"` …), the number of
/// chars in the opening delimiter; `None` otherwise.
fn raw_string_prefix(rest: &[char]) -> Option<usize> {
    let mut i = 0usize;
    if rest.first() == Some(&'b') {
        i += 1;
    }
    if rest.get(i) != Some(&'r') {
        return None;
    }
    i += 1;
    while rest.get(i) == Some(&'#') {
        i += 1;
    }
    if rest.get(i) == Some(&'"') {
        Some(i + 1)
    } else {
        None
    }
}

/// Whether the chars after a `"` close a raw string with `hashes` hashes.
fn closes_raw(rest: &[char], hashes: u32) -> bool {
    (0..hashes as usize).all(|k| rest.get(k) == Some(&'#'))
}

/// Second pass: mark the body of `#[cfg(test)]` / `#[test]` items by brace
/// matching on the code view.
fn mark_test_regions(lines: &mut [ScanLine]) {
    let mut depth = 0usize;
    let mut pending: Option<usize> = None; // depth at the attribute
    let mut test_stack: Vec<usize> = Vec::new();

    for line in lines.iter_mut() {
        let started_in_test = !test_stack.is_empty();
        let compact: String = line.code.chars().filter(|c| !c.is_whitespace()).collect();
        let has_attr = compact.contains("#[test]") || compact.contains("#[cfg(test)]");
        if has_attr {
            pending = Some(depth);
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending.is_some() {
                        test_stack.push(depth);
                        pending = None;
                    }
                }
                '}' => {
                    if test_stack.last() == Some(&depth) {
                        test_stack.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                // `#[cfg(test)] use …;` — attribute spent on a
                // braceless item.
                ';' if pending == Some(depth) => pending = None,
                _ => {}
            }
        }
        line.in_test = started_in_test || !test_stack.is_empty() || has_attr;
    }
}

/// Third pass: resolve `analyze:allow(…)` directives into line ranges.
fn resolve_allows(lines: &[ScanLine]) -> Vec<AllowRange> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        for (rules, file_scope) in parse_directives(&line.comment) {
            for rule in rules {
                if file_scope {
                    out.push(AllowRange { rule, start: 1, end: lines.len() });
                } else if !line.code.trim().is_empty() {
                    out.push(AllowRange { rule, start: idx + 1, end: idx + 1 });
                } else {
                    let (start, end) = statement_extent(lines, idx + 1);
                    out.push(AllowRange { rule, start, end });
                }
            }
        }
    }
    out
}

/// Parses every `analyze:allow(…)` / `analyze:allow-file(…)` in a comment;
/// returns `(rules, is_file_scope)` per directive.
fn parse_directives(comment: &str) -> Vec<(Vec<String>, bool)> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("analyze:allow") {
        rest = &rest[pos + "analyze:allow".len()..];
        let file_scope = rest.starts_with("-file");
        let after = if file_scope { &rest["-file".len()..] } else { rest };
        if let Some(open) = after.find('(') {
            if let Some(close) = after[open..].find(')') {
                let rules = after[open + 1..open + close]
                    .split(',')
                    .map(|r| r.trim().to_string())
                    .filter(|r| !r.is_empty())
                    .collect();
                out.push((rules, file_scope));
                rest = &after[open + close..];
                continue;
            }
        }
        break;
    }
    out
}

/// The extent of the statement beginning at 1-based line `from`: through
/// the matching close brace when it opens a block, else through the
/// terminating `;` (or the single line). Shared with the symbol layer,
/// which uses it to scope `catch_unwind` containment.
pub(crate) fn statement_extent(lines: &[ScanLine], from: usize) -> (usize, usize) {
    // Skip to the next line that has code.
    let mut start = from;
    while start <= lines.len() && lines[start - 1].code.trim().is_empty() {
        start += 1;
    }
    if start > lines.len() {
        return (from, from);
    }
    let mut depth = 0i64;
    let mut opened = false;
    for (off, line) in lines[start - 1..].iter().enumerate() {
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                ';' if !opened && depth == 0 => return (start, start + off),
                _ => {}
            }
        }
        if opened && depth <= 0 {
            return (start, start + off);
        }
    }
    (start, lines.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_leave_the_code_view() {
        let m = SourceModel::scan(
            "x.rs",
            "let x = \"panic! inside\"; // unwrap() in comment\nlet y = 1; /* expect( */\n",
        );
        assert!(!m.lines[0].code.contains("panic!"));
        assert!(!m.lines[0].code.contains("unwrap"));
        assert_eq!(m.lines[0].strings, vec!["panic! inside".to_string()]);
        assert!(m.lines[0].comment.contains("unwrap()"));
        assert!(!m.lines[1].code.contains("expect"));
    }

    #[test]
    fn raw_strings_and_char_literals() {
        let m = SourceModel::scan(
            "x.rs",
            "let a = r#\"quote \" panic!\"#;\nlet b = '\\n'; let l: &'static str = \"x\";\n",
        );
        assert_eq!(m.lines[0].strings, vec!["quote \" panic!".to_string()]);
        assert!(!m.lines[0].code.contains("panic"));
        // Lifetime survives as code; char contents are blanked.
        assert!(m.lines[1].code.contains("'static"));
        assert_eq!(m.lines[1].strings, vec!["x".to_string()]);
    }

    #[test]
    fn nested_block_comments() {
        let m = SourceModel::scan("x.rs", "/* a /* b */ still comment */ let x = 1;\n");
        assert!(m.lines[0].code.contains("let x = 1;"));
        assert!(m.lines[0].comment.contains("still comment"));
    }

    #[test]
    fn nested_block_comments_span_lines_and_ignore_quotes() {
        // Quotes have no meaning inside a comment, but `/*` still nests
        // (rustc semantics) — everything here is one comment.
        let src = "/* \"/*\" */ let eaten = 1;\n/* /* deep */ still */ let eaten2 = 2;\n*/ let code = 3;\n";
        let m = SourceModel::scan("x.rs", src);
        assert!(m.lines[0].code.trim().is_empty(), "{:?}", m.lines[0]);
        assert!(m.lines[1].code.trim().is_empty(), "{:?}", m.lines[1]);
        assert!(m.lines[2].code.contains("let code = 3;"), "{:?}", m.lines[2]);
    }

    #[test]
    fn multiline_raw_strings_keep_code_and_comment_views_clean() {
        let src = "let s = r##\"line \"# one\n// not a comment\n*/ not a close\n\"##;\nlet after = 1;\n";
        let m = SourceModel::scan("x.rs", src);
        assert!(m.lines[1].comment.is_empty());
        assert!(m.lines[1].code.trim().is_empty());
        assert!(m.lines[2].code.trim().is_empty());
        assert_eq!(
            m.lines[3].strings,
            vec!["line \"# one\n// not a comment\n*/ not a close\n".to_string()]
        );
        assert!(m.lines[4].code.contains("let after"));
    }

    #[test]
    fn raw_prefix_needs_a_token_boundary() {
        // `var"s"` is the identifier `var` followed by a *normal* string;
        // the trailing `r` must not be taken as a raw-string prefix.
        let m = SourceModel::scan("x.rs", "mac!(var\"s\"); let x = 1;\n");
        assert!(m.lines[0].code.contains("var\"\""), "{:?}", m.lines[0]);
        assert!(m.lines[0].code.contains("let x = 1;"));
        assert_eq!(m.lines[0].strings, vec!["s".to_string()]);
        // Same for `abr"…"` (`abr` + string) vs a real `br"…"`.
        let m = SourceModel::scan("x.rs", "mac!(abr\"t\"); let y = br\"raw\";\n");
        assert!(m.lines[0].code.contains("abr\"\""), "{:?}", m.lines[0]);
        assert_eq!(m.lines[0].strings, vec!["t".to_string(), "raw".to_string()]);
    }

    #[test]
    fn unterminated_char_literal_does_not_eat_lines() {
        // `'\` at end of line is malformed; the scanner must not skip the
        // newline looking for a closing quote.
        let m = SourceModel::scan("x.rs", "mac!('\\\nlet next = 1;\n");
        assert_eq!(m.lines.len(), 3); // two source lines + trailing empty
        assert!(m.lines[1].code.contains("let next = 1;"), "{:?}", m.lines[1]);
    }

    #[test]
    fn multiline_strings_close_on_the_last_line() {
        let m = SourceModel::scan("x.rs", "let s = \"line1\nline2\";\nlet t = 3;\n");
        assert!(m.lines[0].strings.is_empty());
        assert_eq!(m.lines[1].strings, vec!["line1\nline2".to_string()]);
        assert!(m.lines[2].code.contains("let t"));
    }

    #[test]
    fn test_regions_are_marked() {
        let src = "fn real() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn real2() {}\n";
        let m = SourceModel::scan("x.rs", src);
        assert!(!m.lines[0].in_test);
        assert!(m.lines[1].in_test); // attribute line
        assert!(m.lines[2].in_test);
        assert!(m.lines[3].in_test);
        assert!(m.lines[4].in_test);
        assert!(!m.lines[5].in_test);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let m = SourceModel::scan("x.rs", "#[cfg(not(test))]\nfn shipped() {}\n");
        assert!(!m.lines[1].in_test);
    }

    #[test]
    fn allow_on_code_line_covers_that_line_only() {
        let src = "let a = x.unwrap(); // analyze:allow(panic-path) -- checked above\nlet b = y.unwrap();\n";
        let m = SourceModel::scan("x.rs", src);
        assert!(m.is_allowed("panic-path", 1));
        assert!(!m.is_allowed("panic-path", 2));
        assert!(!m.is_allowed("other-rule", 1));
    }

    #[test]
    fn allow_on_own_line_covers_next_block() {
        let src = "// analyze:allow(panic-path) -- documented panic\nfn f() {\n    x.unwrap();\n}\nfn g() { y.unwrap(); }\n";
        let m = SourceModel::scan("x.rs", src);
        assert!(m.is_allowed("panic-path", 3));
        assert!(!m.is_allowed("panic-path", 5));
    }

    #[test]
    fn allow_file_covers_everything() {
        let src = "// analyze:allow-file(no-float-in-exact) -- log-domain bridge\nfn f() {}\nfn g() {}\n";
        let m = SourceModel::scan("x.rs", src);
        assert!(m.is_allowed("no-float-in-exact", 3));
    }

    #[test]
    fn comment_context_walks_up() {
        let src = "fn f() {\n    // ordering: counters are independent\n    // and readers join first.\n    a.fetch_add(1, Ordering::Relaxed);\n}\n";
        let m = SourceModel::scan("x.rs", src);
        let ctx = m.comment_context(4);
        assert!(ctx.contains("ordering:"));
        assert!(ctx.contains("join first"));
    }
}

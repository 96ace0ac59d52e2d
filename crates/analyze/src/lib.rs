//! `aqo-analyze` — zero-dependency invariant linter for the aqo
//! workspace.
//!
//! The paper's guarantees (QO_N/QO_H cost semantics, reduction soundness)
//! are only as trustworthy as the code's invariants, and the workspace
//! documents several that ordinary tests rarely catch being broken:
//! exact-cost paths must not drift into floats, relaxed atomics must be
//! justified, the metric catalog must match the code, every search entry
//! point must be cancellable, and the serve hot path must neither panic
//! nor deadlock. This crate enforces all of that mechanically (that the
//! panic-free crates' library code does not unwind is clippy's job, see
//! `docs/ANALYSIS.md`):
//!
//! * [`scanner`] — a hand-rolled Rust token scanner (same no-dependency
//!   policy as `aqo_obs::json`) producing per-line code/comment/string
//!   views, test-region marks, and `analyze:allow` suppression ranges;
//! * [`rules`] — the rule catalog (see `docs/ANALYSIS.md` for rationale
//!   and examples); any finding fails the gate.
//!
//! Two front ends share [`cli_main`]: the `aqo-analyze` binary
//! (`cargo run -p aqo-analyze`) and the `aqo analyze` subcommand. The
//! static rules are one half of the story; the dynamic half (Miri,
//! ThreadSanitizer, and the exhaustive interleaving models in
//! `aqo_core::interleave`) checks the claims the allow-comments make —
//! DESIGN.md §11 describes the division of labor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod error_kinds;
pub mod locks;
pub mod rules;
pub mod scanner;
pub mod symbols;

use rules::{Finding, Severity};
use scanner::SourceModel;
use std::path::{Path, PathBuf};

/// Everything that can go wrong while analyzing.
#[derive(Debug)]
pub enum AnalyzeError {
    /// Filesystem trouble at `path`.
    Io {
        /// The offending path.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A bad invocation.
    Invalid(String),
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::Io { path, source } => write!(f, "{path}: {source}"),
            AnalyzeError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

fn io_err(path: &Path, source: std::io::Error) -> AnalyzeError {
    AnalyzeError::Io { path: path.display().to_string(), source }
}

/// Locates the workspace root by walking up from `start` until a
/// `Cargo.toml` containing `[workspace]` appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Scans every `crates/*/src/**/*.rs` under `root`, in sorted order.
pub fn scan_workspace(root: &Path) -> Result<Vec<SourceModel>, AnalyzeError> {
    let crates_dir = root.join("crates");
    let mut files: Vec<PathBuf> = Vec::new();
    let crates = std::fs::read_dir(&crates_dir).map_err(|e| io_err(&crates_dir, e))?;
    for entry in crates {
        let entry = entry.map_err(|e| io_err(&crates_dir, e))?;
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    let mut models = Vec::with_capacity(files.len());
    for path in files {
        let text = std::fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        models.push(SourceModel::scan(&rel, &text));
    }
    Ok(models)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), AnalyzeError> {
    let entries = std::fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the full rule catalog over the workspace at `root`. Reads
/// `docs/OBSERVABILITY.md`, `docs/SERVING.md`, and `docs/ANALYSIS.md`
/// for the doc-sync rules (a missing doc skips that rule's doc-side
/// checks — fixture workspaces rarely carry docs).
pub fn analyze(root: &Path) -> Result<Vec<Finding>, AnalyzeError> {
    let models = scan_workspace(root)?;
    let docs = root.join("docs");
    let ctx = rules::RuleContext {
        observability_doc: std::fs::read_to_string(docs.join("OBSERVABILITY.md")).ok(),
        serving_doc: std::fs::read_to_string(docs.join("SERVING.md")).ok(),
        analysis_doc: std::fs::read_to_string(docs.join("ANALYSIS.md")).ok(),
    };
    Ok(rules::run_all(&models, &ctx))
}

/// Renders findings as `path:line: severity [rule] message` lines, with
/// indented witness lines (call chain / lock cycle) where present.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: {} [{}] {}\n",
            f.path, f.line, f.severity, f.rule, f.message
        ));
        if !f.chain.is_empty() {
            out.push_str(&format!("    chain: {}\n", f.chain.join(" -> ")));
        }
        if !f.cycle.is_empty() {
            out.push_str(&format!("    cycle: {}\n", f.cycle.join(" -> ")));
        }
    }
    out
}

/// Renders the findings as one JSON document, schema `aqo-analyze/v3`:
/// `findings` (with per-finding `chain` / `cycle` witness arrays, present
/// only when non-empty) and their `total`.
pub fn render_json(findings: &[Finding]) -> String {
    use aqo_obs::json::escape_into;
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"aqo-analyze/v3\",\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"rule\": ");
        escape_into(&mut out, f.rule);
        out.push_str(", \"severity\": ");
        escape_into(&mut out, &f.severity.to_string());
        out.push_str(", \"path\": ");
        escape_into(&mut out, &f.path);
        out.push_str(&format!(", \"line\": {}, \"message\": ", f.line));
        escape_into(&mut out, &f.message);
        for (key, list) in [("chain", &f.chain), ("cycle", &f.cycle)] {
            if !list.is_empty() {
                out.push_str(&format!(", \"{key}\": ["));
                for (j, hop) in list.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    escape_into(&mut out, hop);
                }
                out.push(']');
            }
        }
        out.push('}');
    }
    out.push_str(&format!("\n  ],\n  \"total\": {}\n}}\n", findings.len()));
    out
}

/// Parsed command-line options shared by both front ends.
struct Options {
    root: Option<PathBuf>,
    json: bool,
    rule: Option<String>,
    explain: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, AnalyzeError> {
    let mut opts = Options {
        root: None,
        json: false,
        rule: None,
        explain: None,
    };
    let mut i = 0usize;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| AnalyzeError::Invalid(format!("{} requires a value", args[i])))
        };
        match args[i].as_str() {
            "--json" => opts.json = true,
            "--root" => {
                opts.root = Some(PathBuf::from(value(i)?));
                i += 1;
            }
            "--rule" => {
                let r = value(i)?;
                if !rules::RULE_IDS.contains(&r.as_str()) {
                    return Err(AnalyzeError::Invalid(format!(
                        "unknown rule `{r}` (rules: {})",
                        rules::RULE_IDS.join(", ")
                    )));
                }
                opts.rule = Some(r);
                i += 1;
            }
            "--explain" => {
                let r = value(i)?;
                if !rules::RULE_IDS.contains(&r.as_str()) {
                    return Err(AnalyzeError::Invalid(format!(
                        "unknown rule `{r}` (rules: {})",
                        rules::RULE_IDS.join(", ")
                    )));
                }
                opts.explain = Some(r);
                i += 1;
            }
            other => {
                return Err(AnalyzeError::Invalid(format!(
                    "analyze: unknown flag `{other}` (flags: --json --root <dir> \
                     --rule <id> --explain <id>)"
                )))
            }
        }
        i += 1;
    }
    Ok(opts)
}

/// The shared CLI entry point. Returns the process exit code: `0` no
/// findings, `1` any finding, `2` bad invocation or I/O trouble. Output
/// goes to stdout (report) and stderr (summary).
pub fn cli_main(args: &[String]) -> i32 {
    match cli_inner(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("aqo-analyze: error: {e}");
            2
        }
    }
}

/// Renders one rule's catalog entry — the `--explain <rule>` output,
/// from the same [`rules::RULE_DOCS`] table docs/ANALYSIS.md is kept in
/// sync with.
pub fn explain_rule(id: &str) -> Option<String> {
    let doc = rules::RULE_DOCS.iter().find(|d| d.id == id)?;
    Some(format!(
        "{} ({})\n\n{}\n\n{}\n\nSee docs/ANALYSIS.md for the full catalog.\n",
        doc.id, doc.severity, doc.summary, doc.detail
    ))
}

fn cli_inner(args: &[String]) -> Result<i32, AnalyzeError> {
    let opts = parse_options(args)?;
    if let Some(id) = &opts.explain {
        // Validated by parse_options, so the lookup cannot miss.
        print!("{}", explain_rule(id).unwrap_or_default());
        return Ok(0);
    }
    let root = match &opts.root {
        Some(r) => r.clone(),
        None => {
            let cwd = std::env::current_dir().map_err(|e| io_err(Path::new("."), e))?;
            find_workspace_root(&cwd).ok_or_else(|| {
                AnalyzeError::Invalid(
                    "no workspace root found above the current directory; pass --root".into(),
                )
            })?
        }
    };
    let mut findings = analyze(&root)?;
    if let Some(rule) = &opts.rule {
        findings.retain(|f| f.rule == rule.as_str());
    }

    if opts.json {
        print!("{}", render_json(&findings));
    } else {
        print!("{}", render_text(&findings));
    }
    let errors = findings.iter().filter(|f| f.severity == Severity::Error).count();
    let warnings = findings.len() - errors;
    eprintln!(
        "aqo-analyze: {} findings ({errors} errors, {warnings} warnings)",
        findings.len()
    );
    Ok(if findings.is_empty() { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_and_reject() {
        let ok = parse_options(&["--json".into(), "--rule".into(), "ordering-audit".into()])
            .unwrap();
        assert!(ok.json);
        assert_eq!(ok.rule.as_deref(), Some("ordering-audit"));
        assert!(parse_options(&["--rule".into(), "nope".into()]).is_err());
        assert!(parse_options(&["--frobnicate".into()]).is_err());
        assert!(parse_options(&["--root".into()]).is_err());
    }

    #[test]
    fn json_report_parses() {
        let mut finding = rules::Finding::new(
            "panic-path",
            Severity::Error,
            "crates/serve/src/x.rs",
            7,
            "a \"quoted\" message",
        );
        finding.chain = vec!["server.rs:Server::handle".into(), "engine.rs:solve".into()];
        let findings = vec![finding];
        let doc = render_json(&findings);
        let parsed = aqo_obs::json::parse(&doc).expect("report is valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(aqo_obs::json::JsonValue::as_str),
            Some("aqo-analyze/v3")
        );
        let f0 = &parsed.get("findings").and_then(aqo_obs::json::JsonValue::as_arr).unwrap()[0];
        assert_eq!(
            f0.get("chain").and_then(aqo_obs::json::JsonValue::as_arr).map(<[_]>::len),
            Some(2)
        );
        assert!(f0.get("cycle").is_none(), "empty witnesses are omitted");
        assert_eq!(
            parsed.get("findings").and_then(aqo_obs::json::JsonValue::as_arr).map(<[_]>::len),
            Some(1)
        );
        assert_eq!(parsed.get("total").and_then(aqo_obs::json::JsonValue::as_u64), Some(1));
    }
}

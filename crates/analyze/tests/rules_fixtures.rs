//! Integration tests over the committed fixture workspace in
//! `tests/fixtures/ws/`, which exercises every rule two ways: a plain hit
//! and an `analyze:allow` suppression. Plus the self-check: the real
//! workspace must have zero findings.

use aqo_analyze::rules::Severity;
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn real_root() -> PathBuf {
    // crates/analyze -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/analyze")
        .to_path_buf()
}

#[test]
fn fixture_findings_hit_every_rule_and_respect_allows() {
    let findings = aqo_analyze::analyze(&fixture_root()).expect("fixture scan");
    let got: Vec<(String, String, usize)> = findings
        .iter()
        .map(|f| (f.rule.to_string(), f.path.clone(), f.line))
        .collect();
    let want: Vec<(String, String, usize)> = [
        ("ordering-audit", "crates/core/src/lib.rs", 19),
        ("ordering-audit", "crates/core/src/lib.rs", 22),
        ("counter-catalog-sync", "crates/core/src/lib.rs", 28),
        ("no-float-in-exact", "crates/core/src/qon.rs", 3),
        ("no-float-in-exact", "crates/core/src/qon.rs", 4),
        ("budget-hook-coverage", "crates/optimizer/src/lib.rs", 6),
        ("counter-catalog-sync", "docs/OBSERVABILITY.md", 11),
        // The seeded known-bad serve crates, one finding each (their
        // allow-annotated twins stay clean).
        ("blocking-under-lock", "crates/serve/src/blocking.rs", 15),
        ("lock-order", "crates/serve/src/lock_cycle.rs", 14),
        ("panic-path", "crates/serve/src/panic_hot.rs", 27),
        ("error-kind-sync", "crates/serve/src/proto.rs", 13),
    ]
    .into_iter()
    .map(|(r, p, l)| (r.to_string(), p.to_string(), l))
    .collect();
    // Sorted by (path, line, rule), same as run_all's output order.
    let mut want_sorted = want.clone();
    want_sorted.sort_by(|a, b| (&a.1, a.2, &a.0).cmp(&(&b.1, b.2, &b.0)));
    assert_eq!(got, want_sorted, "full findings: {findings:#?}");

    // Severity split: budget-hook + SeqCst are warnings, the rest errors.
    let warnings: Vec<_> =
        findings.iter().filter(|f| f.severity == Severity::Warning).collect();
    assert_eq!(warnings.len(), 2, "{warnings:?}");
}

/// The seeded lock cycle fails with its witness cycle printed, and the
/// reachable panic carries the full entry→site call chain.
#[test]
fn fixture_witnesses_name_the_cycle_and_the_chain() {
    let findings = aqo_analyze::analyze(&fixture_root()).expect("fixture scan");

    let cycle = findings
        .iter()
        .find(|f| f.rule == "lock-order" && !f.cycle.is_empty())
        .expect("seeded lock cycle");
    assert_eq!(cycle.cycle, vec!["Pair.a", "Pair.b", "Pair.a"]);
    assert!(cycle.message.contains("witnesses:"), "{cycle:?}");
    assert!(cycle.message.contains("lock_cycle.rs:14"), "{cycle:?}");
    assert!(cycle.message.contains("lock_cycle.rs:20"), "{cycle:?}");

    let panic = findings
        .iter()
        .find(|f| f.rule == "panic-path")
        .expect("seeded reachable panic");
    assert_eq!(
        panic.chain,
        vec![
            "panic_hot.rs:Hot::handle",
            "panic_hot.rs:Hot::step",
            "panic_hot.rs:boom"
        ]
    );

    // Both witnesses survive the text rendering (what CI logs show).
    let text = aqo_analyze::render_text(&findings);
    assert!(text.contains("cycle: Pair.a -> Pair.b -> Pair.a"), "{text}");
    assert!(text.contains("chain: panic_hot.rs:Hot::handle ->"), "{text}");
}

#[test]
fn cli_exit_codes() {
    let root = fixture_root();
    let s = |v: &str| v.to_string();
    // Any finding: exit 1.
    assert_eq!(aqo_analyze::cli_main(&[s("--root"), s(root.to_str().unwrap())]), 1);
    // Bad flag / bad rule: exit 2.
    assert_eq!(aqo_analyze::cli_main(&[s("--frobnicate")]), 2);
    assert_eq!(aqo_analyze::cli_main(&[s("--rule"), s("nope")]), 2);
    // A rule with findings: exit 1.
    assert_eq!(
        aqo_analyze::cli_main(&[
            s("--root"),
            s(root.to_str().unwrap()),
            s("--rule"),
            s("no-float-in-exact"),
        ]),
        1
    );
    // --explain needs no workspace at all: exit 0 for a known rule,
    // exit 2 for an unknown one.
    assert_eq!(aqo_analyze::cli_main(&[s("--explain"), s("lock-order")]), 0);
    assert_eq!(aqo_analyze::cli_main(&[s("--explain"), s("nope")]), 2);
}

/// `--explain` output comes from the same table as the doc catalog, and
/// docs/ANALYSIS.md carries a `### `rule`` heading for every rule id —
/// the sync that keeps findings self-serve debuggable.
#[test]
fn explain_and_analysis_doc_cover_every_rule() {
    let doc = std::fs::read_to_string(real_root().join("docs/ANALYSIS.md"))
        .expect("docs/ANALYSIS.md");
    for id in aqo_analyze::rules::RULE_IDS {
        let text = aqo_analyze::explain_rule(id).expect("every rule id has a doc entry");
        assert!(text.starts_with(id), "{id}: {text}");
        assert!(text.contains("docs/ANALYSIS.md"), "{id}: {text}");
        assert!(
            doc.contains(&format!("### `{id}`")),
            "docs/ANALYSIS.md is missing the `### `{id}`` catalog heading"
        );
    }
}

/// The self-check the CI gate relies on: the real workspace has zero
/// findings.
#[test]
fn real_workspace_has_zero_findings() {
    let findings = aqo_analyze::analyze(&real_root()).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "analyzer findings on the workspace (fix them, or justify a \
         sanctioned one with `// analyze:allow(<rule>) -- <why>`):\n{}",
        aqo_analyze::render_text(&findings)
    );
}

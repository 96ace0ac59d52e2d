//! End-to-end tests of the `aqo` CLI binary: generate → optimize round
//! trips through the on-disk formats.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn aqo(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_aqo"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn gen_then_optimize_roundtrip() {
    let (ok, instance, _) = aqo(&["gen", "chain", "5", "7"]);
    assert!(ok);
    assert!(instance.starts_with("qon\n"));
    let dir = std::env::temp_dir().join("aqo_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chain5.qon");
    std::fs::write(&path, &instance).unwrap();

    let (ok, dp_out, _) = aqo(&["optimize", path.to_str().unwrap()]);
    assert!(ok, "dp optimize failed");
    assert!(dp_out.contains("cost"));

    // Exhaustive must agree with the DP on the reported cost line.
    let (ok, ex_out, _) = aqo(&["optimize", path.to_str().unwrap(), "--method", "exhaustive"]);
    assert!(ok);
    let cost_of = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("cost"))
            .map(|l| l.split(':').nth(1).unwrap().trim().to_string())
            .expect("cost line")
    };
    assert_eq!(cost_of(&dp_out), cost_of(&ex_out));

    // IKKBZ applies (chains are trees) and may not beat the exact optimum.
    let (ok, ik_out, _) = aqo(&["optimize", path.to_str().unwrap(), "--method", "ikkbz"]);
    assert!(ok);
    assert_eq!(cost_of(&ik_out), cost_of(&dp_out), "trees: IKKBZ is exact");
}

#[test]
fn optimize_with_threads_matches_sequential_cost() {
    let (ok, instance, _) = aqo(&["gen", "cycle", "6", "11"]);
    assert!(ok);
    let dir = std::env::temp_dir().join("aqo_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cycle6.qon");
    std::fs::write(&path, &instance).unwrap();

    let cost_of = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("cost"))
            .map(|l| l.split(':').nth(1).unwrap().trim().to_string())
            .expect("cost line")
    };
    let (ok, seq_out, err) = aqo(&["optimize", path.to_str().unwrap(), "--threads", "1"]);
    assert!(ok, "stderr: {err}");
    for threads in ["2", "0"] {
        for method in ["dp", "ccp", "exhaustive"] {
            let (ok, par_out, err) = aqo(&[
                "optimize",
                path.to_str().unwrap(),
                "--method",
                method,
                "--threads",
                threads,
            ]);
            assert!(ok, "{method} --threads {threads} failed: {err}");
            assert_eq!(
                cost_of(&seq_out),
                cost_of(&par_out),
                "{method} --threads {threads} changed the optimum"
            );
        }
    }
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let (ok, _, err) = aqo(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("usage"));
}

#[test]
fn value_flags_without_value_are_usage_errors() {
    let dir = std::env::temp_dir().join("aqo_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("badflags.qon");
    let (ok, instance, _) = aqo(&["gen", "chain", "4", "1"]);
    assert!(ok);
    std::fs::write(&path, &instance).unwrap();

    for flag in [
        "--trace-json",
        "--report-json",
        "--threads",
        "--timeout-ms",
        "--max-expansions",
        "--fallback",
    ] {
        let (ok, _, err) = aqo(&["optimize", path.to_str().unwrap(), flag]);
        assert!(!ok, "{flag} without value should fail");
        assert!(err.contains("requires a value"), "{flag}: stderr was {err}");
        let (ok, _, err) = aqo(&["optimize-qoh", path.to_str().unwrap(), flag]);
        assert!(!ok, "optimize-qoh {flag} without value should fail");
        assert!(err.contains("requires a value"), "{flag}: stderr was {err}");
    }
}

/// `--method`, `--a` and `--e` given last, without their value, are usage
/// errors (exit 1) rather than silently running with the default.
#[test]
fn method_and_reduction_flags_without_value_are_usage_errors() {
    let dir = std::env::temp_dir().join("aqo_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let qon = dir.join("nomethod.qon");
    let (ok, instance, _) = aqo(&["gen", "chain", "5", "1"]);
    assert!(ok);
    std::fs::write(&qon, &instance).unwrap();
    let cnf = dir.join("novalue.cnf");
    std::fs::write(&cnf, "p cnf 3 2\n1 2 3 0\n-1 2 -3 0\n").unwrap();
    let (qon, cnf) = (qon.to_str().unwrap(), cnf.to_str().unwrap());

    for args in [
        ["optimize", qon, "--method"],
        ["optimize-qoh", qon, "--method"],
        ["reduce-3sat", cnf, "--a"],
        ["reduce-3sat", cnf, "--e"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_aqo")).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: stderr was {stderr}");
        assert!(stderr.contains("requires a value"), "{args:?}: stderr was {stderr}");
    }
}

#[test]
fn trace_json_and_metrics_roundtrip_through_trace_check() {
    let dir = std::env::temp_dir().join("aqo_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let qon = dir.join("trace8.qon");
    let trace = dir.join("trace8.jsonl");
    let (ok, instance, _) = aqo(&["gen", "chain", "8", "5"]);
    assert!(ok);
    std::fs::write(&qon, &instance).unwrap();

    let (ok, _, err) = aqo(&[
        "optimize",
        qon.to_str().unwrap(),
        "--threads",
        "2",
        "--metrics",
        "--trace-json",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {err}");
    assert!(err.contains("metrics:"), "--metrics prints the summary: {err}");
    assert!(err.contains("optimizer.engine.subsets_expanded"), "stderr: {err}");

    let (ok, out, err) = aqo(&["trace-check", trace.to_str().unwrap()]);
    assert!(ok, "trace-check failed: {err}");
    assert!(out.contains("tier_start"), "stdout: {out}");
    assert!(out.contains("span"), "stdout: {out}");
    assert!(out.trim_end().ends_with("ok"), "stdout: {out}");
}

#[test]
fn trace_check_rejects_garbage_and_missing_events() {
    let dir = std::env::temp_dir().join("aqo_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("garbage.jsonl");
    std::fs::write(&bad, "not json at all\n").unwrap();
    let (ok, _, _) = aqo(&["trace-check", bad.to_str().unwrap()]);
    assert!(!ok, "garbage journal must fail validation");

    let empty_types = dir.join("nospans.jsonl");
    std::fs::write(&empty_types, "{\"seq\": 0, \"us\": 1, \"type\": \"budget\"}\n").unwrap();
    let (ok, _, err) = aqo(&["trace-check", empty_types.to_str().unwrap()]);
    assert!(!ok);
    assert!(err.contains("span"), "stderr: {err}");

    // A journal with driver activity but no tier_start is broken.
    let no_tier_start = dir.join("notierstart.jsonl");
    std::fs::write(
        &no_tier_start,
        "{\"seq\": 0, \"us\": 1, \"type\": \"span\", \"name\": \"x\"}\n\
         {\"seq\": 1, \"us\": 2, \"type\": \"fallback\"}\n",
    )
    .unwrap();
    let (ok, _, err) = aqo(&["trace-check", no_tier_start.to_str().unwrap()]);
    assert!(!ok);
    assert!(err.contains("tier_start"), "stderr: {err}");
}

#[test]
fn trace_check_accepts_explicit_method_journal() {
    // `--method dp` bypasses the driver, so its journal has spans but no
    // tier events; trace-check must still accept what the tool itself wrote.
    let dir = std::env::temp_dir().join("aqo_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let qon = dir.join("explicit8.qon");
    let trace = dir.join("explicit8.jsonl");
    let (ok, instance, _) = aqo(&["gen", "chain", "8", "3"]);
    assert!(ok);
    std::fs::write(&qon, &instance).unwrap();

    let (ok, _, err) = aqo(&[
        "optimize",
        qon.to_str().unwrap(),
        "--method",
        "dp",
        "--trace-json",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {err}");

    let (ok, out, err) = aqo(&["trace-check", trace.to_str().unwrap()]);
    assert!(ok, "trace-check rejected an explicit-method journal: {err}");
    assert!(out.contains("span"), "stdout: {out}");
    assert!(out.trim_end().ends_with("ok"), "stdout: {out}");
}

#[test]
fn report_json_is_machine_readable() {
    let dir = std::env::temp_dir().join("aqo_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let qon = dir.join("report6.qon");
    let report = dir.join("report6.json");
    let (ok, instance, _) = aqo(&["gen", "chain", "6", "2"]);
    assert!(ok);
    std::fs::write(&qon, &instance).unwrap();

    let (ok, _, err) = aqo(&[
        "optimize",
        qon.to_str().unwrap(),
        "--report-json",
        report.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {err}");
    let json = std::fs::read_to_string(&report).expect("report written");
    assert!(json.contains("\"tier\": \"dp\""), "json: {json}");
    assert!(json.contains("\"exact\": true"), "json: {json}");
    assert!(json.contains("\"failures\": []"), "json: {json}");
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

#[test]
fn injected_faults_appear_in_trace_journal() {
    let dir = std::env::temp_dir().join("aqo_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let qon = dir.join("faults6.qon");
    let trace = dir.join("faults6.jsonl");
    let (ok, instance, _) = aqo(&["gen", "chain", "6", "9"]);
    assert!(ok);
    std::fs::write(&qon, &instance).unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_aqo"))
        .args([
            "optimize",
            qon.to_str().unwrap(),
            "--trace-json",
            trace.to_str().unwrap(),
            "--metrics",
        ])
        .env("AQO_FAULTS", "qon::dp=err*2")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("faults.injected.qon::dp"), "stderr: {stderr}");

    let journal = std::fs::read_to_string(&trace).expect("trace written");
    let injected = journal
        .lines()
        .filter(|l| l.contains("\"type\": \"fault_injected\""))
        .count();
    assert_eq!(injected, 2, "two transient faults were injected: {journal}");
    let retries = journal.lines().filter(|l| l.contains("\"type\": \"retry\"")).count();
    assert_eq!(retries, 2, "each injection triggered a retry: {journal}");
}

#[test]
fn clique_subcommand_on_dimacs() {
    let dir = std::env::temp_dir().join("aqo_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("k4.dimacs");
    std::fs::write(&path, "p edge 5 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n").unwrap();
    let (ok, out, _) = aqo(&["clique", path.to_str().unwrap()]);
    assert!(ok);
    assert!(out.contains("omega  : 4"), "output: {out}");
}

#[test]
fn reduce_3sat_emits_instance() {
    let dir = std::env::temp_dir().join("aqo_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.cnf");
    std::fs::write(&path, "p cnf 3 2\n1 2 3 0\n-1 2 -3 0\n").unwrap();
    let (ok, out, err) = aqo(&["reduce-3sat", path.to_str().unwrap()]);
    assert!(ok, "stderr: {err}");
    assert!(out.starts_with("qon\n"));
    assert!(err.contains("Lemma 3"));
    // The emitted instance parses back.
    let inst = aqo_core::textio::qon_from_text(&out).unwrap();
    assert!(inst.n() > 0);
}

#[test]
fn analyze_subcommand_gates_clean_and_emits_json() {
    // From inside the workspace the linter finds the root by itself; the
    // tree must have no findings.
    let out = Command::new(env!("CARGO_BIN_EXE_aqo"))
        .args(["analyze", "--json"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "analyze found problems: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"schema\": \"aqo-analyze/v3\""), "{stdout}");
    assert!(stdout.contains("\"total\": 0"), "{stdout}");
    assert!(stderr.contains("0 findings"), "{stderr}");

    // Linter usage errors exit 2 and do NOT print the aqo usage banner
    // (findings and linter flags are aqo-analyze's own surface).
    let out = Command::new(env!("CARGO_BIN_EXE_aqo"))
        .args(["analyze", "--frobnicate"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("usage:"), "{stderr}");
    assert!(stderr.contains("unknown flag"), "{stderr}");

    // The baseline flags are gone with the baseline gate.
    let out = Command::new(env!("CARGO_BIN_EXE_aqo"))
        .args(["analyze", "--write-baseline"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

/// A reader that closes the pipe early, as `aqo gen clique 150 1 | head
/// -c 10` does, ends the command quietly with exit 0: the instance text is
/// far larger than the pipe buffer, so the write hits the closed pipe.
#[test]
fn closed_stdout_pipe_exits_zero_without_a_panic() {
    use std::io::Read;
    let mut child = Command::new(env!("CARGO_BIN_EXE_aqo"))
        .args(["gen", "clique", "150", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut head = [0u8; 10];
    child.stdout.take().expect("piped stdout").read_exact(&mut head).expect("10 bytes");
    let out = child.wait_with_output().expect("child exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
}

#[test]
fn version_flag_prints_version_and_exits_zero() {
    for flag in ["--version", "-V"] {
        let (ok, out, err) = aqo(&[flag]);
        assert!(ok, "{flag} must exit 0: {err}");
        assert_eq!(out.trim(), concat!("aqo ", env!("CARGO_PKG_VERSION")));
        assert!(err.is_empty(), "{flag} prints nothing to stderr: {err}");
    }
}

#[test]
fn bare_invocation_prints_full_synopsis() {
    let (ok, _, err) = aqo(&[]);
    assert!(!ok, "bare `aqo` exits nonzero");
    assert!(err.contains("missing subcommand"), "{err}");
    // The synopsis must enumerate every subcommand, including the
    // service surface, so operators can discover it from the banner.
    for cmd in [
        "aqo gen", "aqo optimize", "aqo optimize-qoh", "aqo serve", "aqo request",
        "aqo loadgen", "aqo trace-check", "aqo analyze", "aqo reduce-3sat",
        "aqo clique", "--version",
    ] {
        assert!(err.contains(cmd), "synopsis is missing `{cmd}`:\n{err}");
    }
}

#[test]
fn unknown_subcommand_is_named_in_the_error() {
    let (ok, _, err) = aqo(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown subcommand `frobnicate`"), "{err}");
    assert!(err.contains("usage:"), "bad invocations still get the banner: {err}");
}

#[test]
fn ccp_and_dp_print_identical_output_in_both_modes() {
    let (ok, instance, _) = aqo(&["gen", "cycle", "9", "17"]);
    assert!(ok);
    let dir = std::env::temp_dir().join("aqo_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cycle9.qon");
    std::fs::write(&path, &instance).unwrap();

    // `ccp` is an alias of `dp`: one engine, whose state space follows
    // --no-cartesian.
    for mode in [&[][..], &["--no-cartesian"][..]] {
        let run = |method: &str, threads: &str| {
            let mut args = vec!["optimize", path.to_str().unwrap(), "--method", method];
            args.extend_from_slice(mode);
            args.extend_from_slice(&["--threads", threads]);
            let (ok, out, err) = aqo(&args);
            assert!(ok, "{method} {mode:?} --threads {threads} failed: {err}");
            out
        };
        let dp_out = run("dp", "1");
        for threads in ["1", "2"] {
            assert_eq!(dp_out, run("ccp", threads), "{mode:?} --threads {threads}");
        }
    }
}

#[test]
fn oversized_instances_get_structured_rejections_not_mask_wraparound() {
    let dir = std::env::temp_dir().join("aqo_cli_test");
    std::fs::create_dir_all(&dir).unwrap();

    // n = 28: over the all-subsets cap, inside the connected-mode cap.
    // With cartesian products both names must refuse with a structured
    // error (no usage banner — the invocation was fine); without them
    // they just answer.
    let (ok, instance, _) = aqo(&["gen", "chain", "28", "5"]);
    assert!(ok);
    let p28 = dir.join("chain28.qon");
    std::fs::write(&p28, &instance).unwrap();
    for method in ["dp", "ccp"] {
        let (ok, _, err) = aqo(&["optimize", p28.to_str().unwrap(), "--method", method]);
        assert!(!ok, "{method} must reject the 28-chain with cartesian products");
        assert!(err.contains("handles n <= 25"), "{method}: {err}");
        assert!(!err.contains("usage:"), "not a usage error: {err}");
        let (ok, out, err) =
            aqo(&["optimize", p28.to_str().unwrap(), "--method", method, "--no-cartesian"]);
        assert!(ok, "{method} --no-cartesian handles the 28-chain: {err}");
        assert!(out.contains("exact"), "{out}");
    }

    // n = 33: past the u32 masks in both modes, under both names.
    let (ok, instance, _) = aqo(&["gen", "chain", "33", "5"]);
    assert!(ok);
    let p33 = dir.join("chain33.qon");
    std::fs::write(&p33, &instance).unwrap();
    for method in ["dp", "ccp"] {
        for mode in [&[][..], &["--no-cartesian"][..]] {
            let mut args = vec!["optimize", p33.to_str().unwrap(), "--method", method];
            args.extend_from_slice(mode);
            let (ok, _, err) = aqo(&args);
            assert!(!ok, "{method} {mode:?} must reject n = 33");
            assert!(err.contains("handles n <="), "{method} {mode:?}: {err}");
        }
    }
    // The polynomial methods still answer at n = 33.
    let (ok, _, err) =
        aqo(&["optimize", p33.to_str().unwrap(), "--method", "greedy", "--no-cartesian"]);
    assert!(ok, "greedy at n = 33: {err}");

    // QO_H: exhaustive search stops at n = 9. At n = 10 it exits 1 with a
    // structured error (not 101 from a panic); greedy still answers.
    let mut qoh = String::from("qoh\nvertices 10\nmemory 1000000\n");
    for v in 0..10 {
        qoh.push_str(&format!("size {v} {}\n", 100 + 7 * v));
    }
    for v in 1..10 {
        qoh.push_str(&format!("edge {} {v} 1/4\n", v - 1));
    }
    let p10 = dir.join("chain10.qoh");
    std::fs::write(&p10, &qoh).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_aqo"))
        .args(["optimize-qoh", p10.to_str().unwrap(), "--method", "exhaustive"])
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("handles n <= 9"), "{err}");
    assert!(!err.contains("usage:") && !err.contains("panicked"), "{err}");
    let (ok, _, err) = aqo(&["optimize-qoh", p10.to_str().unwrap(), "--method", "greedy"]);
    assert!(ok, "greedy at n = 10: {err}");
}

/// A fresh, empty scratch directory for one test.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `bin` in `dir` and returns (exit code, stdout, stderr). A child
/// still running after 20 s is killed and fails the test, so a command
/// that starts serving or benchmarking instead of rejecting its command
/// line cannot hang the suite.
fn run_in(bin: &str, dir: &Path, args: &[&str]) -> (Option<i32>, String, String) {
    let mut child = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("child status").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("`{args:?}` was still running after 20 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("child output");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Every command `aqo --help` lists rejects an unknown flag by name and
/// answers `--help` with its synopsis, and neither writes a file nor
/// runs: `chaos` would write its default output file, `loadgen` would
/// send requests, `serve` and `top` would run until killed.
#[test]
fn every_command_rejects_unknown_flags_and_answers_help() {
    let dir = fresh_dir("aqo_cli_every_command");
    let aqo = env!("CARGO_BIN_EXE_aqo");
    let (code, banner, err) = run_in(aqo, &dir, &["--help"]);
    assert_eq!(code, Some(0), "{err}");
    let paths: Vec<Vec<&str>> = banner
        .lines()
        .filter_map(|line| line.strip_prefix("  aqo "))
        .map(|line| {
            line.split_whitespace().take_while(|w| !w.starts_with(['<', '[', '-', '#'])).collect()
        })
        .filter(|path: &Vec<&str>| !path.is_empty())
        .collect();
    assert_eq!(paths.len(), 17, "{banner}");
    for path in &paths {
        let (code, out, err) = run_in(aqo, &dir, &[&path[..], &["--bogus"]].concat());
        // `aqo analyze` owns its flags and its exit codes (2: bad flag).
        let want = if path == &["analyze"] { 2 } else { 1 };
        assert_eq!(code, Some(want), "{path:?} --bogus: {out}{err}");
        assert!(err.contains("`--bogus`"), "{path:?} --bogus: {err}");

        let (code, out, err) = run_in(aqo, &dir, &[&path[..], &["--help"]].concat());
        assert_eq!(code, Some(0), "{path:?} --help: {err}");
        let want = format!("usage: aqo {}", path.join(" "));
        assert!(out.starts_with(&want), "{path:?} --help: {out}");
    }

    let experiments = env!("CARGO_BIN_EXE_experiments");
    let (code, _, err) = run_in(experiments, &dir, &["--markdwon"]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("unknown flag `--markdwon`"), "{err}");
    let (code, _, err) = run_in(experiments, &dir, &["E99"]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("unknown experiment `E99`") && err.contains("E1, E2"), "{err}");
    let (code, out, err) = run_in(experiments, &dir, &["--help"]);
    assert_eq!(code, Some(0), "{err}");
    assert!(out.starts_with("usage: experiments [--markdown]"), "{out}");

    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(left.is_empty(), "rejected or --help invocations wrote files: {left:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The synopsis parser: a repeated flag, an extra operand, a flag-shaped
/// value and a thread count over the cap are usage errors before any work
/// starts; operands may follow flags.
#[test]
fn command_lines_are_checked_against_the_synopsis() {
    let dir = fresh_dir("aqo_cli_synopsis");
    let aqo = env!("CARGO_BIN_EXE_aqo");
    let (_, instance, _) = run_in(aqo, &dir, &["gen", "chain", "5", "1"]);
    std::fs::write(dir.join("c5.qon"), instance).unwrap();

    for (args, message) in [
        (
            &["optimize", "c5.qon", "--method", "greedy", "--method", "dp"][..],
            "--method given twice",
        ),
        (&["gen", "chain", "5", "1", "2"], "unexpected operand `2`"),
        (&["optimize", "c5.qon", "extra.qon"], "unexpected operand `extra.qon`"),
        (&["optimize", "c5.qon", "--trace-json", "--metrics"], "--trace-json requires a value"),
        (&["optimize"], "missing operand <file.qon>"),
        (&["optimize", "c5.qon", "--threads", "65"], "--threads 65"),
        // Refused before a connection or a thread is made: no server runs.
        (&["loadgen", "--concurrency", "65"], "--concurrency 65 is over the limit of 64"),
    ] {
        let (code, _, err) = run_in(aqo, &dir, args);
        assert_eq!(code, Some(1), "{args:?}: {err}");
        assert!(err.contains(message) && err.contains("usage: aqo "), "{args:?}: {err}");
        assert!(!err.contains("  aqo gen"), "{args:?} prints only its own synopsis: {err}");
    }
    assert!(!dir.join("--metrics").exists(), "a flag was taken as the journal path");

    let (code, out, err) = run_in(aqo, &dir, &["optimize", "--metrics", "c5.qon"]);
    assert_eq!(code, Some(0), "{err}");
    assert!(out.contains("cost") && err.contains("metrics:"), "{out}{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

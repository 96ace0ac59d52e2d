//! End-to-end CLI tests for the budgeted driver flags: the `aqo` binary
//! must degrade gracefully (exit 0, valid plan, report on stderr) under
//! tiny budgets and injected faults, and reproduce the direct DP answer
//! under generous ones.

use std::path::PathBuf;
use std::process::{Command, Output};

fn aqo() -> Command {
    Command::new(env!("CARGO_BIN_EXE_aqo"))
}

fn run_checked(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("spawn aqo");
    assert!(
        out.status.success(),
        "aqo failed ({:?}):\nstdout: {}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    out
}

/// Generates a `.qon` instance into the target tmp dir and returns its path.
fn gen_instance(shape: &str, n: usize, seed: u64) -> PathBuf {
    let out = run_checked(aqo().args(["gen", shape, &n.to_string(), &seed.to_string()]));
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join(format!("cli_driver_{shape}_{n}_{seed}.qon"));
    std::fs::write(&path, &out.stdout).expect("write instance");
    path
}

fn stdout_cost(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find(|l| l.starts_with("cost"))
        .expect("cost line")
        .to_string()
}

#[test]
fn tiny_timeout_on_clique_degrades_and_exits_zero() {
    let path = gen_instance("clique", 14, 7);
    let out = run_checked(aqo().args([
        "optimize",
        path.to_str().unwrap(),
        "--timeout-ms",
        "0",
    ]));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("driver (greedy tier)"), "stdout: {stdout}");
    assert!(stderr.contains("tier=greedy"), "stderr: {stderr}");
    assert!(stderr.contains("kind=heuristic"), "stderr: {stderr}");
    assert!(stderr.contains("degraded-past="), "stderr: {stderr}");
}

#[test]
fn injected_dp_panic_still_exits_zero_with_valid_plan() {
    let path = gen_instance("chain", 8, 3);
    let out = run_checked(
        aqo()
            .args(["optimize", path.to_str().unwrap(), "--fallback", "dp,ikkbz,greedy"])
            .env("AQO_FAULTS", "qon::dp=panic"),
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("driver (ikkbz tier)"), "stdout: {stdout}");
    assert!(stderr.contains("dp attempt 1: panic"), "stderr: {stderr}");

    // IKKBZ is optimal on acyclic graphs: it answers with the
    // cartesian-free optimum of a direct DP run.
    let direct = run_checked(aqo().args([
        "optimize",
        path.to_str().unwrap(),
        "--method",
        "dp",
        "--no-cartesian",
    ]));
    assert_eq!(stdout_cost(&out), stdout_cost(&direct));
}

#[test]
fn generous_budget_matches_direct_dp_bit_for_bit() {
    let path = gen_instance("cycle", 10, 11);
    let budgeted = run_checked(aqo().args([
        "optimize",
        path.to_str().unwrap(),
        "--timeout-ms",
        "600000",
        "--max-expansions",
        "1000000000",
    ]));
    assert!(String::from_utf8_lossy(&budgeted.stdout).contains("driver (dp tier)"));
    let direct = run_checked(aqo().args(["optimize", path.to_str().unwrap(), "--method", "dp"]));
    assert_eq!(stdout_cost(&budgeted), stdout_cost(&direct));
}

#[test]
fn custom_fallback_chain_is_respected() {
    let path = gen_instance("chain", 9, 1);
    // Chain without dp: ikkbz answers.
    let out = run_checked(aqo().args([
        "optimize",
        path.to_str().unwrap(),
        "--fallback",
        "ikkbz,greedy",
    ]));
    assert!(String::from_utf8_lossy(&out.stdout).contains("driver (ikkbz tier)"));

    // An unknown tier is a usage error: nonzero exit, usage on stderr.
    let bad = aqo()
        .args(["optimize", path.to_str().unwrap(), "--fallback", "oracle"])
        .output()
        .expect("spawn aqo");
    assert!(!bad.status.success());
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(stderr.contains("unknown tier"), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn malformed_faults_spec_is_reported() {
    let path = gen_instance("chain", 5, 2);
    let out = aqo()
        .args(["optimize", path.to_str().unwrap()])
        .env("AQO_FAULTS", "qon::dp=warble")
        .output()
        .expect("spawn aqo");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("AQO_FAULTS"), "stderr: {stderr}");
}

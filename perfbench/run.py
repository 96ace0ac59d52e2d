#!/usr/bin/env python3
"""Build `aqo` and the benchmark harness from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Builds go to $CARGO_TARGET_DIR (default `.bench_build`). Every other
argument is passed to the harness (`perfbench/src/main.rs`), whose last
stdout line is the result object. A failed build exits nonzero without
printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--locked", "-q", "-p", "aqo-bench", "--bin", "aqo"],
        ["cargo", "build", "--release", "--offline", "--locked", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    harness = [os.path.join(release, "aqo-perfbench"), "--aqo", os.path.join(release, "aqo")]
    return subprocess.run(harness + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())

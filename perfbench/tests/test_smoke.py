#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

Runs every workload for one second, untraced and traced, and checks
that no operation fails and that every metric `BENCHMARK.json` names is
printed with its unit. A planted wrong oracle cost must fail the run.

Run from the repository root:

    python3 perfbench/tests/test_smoke.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def bench(workload, trace, *extra):
    """Runs one smoke invocation; returns (exit code, last stdout line as JSON)."""
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        for m in declared:
            self.assertIn(m["name"], metrics)
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float), m["name"])
        self.assertEqual(set(metrics), {m["name"] for m in declared})

    def test_every_workload_untraced(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                code, result, err = bench(w["name"], 0)
                self.assertEqual(code, 0, err)
                self.check_metrics(result, self.spec["end_to_end"])
                for m in self.spec["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_every_workload_traced(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                code, result, err = bench(w["name"], 1)
                self.assertEqual(code, 0, err)
                self.check_metrics(result, self.spec["per_layer"])

    def test_planted_wrong_cost_fails(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                code, result, _ = bench("qon-dense", trace, "--plant-wrong-cost")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()

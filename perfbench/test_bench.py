#!/usr/bin/env python3
"""Smoke test of the benchmark: python3 perfbench/test_bench.py

Runs every workload at --size smoke, untraced and traced, and checks
that each metric BENCHMARK.json names prints with its unit, that the
runs pass their output checks, and that --seed changes the inputs but
not the metric set.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, seed, trace, env=None):
    """(exit code, stdout lines, result object or None)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, env=env)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, lines, result


def inputs_digest(lines):
    return next(line.split()[1] for line in lines if line.startswith("inputs "))


class BenchmarkSmokeTest(unittest.TestCase):
    def check_run(self, workload, trace, seed=1):
        code, lines, result = run(workload, seed, trace)
        what = f"{workload} trace={trace} seed={seed}"
        self.assertEqual(code, 0, what + "\n" + "\n".join(lines))
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"}, what)
        self.assertTrue(result["correct"], what)
        self.assertEqual(result["failed"], 0, what)
        self.assertGreaterEqual(result["attempted"], 1, what)
        kind = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in BENCH[kind]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, expected, what)
        table = {tuple(line.split()[::2]) for line in lines
                 if len(line.split()) == 3}
        for name, unit in expected.items():
            self.assertIn((name, unit), table, what)
        return lines, result

    def test_every_metric_prints_with_its_unit(self):
        for workload in WORKLOADS:
            _, result = self.check_run(workload, trace=0)
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, f"{workload} {name}")
            self.check_run(workload, trace=1)

    def test_seed_changes_inputs_not_metric_set(self):
        for workload in ("sweep_cold", "serve_warm"):
            lines1, result1 = self.check_run(workload, trace=0, seed=1)
            lines2, result2 = self.check_run(workload, trace=0, seed=2)
            self.assertNotEqual(inputs_digest(lines1), inputs_digest(lines2))
            self.assertEqual(set(result1["metrics"]), set(result2["metrics"]))

    def test_refuses_armed_failpoints(self):
        env = dict(os.environ, DIDT_FAILPOINTS="campaign.cell=always")
        code, _, result = run("sweep_cold", 1, 0, env=env)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()

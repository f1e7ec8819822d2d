#!/usr/bin/env python3
"""The benchmark's own test: every workload on tiny inputs.

Run from the repository root (the first run builds, like run.py does):

    python3 perfbench/test_run.py

Checks that each workload emits every metric BENCHMARK.json names, with its
unit, in both modes; that a seeded fault (one flipped kappa in the compared
output) is reported as a failure; that the work counts repeat exactly for
one seed; and that the benchmark refuses to run outside a source tree.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
COUNTS = ["core.triangles", "engine.candidate_edges",
          "engine.triangles_scanned", "engine.compactions"]


def run(workload, trace, *extra, seed=7, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900, check=False)
    return proc


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyWorkloads(unittest.TestCase):

    def check_metrics(self, workload, trace, listed):
        out = result(run(workload, trace))
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"], out)
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in listed}
        self.assertEqual(set(out["metrics"]), set(expected))
        for name, metric in out["metrics"].items():
            self.assertEqual(metric["unit"], expected[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        return out["metrics"]

    def test_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                e2e = self.check_metrics(workload, 0,
                                         BENCHMARK["end_to_end"])
                for name, metric in e2e.items():
                    self.assertGreater(metric["value"], 0, name)
                self.check_metrics(workload, 1, BENCHMARK["per_layer"])

    def test_seeded_fault_is_a_failure(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = result(run(workload, 0, "--fault"))
                self.assertFalse(out["correct"])
                self.assertGreaterEqual(out["failed"], 1)

    def test_counts_repeat_for_one_seed(self):
        workload = "replay_churn"
        first = result(run(workload, 1, seed=11))["metrics"]
        second = result(run(workload, 1, seed=11))["metrics"]
        for name in COUNTS:
            self.assertEqual(first[name]["value"], second[name]["value"],
                             name)

    def test_refuses_outside_a_source_tree(self):
        lone = ROOT / ".bench_build" / "perfbench-test" / "lone"
        shutil.rmtree(lone, ignore_errors=True)
        lone.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", lone)
        shutil.copytree(ROOT / "perfbench", lone / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=lone, env=env, capture_output=True, text=True, timeout=180,
            check=False)
        shutil.rmtree(lone, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

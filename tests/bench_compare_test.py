#!/usr/bin/env python3
"""Tests for tools/bench_compare.py: the tkc.metrics.v1 span-path diff and
the schema checks shared with the tkc.bench.v1 mode.

usage: python3 tests/bench_compare_test.py <repo-root>
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = None  # set from argv in __main__


def node(name, seconds, calls=1, children=None):
    out = {"name": name, "calls": calls, "seconds": seconds}
    if children:
        out["children"] = children
    return out


def metrics(trace):
    return {"schema": "tkc.metrics.v1", "command": "decompose",
            "exit_code": 0, "metrics": {}, "trace": trace,
            "dropped_events": 0}


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            if isinstance(doc, str):
                f.write(doc)
            else:
                json.dump(doc, f)
        return path

    def run_tool(self, *args):
        proc = subprocess.run([sys.executable, TOOL, *args],
                              capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout, proc.stderr

    def span_lines(self, out):
        return [line.strip() for line in out.splitlines()
                if line.startswith("  ")]

    def test_metrics_diff_by_span_path_largest_first(self):
        base = self.write("base.json", metrics([
            node("decompose", 1.0, children=[
                node("cli.load_graph", 0.30),
                node("core.decompose", 0.60, children=[
                    node("support_count", 0.40),
                    node("peel", 0.10, calls=1)])])]))
        cand = self.write("cand.json", metrics([
            node("decompose", 1.2, children=[
                node("cli.load_graph", 0.305),
                node("core.decompose", 0.79, children=[
                    node("support_count", 0.41),
                    node("peel", 0.28, calls=2)]),
                node("cli.release_graph", 0.02)])]))
        code, out, err = self.run_tool(base, cand)
        self.assertEqual(code, 0, err)
        lines = self.span_lines(out)
        paths = [line.split(":")[0] for line in lines]
        self.assertEqual(paths, [
            "decompose",
            "decompose/core.decompose",
            "decompose/core.decompose/peel",
            "decompose/cli.release_graph",
            "decompose/core.decompose/support_count",
            "decompose/cli.load_graph",
        ])
        peel = lines[2]
        self.assertIn("Δ+0.180000s", peel)
        self.assertIn("calls 1 -> 2 (Δ+1)", peel)
        self.assertIn("only in candidate", lines[3])
        self.assertIn("compared 5 span paths", out)
        self.assertIn("REGRESSIONS", out)

    def test_gate_and_fail_on_regression(self):
        base = self.write("base.json", metrics([
            node("decompose", 1.0, children=[node("peel", 0.1),
                                             node("output", 0.1)])]))
        cand = self.write("cand.json", metrics([
            node("decompose", 1.0, children=[node("peel", 0.1),
                                             node("output", 0.5)])]))
        code, _, _ = self.run_tool(base, cand, "--fail-on-regression")
        self.assertEqual(code, 1)
        code, out, _ = self.run_tool(base, cand, "--fail-on-regression",
                                     "--gate=peel")
        self.assertEqual(code, 0, out)
        code, _, _ = self.run_tool(base, base, "--fail-on-regression")
        self.assertEqual(code, 0)

    def test_schema_mismatch_and_truncation_exit_two(self):
        tree = self.write("tree.json", metrics([node("decompose", 1.0)]))
        bench = self.write("bench.json", {"schema": "tkc.bench.v1",
                                          "rows": []})
        code, _, err = self.run_tool(tree, bench)
        self.assertEqual(code, 2)
        self.assertIn("schema mismatch", err)
        broken = self.write("broken.json", '{"schema": "tkc.metrics.v1", ')
        code, _, err = self.run_tool(tree, broken)
        self.assertEqual(code, 2)
        self.assertIn("not valid JSON", err)
        no_trace = self.write("no_trace.json", {"schema": "tkc.metrics.v1"})
        code, _, err = self.run_tool(tree, no_trace)
        self.assertEqual(code, 2)
        self.assertIn("'trace'", err)

    def test_bench_mode_unchanged(self):
        base = self.write("base.json", {"schema": "tkc.bench.v1", "rows": [
            {"name": "BM_Peel", "real_time": 100.0, "time_unit": "ns"}]})
        cand = self.write("cand.json", {"schema": "tkc.bench.v1", "rows": [
            {"name": "BM_Peel", "real_time": 150.0, "time_unit": "ns"}]})
        code, out, _ = self.run_tool(base, cand, "--fail-on-regression")
        self.assertEqual(code, 1)
        self.assertIn("BM_Peel [real_time]", out)


if __name__ == "__main__":
    TOOL = os.path.join(sys.argv.pop(1), "tools", "bench_compare.py")
    unittest.main()

#!/usr/bin/env python3
"""Diff two tkc.bench.v1 or two tkc.metrics.v1 artifacts and flag
regressions. The mode follows the files' `schema`.

tkc.bench.v1: matches rows between a baseline and a candidate file and
reports the relative change of each row's timing field. Rows are keyed by
their stable identity: google-benchmark envelopes (bench_micro) use the
row "name"; table benches use the "dataset" field, comparing every
*_seconds member.

tkc.metrics.v1 (a `tkc --metrics-out` file): matches the nodes of the two
phase trees by span path ("decompose/core.decompose/peel") and lists every
path with its Δseconds and Δcalls, largest |Δseconds| first, so a
regression names the span that moved. A path's relative slowdown is what
--threshold and --gate judge.

usage: tools/bench_compare.py BASELINE.json CANDIDATE.json
           [--threshold=0.20] [--fail-on-regression] [--gate=REGEX]

Exit codes: 0 = no regression over the threshold, 1 = regressions found
and --fail-on-regression was given, 2 = usage/parse error. Without
--fail-on-regression the exit code is always 0/2 — visible, not blocking.

--gate=REGEX splits the rows into two classes: rows whose key matches the
regex are *gating* (their regressions drive the exit code), the rest stay
informational (printed, never fatal). This is how CI blocks on the
support/peel hot path while leaving the long tail of micro timings — too
noisy on shared runners — advisory. Gating rows should use a generous
--threshold to absorb runner noise; see docs/performance.md for the
baseline-refresh procedure when a gated regression is intentional.
"""

import argparse
import json
import re
import sys


def fail(message):
    """Clear diagnostic + exit 2: a bad artifact is a usage-class error,
    never a traceback."""
    print(f"bench_compare: error: {message}", file=sys.stderr)
    sys.exit(2)


SCHEMAS = ("tkc.bench.v1", "tkc.metrics.v1")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e.strerror or e}")
    except ValueError as e:
        fail(f"{path} is not valid JSON (truncated or corrupt artifact): {e}")
    if not isinstance(doc, dict):
        fail(f"{path}: top level is not a JSON object")
    schema = doc.get("schema")
    if schema not in SCHEMAS:
        fail(f"{path}: expected schema tkc.bench.v1 or tkc.metrics.v1, "
             f"found {schema!r} — not a bench or metrics artifact, or "
             f"written by an incompatible version")
    if schema == "tkc.metrics.v1":
        if not isinstance(doc.get("trace"), list):
            fail(f"{path}: 'trace' must be a list of span nodes "
                 f"(truncated artifact?)")
        return doc
    rows = doc.get("rows")
    if not isinstance(rows, list) or not all(
            isinstance(r, dict) for r in rows):
        fail(f"{path}: 'rows' must be a list of objects (truncated "
             f"artifact?)")
    return doc


def row_timings(row):
    """Extracts {metric_name: seconds} from one row of either envelope.
    Non-numeric values are skipped rather than crashing the diff."""
    timings = {}
    real_time = row.get("real_time")
    if isinstance(real_time, (int, float)) and not isinstance(
            real_time, bool):  # google-benchmark row (time_unit, usually ns)
        unit = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}.get(
            row.get("time_unit", "ns"), 1e-9)
        timings["real_time"] = real_time * unit
    for key, value in row.items():
        if (key.endswith("_seconds")
                and isinstance(value, (int, float))
                and not isinstance(value, bool)):
            timings[key] = value
    return timings


def row_key(row):
    key = row.get("name") or row.get("dataset")
    return key if isinstance(key, str) else None


def span_paths(nodes, prefix=""):
    """Flattens a phase tree into {path: (seconds, calls)}."""
    out = {}
    for node in nodes:
        if not isinstance(node, dict) or not isinstance(
                node.get("name"), str):
            fail("a 'trace' node has no name (truncated artifact?)")
        path = prefix + node["name"]
        out[path] = (float(node.get("seconds", 0.0)),
                     int(node.get("calls", 0)))
        out.update(span_paths(node.get("children", []), path + "/"))
    return out


def compare_trees(base, cand, args, gate):
    """tkc.metrics.v1 mode: one line per span path, largest |Δs| first."""
    b = span_paths(base["trace"])
    c = span_paths(cand["trace"])
    regressions = []
    lines = []
    for path in b.keys() | c.keys():
        bs, bc = b.get(path, (0.0, 0))
        cs, cc = c.get(path, (0.0, 0))
        note = ("  (only in candidate)" if path not in b else
                "  (only in baseline)" if path not in c else "")
        lines.append((abs(cs - bs), path,
                      f"{path}: {bs:.6f}s -> {cs:.6f}s "
                      f"(Δ{cs - bs:+.6f}s), calls {bc} -> {cc} "
                      f"(Δ{cc - bc:+d}){note}"))
        if (bs > 0 and path in c and (cs - bs) / bs > args.threshold
                and (gate is None or gate.search(path))):
            regressions.append(path)
    lines.sort(key=lambda entry: (-entry[0], entry[1]))

    print(f"compared {len(b.keys() & c.keys())} span paths "
          f"(threshold {args.threshold:.0%}), largest |Δseconds| first")
    if gate is not None:
        print(f"gating paths: /{args.gate}/")
    for _, _, line in lines:
        print(f"  {line}")
    if regressions:
        print(f"\nREGRESSIONS (>{args.threshold:.0%}): "
              f"{', '.join(sorted(regressions))}")
    else:
        print("\nno gating regressions over threshold"
              if gate is not None else "\nno regressions over threshold")
    return 1 if regressions and args.fail_on_regression else 0


def main():
    parser = argparse.ArgumentParser(
        description="diff two tkc.bench.v1 or two tkc.metrics.v1 files")
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="relative slowdown that counts as a "
                             "regression (default 0.20 = +20%%)")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 if any regression exceeds the "
                             "threshold")
    parser.add_argument("--gate", metavar="REGEX", default=None,
                        help="only rows whose key matches REGEX drive the "
                             "exit code; the rest are informational")
    args = parser.parse_args()

    gate = None
    if args.gate is not None:
        try:
            gate = re.compile(args.gate)
        except re.error as e:
            fail(f"--gate is not a valid regex: {e}")

    base = load(args.baseline)
    cand = load(args.candidate)
    if base["schema"] != cand["schema"]:
        fail(f"schema mismatch: {args.baseline} is {base['schema']}, "
             f"{args.candidate} is {cand['schema']}")
    if base["schema"] == "tkc.metrics.v1":
        return compare_trees(base, cand, args, gate)
    base_rows = {row_key(r): r for r in base.get("rows", []) if row_key(r)}
    cand_rows = {row_key(r): r for r in cand.get("rows", []) if row_key(r)}

    regressions = []       # gating: drive the exit code
    info_regressions = []  # over threshold, but outside --gate
    improvements = []
    added_metrics = []
    removed_metrics = []
    compared = 0
    for key in sorted(base_rows.keys() & cand_rows.keys()):
        b, c = row_timings(base_rows[key]), row_timings(cand_rows[key])
        # A counter present in only one artifact is reported, not fatal —
        # new instrumentation (or dropped instrumentation) must not break
        # the trajectory diff.
        for metric in sorted(c.keys() - b.keys()):
            added_metrics.append(f"{key} [{metric}]")
        for metric in sorted(b.keys() - c.keys()):
            removed_metrics.append(f"{key} [{metric}]")
        for metric in sorted(b.keys() & c.keys()):
            if b[metric] <= 0:
                continue
            compared += 1
            delta = (c[metric] - b[metric]) / b[metric]
            line = (f"{key} [{metric}]: {b[metric]*1e3:.3f}ms -> "
                    f"{c[metric]*1e3:.3f}ms ({delta:+.1%})")
            if delta > args.threshold:
                if gate is None or gate.search(key):
                    regressions.append(line)
                else:
                    info_regressions.append(line)
            elif delta < -args.threshold:
                improvements.append(line)

    only_base = sorted(base_rows.keys() - cand_rows.keys())
    only_cand = sorted(cand_rows.keys() - base_rows.keys())

    print(f"compared {compared} timings across "
          f"{len(base_rows.keys() & cand_rows.keys())} matching rows "
          f"(threshold {args.threshold:.0%})")
    if gate is not None:
        print(f"gating rows: /{args.gate}/")
    for title, lines in (("REGRESSIONS", regressions),
                         ("regressions (informational, outside --gate)",
                          info_regressions),
                         ("improvements", improvements)):
        if lines:
            print(f"\n{title} (>{args.threshold:.0%}):")
            for line in lines:
                print(f"  {line}")
    if only_base:
        print(f"\nrows only in baseline: {', '.join(only_base)}")
    if only_cand:
        print(f"rows only in candidate: {', '.join(only_cand)}")
    if added_metrics:
        print(f"metrics only in candidate (added): "
              f"{', '.join(added_metrics)}")
    if removed_metrics:
        print(f"metrics only in baseline (removed): "
              f"{', '.join(removed_metrics)}")
    if not regressions:
        print("\nno gating regressions over threshold"
              if gate is not None else "\nno regressions over threshold")

    if regressions and args.fail_on_regression:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

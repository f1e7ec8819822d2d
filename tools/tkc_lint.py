#!/usr/bin/env python3
"""tkc-lint: project-invariant linter for the Triangle K-Core tree.

A fast, AST-lite (regex + line-state) pass enforcing the conventions that
the compiler cannot: metric names stay documented, allocation goes through
owning containers, library code stays stream/rand-free, span names fit the
snake.case registry and the timeline's inline buffers, headers carry their
canonical include guard, and every thread-safety escape hatch is justified.
The rule catalog with examples lives in docs/static_analysis.md.

Usage:
  tools/tkc_lint.py [--root=DIR] [--json-out=FILE] [--quiet] [--list-rules]

Exit codes: 0 clean, 1 violations found, 2 usage/internal error.

Suppressions: append `// tkc-lint: allow(<rule-name>)` to the offending
line, or put it in a comment on the line directly above. Suppressions are
counted and reported in the JSON artifact (`tkc.lint.v1`), never silent.
"""

import argparse
import json
import re
import sys
from pathlib import Path

RULES = {
    "TKC-L001": (
        "metrics-doc-missing",
        "metric name used in src/ is not documented in the "
        "docs/observability.md naming table",
    ),
    "TKC-L002": (
        "metrics-doc-stale",
        "metric name documented in docs/observability.md is not used "
        "anywhere in src/, or its naming-table row has a kind other than "
        "counter or gauge",
    ),
    "TKC-L010": (
        "raw-new-delete",
        "raw new/delete anywhere in src/ (use containers, make_unique, "
        "or justify a leaky singleton)",
    ),
    "TKC-L020": (
        "banned-api",
        "std::rand / time(nullptr) / <iostream> in library code "
        "(src/tkc/, CLI exempt)",
    ),
    "TKC-L030": (
        "span-name",
        "TKC_SPAN / TimelineScope phase name must be snake.case "
        "([a-z0-9_] segments joined by dots) and fit the 47-char "
        "timeline buffer; TKC_SPAN_COUNTER / AddArg keys must fit the "
        "23-char arg key buffer",
    ),
    "TKC-L040": (
        "include-guard",
        "header under src/ must carry its canonical TKC_<PATH>_H_ "
        "include guard or #pragma once",
    ),
    "TKC-L050": (
        "bare-nts-analysis",
        "TKC_NO_THREAD_SAFETY_ANALYSIS without an inline justification "
        "comment",
    ),
    "TKC-L060": (
        "simd-containment",
        "<immintrin.h> or x86 SIMD intrinsics anywhere under src/ (the "
        "library has one portable intersection kernel)",
    ),
    "TKC-L070": (
        "graph-twin",
        "header under src/tkc/ declares a function for `const Graph&` and "
        "again for a frozen read type (`const CsrGraph&`, "
        "`const AnalysisContext&` or `const DeltaCsr&`); analytics take "
        "the frozen type only",
    ),
}
NAME_TO_ID = {name: rid for rid, (name, _) in RULES.items()}

SPAN_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")
SPAN_NAME_MAX = 47  # TimelineEvent::kNameCapacity - 1 (silent truncation)
SPAN_KEY_MAX = 23  # TimelineEvent::kKeyCapacity - 1 (silent truncation)
METRIC_KINDS = ("counter", "gauge")
ALLOW_RE = re.compile(r"tkc-lint:\s*allow\(([a-z0-9-]+)\)")
METRIC_USE_RE = re.compile(
    r"Get(?:Counter|Gauge)\(\s*\"([^\"]+)\"(\s*\+)?")
SPAN_USE_RE = re.compile(
    r"(?:TKC_SPAN(?:_MEM)?|TimelineScope\s+\w+)\(\s*\"([^\"]*)\"")
SPAN_KEY_RE = re.compile(
    r"(?:TKC_SPAN_COUNTER|\bAdd(?:Arg|Label))\(\s*\"([^\"]*)\"")
NEW_RE = re.compile(r"(?<![\w.])new\b(?!\s*\()")
DELETE_RE = re.compile(r"(?<![\w.])delete(?:\[\])?\b")
SIMD_INCLUDE_RE = re.compile(r"#include\s*<\w*intrin\.h>")
SIMD_INTRINSIC_RE = re.compile(r"\b(?:_mm\d*_\w+|__m\d+[di]?)\b")
DECL_NAME_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
GRAPH_PARAM_RE = re.compile(r"\bconst\s+Graph\s*&")
FROZEN_PARAM_RE = re.compile(
    r"\bconst\s+(?:CsrGraph|AnalysisContext|DeltaCsr)\s*&")
BANNED_RES = [
    (re.compile(r"std::rand\b"), "std::rand (use tkc/util/random.h)"),
    (re.compile(r"\btime\(\s*(nullptr|NULL|0)\s*\)"),
     "time(nullptr) (use tkc/util/timer.h or pass seeds explicitly)"),
    (re.compile(r"#include\s*<iostream>"),
     "<iostream> in library code (take a std::ostream& instead)"),
]


class Violation:
    def __init__(self, rule_id, path, line, message):
        self.rule_id = rule_id
        self.name = RULES[rule_id][0]
        self.path = path
        self.line = line
        self.message = message

    def to_json(self):
        return {
            "rule": self.rule_id,
            "name": self.name,
            "file": str(self.path),
            "line": self.line,
            "message": self.message,
        }


def strip_code(line):
    """Removes string/char literals and trailing // comments so structural
    regexes do not fire on prose. Good enough for this tree: raw strings
    and multi-line /* */ comments are not used in src/."""
    out = []
    i, n = 0, len(line)
    in_str = None
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == in_str:
                in_str = None
            i += 1
            continue
        if c in "\"'":
            in_str = c
            out.append(c)  # keep the delimiter as a token boundary
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            end = line.find("*/", i + 2)
            if end < 0:
                break
            i = end + 2
            continue
        out.append(c)
        i += 1
    return "".join(out)


class Linter:
    def __init__(self, root):
        self.root = root
        self.violations = []
        self.suppressed = 0
        self.files_scanned = 0

    def report(self, rule_id, path, lines, lineno, message):
        """Files a violation unless an allow(<name>) suppression covers the
        line (same line or the line above)."""
        name = RULES[rule_id][0]
        for candidate in (lines[lineno - 1],
                          lines[lineno - 2] if lineno >= 2 else ""):
            m = ALLOW_RE.search(candidate)
            if m and m.group(1) == name:
                self.suppressed += 1
                return
        rel = path.relative_to(self.root) if path.is_absolute() else path
        self.violations.append(Violation(rule_id, rel, lineno, message))

    # --- TKC-L001 / TKC-L002: metric names <-> docs/observability.md ---

    def doc_metric_names(self, doc_path):
        """Metric names from the naming-convention table (the table whose
        header reads `| name | kind | ... |`): first-cell code spans of its
        counter/gauge rows, `<k>`-style placeholders as wildcards. Rows of
        any other kind come back as (lineno, kind) pairs."""
        exact, wildcard, bad_kinds = set(), set(), []
        if not doc_path.exists():
            return exact, wildcard, bad_kinds
        in_table = in_naming_table = False
        for lineno, line in enumerate(doc_path.read_text().splitlines(), 1):
            if not line.startswith("|"):
                in_table = in_naming_table = False
                continue
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if not in_table:  # header row
                in_table = True
                in_naming_table = cells[:2] == ["name", "kind"]
                continue
            if not in_naming_table or all(
                    re.fullmatch(r":?-+:?", c) for c in cells):
                continue
            kind = cells[1] if len(cells) > 1 else ""
            if kind not in METRIC_KINDS:
                bad_kinds.append((lineno, kind))
                continue
            for token in re.findall(r"`([^`]+)`", cells[0]):
                if "<" in token:
                    wildcard.add(token.split("<", 1)[0])
                else:
                    exact.add(token)
        return exact, wildcard, bad_kinds

    def check_metrics_sync(self, src_files):
        doc_path = self.root / "docs" / "observability.md"
        doc_exact, doc_wildcard, bad_kinds = self.doc_metric_names(doc_path)
        used = {}  # name -> (path, lineno, is_prefix)
        for path in src_files:
            if path.suffix not in (".cc", ".h"):
                continue
            if path.name in ("metrics.h", "metrics.cc"):
                continue  # the registry's own declarations/definitions
            lines = path.read_text().splitlines()
            for i, line in enumerate(lines, 1):
                for m in METRIC_USE_RE.finditer(line):
                    used.setdefault(m.group(1),
                                    (path, lines, i, bool(m.group(2))))
        matched_doc = set()
        for name, (path, lines, lineno, is_prefix) in sorted(used.items()):
            if is_prefix:
                hits = {w for w in doc_wildcard if w == name}
            else:
                hits = ({name} if name in doc_exact else set()) | {
                    w for w in doc_wildcard if name.startswith(w)}
            if hits:
                matched_doc |= hits
            else:
                kind = "dynamic metric prefix" if is_prefix else "metric"
                self.report(
                    "TKC-L001", path, lines, lineno,
                    f"{kind} \"{name}\" is not in the docs/observability.md "
                    "naming table; document it (placeholders spell the "
                    "dynamic part as `<k>`)")
        doc_lines = (doc_path.read_text().splitlines()
                     if doc_path.exists() else [])
        for lineno, kind in bad_kinds:
            self.report(
                "TKC-L002", doc_path.relative_to(self.root), doc_lines,
                lineno,
                f"naming-table row has kind \"{kind}\"; the registry has "
                "only counter and gauge metrics")
        for name in sorted((doc_exact | doc_wildcard) - matched_doc):
            lineno = next((i for i, l in enumerate(doc_lines, 1)
                           if f"`{name}" in l), 1)
            self.report(
                "TKC-L002", doc_path.relative_to(self.root), doc_lines,
                lineno,
                f"documented metric \"{name}\" is not emitted anywhere in "
                "src/; delete the row or restore the instrumentation")

    # --- per-file code rules ---

    def check_file(self, path):
        rel = path.relative_to(self.root)
        text = path.read_text()
        lines = text.splitlines()
        self.files_scanned += 1
        in_library = str(rel).startswith("src/tkc/") and not str(
            rel).startswith("src/tkc/cli/")

        for i, raw in enumerate(lines, 1):
            code = strip_code(raw)

            # TKC-L010: raw allocation.
            if str(rel).startswith("src/"):
                code_nodecl = re.sub(r"=\s*delete\b|operator\s+(new|delete)",
                                     "", code)
                if NEW_RE.search(code_nodecl):
                    self.report("TKC-L010", path, lines, i,
                                "raw `new` (prefer make_unique/containers; "
                                "leaky singletons need an allow() with a "
                                "reason)")
                if DELETE_RE.search(code_nodecl):
                    self.report("TKC-L010", path, lines, i,
                                "raw `delete` (prefer unique_ptr ownership)")

            # TKC-L020: banned APIs in library code.
            if in_library:
                for banned_re, what in BANNED_RES:
                    if banned_re.search(code if "iostream" not in what
                                        else raw):
                        self.report("TKC-L020", path, lines, i, what)

            # TKC-L030: span names (checked in the raw line — the name IS
            # the string literal).
            for m in SPAN_USE_RE.finditer(raw):
                name = m.group(1)
                if not SPAN_NAME_RE.match(name):
                    self.report(
                        "TKC-L030", path, lines, i,
                        f"span name \"{name}\" is not snake.case "
                        "([a-z0-9_] segments joined by dots)")
                elif len(name) > SPAN_NAME_MAX:
                    self.report(
                        "TKC-L030", path, lines, i,
                        f"span name \"{name}\" is {len(name)} chars; the "
                        f"timeline buffer truncates past {SPAN_NAME_MAX}")
            for m in SPAN_KEY_RE.finditer(raw):
                key = m.group(1)
                if len(key) > SPAN_KEY_MAX:
                    self.report(
                        "TKC-L030", path, lines, i,
                        f"span counter key \"{key}\" is {len(key)} chars; "
                        f"the timeline arg buffer truncates past "
                        f"{SPAN_KEY_MAX}")

            # TKC-L060: no ISA-specific code, so the library is portable
            # by construction and needs no CPUID gating.
            if str(rel).startswith("src/"):
                if SIMD_INCLUDE_RE.search(raw):
                    self.report(
                        "TKC-L060", path, lines, i,
                        "intrinsics header include (the library has one "
                        "portable intersection kernel)")
                elif SIMD_INTRINSIC_RE.search(code):
                    self.report(
                        "TKC-L060", path, lines, i,
                        "x86 SIMD intrinsic (use IntersectSortedHybrid)")

            # TKC-L050: unjustified thread-safety escape hatch.
            if ("TKC_NO_THREAD_SAFETY_ANALYSIS" in code
                    and path.name != "thread_annotations.h"):
                prev = lines[i - 2].strip() if i >= 2 else ""
                has_comment = ("//" in raw.split(
                    "TKC_NO_THREAD_SAFETY_ANALYSIS", 1)[1]
                    or prev.startswith("//"))
                if not has_comment:
                    self.report(
                        "TKC-L050", path, lines, i,
                        "TKC_NO_THREAD_SAFETY_ANALYSIS needs an inline "
                        "comment justifying why the contract cannot be "
                        "annotated")

        # TKC-L040: canonical include guard.
        if path.suffix == ".h" and str(rel).startswith("src/"):
            if "#pragma once" not in text:
                stem = str(rel)[len("src/"):]
                if stem.startswith("tkc/"):
                    stem = stem[len("tkc/"):]
                canonical = "TKC_" + re.sub(
                    r"[^A-Za-z0-9]", "_", stem[:-len(".h")]).upper() + "_H_"
                m = re.search(r"#ifndef\s+(\S+)\s*\n\s*#define\s+(\S+)",
                              text)
                if not m or m.group(1) != canonical or m.group(
                        2) != canonical:
                    got = m.group(1) if m else "none"
                    lineno = (text[:m.start()].count("\n") + 1) if m else 1
                    self.report(
                        "TKC-L040", path, lines, lineno,
                        f"include guard is \"{got}\", expected "
                        f"\"{canonical}\" (or #pragma once)")

    # --- TKC-L070: a Graph overload beside a frozen-type twin ---

    def check_graph_twins(self, path):
        """Collects every `name(params)` in the header (comments and
        literals stripped, parentheses matched across lines) and reports
        the `const Graph&` declarations of each name that the same header
        also declares with a frozen read type."""
        lines = path.read_text().splitlines()
        code = [strip_code(l) for l in lines]
        text = "\n".join(code)
        graph_decls, frozen_names = {}, set()
        for m in DECL_NAME_RE.finditer(text):
            depth, end = 1, m.end()
            while end < len(text) and depth:
                depth += {"(": 1, ")": -1}.get(text[end], 0)
                end += 1
            params = text[m.end():end]
            name = m.group(1)
            if FROZEN_PARAM_RE.search(params):
                frozen_names.add(name)
            elif GRAPH_PARAM_RE.search(params):
                lineno = text.count("\n", 0, m.start()) + 1
                graph_decls.setdefault(name, []).append(lineno)
        for name in sorted(graph_decls.keys() & frozen_names):
            for lineno in graph_decls[name]:
                self.report(
                    "TKC-L070", path, lines, lineno,
                    f"{name} is declared for `const Graph&` and for a "
                    "frozen read type; delete the Graph overload (callers "
                    "freeze once: `CsrGraph csr(g)`)")

    def run(self):
        src = self.root / "src"
        src_files = sorted(p for p in src.rglob("*")
                           if p.suffix in (".h", ".cc"))
        for path in src_files:
            self.check_file(path)
            if path.suffix == ".h" and str(path.relative_to(
                    self.root)).startswith("src/tkc/"):
                self.check_graph_twins(path)
        self.check_metrics_sync(src_files)
        return self.violations


def main(argv):
    parser = argparse.ArgumentParser(
        prog="tkc_lint.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("--json-out", default=None,
                        help="write the tkc.lint.v1 artifact here")
    parser.add_argument("--quiet", action="store_true",
                        help="only print the summary line")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rid, (name, desc) in sorted(RULES.items()):
            print(f"{rid}  {name:20s} {desc}")
        return 0

    root = Path(args.root).resolve() if args.root else Path(
        __file__).resolve().parent.parent
    if not (root / "src").is_dir():
        print(f"tkc-lint: no src/ under {root}", file=sys.stderr)
        return 2

    linter = Linter(root)
    violations = linter.run()

    if not args.quiet:
        for v in violations:
            print(f"{v.path}:{v.line}: [{v.rule_id} {v.name}] {v.message}")
    counts = {}
    for v in violations:
        counts[v.rule_id] = counts.get(v.rule_id, 0) + 1
    verdict = "clean" if not violations else "FAILED"
    print(f"tkc-lint: {verdict} — {linter.files_scanned} files, "
          f"{len(violations)} violation(s), {linter.suppressed} "
          f"suppressed")

    if args.json_out:
        doc = {
            "schema": "tkc.lint.v1",
            "root": str(root),
            "files_scanned": linter.files_scanned,
            "passed": not violations,
            "suppressed": linter.suppressed,
            "counts": dict(sorted(counts.items())),
            "violations": [v.to_json() for v in violations],
        }
        Path(args.json_out).write_text(json.dumps(doc, indent=2) + "\n")

    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env bash
# tkc-lint rule tests: runs the linter over the seeded fixture tree and
# asserts every rule fires where planted, suppressions suppress, the JSON
# artifact is well-formed, the exit code contract holds — and that the
# real tree is clean.
#
# usage: tests/lint/run_lint_tests.sh <repo-root>

set -uo pipefail

repo_root="${1:?usage: run_lint_tests.sh <repo-root>}"
fixture="$repo_root/tests/lint/fixture"
lint="$repo_root/tools/tkc_lint.py"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

failures=0
fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# --- fixture tree: every rule must fire, exit must be 1 ---

out="$tmpdir/fixture.out"
python3 "$lint" --root="$fixture" --json-out="$tmpdir/fixture.json" \
  >"$out" 2>&1
status=$?
[[ $status -eq 1 ]] || fail "fixture run: expected exit 1, got $status"

expect_hit() {  # expect_hit <rule-id> <path-substring>
  grep -q "\[$1 " "$out" || fail "rule $1 did not fire on the fixture"
  grep "\[$1 " "$out" | grep -q "$2" \
    || fail "rule $1 fired, but not at $2"
}
expect_hit TKC-L001 "bad.cc"        # undocumented.metric
expect_hit TKC-L002 "observability.md"  # stale.metric, old.latency_ns
expect_hit TKC-L010 "bad.cc"        # raw new / delete
expect_hit TKC-L020 "bad.cc"        # <iostream> + std::rand
expect_hit TKC-L030 "bad.cc"        # Bad.Span_Name
expect_hit TKC-L040 "bad_guard.h"   # WRONG_GUARD_H
expect_hit TKC-L050 "bad.cc"        # bare escape hatch
expect_hit TKC-L060 "bad.cc"        # stray <immintrin.h> + intrinsic
expect_hit TKC-L070 "graph_twin.h"  # Twin(const Graph&) beside Twin(CsrGraph)

# L030 also bounds span counter keys: the over-long TKC_SPAN_COUNTER key
# is a hit of its own.
grep "\[TKC-L030 " "$out" | grep -q "bad.cc:21: .*key_longer_than_the_arg_buffer" \
  || fail "TKC-L030 did not flag the over-long span counter key"

# L002 has two kinds of hit, each pinned to its own fixture row: a
# documented name that nothing emits, and a naming-table row whose kind is
# neither counter nor gauge, whether or not its name is emitted.
grep "\[TKC-L002 " "$out" | grep -q 'observability.md:6: .*stale\.metric' \
  || fail "TKC-L002 did not flag stale.metric"
grep "\[TKC-L002 " "$out" | grep -q 'observability.md:8: .*kind "histogram"' \
  || fail "TKC-L002 did not flag the histogram row of the naming table"

# L070 names only the Graph overload of a twinned function: one hit, on
# the Graph declaration, and none for single-type declarations.
[[ $(grep -c "\[TKC-L070 " "$out") -eq 1 ]] \
  || fail "TKC-L070 should fire exactly once: $(grep "\[TKC-L070 " "$out")"
grep "\[TKC-L070 " "$out" | grep -q "graph_twin.h:12:" \
  || fail "TKC-L070 fired, but not at Twin(const Graph&)"

# The clean fixture file must produce no violations: its documented
# metrics (exact + dynamic prefix), canonical span name, justified escape
# hatch, and suppressed singleton must all pass.
grep -q "good\.cc" "$out" && fail "good.cc tripped a rule: $(grep good.cc "$out")"

# The allow() suppression in good.cc must be counted, not silent.
grep -q "1 suppressed" "$out" \
  || fail "suppression count missing from summary: $(tail -1 "$out")"

# --- JSON artifact shape (tkc.lint.v1) ---

python3 - "$tmpdir/fixture.json" <<'EOF' || fail "fixture JSON artifact malformed"
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "tkc.lint.v1", doc["schema"]
assert doc["passed"] is False
assert doc["suppressed"] == 1, doc["suppressed"]
assert doc["files_scanned"] >= 3
rules = {v["rule"] for v in doc["violations"]}
expected = {"TKC-L001", "TKC-L002", "TKC-L010", "TKC-L020",
            "TKC-L030", "TKC-L040", "TKC-L050", "TKC-L060", "TKC-L070"}
assert expected <= rules, expected - rules
for v in doc["violations"]:
    assert v["file"] and v["line"] >= 1 and v["message"], v
assert sum(doc["counts"].values()) == len(doc["violations"])
EOF

# --- real tree: must be clean, exit 0, artifact says passed ---

python3 "$lint" --root="$repo_root" --json-out="$tmpdir/tree.json" \
  --quiet >"$tmpdir/tree.out" 2>&1
status=$?
[[ $status -eq 0 ]] || {
  fail "real tree is not lint-clean (exit $status)"
  cat "$tmpdir/tree.out" >&2
}
python3 - "$tmpdir/tree.json" <<'EOF' || fail "tree JSON artifact malformed"
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "tkc.lint.v1" and doc["passed"] is True
assert not doc["violations"]
EOF

# --- CLI contract: --list-rules names every rule id ---

python3 "$lint" --list-rules >"$tmpdir/rules.out"
for rule in TKC-L001 TKC-L002 TKC-L010 TKC-L020 TKC-L030 TKC-L040 \
            TKC-L050 TKC-L060 TKC-L070; do
  grep -q "^$rule" "$tmpdir/rules.out" || fail "--list-rules omits $rule"
done

# --- exit 2 on a bogus root ---

python3 "$lint" --root="$tmpdir/does-not-exist" >/dev/null 2>&1
[[ $? -eq 2 ]] || fail "bogus --root: expected exit 2"

if [[ $failures -gt 0 ]]; then
  echo "run_lint_tests: $failures failure(s)" >&2
  exit 1
fi
echo "run_lint_tests: all assertions passed"

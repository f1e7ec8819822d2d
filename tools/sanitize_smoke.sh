#!/usr/bin/env bash
# Sanitizer smoke run: configure, build, and drive the tier-1 test suite
# under AddressSanitizer, ThreadSanitizer, and/or UndefinedBehaviorSanitizer
# via the TKC_SANITIZE CMake option. TSan is the gate for the parallel
# kernels (support counting and the DN-Graph sweeps); ASan covers the rest
# of the read path; UBSan (with -fno-sanitize-recover=all) turns any
# overflow/shift/alignment slip in the peel or the dynamic cascades into a
# hard test failure. This script is the single entry point CI uses for its
# sanitizer matrix legs.
#
# usage: tools/sanitize_smoke.sh [address|thread|undefined|all]  (default: all)

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
mode="${1:-all}"

# Convention-lint summary up front (informational here — the dedicated
# CI step gates on it; see docs/static_analysis.md), so a sanitizer run
# also tells you whether the tree drifted from its conventions.
if command -v python3 >/dev/null 2>&1; then
  echo "== tkc-lint =="
  python3 "$repo_root/tools/tkc_lint.py" --root="$repo_root" --quiet || true
fi

run_one() {
  local sanitizer="$1"
  local build_dir="$repo_root/build-$sanitizer"
  echo "== $sanitizer: configure =="
  cmake -S "$repo_root" -B "$build_dir" -DTKC_SANITIZE="$sanitizer" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  echo "== $sanitizer: build =="
  cmake --build "$build_dir" -j "$(nproc)" >/dev/null
  echo "== $sanitizer: ctest =="
  (cd "$build_dir" && UBSAN_OPTIONS="print_stacktrace=1" \
    ctest --output-on-failure)
  echo "== $sanitizer: parallel support + index CLI =="
  # Drive the parallel support count and triangle-index fill through the
  # CLI so the TSan leg exercises the concurrent passes (per-worker
  # shards, atomic slot claims) on a real generated graph, not just the
  # unit tests' small shapes.
  local smoke_dir
  smoke_dir="$(mktemp -d)"
  "$build_dir/tools/tkc" generate plc --out="$smoke_dir/g.txt" \
    --n=2000 --m=4 --seed=7
  # --trace-out makes the sanitized run also exercise the timeline
  # recorder's concurrent per-thread track registration and recording
  # (important for the TSan leg), and proves the artifact stays valid.
  "$build_dir/tools/tkc" decompose "$smoke_dir/g.txt" --threads=4 \
    --trace-out="$smoke_dir/trace.json" > "$smoke_dir/kappa_par.txt"
  "$build_dir/tools/json_check" "$smoke_dir/trace.json" \
    --require=schema,traceEvents,tracks
  "$build_dir/tools/tkc" decompose "$smoke_dir/g.txt" --threads=1 \
    > "$smoke_dir/kappa_ser.txt"
  # The trailing summary line embeds wall time; compare κ rows only.
  if ! diff <(grep -v '^#' "$smoke_dir/kappa_par.txt") \
            <(grep -v '^#' "$smoke_dir/kappa_ser.txt"); then
    echo "!! 4-thread kappa differs from 1-thread kappa" >&2
    exit 1
  fi
  echo "== $sanitizer: relabel CLI =="
  # --relabel=degree drives the permutation/OriginalEdge path; it must
  # reproduce the unrelabeled κ output byte for byte.
  "$build_dir/tools/tkc" decompose "$smoke_dir/g.txt" --threads=4 \
    --relabel=degree > "$smoke_dir/kappa_relabel.txt"
  if ! diff <(grep -v '^#' "$smoke_dir/kappa_par.txt") \
            <(grep -v '^#' "$smoke_dir/kappa_relabel.txt"); then
    echo "!! --relabel=degree kappa differs from unrelabeled" >&2
    exit 1
  fi
  echo "== $sanitizer: ingest + graph cache CLI =="
  # Drive the mmap chunk parser and the .tkcg cache under the sanitizers:
  # parallel chunked parse at 8 workers must match the serial parse row
  # for row, and a cache round trip (build → read-through load) must
  # serve the identical decomposition. The TSan leg sees the per-chunk
  # tokenizer workers and the parallel Freeze scatter; ASan/UBSan cover
  # the mmap lifetime and the checksum/structure validation on load.
  "$build_dir/tools/tkc" decompose "$smoke_dir/g.txt" --threads=4 \
    --ingest-threads=8 > "$smoke_dir/kappa_ingest8.txt"
  if ! diff <(grep -v '^#' "$smoke_dir/kappa_par.txt") \
            <(grep -v '^#' "$smoke_dir/kappa_ingest8.txt"); then
    echo "!! --ingest-threads=8 kappa differs from serial ingest" >&2
    exit 1
  fi
  "$build_dir/tools/tkc" cache build "$smoke_dir/g.txt" \
    --out="$smoke_dir/g.tkcg"
  "$build_dir/tools/tkc" cache load "$smoke_dir/g.tkcg"
  "$build_dir/tools/tkc" decompose "$smoke_dir/g.txt" --threads=4 \
    --graph-cache="$smoke_dir/g.tkcg" > "$smoke_dir/kappa_cache.txt"
  if ! diff <(grep -v '^#' "$smoke_dir/kappa_par.txt") \
            <(grep -v '^#' "$smoke_dir/kappa_cache.txt"); then
    echo "!! --graph-cache kappa differs from text ingest" >&2
    exit 1
  fi
  echo "== $sanitizer: engine replay CLI =="
  # Stream a generated event log through the versioned engine (DeltaCsr
  # overlay, batched maintenance, compaction, zero-copy snapshots) with
  # --threads=4 so the TSan leg sees the snapshot analytics (parallel
  # support kernel on the shared frozen CSR) interleaved with the serving
  # path; --verify holds the maintained κ to a scratch recompute and the
  # compaction-boundary certificate.
  awk 'BEGIN {
    srand(11); print "# sanitize replay events"
    for (i = 0; i < 1500; i++) {
      u = int(rand() * 2100); v = int(rand() * 2100)
      if (u != v) print (rand() < 0.7 ? "+" : "-"), u, v
    }
  }' > "$smoke_dir/events.txt"
  "$build_dir/tools/tkc" replay "$smoke_dir/g.txt" \
    --events="$smoke_dir/events.txt" --batch=64 --query-every=5 \
    --compact-edits=512 --threads=4 --verify \
    --json-out="$smoke_dir/replay.json" | tail -n 2
  "$build_dir/tools/json_check" "$smoke_dir/replay.json" \
    --require=schema,verified,update_stats
  rm -rf "$smoke_dir"
  echo "== $sanitizer: OK =="
}

case "$mode" in
  address|thread|undefined)
    run_one "$mode"
    ;;
  all)
    run_one address
    run_one thread
    run_one undefined
    ;;
  *)
    echo "usage: $0 [address|thread|undefined|all]" >&2
    exit 2
    ;;
esac

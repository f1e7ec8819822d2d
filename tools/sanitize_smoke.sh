#!/usr/bin/env bash
# Sanitizer smoke run: configure, build, and drive the tier-1 test suite
# under AddressSanitizer, ThreadSanitizer, and/or UndefinedBehaviorSanitizer
# via the TKC_SANITIZE CMake option. TSan is the gate for the parallel
# kernels (support counting, the peel and the DN-Graph sweeps); ASan
# covers the rest of the read path; UBSan (with -fno-sanitize-recover=all)
# turns any overflow/shift/alignment slip in the peel or the dynamic
# cascades into a hard test failure. This script is the single entry point
# CI uses for its sanitizer matrix legs.
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
  echo "== $sanitizer: parallel support, index and peel CLI =="
  # Drive the parallel support count, the triangle-index fill and the
  # level-synchronous peel through the CLI so the TSan leg exercises the
  # concurrent passes (per-worker shards, atomic slot claims, the peel's
  # compare-and-swap decrements and its parallel filter and radix sort) on
  # a real generated graph, not just the unit tests' small shapes. At
  # ~160k edges its largest κ levels hold tens of thousands of edges, far
  # above the peel's 4,096-edge grain, so the sub-rounds run on the pool.
  local smoke_dir
  smoke_dir="$(mktemp -d)"
  "$build_dir/tools/tkc" generate plc --out="$smoke_dir/peel.txt" \
    --n=20000 --m=8 --seed=7
  # --trace-out makes the sanitized run also exercise the timeline
  # recorder's concurrent per-thread track registration and recording
  # (important for the TSan leg), and proves the artifact stays valid.
  "$build_dir/tools/tkc" decompose "$smoke_dir/peel.txt" --threads=4 \
    --trace-out="$smoke_dir/trace.json" > "$smoke_dir/peel_par.txt"
  "$build_dir/tools/json_check" "$smoke_dir/trace.json" \
    --require=schema,traceEvents,tracks
  "$build_dir/tools/tkc" decompose "$smoke_dir/peel.txt" --threads=1 \
    > "$smoke_dir/peel_ser.txt"
  "$build_dir/tools/tkc" decompose "$smoke_dir/peel.txt" --threads=4 \
    --mode=recompute > "$smoke_dir/peel_recompute.txt"
  # The trailing summary line embeds wall time; compare κ rows only.
  if ! diff <(grep -v '^#' "$smoke_dir/peel_par.txt") \
            <(grep -v '^#' "$smoke_dir/peel_ser.txt"); then
    echo "!! 4-thread kappa differs from 1-thread kappa" >&2
    exit 1
  fi
  if ! diff <(grep -v '^#' "$smoke_dir/peel_par.txt") \
            <(grep -v '^#' "$smoke_dir/peel_recompute.txt"); then
    echo "!! --mode=recompute kappa differs from --mode=store" >&2
    exit 1
  fi
  # The smaller graph the ingest, cache and replay steps below share.
  "$build_dir/tools/tkc" generate plc --out="$smoke_dir/g.txt" \
    --n=2000 --m=4 --seed=7
  "$build_dir/tools/tkc" decompose "$smoke_dir/g.txt" --threads=4 \
    > "$smoke_dir/kappa_par.txt"
  echo "== $sanitizer: ingest + graph cache CLI =="
  # Drive the mmap chunk parser and the .tkcg cache under the sanitizers:
  # chunked parse at 8 threads must match the 4-thread run row for row,
  # and a cache round trip (build → read-through load) must
  # serve the identical decomposition. The TSan leg sees the per-chunk
  # tokenizer workers, the repeated-row marking (per-slice bucket counts
  # and scatter, then the per-range stamp sweep) and its EdgeId
  # scatter, and the edge-table freeze's vertex-range scatter and
  # oriented view, which every text load and cache hit runs at
  # --threads, plus the cache load's parallel row checks and the same
  # repeated-row marking over its table; ASan/UBSan cover the mmap
  # lifetime and the checksum and row validation on load.
  "$build_dir/tools/tkc" decompose "$smoke_dir/g.txt" --threads=8 \
    > "$smoke_dir/kappa_ingest8.txt"
  if ! diff <(grep -v '^#' "$smoke_dir/kappa_par.txt") \
            <(grep -v '^#' "$smoke_dir/kappa_ingest8.txt"); then
    echo "!! --threads=8 kappa differs from --threads=4" >&2
    exit 1
  fi
  # The same rows, then every row reversed, then a few self-loops: the
  # parallel dedup's duplicate branch under the sanitizer at 4 and 8
  # workers. First occurrences keep their EdgeIds, so the κ rows match
  # the clean input's.
  { cat "$smoke_dir/g.txt"
    grep -v '^#' "$smoke_dir/g.txt" | awk '{ print $2, $1 }'
    printf '3 3\n11 11\n1999 1999\n'; } > "$smoke_dir/g_dups.txt"
  for threads in 4 8; do
    "$build_dir/tools/tkc" decompose "$smoke_dir/g_dups.txt" \
      --threads="$threads" > "$smoke_dir/kappa_dups$threads.txt"
    if ! diff <(grep -v '^#' "$smoke_dir/kappa_par.txt") \
              <(grep -v '^#' "$smoke_dir/kappa_dups$threads.txt"); then
      echo "!! duplicated input at --threads=$threads differs from clean" >&2
      exit 1
    fi
  done
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
  # --threads=4. Queries read the maintained triangle total and run no
  # kernel; --verify's final recount runs the parallel support kernel on
  # the shared frozen CSR, which is where the TSan leg sees it, and holds
  # the maintained κ and triangle total to it and to the
  # compaction-boundary certificate. The text run's engine starts from the
  # parallel text freeze; a second run from --graph-cache must print the
  # same batch and query lines.
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
    --json-out="$smoke_dir/replay.json" > "$smoke_dir/replay_text.txt"
  tail -n 2 "$smoke_dir/replay_text.txt"
  "$build_dir/tools/json_check" "$smoke_dir/replay.json" \
    --require=schema,verified,update_stats
  "$build_dir/tools/tkc" replay "$smoke_dir/g.txt" \
    --events="$smoke_dir/events.txt" --batch=64 --query-every=5 \
    --compact-edits=512 --threads=4 --verify \
    --graph-cache="$smoke_dir/g.tkcg" > "$smoke_dir/replay_cache.txt"
  # Batch lines end in a wall-time seconds= field; compare the rest.
  if ! diff <(grep -E '^(batch|query)' "$smoke_dir/replay_text.txt" |
                sed 's/ seconds=.*//') \
            <(grep -E '^(batch|query)' "$smoke_dir/replay_cache.txt" |
                sed 's/ seconds=.*//'); then
    echo "!! --graph-cache replay differs from text ingest" >&2
    exit 1
  fi
  if ! grep -q ' verified=yes' "$smoke_dir/replay_cache.txt"; then
    echo "!! --graph-cache replay failed --verify" >&2
    exit 1
  fi
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

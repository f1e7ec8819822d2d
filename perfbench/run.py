#!/usr/bin/env python3
"""The repository benchmark: `tkc decompose` and `tkc replay` end to end,
plus a traced pass that times each layer (io -> graph -> core -> engine).

Run from the repository root:

    python3 perfbench/run.py --workload decompose_plc2m --seed 1 \
        --seconds 45 --trace 0

`--trace 0` measures the real `tkc` binary, one child process at a time,
and prints the end-to-end metrics; `--trace 1` runs the traced layer pass
in a helper process and prints the per-layer metrics. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. `--tiny` shrinks every input (used by perfbench/test_run.py);
`--fault` flips one kappa in the compared output, which must be reported
as a failure. Workloads, metrics and layers: perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BATCH = 64  # tkc replay --batch
QUERY_EVERY = 8  # tkc replay --query-every
CHILD_TIMEOUT_S = 120  # a child still running after this is killed
RUN_DEADLINE_S = 100  # no new timed child starts after this point of a run
MAX_ROUNDS = 40  # caps the child count on tiny inputs
SETUP_SECONDS = 2  # set-up is repeated this long (at least 7 times)


@dataclass(frozen=True)
class Workload:
    command: str  # the tkc subcommand measured end to end
    size: dict  # generator flags, as `tkc generate plc` takes them
    events: int  # churn events (replay input; the layer pass's engine part)
    tiny_size: dict
    tiny_events: int
    rounds: int  # timed rounds (N threads, then one) a run makes at least
    why: str


# Two workloads, not more: the host's speed drifts by 10-30% over tens of
# seconds, which only runs of ~45 s average out, and three workloads of that
# length make a full benchmark pass too long. A skewed RMAT (core ~90% of
# the wall clock) was dropped for it; see README.md.
WORKLOADS = {
    "decompose_plc2m": Workload(
        command="decompose", size={"n": 250000, "m": 8},
        events=64, tiny_size={"n": 2000, "m": 8}, tiny_events=64, rounds=1,
        why="The ROADMAP graph: 2.0M edges, max kappa 7. io parse, graph "
            "freeze and cli output are about half the wall clock and core "
            "support + peel the other half: io/graph/cli rewrites (ROADMAP "
            "item 4) and the triangle index (item 3) both show here."),
    "replay_churn": Workload(
        command="replay", size={"n": 10000, "m": 8},
        events=6400, tiny_size={"n": 1000, "m": 8}, tiny_events=640,
        # Two rounds of ~10 s children, so that each time metric is the
        # median of children run ~20 s apart rather than of one child.
        rounds=2,
        why="80k-edge base plus 6,400 churn events (live-edge removals and "
            "wedge-closing inserts) in 100 batches of 64, a snapshot query "
            "every 8: engine writes beside reads. Batch routing and the "
            "per-event path (item 5) show here, and so does a static-peel "
            "change that slows maintenance."),
}

END_TO_END = {
    "wall_s": "s",
    "wall_1t_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "events_per_s": "1/s",
    "batch_p50_ms": "ms",
    "batch_p90_ms": "ms",
}

PER_LAYER = {
    "io.parse_s": "s",
    "io.events_parse_s": "s",
    "graph.freeze_s": "s",
    "core.support_s": "s",
    "core.support_cpu_s": "s",
    "core.support_1t_s": "s",
    "core.peel_s": "s",
    "core.peel_cpu_s": "s",
    "core.peel_1t_s": "s",
    "core.triangles": "count",
    "engine.init_s": "s",
    "engine.apply_s": "s",
    "engine.snapshot_s": "s",
    "engine.compact_s": "s",
    "engine.candidate_edges": "count",
    "engine.triangles_scanned": "count",
    "engine.compactions": "count",
    "engine.useful_ratio": "ratio",
    "pass.command_s": "s",
    "cli.wall_s": "s",
    "cli.other_s": "s",
}

# The spans whose sum is the traced counterpart of each command's wall clock.
COMMAND_SPANS = {
    "decompose": ["io.parse", "graph.freeze", "core.support", "core.peel"],
    "replay": ["io.parse", "io.events_parse", "engine.init", "engine.replay"],
}


class BenchError(Exception):
    """A failure that leaves no result to print."""


@dataclass
class Child:
    threads: int
    exit_code: int
    wall: float
    cpu: float
    rss_kib: int
    output: Path
    digest: str = ""
    summary: dict = None
    batch_seconds: list = None


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def spawn(argv, stdout_path, stderr_path):
    """Runs one child to completion; wall clock, CPU and peak RSS come from
    its wait4 rusage."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    previous = signal.signal(signal.SIGALRM,
                             lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    return Child(threads=0, exit_code=os.waitstatus_to_exitcode(status),
                 wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                 rss_kib=usage.ru_maxrss, output=Path(stdout_path))


def run_helper(helper, args, timeout):
    proc = subprocess.run([str(helper)] + args, capture_output=True,
                          text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise BenchError(f"perfbench_layers {args[0]} failed: "
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def read_cmake_cache(build_dir):
    cache = {}
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        match = re.match(r"^([A-Za-z_][A-Za-z0-9_]*):[A-Z]+=(.*)$", line)
        if match:
            cache[match.group(1)] = match.group(2)
    return cache


def build(root, build_dir):
    """Configures once, then builds the tkc CLI and the layer-pass helper."""
    log = build_dir.parent / "perfbench-build.log"
    build_dir.parent.mkdir(parents=True, exist_ok=True)
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "tkc_cli", "perfbench_layers"])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                tail = log.read_text()[-2000:]
                raise BenchError(f"build failed ({' '.join(step)}):\n{tail}")
    return build_dir / "tkc" / "tools" / "tkc", build_dir / "perfbench_layers"


def machine_context(build_dir, threads):
    cache = read_cmake_cache(build_dir)
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
        "cpu_model": cpu_model,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "tkc_check_level": cache.get("TKC_CHECK_LEVEL", "0"),
        "sanitizer": cache.get("TKC_SANITIZE", "") or "none",
        "tracing": cache.get("TKC_ENABLE_TRACING", "ON"),
    }


def refuse_unclean(context):
    if context["tkc_check_level"] != "0" or context["sanitizer"] != "none":
        raise BenchError(
            "refusing to measure a build with TKC_CHECK_LEVEL="
            f"{context['tkc_check_level']} and sanitizer "
            f"{context['sanitizer']}: it is a different program")


# --------------------------------------------------------------------------
# Children and their output checks.

def digest_output(child, command):
    """Digest of the output with its timing fields removed, so runs at any
    thread count must agree byte for byte."""
    data = child.output.read_bytes()
    if command == "decompose":
        body, _, last = data.rstrip(b"\n").rpartition(b"\n")
        child.summary = dict(re.findall(r"(\w+)=(\S+)", last.decode()))
        stripped = body + b"\n" + re.sub(rb" seconds=\S+", b"", last)
    else:
        text = data.decode()
        child.batch_seconds = [
            float(s) for s in re.findall(r"^batch \d+: .* seconds=(\S+)$",
                                         text, re.M)]
        last = text.rstrip("\n").rpartition("\n")[2]
        child.summary = dict(re.findall(r"(\w+)=(\S+)", last))
        stripped = re.sub(r" (seconds|events_per_sec)=\S+", "",
                          text).encode()
    child.digest = hashlib.sha256(stripped).hexdigest()


def run_children(tkc, wl, inputs, work, warmup, timed, seconds, rounds=1):
    """Runs `tkc <command>` once untimed per thread count in `warmup`, then
    the thread counts in `timed` in turn, for at least `rounds` rounds and
    until `seconds` have passed."""

    def argv(threads):
        if wl.command == "decompose":
            return [str(tkc), "decompose", str(inputs["graph"]),
                    f"--threads={threads}"]
        return [str(tkc), "replay", str(inputs["graph"]),
                f"--events={inputs['events']}", f"--batch={BATCH}",
                f"--query-every={QUERY_EVERY}", f"--threads={threads}"]

    def one(threads):
        child = spawn(argv(threads), work / f"out_{threads}t.txt",
                      work / f"err_{threads}t.txt")
        child.threads = threads
        if child.exit_code == 0:
            digest_output(child, wl.command)
        return child

    for threads in warmup:
        one(threads)
    children = []
    start = time.perf_counter()
    done = 0
    round_s = 0.0
    # A further round starts only if it is expected to end within `seconds`.
    while done < rounds or (
            time.perf_counter() - start + round_s <= seconds and
            time.perf_counter() - RUN_START < RUN_DEADLINE_S and
            done < MAX_ROUNDS):
        round_start = time.perf_counter()
        for threads in timed:
            children.append(one(threads))
        round_s = time.perf_counter() - round_start
        done += 1
    return children


def check_children(children, facts, command):
    """Failures per child: a nonzero exit, output that differs from the
    first child's (apart from timings), or a summary that disagrees with the
    layer pass's untimed recompute."""
    failures = []
    reference = next((c.digest for c in children if c.exit_code == 0), None)
    for c in children:
        if c.exit_code != 0:
            failures.append(f"{c.threads}t child exited {c.exit_code}")
        elif c.digest != reference:
            failures.append(f"{c.threads}t output differs from the first")
        elif command == "decompose" and any(
                c.summary.get(k) != str(facts[k])
                for k in ("edges", "triangles", "max_kappa")):
            failures.append(f"{c.threads}t summary {c.summary} != {facts}")
        elif command == "replay" and (
                c.summary.get("edges") != str(facts["final_edges"]) or
                c.summary.get("max_kappa") != str(facts["final_max_kappa"])):
            failures.append(f"{c.threads}t final state {c.summary} != {facts}")
    return failures


def flip_one_kappa(child, command):
    """The seeded fault: one flipped kappa in the output that is compared."""
    if command == "replay":
        child.summary["max_kappa"] = str(int(child.summary["max_kappa"]) + 1)
        return
    lines = child.output.read_bytes().split(b"\n")
    u, v, kappa, size = lines[1].split(b" ")
    lines[1] = b" ".join([u, v, str(int(kappa) + 1).encode(), size])
    child.output.write_bytes(b"\n".join(lines))


# --------------------------------------------------------------------------
# Metrics.

def end_to_end_metrics(children, setup, threads, command):
    children = [c for c in children if c.exit_code == 0]
    n_thread = [c for c in children if c.threads == threads]
    one_thread = [c for c in children if c.threads == 1]
    if not n_thread or not one_thread:
        raise BenchError("no successful child to measure")
    metrics = {
        "wall_s": statistics.median(c.wall for c in n_thread),
        "wall_1t_s": statistics.median(c.wall for c in one_thread),
        "cpu_s": statistics.median(c.cpu for c in n_thread),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(c.rss_kib for c in n_thread) / 1024,
    }
    if command == "decompose":
        # One invocation is one batch: the program's own seconds= covers
        # everything after the load (freeze, support, peel).
        batches = [float(c.summary["seconds"]) for c in n_thread]
        rates = [int(c.summary["edges"]) / float(c.summary["seconds"])
                 for c in n_thread]
    else:
        # ApplyBatch runs on one thread whatever --threads says, so the
        # batches of every child are samples of the same latency.
        batches = [s for c in children for s in c.batch_seconds]
        rates = [int(c.summary["events"]) / sum(c.batch_seconds)
                 for c in children]
    metrics["events_per_s"] = statistics.median(rates)
    metrics["batch_p50_ms"] = percentile(batches, 50) * 1e3
    metrics["batch_p90_ms"] = percentile(batches, 90) * 1e3
    return metrics


def per_layer_metrics(passes, counts, cli_wall, command):
    totals = []
    for p in passes:
        total = {}
        for span in p["spans"]:
            duration = span["end"] - span["start"]
            total[span["name"]] = total.get(span["name"], 0.0) + duration
            total[span["name"] + ".cpu"] = (total.get(span["name"] + ".cpu",
                                                      0.0) + span["cpu"])
        total["command"] = sum(total[name] for name in COMMAND_SPANS[command])
        totals.append(total)

    def median(key):
        return statistics.median(t[key] for t in totals)

    command_s = median("command")
    candidates = counts["engine.candidate_edges"]
    useful = counts["engine.promoted_edges"] + counts["engine.demoted_edges"]
    return {
        "io.parse_s": median("io.parse"),
        "io.events_parse_s": median("io.events_parse"),
        "graph.freeze_s": median("graph.freeze"),
        "core.support_s": median("core.support"),
        "core.support_cpu_s": median("core.support.cpu"),
        "core.support_1t_s": median("core.support_1t"),
        "core.peel_s": median("core.peel"),
        "core.peel_cpu_s": median("core.peel.cpu"),
        "core.peel_1t_s": median("core.peel_1t"),
        "core.triangles": counts["core.triangles"],
        "engine.init_s": median("engine.init"),
        "engine.apply_s": median("engine.apply"),
        "engine.snapshot_s": median("engine.snapshot"),
        "engine.compact_s": median("engine.compact"),
        "engine.candidate_edges": candidates,
        "engine.triangles_scanned": counts["engine.triangles_scanned"],
        "engine.compactions": counts["engine.compactions"],
        "engine.useful_ratio": useful / candidates if candidates else 0.0,
        "pass.command_s": command_s,
        "cli.wall_s": cli_wall,
        "cli.other_s": cli_wall - command_s,
    }


def write_chrome_trace(path, passes, context):
    """Spans of every timed pass, one track per pass, as Chrome trace
    'complete' events; each names its parent so self time is derivable."""
    events = []
    for index, p in enumerate(passes):
        spans = p["spans"]
        for span_id, span in enumerate(spans):
            parent = span["parent"]
            events.append({
                "name": span["name"], "cat": span["name"].split(".")[0],
                "ph": "X", "pid": 1, "tid": index + 1,
                "ts": span["start"] * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": {"id": span_id, "parent_id": parent,
                         "parent": spans[parent]["name"] if parent >= 0
                         else None,
                         "cpu_s": span["cpu"]},
            })
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms",
                                "otherData": context}))


# --------------------------------------------------------------------------

RUN_START = time.perf_counter()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (the benchmark's own test)")
    parser.add_argument("--fault", action="store_true",
                        help="flip one kappa in the compared output")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    root = Path.cwd()
    if not (root / "src" / "tkc").is_dir() or \
            not (root / "CMakeLists.txt").is_file():
        raise BenchError("run from the root of a tkc source tree")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    tkc, helper = build(root, build_dir)

    threads = len(os.sched_getaffinity(0))
    context = machine_context(build_dir, threads)
    refuse_unclean(context)

    tag = f"{args.workload}{'-tiny' if args.tiny else ''}-{args.seed}"
    work = build_root / "perfbench-work" / tag
    work.mkdir(parents=True, exist_ok=True)
    try:
        measure(args, wl, tkc, helper, threads, context, work)
    finally:
        # Inputs and outputs reach ~100 MB a run; only the reports are kept.
        for path in work.glob("*.txt"):
            path.unlink()


def measure(args, wl, tkc, helper, threads, context, work):
    inputs = {"graph": work / "graph.txt", "events": work / "events.txt"}
    size = wl.tiny_size if args.tiny else wl.size
    shape = run_helper(helper, [
        "gen", f"--seed={args.seed}",
        f"--events={wl.tiny_events if args.tiny else wl.events}",
        f"--graph={inputs['graph']}", f"--events-out={inputs['events']}"] +
        [f"--{k}={v}" for k, v in size.items()], timeout=120)

    # Warm-up for decompose: one untimed child. A replay child is long
    # enough (100 batches) to need none.
    warmup = [threads] if wl.command == "decompose" else []
    if args.trace == 0:
        children = run_children(tkc, wl, inputs, work, warmup, [threads, 1],
                                args.seconds, rounds=wl.rounds)
    else:
        # Untraced walls at N threads, for cli.other_s.
        children = run_children(tkc, wl, inputs, work, warmup, [threads], 0,
                                rounds=3 if wl.command == "decompose" else 1)
    # The last good N-thread child's output is compared with the layer
    # pass (its rows file is not overwritten by a later child).
    compared = [c for c in children if c.exit_code == 0 and
                c.threads == threads][-1:]
    if args.fault and compared:
        flip_one_kappa(compared[0], wl.command)

    pass_args = [
        "pass", f"--graph={inputs['graph']}", f"--events={inputs['events']}",
        f"--threads={threads}", f"--setup={wl.command}",
        f"--batch={BATCH}", f"--query-every={QUERY_EVERY}"]
    if wl.command == "decompose" and compared:
        pass_args.append(f"--rows={compared[0].output}")
    if wl.command == "replay" or args.trace == 1:
        pass_args.append("--final")
    if args.trace == 0:
        pass_args += [f"--setup-seconds={SETUP_SECONDS}",
                      "--sections=decompose" if wl.command == "decompose"
                      else "--sections=none"]
    else:
        pass_args += ["--sections=all", "--certificate",
                      f"--seconds={max(1, int(args.seconds))}"]
    result = run_helper(helper, pass_args, timeout=170)
    context["kernel"] = result["kernel"]

    # One attempt per child plus one for the layer pass's own checks.
    failures = check_children(children, result["checks"]["facts"],
                              wl.command)
    failed = len(failures) + (1 if result["checks"]["failures"] else 0)
    failures += result["checks"]["failures"]
    attempted = len(children) + 1

    if args.trace == 0:
        metrics = end_to_end_metrics(children, result["setup_s"], threads,
                                     wl.command)
        units = END_TO_END
    else:
        walls = [c.wall for c in children if c.exit_code == 0]
        if not walls:
            raise BenchError("no successful child to measure")
        cli_wall = statistics.median(walls)
        metrics = per_layer_metrics(result["passes"], result["counts"],
                                    cli_wall, wl.command)
        units = PER_LAYER
        trace_path = work / "trace.json"
        write_chrome_trace(trace_path, result["passes"], context)
        print(f"# trace: {trace_path} ({len(result['passes'])} passes)")

    report = {"workload": args.workload, "seed": args.seed, "shape": shape,
              "facts": result["checks"]["facts"], "context": context,
              "failures": failures,
              "children": [{"threads": c.threads, "exit": c.exit_code,
                            "wall_s": c.wall, "cpu_s": c.cpu,
                            "rss_kib": c.rss_kib} for c in children],
              "metrics": metrics}
    (work / f"result-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2))
    print("# context " + json.dumps(context))
    print("# shape " + json.dumps({**shape, **result["checks"]["facts"]}))
    for failure in failures:
        print("# FAILED " + failure)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.TimeoutExpired, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(2)

#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload cycle-suite --seed 1 --seconds 20 --trace 0

Builds the measuring program (perfbench/, a Cargo package of its own) from
the checkout's sources, then starts it in fresh processes: several that only
set up (for setup_s) and one that measures. With --trace 1 it starts one
traced process instead and reports the per-layer metrics. Lines starting
with "info:" are for people; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# The default seed (README.md also records the held-out seed).
DEFAULT_SEED = 1

# Set-up probes: fresh processes that only set up. At least MIN_PROBES, and
# more while they have taken less than PROBE_SECONDS, up to MAX_PROBES.
MIN_PROBES = 2
MAX_PROBES = 15
PROBE_SECONDS = 4.0

# Every process started after the build ends within this many seconds, so
# a run that hangs still exits well inside 180 s.
RUN_DEADLINE_S = 170

# glibc otherwise decides from the history of earlier frees whether a large
# block is mmapped, and on some seeds the peak jumps by about one
# instruction-trace buffer (45 vs 72 MiB on cycle-suite). Pinning both
# thresholds keeps every block on the heap and every freed page reusable,
# so peak_rss_mib follows the largest live heap.
ALLOCATOR_ENV = {"MALLOC_MMAP_THRESHOLD_": str(1 << 30), "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the measuring program; returns the path of its executable."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail("no repository sources next to the benchmark; nothing to build")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(ROOT, target, "release", "lukewarm-perfbench")


def child(binary, deadline, mode, workload, seed, *extra):
    """Runs one measuring process; forwards its info lines and returns the
    JSON object on its last line."""
    cmd = [binary, mode, "--workload", workload, "--seed", str(seed), *extra]
    env = {**os.environ, **ALLOCATOR_ENV}
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{mode} process failed: {e}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{mode} process exited with code {done.returncode}")
    for line in lines[:-1]:
        if mode != "setup":
            print(line)
    return json.loads(lines[-1])


def measure(binary, deadline, workload, seed, seconds, spec):
    probes = []
    start = time.monotonic()
    while len(probes) < MIN_PROBES or (
        len(probes) < MAX_PROBES and time.monotonic() - start < PROBE_SECONDS
    ):
        probes.append(child(binary, deadline, "setup", workload, seed)["setup_s"])
    got = child(binary, deadline, "measure", workload, seed, "--seconds", str(seconds))
    setups = probes + [got["setup_s"]]
    attempted, failed = got["attempted"], got["failed"]
    print(f"info: setup_s is the median of {len(setups)} fresh processes")
    print(f"info: failed_frac {failed / attempted} ({failed} of {attempted} operations)")
    values = {
        "inv_per_s": got["inv_per_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mib": got["peak_rss_mib"],
        "ok_frac": (attempted - failed) / attempted,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    return attempted, failed, metrics


def trace(binary, deadline, workload, seed, spec):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{workload}-{seed}.json")
    got = child(binary, deadline, "trace", workload, seed, "--out", spans)
    print(f"info: spans written to {os.path.relpath(spans, ROOT)}")
    names = [m["name"] for m in spec["per_layer"]]
    unknown = sorted(set(got["metrics"]) - set(names))
    if unknown:
        fail(f"traced run reported metrics BENCHMARK.json does not list: {unknown}")
    idle = [n for n in names if n not in got["metrics"]]
    if idle:
        print(f"info: layers not exercised on {workload}, reported as 0: {', '.join(idle)}")
    metrics = {
        m["name"]: {"value": got["metrics"].get(m["name"], 0.0), "unit": m["unit"]} for m in spec["per_layer"]
    }
    return got["attempted"], got["failed"], metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        fail("--seed must be a non-negative integer")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    binary = build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.trace:
        attempted, failed, metrics = trace(binary, deadline, args.workload, args.seed, spec)
    else:
        attempted, failed, metrics = measure(binary, deadline, args.workload, args.seed, seconds, spec)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

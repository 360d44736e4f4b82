#!/usr/bin/env python3
"""Build and run the request-path benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the library
from src/) into .bench_build/ (or $CARGO_TARGET_DIR when set); later calls
rebuild incrementally. Build output goes to standard error.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; its metrics are exactly the
end_to_end metrics of BENCHMARK.json with --trace 0 and exactly its
per_layer metrics with --trace 1. A run that cannot produce that line
exits nonzero without printing it.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds; returns the build directory."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            step(configure, "configure")
        step(["cmake", "--build", out_dir, "-j", "4"], "build")


def step(cmd, what):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{what} failed: {e}")
    if done.returncode != 0:
        fail(f"{what} failed (exit {done.returncode})")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the run did not end with a result object")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result object has the wrong keys")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        fail("attempted/failed are not counts")
    want = declared_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}")


def print_overhead(work, workload, seed):
    """Traced end-to-end figures next to the untraced run of the same seed."""
    def load(trace):
        path = os.path.join(work, "results",
                            f"{workload}-seed{seed}-trace{trace}.json")
        try:
            with open(path) as f:
                return json.load(f)
        except (OSError, ValueError):
            return None

    traced, untraced = load(1), load(0)
    if traced is None:
        return
    if untraced is None:
        print(f"tracing overhead: no untraced run of {workload} seed {seed} "
              "recorded in this build directory; run it with --trace 0 first")
        return
    print("tracing overhead (traced vs untraced, same workload and seed):")
    for group in ("end_to_end", "workload_only"):
        for name, m in traced[group].items():
            base = untraced[group].get(name)
            if base is None or base["value"] == 0:
                continue
            change = 100.0 * (m["value"] - base["value"]) / base["value"]
            print(f"  {name:<16} traced {m['value']:14.4f} untraced "
                  f"{base['value']:14.4f} {m['unit']:<4} ({change:+.1f}%)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the helper unit tests")
    args = parser.parse_args()

    out_dir = build_dir()
    build(out_dir)
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(out_dir, "perfbench_selftest")],
                                timeout=RUN_TIMEOUT_S).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    work = os.path.join(out_dir, "work")
    cmd = [os.path.join(out_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S}s")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail(f"benchmark exited with {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    check_result(lines[-1], args.trace == 1)
    if args.trace == 1:
        print_overhead(work, args.workload, args.seed)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()

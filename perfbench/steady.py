#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 perfbench/steady.py [--runs 10] [--sets 1]

Runs every workload of BENCHMARK.json --runs times, with seeds 1..runs and
its run_seconds, through perfbench/run.py with --trace 0, and prints for
each end-to-end metric the median, the quartiles
(statistics.quantiles(n=4)) and the spread (q3 - q1) / median against the
metric's bound in BENCHMARK.json.

With --sets 2 it does that twice and also checks agreement: for every
metric the two sets' medians may differ by at most the bound, in either
direction, as a share of the first set's median.

Exits nonzero when any spread, setup_s included, exceeds its bound, when
the sets disagree, or when a run fails or reports failed operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


def run_set(spec, runs, label):
    """({workload: {metric: [values]}}, whether every run succeeded)."""
    values = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        per_metric = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, runs + 1):
            result = run_once(workload, seed, spec["run_seconds"])
            if result is None or not result["correct"] or result["failed"]:
                print(f"{label} {workload} seed {seed}: run failed or reported "
                      f"failed operations: {result}")
                ok = False
                continue
            for name, m in result["metrics"].items():
                per_metric[name].append(m["value"])
            print(f"{label} {workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4f}" for n, m in result["metrics"].items()),
                flush=True)
        values[workload] = per_metric
    return values, ok


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]

    sets = []
    ok = True
    for s in range(args.sets):
        values, set_ok = run_set(spec, args.runs, f"set {s + 1}")
        sets.append(values)
        ok = ok and set_ok

    print(f"\n{'workload':<14} {'metric':<14} {'set':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6} verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s, values in enumerate(sets):
                v = values[workload][name]
                if len(v) < 2:
                    print(f"{workload:<14} {name:<14} {s + 1:>3} too few runs")
                    ok = False
                    continue
                med, q1, q3, sp = spread(v)
                medians.append(med)
                verdict = "ok" if sp <= bound / 3 else (
                    "within bound" if sp <= bound else "TOO NOISY")
                ok = ok and sp <= bound
                print(f"{workload:<14} {name:<14} {s + 1:>3} {med:12.4f} "
                      f"{q1:12.4f} {q3:12.4f} {sp:7.3f} {bound:6.2f} {verdict}")
            if len(medians) == 2:
                first, second = medians
                change = (second - first) / first
                worse = change > 0 if metric["better"] == "lower" else change < 0
                agree = abs(change) <= bound
                ok = ok and agree
                print(f"{workload:<14} {name:<14} agreement: second median "
                      f"{'worse' if worse else 'better'} by "
                      f"{abs(change):.3f} (bound {bound:.2f}) "
                      f"{'ok' if agree else 'DISAGREE'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

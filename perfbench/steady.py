#!/usr/bin/env python3
"""Run one workload several times and report how steady its metrics are.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--sets 1]
                                [--first-seed 100] [--seconds S] [--trace 0]

Run from the repository root. Each run uses its own seed (first-seed,
first-seed + 1, ...), so a set of runs also varies the generated inputs.
For every metric the script prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread: the distance
between the quartiles as a share of the median. With --trace 0 each
spread is compared with the metric's bound from BENCHMARK.json: "steady"
below a third of the bound, "ok" below the bound, "NOISY" above it
(setup_s is reported but not judged on spread). With --sets 2 or more,
each later set's median is compared with the first set's, in the metric's
"worse" direction, against the bound. Exits non-zero if a run fails, a
run reports incorrect output, or a judged metric is NOISY or drifts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    sets = []
    healthy = True
    for s in range(args.sets):
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            result = run_once(spec, args.workload, seed, seconds, args.trace)
            if not result["correct"] or result["failed"]:
                healthy = False
            print(f"set {s + 1} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        sets.append(values)

    for s, values in enumerate(sets):
        print(f"\nset {s + 1} ({args.runs} runs, {args.workload}, {seconds} s)")
        print(f"{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name, {}).get("bound") if args.trace == 0 else None
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = "steady" if spread < bound / 3 else "ok" if spread <= bound else "NOISY"
                healthy &= verdict != "NOISY"
            print(f"{name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.3%} "
                  f"{'' if bound is None else bound:>6}  {verdict}")

    if len(sets) > 1 and args.trace == 0:
        print("\nmedian drift against set 1 (positive = worse)")
        for name, first in sets[0].items():
            m = bounds.get(name)
            if m is None:
                continue
            base = statistics.median(first)
            for s, values in enumerate(sets[1:], start=2):
                later = statistics.median(values[name])
                worse = (later - base) / base if m["better"] == "lower" else (base - later) / base
                verdict = "ok" if worse <= m["bound"] else "DRIFT"
                healthy &= verdict == "ok"
                print(f"{name:<28} set {s}: {worse:>+8.3%}  bound {m['bound']}  {verdict}")
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())

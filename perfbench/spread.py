#!/usr/bin/env python3
"""Runs the benchmark repeatedly and reports each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10]
                                [--seconds S] [--trace 0|1]

For every workload and metric it prints the median of the runs (one run
per seed), the first and third quartile as statistics.quantiles(n=4)
gives them, and the quartile spread as a share of the median.  With
--trace 0 it compares each spread with the metric's bound in
BENCHMARK.json and marks spreads above a third of the bound.  Exits
non-zero when a run fails or reports incorrect output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: run failed (exit %d)" %
                      (workload, seed, proc.returncode))
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print("%s seed %d: incorrect, %d of %d ops failed" %
                      (workload, seed, result["failed"], result["attempted"]))
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print("== %s (%d runs)" % (workload, len(next(iter(values.values()),
                                                        []))))
        print("%-32s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], None, vals[0]))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None and name != "setup_s" and \
                    spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print("%-32s %14.6g %14.6g %14.6g %8.4f %6s %s%s" %
                  (name, med, q1, q3, spread,
                   "" if bound is None else bound, units[name], flag))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

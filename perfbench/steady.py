#!/usr/bin/env python3
"""Measures the benchmark's own run-to-run spread.

Usage: python3 perfbench/steady.py --runs N [--workloads a,b] [--seconds S]
                                   [--first-seed K] [--out F]

Runs `perfbench/run.py` N times per workload, one seed per run (K, K+1, ...),
one run at a time, from the repository root. For every metric it prints the
median, the first and third quartiles (`statistics.quantiles(values, n=4)`)
and the spread: (Q3 - Q1) / median. With `--out` the raw runs and the
summary are written as JSON; `perfbench/STEADINESS.md` records the results
used to set the bounds in `BENCHMARK.json`.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(runs):
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "runs": len(values),
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
        }
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, required=True)
    ap.add_argument("--workloads", default="write-gc,read-mostly,closed-qd64,fleet-ladder")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.seconds is None:
        with open("BENCHMARK.json") as f:
            args.seconds = json.load(f)["run_seconds"]

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for k in range(args.runs):
            r = run_once(workload, args.first_seed + k, args.seconds)
            if not r["correct"] or r["failed"]:
                sys.exit(f"{workload}: run {k} failed its checks")
            runs.append(r)
        summary = summarize(runs)
        report[workload] = {"runs": runs, "summary": summary}
        print(f"{workload} ({args.runs} runs, {args.seconds} s each)")
        for name, s in summary.items():
            print(f"  {name:28s} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} "
                  f"q3 {s['q3']:<14.6g} spread {s['spread']:.4f}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Paired benchmark runs: a base git revision against the working tree.

Usage: python3 ci/perf_pairs.py --base REV [--pairs N] [--seconds S]
           [--workloads a,b] [--first-seed K] [--trace 0|1]
           [--work-dir D] [--out F]

Builds the benchmark (`perfbench/`) twice, into separate target
directories: once from REV, exported with `git archive` into the work
directory, and once from the working tree. Then, for each workload, it runs
N pairs. Pair k runs seed K+k for S seconds on both builds, one after the
other; which build goes first alternates from pair to pair, so a slow
stretch of the machine does not always land on the same side.

For every metric it prints the base and change medians, the base's first
and third quartiles, and in how many of the N pairs the change was lower.
`gap>IQR` marks a metric whose medians differ by more than the base's
interquartile range.

Then it prints one verdict line per workload. A workload regresses when
the change's `wall_s` is higher than the base's in at least 9 of every 10
pairs; a tie counts for neither side. This is the rule the benchmark
pipeline applies to a claimed gain, turned around. CI's perf-gate job runs
`--base <parent> --pairs 10 --seconds 3`; trials of that configuration on
a planted slowdown and on an unmodified tree are recorded in CHANGES.md.

Exits 1 if any workload regresses, if any run fails its checks (`correct`
false or failed operations), or if, within a pair, any `sim_*` metric or
the per-scheme counter fingerprint the benchmark prints on standard error
differs: both builds must simulate exactly the same thing. The one
exception is a change that deletes or rewrites a line of the scheme
goldens (`crates/core/tests/goldens/scheme_reports.jsonl`) relative to
REV: it moves simulated outputs on purpose, so a workload whose simulated
work differs is reported, with its timing verdict, but does not fail the
run. Appending golden lines moves no existing output and excuses nothing.

Only the Python standard library is used. Run it from the repository root.
The work directory (default `target/perf_pairs`) keeps the exported tree
and both builds, so a second invocation against the same REV only rebuilds
what changed in the working tree.
"""

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile

WORKLOADS = "write-gc,read-mostly,closed-qd64,fleet-ladder"
# The regression verdict: the change is slower on `VERDICT_METRIC` in at
# least this share of the pairs (9 of 10).
VERDICT_METRIC = "wall_s"
SLOWER_SHARE = 0.9
# A change that deletes or rewrites a line of this file moves simulated
# outputs on purpose.
GOLDENS = "crates/core/tests/goldens/scheme_reports.jsonl"
# A run stays well inside perfbench/run.py's limit; this only stops a hung
# process.
RUN_TIMEOUT_S = 170


def git(*args):
    return subprocess.run(["git", *args], stdout=subprocess.PIPE, text=True,
                           check=True).stdout.strip()


def export_tree(rev, dest):
    """Writes the tree of `rev` into `dest` (once per commit)."""
    if os.path.isdir(dest):
        return
    tar = subprocess.run(["git", "archive", "--format=tar", rev],
                         stdout=subprocess.PIPE, check=True).stdout
    tmp = dest + ".partial"
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(tmp, filter="data")
    os.rename(tmp, dest)


def build(tree, target):
    """Builds perfbench from `tree` into `target`; returns the binary."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                    "--manifest-path", os.path.join(tree, "perfbench", "Cargo.toml")],
                   env=env, check=True)
    return os.path.join(target, "release", "ipu-perfbench")


def run_once(exe, workload, seed, seconds, trace):
    """One benchmark run: its result line and its counter fingerprint."""
    proc = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{exe} exited with {proc.returncode} on {workload} seed {seed}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    fingerprint = [line for line in proc.stderr.splitlines()
                   if line.startswith("fingerprint ")]
    return result, fingerprint


def goldens_changed(rev):
    """Whether the working tree deletes or rewrites a line of `rev`'s scheme
    goldens. Lines only appended leave every existing cell's output as it
    was, so they do not count."""
    numstat = git("diff", "--numstat", rev, "--", GOLDENS)
    return any(line.split("\t")[1] != "0" for line in numstat.splitlines())


def run_failures(workload, seed, base, change):
    """Runs that failed their own checks; these always fail the gate."""
    return [f"{workload} seed {seed}: {side} run failed its checks"
            for side, (result, _) in (("base", base), ("change", change))
            if not result["correct"] or result["failed"]]


def sim_mismatches(workload, seed, base, change):
    """Simulated values that differ within a pair: `sim_*` and fingerprints."""
    problems = []
    for name, m in base[0]["metrics"].items():
        other = change[0]["metrics"].get(name)
        if name.startswith("sim_") and (other is None or other["value"] != m["value"]):
            got = None if other is None else other["value"]
            problems.append(f"{workload} seed {seed}: {name} {m['value']} -> {got}")
    if base[1] != change[1]:
        problems.append(f"{workload} seed {seed}: counter fingerprints differ")
    return problems


def timing_verdict(base, change):
    """Pairs where the change was slower and faster, the median delta, and
    whether that is a regression. `base` and `change` are the paired
    `VERDICT_METRIC` values, pair by pair."""
    slower = sum(c > b for b, c in zip(base, change))
    faster = sum(c < b for b, c in zip(base, change))
    base_med = statistics.median(base)
    delta = (statistics.median(change) - base_med) / base_med if base_med else 0.0
    return {"slower": slower, "faster": faster, "pairs": len(base), "delta": delta,
            "regressed": slower >= math.ceil(SLOWER_SHARE * len(base))}


def workload_verdict(timing, mismatches, goldens_moved):
    """The verdict line for one workload and whether it fails the gate."""
    line = (f"{VERDICT_METRIC} higher in {timing['slower']}/{timing['pairs']} pairs, "
            f"lower in {timing['faster']}/{timing['pairs']}, median {timing['delta']:+.1%}")
    if mismatches and goldens_moved:
        return f"{line}: not gated, the goldens changed and so did the simulated work", False
    if mismatches:
        return f"{line}: FAIL, the simulated work differs", True
    if timing["regressed"]:
        return f"{line}: REGRESSION", True
    return f"{line}: pass", False


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(pairs):
    """Per metric: medians, base quartiles, and pairs where change < base."""
    rows = []
    for name, m in pairs[0][0][0]["metrics"].items():
        base = [b[0]["metrics"][name]["value"] for b, _ in pairs]
        change = [c[0]["metrics"][name]["value"] for _, c in pairs]
        base_med = statistics.median(base)
        change_med = statistics.median(change)
        q1, q3 = quartiles(base)
        rows.append({
            "metric": name,
            "unit": m["unit"],
            "base_median": base_med,
            "base_q1": q1,
            "base_q3": q3,
            "change_median": change_med,
            "delta": (change_med - base_med) / base_med if base_med else 0.0,
            "change_lower": sum(c < b for b, c in zip(base, change)),
            "pairs": len(pairs),
            "gap_exceeds_iqr": abs(change_med - base_med) > q3 - q1,
        })
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int,
                    help="seconds per run (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--workloads", default=WORKLOADS)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", default=os.path.join("target", "perf_pairs"))
    ap.add_argument("--out", help="write every run and the summary as JSON")
    args = ap.parse_args()
    if args.seconds is None:
        with open("BENCHMARK.json") as f:
            args.seconds = json.load(f)["run_seconds"]

    sha = git("rev-parse", "--verify", args.base + "^{commit}")
    work = os.path.abspath(args.work_dir)
    os.makedirs(work, exist_ok=True)
    base_tree = os.path.join(work, "tree-" + sha[:12])
    export_tree(sha, base_tree)
    exes = {
        "base": build(base_tree, os.path.join(work, "target-" + sha[:12])),
        "change": build(os.getcwd(), os.path.join(work, "target-change")),
    }
    print(f"base {sha[:12]} vs working tree: {args.pairs} pairs x {args.seconds} s, "
          f"seeds {args.first_seed}..{args.first_seed + args.pairs - 1}, trace {args.trace}")

    goldens_moved = goldens_changed(sha)
    report, failures, mismatches, verdicts = {}, [], {}, {}
    for workload in args.workloads.split(","):
        pairs, mismatches[workload] = [], []
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            runs = {side: run_once(exes[side], workload, seed, args.seconds, args.trace)
                    for side in order}
            failures += run_failures(workload, seed, runs["base"], runs["change"])
            mismatches[workload] += sim_mismatches(workload, seed, runs["base"], runs["change"])
            pairs.append((runs["base"], runs["change"]))
            print(f"  {workload} pair {k + 1}/{args.pairs} (seed {seed}) done",
                  file=sys.stderr, flush=True)
        rows = summarize(pairs)
        timing = timing_verdict(
            [b[0]["metrics"][VERDICT_METRIC]["value"] for b, _ in pairs],
            [c[0]["metrics"][VERDICT_METRIC]["value"] for _, c in pairs])
        verdicts[workload] = workload_verdict(timing, mismatches[workload], goldens_moved)
        report[workload] = {
            "pairs": [{"seed": args.first_seed + k, "base": b[0], "change": c[0]}
                      for k, (b, c) in enumerate(pairs)],
            "summary": rows,
            "verdict": dict(timing, line=verdicts[workload][0],
                            fails=verdicts[workload][1]),
        }
        print(f"{workload}")
        print(f"  {'metric':28s} {'base med':>12s} {'base q1':>12s} {'base q3':>12s} "
              f"{'change med':>12s} {'delta':>8s} {'lower':>7s}")
        for r in rows:
            mark = "  gap>IQR" if r["gap_exceeds_iqr"] else ""
            print(f"  {r['metric']:28s} {r['base_median']:12.6g} {r['base_q1']:12.6g} "
                  f"{r['base_q3']:12.6g} {r['change_median']:12.6g} {r['delta']:+8.1%} "
                  f"{r['change_lower']:>3d}/{r['pairs']:<3d}{mark}")
        sys.stdout.flush()

    mismatched = [m for w in mismatches.values() for m in w]
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"base": sha, "seconds": args.seconds, "trace": args.trace,
                       "goldens_changed": goldens_moved, "workloads": report,
                       "problems": failures + mismatched}, f, indent=1)
    for p in failures:
        print(f"FAILED {p}", file=sys.stderr)
    for p in mismatched:
        print(f"MISMATCH {p}", file=sys.stderr)
    for workload, (line, _) in verdicts.items():
        print(f"verdict {workload}: {line}")
    return 1 if failures or any(fails for _, fails in verdicts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())

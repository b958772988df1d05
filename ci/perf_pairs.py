#!/usr/bin/env python3
"""Paired benchmark runs: a base git revision against the working tree.

Usage: python3 ci/perf_pairs.py --base REV [--pairs N] [--seconds S]
           [--workloads a,b] [--first-seed K] [--trace 0|1]
           [--work-dir D] [--out F]

Builds the benchmark (`perfbench/`) twice, into separate target
directories, both from one source directory in the work directory: first
from REV, exported there with `git archive`, then from the working tree
(tracked, modified and untracked files; ignored ones are left out), copied
over it. Built from one path, identical sources give identical binaries;
from two paths the binaries' layouts differ, which moves timings by a few
percent. Then, for each workload, it runs
N pairs. Pair k runs seed K+k for S seconds on both builds, one after the
other; which build goes first alternates from pair to pair, so a slow
stretch of the machine does not always land on the same side.

For every metric it prints the base and change medians, the base's first
and third quartiles, and in how many of the N pairs the change was lower.
`gap>IQR` marks a metric whose medians differ by more than the base's
interquartile range. `>bound` marks an end-to-end metric (BENCHMARK.json's
`end_to_end`) whose change median is worse than the base median by more
than the metric's `bound`, in its `better` direction: the rule the
benchmark pipeline applies to every end-to-end metric. After the verdicts,
one `over bound` line names each marked workload and metric. The marker
is informational: it does not change the exit status.

Then it prints one verdict line per workload. A workload regresses when
the change's `wall_s` is higher than the base's in at least 9 of every 10
pairs; a tie counts for neither side. This is the rule the benchmark
pipeline applies to a claimed gain, turned around. CI's perf-gate job runs
`--base <parent> --pairs 10 --seconds 3`; trials of that configuration on
a planted slowdown and on an unmodified tree are recorded in CHANGES.md.
Traced runs (`--trace 1`) report per-layer spans and carry no `wall_s`,
so they get no timing verdict; their tables, the simulated-work check
below and `--out` are as for untraced runs.

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
The work directory (default `target/perf_pairs`) keeps both builds. Each
export keeps its files' times (REV's commit time, the working tree's own
modification times), so Cargo rebuilds only what changed since the side's
last build, and a second invocation against the same REV only rebuilds what
changed in the working tree.
"""

import argparse
import io
import json
import math
import os
import shutil
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
    """Replaces `dest` with the tree of `rev`, every file dated at the
    commit."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev],
                         stdout=subprocess.PIPE, check=True).stdout
    shutil.rmtree(dest, ignore_errors=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def export_worktree(dest, skip):
    """Replaces `dest` with the working tree: tracked files as they are now
    (deleted ones left out) and untracked ones, not the ignored ones, each
    with its own modification time. Nothing under the directory `skip` is
    copied, should the tree hold it unignored."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"],
                            stdout=subprocess.PIPE, check=True).stdout
    shutil.rmtree(dest, ignore_errors=True)
    skip = os.path.abspath(skip) + os.sep
    for path in sorted(set(os.fsdecode(listed).split("\0"))):
        if not os.path.isfile(path) or os.path.abspath(path).startswith(skip):
            continue
        target = os.path.join(dest, path)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(path, target)


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
    """The verdict line for one workload and whether it fails the gate.
    `timing` is None for runs that carry no `VERDICT_METRIC`."""
    if timing is None:
        line = f"no timing verdict, the runs carry no {VERDICT_METRIC}"
    else:
        line = (f"{VERDICT_METRIC} higher in {timing['slower']}/{timing['pairs']} pairs, "
                f"lower in {timing['faster']}/{timing['pairs']}, "
                f"median {timing['delta']:+.1%}")
    if mismatches and goldens_moved:
        return f"{line}: not gated, the goldens changed and so did the simulated work", False
    if mismatches:
        return f"{line}: FAIL, the simulated work differs", True
    if timing is not None and timing["regressed"]:
        return f"{line}: REGRESSION", True
    return f"{line}: pass", False


def judge(pairs, mismatches, goldens_moved):
    """The timing verdict of one workload's pairs (None unless every run
    carries `VERDICT_METRIC`; traced runs do not) and its verdict line."""
    timing = None
    if all(VERDICT_METRIC in run[0]["metrics"] for pair in pairs for run in pair):
        timing = timing_verdict(
            [b[0]["metrics"][VERDICT_METRIC]["value"] for b, _ in pairs],
            [c[0]["metrics"][VERDICT_METRIC]["value"] for _, c in pairs])
    return timing, workload_verdict(timing, mismatches, goldens_moved)


def load_bounds(path="BENCHMARK.json"):
    """End-to-end metric name -> (better, bound) from the benchmark file."""
    with open(path) as f:
        return {m["name"]: (m["better"], m["bound"]) for m in json.load(f)["end_to_end"]}


def exceeds_bound(name, base_med, change_med, bounds):
    """Whether `name`'s change median is worse than the base median by more
    than its bound. Metrics without a bound (per-layer ones) never are."""
    if name not in bounds or not base_med:
        return False
    better, bound = bounds[name]
    delta = (change_med - base_med) / base_med
    return delta > bound if better == "lower" else -delta > bound


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(pairs, bounds=None):
    """Per metric: medians, base quartiles, pairs where change < base, and
    whether the change median is past the metric's bound (see
    `exceeds_bound`; `bounds` as `load_bounds` returns it)."""
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
            "exceeds_bound": exceeds_bound(name, base_med, change_med, bounds or {}),
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
    bounds = load_bounds()

    sha = git("rev-parse", "--verify", args.base + "^{commit}")
    work = os.path.abspath(args.work_dir)
    os.makedirs(work, exist_ok=True)
    source = os.path.join(work, "src")
    export_tree(sha, source)
    exes = {"base": build(source, os.path.join(work, "target-" + sha[:12]))}
    export_worktree(source, work)
    exes["change"] = build(source, os.path.join(work, "target-change"))
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
        rows = summarize(pairs, bounds)
        timing, verdicts[workload] = judge(pairs, mismatches[workload], goldens_moved)
        report[workload] = {
            "pairs": [{"seed": args.first_seed + k, "base": b[0], "change": c[0]}
                      for k, (b, c) in enumerate(pairs)],
            "summary": rows,
            "verdict": dict(timing or {}, line=verdicts[workload][0],
                            fails=verdicts[workload][1]),
        }
        print(f"{workload}")
        print(f"  {'metric':28s} {'base med':>12s} {'base q1':>12s} {'base q3':>12s} "
              f"{'change med':>12s} {'delta':>8s} {'lower':>7s}")
        for r in rows:
            mark = ("  gap>IQR" if r["gap_exceeds_iqr"] else "") + \
                ("  >bound" if r["exceeds_bound"] else "")
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
    for workload, data in report.items():
        for r in data["summary"]:
            if r["exceeds_bound"]:
                print(f"over bound {workload}: {r['metric']} {r['delta']:+.1%}, "
                      f"bound {bounds[r['metric']][1]:.0%}")
    return 1 if failures or any(fails for _, fails in verdicts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())

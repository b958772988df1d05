#!/usr/bin/env python3
"""Benchmark entry point.

Usage: python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (`perfbench/Cargo.toml`, which compiles the
repository's crates from source) into `$CARGO_TARGET_DIR`, default
`.bench_build` under the current directory, then runs one workload in a
fresh process. The result line the benchmark prints is the last line of
standard output; build output and diagnostics go to standard error. Exits
non-zero, printing no result, if the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The run itself stays well inside a 180-second limit; this only stops a
# hung process.
RUN_TIMEOUT_S = 170


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "ipu-perfbench")
    proc = subprocess.Popen([exe] + sys.argv[1:], stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: run exited with {proc.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the RTDS benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_eval --seed 1 --seconds 30 --trace 0

Builds the `perfbench` package in release mode (into `$CARGO_TARGET_DIR`,
default `.bench_build`), runs it with the given arguments, and relays its
output. The last line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`. Exits non-zero, without a
result line, if the build fails or the benchmark's output is malformed; exits
non-zero with the result line if a run failed or a check did not hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "perfbench")
    run = subprocess.run(
        [exe, *sys.argv[1:]], cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(run.stdout)
        print("perfbench: no result line", file=sys.stderr)
        return run.returncode or 1
    print("\n".join(lines))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

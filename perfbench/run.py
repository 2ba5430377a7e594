#!/usr/bin/env python3
"""Builds and runs the end-to-end RAP benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark binary is built from
perfbench/CMakeLists.txt (which compiles the profiler from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Build logs go
to standard error; the last line of standard output is the JSON result.
Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("program-profile", "query-mixed")


def build(build_dir):
    steps = (
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(build_dir), "--target", "rap_perfbench",
         "-j", "4"],
    )
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [str(build_dir / "rap_perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", str(build_dir / f"spans-{args.workload}.csv")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())

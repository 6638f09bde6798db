#!/usr/bin/env python3
"""Build the simulator from source and run one benchmark workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper_detailed --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Build products and run artifacts (daemon caches, Chrome traces) go under
$CARGO_TARGET_DIR, or .bench_build when it is unset. The last line of
standard output is the result JSON; build logs go to standard error.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_detailed", "paper_sampled", "resweep_daemon")


def build(build_dir):
    """Configure once, then build (a no-op when up to date)."""
    cmake_dir = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
                  "perfbench", "perfbench_tests", "vpr_simd"])
    for cmd in steps:
        # Keep stdout clean: its last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return cmake_dir


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    cmake_dir = build(build_dir)
    if args.self_test:
        sys.exit(subprocess.run(
            [os.path.join(cmake_dir, "perfbench_tests")]).returncode)

    workdir = os.path.join(build_dir, "run")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(cmake_dir, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--simd", os.path.join(cmake_dir, "vpr", "vpr_simd"),
           "--workdir", workdir]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()

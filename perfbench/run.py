#!/usr/bin/env python3
"""Builds the kgacc benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload batch_mix|durable_batch|daemon_reaudit \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. The library and the `kgbench` driver
are built from source into $CARGO_TARGET_DIR (default `.bench_build`);
stores and span files go to `<build dir>/work` and the stores are removed
when the run ends. The last line of standard output is the run's JSON
result; build output goes to standard error. The exit status is the
driver's: 0 only when every operation succeeded and every output matched
its reference.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("batch_mix", "durable_batch", "daemon_reaudit")
DEFAULT_SEED = 42
# The driver gets this long to finish a run once the build is done.
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "kgbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=root).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "kgbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "work")]
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of INFLEX: builds the benchmark from source, runs its
helper self-test, then one workload, and relays the result line.

Run from the repository root:

    python3 inflexbench/run.py --workload cold_inflex --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (relative to the current directory) or
`.bench_build/`; per-run details and, with --trace 1, the span log land in
its `results/` directory. The last line of standard output is the JSON
result: {"correct", "attempted", "failed", "metrics"}. See README.md next to
this file for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("cold_inflex", "hot_repeat", "live_catalog")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"inflexbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout):
    """Runs cmd with output appended to log_path; returns its exit code."""
    with open(log_path, "a") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return -1


def build(build_dir):
    """Configures (once) and builds the benchmark; exits on failure."""
    if not os.path.isfile(os.path.join(BENCH_DIR, "..", "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to the benchmark")
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "inflexbench-build.log")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        code = run_logged(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log, 300)
        if code != 0:
            fail(f"cmake configure failed (see {log})")
    jobs = str(os.cpu_count() or 1)
    code = run_logged(["cmake", "--build", build_dir, "-j", jobs, "--target",
                       "inflexbench", "inflexbench_selftest"], log, 840)
    if code != 0:
        fail(f"build failed (see {log})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "inflexbench_selftest")],
                              stdout=subprocess.DEVNULL, timeout=60)
    if selftest.returncode != 0:
        fail("helper self-test failed")

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(build_dir, "inflexbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", results]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end benchmark driver for isingrbm.

Builds the C++ harness (the library from the repository's sources plus
e2ebench/src) and runs one workload in its own process:

    python3 e2ebench/run.py --workload serve-miss --seed 3 --seconds 10 --trace 0

Run from the repository root.  The last line of standard output is the
harness's JSON result.  Without --workload every workload runs in turn,
each in its own process.  Build products, per-run scratch files and span
files go under .bench_build/ (or $CARGO_TARGET_DIR when it is set).
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["train-cd", "train-bgf", "serve-miss", "serve-hot"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Each run must end within 180 s; leave room for process start and exit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(deadline):
    """Configure (once) and build the harness; returns the binary path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the isingrbm sources (CMakeLists.txt, src/) are not beside "
             "e2ebench/; run from a full checkout")
    out = os.path.join(build_root(), "e2ebench")
    generator = ["-G", "Ninja"] if _which("ninja") else []
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "e2ebench",
                  "-j", jobs])
    for cmd in steps:
        remaining = deadline - time.monotonic()
        try:
            # Build chatter goes to stderr: stdout ends with the result.
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, remaining))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if proc.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "e2ebench")


def _which(name):
    for d in os.environ.get("PATH", "").split(os.pathsep):
        if os.access(os.path.join(d, name), os.X_OK):
            return True
    return False


def run_one(binary, workload, seed, seconds, trace, deadline):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(build_root(), "work"),
           "--trace-dir", os.path.join(build_root(), "traces")]
    try:
        proc = subprocess.run(cmd, timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(workload + ": run exceeded its time limit")
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # Terminating this script takes its child with it: subprocess.run kills
    # and reaps the running child when the wait is interrupted.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    start = time.monotonic()
    binary = build(start + BUILD_TIMEOUT_S)
    workloads = [args.workload] if args.workload else WORKLOADS
    status = 0
    for workload in workloads:
        sys.stdout.flush()
        code = run_one(binary, workload, args.seed, args.seconds, args.trace,
                       time.monotonic() + RUN_TIMEOUT_S)
        status = status or code
    sys.exit(status)


if __name__ == "__main__":
    main()

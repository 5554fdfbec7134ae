#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see NOTES.md).

    python3 perfbench/run.py --workload paper-stream --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The first run configures and builds
spade_core plus the benchmark binary in Release mode under .bench_build (or
under $CARGO_TARGET_DIR when it is set); later runs only rebuild what
changed. Build output goes to stderr. The binary's standard output is passed
through, so its last line is the JSON result. Exit code: the binary's, or 2
when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout):
    """Runs cmd to completion; kills it (and waits) on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc = run(["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, sys.stderr)
        if rc != 0:
            return rc
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    return run(["cmake", "--build", build_dir, "--target", "spade_perfbench",
                "-j", jobs], BUILD_TIMEOUT_S, sys.stderr)


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if build(build_dir) != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "spade_perfbench")
    out_dir = os.path.join(build_dir, "perfbench-out")
    sys.stdout.flush()
    return run([binary, "--out-dir", out_dir] + sys.argv[1:], RUN_TIMEOUT_S,
               sys.stdout)


if __name__ == "__main__":
    sys.exit(main())

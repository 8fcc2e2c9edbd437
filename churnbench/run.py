#!/usr/bin/env python3
"""Builds the churn-path benchmark from this checkout and runs it.

    python3 churnbench/run.py --workload greedy-churn --seed 1 --seconds 10 --trace 0
    python3 churnbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/churnbench (default .bench_build/churnbench)
and its output to standard error, so the last line of standard output is the
benchmark's JSON result. Exits non-zero, printing no result, when the build or
the run fails.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "churnbench")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "churnbench")


def build(out):
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, cwd=ROOT, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "churnbench", "-j", "4"],
                   cwd=ROOT, stdout=sys.stderr, check=True)
    return os.path.join(out, "churnbench")


def main():
    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"churnbench: build failed: {error}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

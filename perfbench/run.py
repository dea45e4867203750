#!/usr/bin/env python3
"""Build the benchmark from source (incrementally) and run one workload.

  python3 perfbench/run.py --workload knn_serve --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR when it
is set, else .bench_build; build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. A failed build or run exits non-zero
without printing a result.
"""
import glob
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   stdout=sys.stderr, check=True)


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    # The traced run's durable phase writes its directory here and removes
    # it at the end; a run that was killed leaves one behind.
    for stale in glob.glob(os.path.join(build_dir, "durable-*")):
        shutil.rmtree(stale, ignore_errors=True)
    cmd = [os.path.join(build_dir, "perfbench")] + sys.argv[1:] + [
        "--out-dir", build_dir]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

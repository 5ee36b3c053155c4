#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload stream_replay --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to .bench_build/e2ebench
(Release, the program's libraries compiled from src/); run outputs go to
.bench_run/. The benchmark binary's standard output is passed through,
so its last line is the run's JSON result. Any build or run failure exits
non-zero without printing a result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "turbo_e2e")
# Leaves headroom under the 180 s per-run limit for the build check.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "turbo_e2e", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main(argv):
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"benchmark build failed: {err}", file=sys.stderr)
        return 1
    proc = subprocess.Popen([BINARY] + argv)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("benchmark run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

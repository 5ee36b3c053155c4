#!/usr/bin/env bash
# Final recording run: tier-1 verify (configure + build + full ctest, the
# ROADMAP commands) followed by every bench, teeing to the repository-root
# logs referenced by EXPERIMENTS.md. Fails fast on the first error.
#
#   BUILD_DIR=out ./scripts_run_all.sh     # build somewhere else
set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
REPO_ROOT="$(cd "$(dirname "$0")" && pwd)"

# Release is required: the bench binaries hard-fail from non-Release
# build dirs (see benchx::RequireReleaseBuild), so a recording run from
# an unoptimized build aborts instead of recording garbage numbers.
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" 2>&1 \
  | tee "$REPO_ROOT/test_output.txt"

# Benches write their BENCH_*.json to the cwd; one that misses its floor
# exits non-zero and aborts the recording run.
for b in "$BUILD_DIR"/bench/*; do
  [ -x "$b" ] || continue
  "$b"
done 2>&1 | tee "$REPO_ROOT/bench_output.txt"

#!/usr/bin/env python3
"""Interleaved A/B of the end-to-end benchmark: a base commit vs this checkout.

    python3 scripts/e2e_ab.py BASE

BASE is any git revision. It is exported with `git archive` to
.bench_build/ab-base/, and this checkout's BENCHMARK.json and the
benchmark `paths` it lists are copied over the export's, so the same
benchmark measures both programs. For each workload in BENCHMARK.json,
its `command` runs with `--seconds <run_seconds> --trace 0` in 5
interleaved pairs: both sides of pair i use seed i, the base runs first on
even pairs and this checkout first on odd ones, so both sides see the same
host state. Each run's output is kept in .bench_run/ab/.

Because the base is built with this checkout's benchmark, a change to an
API the benchmark calls must be additive: move the benchmark onto the new
API first and remove the old one in a later change. Otherwise every base
run fails to build and the gate fails whatever the performance.

The gate fails (exit 1) when a run exits non-zero or reports
"correct": false, when this checkout's share of failed operations is
larger than the base's, or when an end_to_end metric's median is worse
than the base median by more than the metric's bound. It prints each
metric's two medians, their ratio (head / base) and the bound.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASE_DIR = os.path.join(".bench_build", "ab-base")
LOG_DIR = os.path.join(".bench_run", "ab")
PAIRS = 5


def export_base(commit, bench_paths):
    """Writes `commit`'s tree to BASE_DIR with this checkout's benchmark."""
    shutil.rmtree(BASE_DIR, ignore_errors=True)
    os.makedirs(BASE_DIR)
    tar = os.path.join(BASE_DIR, "base.tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", tar, commit],
                   check=True)
    subprocess.run(["tar", "-xf", tar, "-C", BASE_DIR], check=True)
    os.remove(tar)
    for path in bench_paths:  # directories, per BENCHMARK.json
        dest = os.path.join(BASE_DIR, path)
        shutil.rmtree(dest, ignore_errors=True)
        shutil.copytree(path, dest)
    shutil.copy("BENCHMARK.json", BASE_DIR)


def run_once(command, side, workload, seed, seconds):
    """One benchmark run; returns its JSON result.

    A run that exits non-zero or prints no JSON result comes back as
    {"correct": false, "error": ...}.
    """
    cwd = BASE_DIR if side == "base" else "."
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    log = os.path.join(LOG_DIR, f"{workload}-seed{seed}-{side}.log")
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    with open(log, "w") as f:  # stdout last, so the log ends with the result
        f.write(proc.stderr + proc.stdout)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if not isinstance(result, dict):
        error = f"exit code {proc.returncode}, see {log}"
        if side == "base":
            error += ("; this checkout's benchmark did not build or run "
                      "against the base (see the module docstring)")
        result = {"correct": False, "error": error}
    print(f"  {workload} seed {seed} {side}: "
          f"{'correct' if result['correct'] else 'NOT CORRECT'} "
          f"({time.monotonic() - start:.0f} s)", flush=True)
    return result


def compare(end_to_end, base_runs, head_runs):
    """Verdict on one workload's runs.

    `end_to_end` is BENCHMARK.json's list of metric definitions; each
    run is a benchmark JSON result ({"correct", "attempted", "failed",
    "metrics"}). Returns (report lines, failures); no failures = pass.
    """
    failures = []
    for side, runs in (("base", base_runs), ("head", head_runs)):
        for i, run in enumerate(runs):
            if not run.get("correct"):
                failures.append(
                    f"{side} run {i}: {run.get('error', 'correct: false')}")

    def failed_share(runs):
        return (sum(r.get("failed", 0) for r in runs),
                sum(r.get("attempted", 0) for r in runs))

    base_failed, base_attempted = failed_share(base_runs)
    head_failed, head_attempted = failed_share(head_runs)
    # Integer cross-multiplication: the shares are compared exactly.
    share_ok = head_failed * base_attempted <= base_failed * head_attempted
    report = [f"failed operations: base {base_failed} of {base_attempted}, "
              f"head {head_failed} of {head_attempted} "
              f"[{'ok' if share_ok else 'LARGER SHARE'}]"]
    if not share_ok:
        failures.append("head fails a larger share of operations than base")

    report.append(f"{'metric':<22} {'base median':>12} {'head median':>12} "
                  f"{'head/base':>9} {'bound':>6}")
    for metric in end_to_end:
        name = metric["name"]
        base_vals = [r["metrics"][name]["value"] for r in base_runs
                     if name in r.get("metrics", {})]
        head_vals = [r["metrics"][name]["value"] for r in head_runs
                     if name in r.get("metrics", {})]
        if (None in base_vals + head_vals or len(base_vals) != len(base_runs)
                or len(head_vals) != len(head_runs)):
            report.append(f"{name:<22} missing or non-finite in some runs")
            failures.append(f"{name} missing or non-finite in some runs")
            continue
        base = statistics.median(base_vals)
        head = statistics.median(head_vals)
        # Every end-to-end metric is positive; worse is a fraction of base.
        worse = (head - base) / base
        if metric["better"] == "higher":
            worse = -worse
        ok = worse <= metric["bound"]
        report.append(f"{name:<22} {base:>12.5g} {head:>12.5g} "
                      f"{head / base:>9.3f} "
                      f"{metric['bound']:>6.2f} [{'ok' if ok else 'WORSE'}]")
        if not ok:
            failures.append(f"{name}: head median {head:.5g} is {worse:.1%} "
                            f"worse than base median {base:.5g} "
                            f"(bound {metric['bound']:.0%})")
    return report, failures


def main(argv):
    parser = argparse.ArgumentParser(
        description="Interleaved A/B of e2ebench: BASE vs this checkout.")
    parser.add_argument("base", help="git revision to compare against")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", args.base + "^{commit}"],
        check=True, capture_output=True, text=True).stdout.strip()
    start = time.monotonic()
    export_base(commit, bench["paths"])
    os.makedirs(LOG_DIR, exist_ok=True)
    print(f"base {commit[:12]} vs head (this checkout), {PAIRS} pairs of "
          f"{bench['run_seconds']} s runs per workload", flush=True)

    failures = []
    for workload in bench["workloads"]:
        name = workload["name"]
        runs = {"base": [], "head": []}
        for i in range(PAIRS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run_once(bench["command"], side, name,
                                           i, bench["run_seconds"]))
        report, fails = compare(bench["end_to_end"], runs["base"],
                                runs["head"])
        print(f"\n== {name} ==")
        print("\n".join(report), flush=True)
        failures += [f"{name}: {f}" for f in fails]

    print(f"\nwall time {time.monotonic() - start:.0f} s")
    if failures:
        print("FAIL:\n  " + "\n  ".join(failures))
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Bench-regression gate for CI.

Compares a freshly measured bench JSON against the committed baseline
and fails (exit 1) on a regression beyond the allowed fraction. The
bench type is auto-detected from the JSON shape:

  - "bench": "snapshot_concurrency"  -> sampling[].samples_per_second
    per thread count (higher is better)
  - "bench": "window_jobs"           -> runs[].updates_per_second per
    engine (higher is better)
  - "bench": "recovery"              -> recovery_speedup and
    wal_replay_records_per_s (higher is better)
  - "bench": "incremental"           -> publish_speedup and
    checkpoint_shrink (higher is better)
  - "bench": "serving_throughput"    -> runs[].requests_per_second per
    (mode, threads, batch) cell (higher is better)
  - "bench": "cluster"               -> runs[].events_per_second per
    (shards, threads) ingest cell and catchup_speedup, the standby
    catch-up + promote vs cold-WAL-rebuild ratio (higher is better)
  - "bench": "open_loop"             -> per gated sub-saturation rate:
    goodput_frac (in-deadline completions / offered) and p99_headroom
    (SLO/p99, clamped by the bench), plus the overload goodput ratio
    (all higher is better)
  - "bench": "net"                   -> flat loopback-transport cells:
    RPC round-trips/s, large-echo MB/s, WAL-ship MB/s, re-ship no-op
    rounds/s (higher is better)
  - google-benchmark output ("benchmarks" list) -> real_time per
    benchmark name (lower is better)

Every emitted summary line carries a `[hw=N fp=XXXXXXXX]` machine tag:
the fresh run's recorded hardware_threads plus a fingerprint of the
machine the gate ran on, so mismatched verdicts across CI runs are
attributable from the logs alone.

Every bench JSON records the core count it ran on (hardware_threads for
our benches, context.num_cpus for google-benchmark). Throughput numbers
from different core counts are not comparable — the committed baselines
were recorded on a single-core box — so when baseline and fresh
disagree on core count the gate prints a warning and SKIPS itself
(exit 0) instead of producing a meaningless verdict.

When both runs were recorded on a SINGLE core, multi-thread cells
(threads=N / .../tN/... with N > 1) measure scheduler round-robin, not
parallel scale-up — the curve is flat by construction and a real
regression in one cell drowns in noise from the others. Those labels
are therefore dropped from the gate, each with an explicit
"SKIPPED (single-core)" line, and the fresh JSON is annotated with
"parallel_gates_skipped" so the artifact records which cells were never
gated. If the drop leaves NOTHING to gate the script fails (exit 1)
instead of passing vacuously — a misdetected runner must not
green-light a regression.

CI machines are also noisy even at matching core counts, so the default
tolerance is deliberately loose (20%, the ISSUE 2 contract) and can be
widened with --tolerance or BENCH_TOLERANCE.

Independently of the baseline comparison, the FRESH run is held to
within-run SIMD floors when it carries the cells for them (see
check_simd_floors): dispatched GEMM >= 3x forced-scalar and dispatched
SpMM >= 2x forced-scalar in the micro-kernel JSON, and the serving
inference cell no slower than the forced-scalar serving cell.
These floors compare cells from the same run on the same machine, so
they bind even when the core-count skip disables the baseline gate.

Usage: check_bench_regression.py BASELINE.json FRESH.json [--tolerance=0.2]
"""
import argparse
import hashlib
import json
import os
import platform
import re
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def runner_fingerprint():
    """Short stable identity of the machine THIS gate is running on.

    Emitted on every summary line so that when two CI runs disagree, the
    logs themselves say whether they came from the same class of runner
    (the committed baselines were recorded on a known box; a verdict
    from a different one is suspect even at matching core counts).
    """
    ident = "|".join(
        (
            platform.machine(),
            platform.system(),
            platform.processor() or "unknown-cpu",
            str(os.cpu_count()),
        )
    )
    return hashlib.sha1(ident.encode()).hexdigest()[:8]


def machine_tag(fresh_hw):
    """`[hw=N fp=XXXXXXXX]` suffix for every emitted summary line."""
    hw = "?" if fresh_hw is None else fresh_hw
    return f"[hw={hw} fp={runner_fingerprint()}]"


def hardware_threads(data):
    """Core count the bench ran on, or None if the JSON predates it."""
    if "hardware_threads" in data:
        return data["hardware_threads"]
    context = data.get("context", {})
    return context.get("num_cpus")


def parallel_thread_count(label):
    """Thread count a metric label is keyed by, or None if unthreaded.

    Recognizes the two threaded label shapes this gate produces:
    "threads=N" (snapshot_concurrency) and ".../tN/..." cells
    (serving_throughput).
    """
    m = re.fullmatch(r"threads=(\d+)", label)
    if m is None:
        m = re.search(r"/t(\d+)/", label)
    return int(m.group(1)) if m else None


def drop_parallel_labels(metrics):
    """Splits metrics into (kept, skipped-label list) for a 1-core box."""
    skipped = sorted(
        label for label in metrics
        if (parallel_thread_count(label) or 1) > 1
    )
    kept = {k: v for k, v in metrics.items() if k not in skipped}
    return kept, skipped


def annotate_skipped(path, skipped):
    """Records the ungated labels in the bench JSON itself."""
    data = load(path)
    data["parallel_gates_skipped"] = skipped
    with open(path, "w") as f:
        json.dump(data, f, indent=2)
        f.write("\n")


def check_simd_floors(data, path, tolerance):
    """Self-contained SIMD floors on the FRESH run, if it carries them.

    These run before the core-count skip: they compare cells within one
    JSON, so they are valid on any hardware. Two shapes are recognized:

      - micro-kernel google-benchmark JSON with a "turbo_best_isa"
        context: dispatched GEMM must be >= 3x the forced-scalar GEMM at
        n=256 and dispatched SpMM >= 2x forced-scalar SpMM (the SIMD
        acceptance bars). Skipped when the host's best ISA is scalar —
        there is nothing to vectorize with.
      - serving JSON with an "inference[scalar]" cell and a non-scalar
        "kernel_isa": the dispatched inference cell must not fall more
        than `tolerance` below the forced-scalar cell (serving is
        sampling/feature-bound, so the gate is no-slower-than-scalar,
        not a speedup floor).

    Returns a list of failure strings (empty = pass/skip).
    """
    failures = []
    if "benchmarks" in data:
        isa = data.get("context", {}).get("turbo_best_isa", "scalar")
        if isa == "scalar":
            print("NOTE: best ISA is scalar — SIMD floor gates skipped.")
            return failures
        times = {
            b["name"]: b["real_time"]
            for b in data["benchmarks"]
            if b.get("run_type", "iteration") == "iteration"
        }
        floors = [
            ("BM_MatMulDispatch/256", "BM_MatMulScalar/256", 3.0),
            ("BM_SpMMDispatch", "BM_SpMMScalar", 2.0),
        ]
        for simd, scalar, floor in floors:
            if simd not in times or scalar not in times:
                continue  # filtered run; nothing to gate
            speedup = times[scalar] / times[simd]
            status = "ok" if speedup >= floor else "BELOW FLOOR"
            print(
                f"SIMD floor [{isa}] {simd} vs {scalar}: "
                f"{speedup:.2f}x (floor {floor:.1f}x) [{status}]"
            )
            if speedup < floor:
                failures.append(
                    f"{simd}: {speedup:.2f}x < required {floor:.1f}x "
                    f"over {scalar}"
                )
    elif data.get("bench") == "serving_throughput":
        if data.get("kernel_isa", "scalar") == "scalar":
            return failures
        rps = {
            f"{r['mode']}/t{r['threads']}/b{r['batch']}":
                r["requests_per_second"]
            for r in data.get("runs", [])
        }
        scalar_cell = "inference[scalar]/t1/b8"
        if scalar_cell not in rps:
            return failures
        for cell in ("inference/t1/b8",):
            if cell not in rps:
                continue
            ratio = rps[cell] / max(rps[scalar_cell], 1e-9)
            status = "ok" if ratio >= 1.0 - tolerance else "BELOW FLOOR"
            print(
                f"serving SIMD gate {cell} vs {scalar_cell}: "
                f"{ratio:.2f}x [{status}]"
            )
            if ratio < 1.0 - tolerance:
                failures.append(
                    f"{cell}: {ratio:.2f}x of the forced-scalar cell "
                    f"(must be >= {1.0 - tolerance:.2f}x)"
                )
    return failures


def extract_metrics(data, path):
    """Returns ({label: value}, higher_is_better) for one bench JSON."""
    bench = data.get("bench")
    if bench == "snapshot_concurrency" or "sampling" in data:
        runs = data.get("sampling", [])
        if not runs:
            sys.exit(f"error: no 'sampling' runs in {path}")
        return (
            {f"threads={r['threads']}": r["samples_per_second"] for r in runs},
            True,
        )
    if bench == "window_jobs":
        # Must dispatch on the bench name before the generic "runs"
        # fallback below: window-job runs are keyed by engine, not by
        # (mode, threads, batch).
        runs = data.get("runs", [])
        if not runs:
            sys.exit(f"error: no 'runs' in {path}")
        return (
            {r["engine"]: r["updates_per_second"] for r in runs},
            True,
        )
    if bench == "recovery":
        # Flat metrics, no runs list: gate the ratio of recovery to the
        # cold rebuild (machine-speed independent) and the replay rate.
        for key in ("recovery_speedup", "wal_replay_records_per_s"):
            if key not in data:
                sys.exit(f"error: missing '{key}' in {path}")
        return (
            {
                "recovery_speedup": data["recovery_speedup"],
                "wal_replay_records_per_s":
                    data["wal_replay_records_per_s"],
            },
            True,
        )
    if bench == "incremental":
        # Flat machine-speed-independent ratios: incremental publish vs
        # full rebuild, and delta checkpoint size vs full checkpoint.
        for key in ("publish_speedup", "checkpoint_shrink"):
            if key not in data:
                sys.exit(f"error: missing '{key}' in {path}")
        return (
            {
                "publish_speedup": data["publish_speedup"],
                "checkpoint_shrink": data["checkpoint_shrink"],
            },
            True,
        )
    if bench == "open_loop":
        # Dispatch before the generic "runs" fallback: open-loop runs
        # are keyed by (rate multiple, workers), and only the gated
        # sub-saturation cells carry a stable SLO contract (the
        # overload cell is summarized by overload_goodput_ratio, which
        # is the no-congestion-collapse check). Labels embed /tN/ so
        # the single-core skip below drops multi-worker cells.
        runs = data.get("runs", [])
        if not runs:
            sys.exit(f"error: no 'runs' in {path}")
        metrics = {}
        for r in runs:
            if not r.get("gate"):
                continue
            key = f"rate={r['rate_x']}x/t{r['workers']}/"
            metrics[key + "goodput_frac"] = r["goodput_frac"]
            metrics[key + "p99_headroom"] = r["p99_headroom"]
        if "overload_goodput_ratio" not in data:
            sys.exit(f"error: missing 'overload_goodput_ratio' in {path}")
        metrics["overload_goodput_ratio"] = data["overload_goodput_ratio"]
        return (metrics, True)
    if bench == "cluster":
        # Ingest scale-out cells are threaded (/tN/ labels, so the
        # single-core skip below drops the multi-shard cells); the
        # standby catch-up ratio vs a cold WAL rebuild is machine-speed
        # independent and gates on any runner.
        runs = data.get("runs", [])
        if not runs:
            sys.exit(f"error: no 'runs' in {path}")
        metrics = {
            f"ingest/shards={r['shards']}/t{r['threads']}/":
                r["events_per_second"]
            for r in runs
        }
        if "catchup_speedup" not in data:
            sys.exit(f"error: missing 'catchup_speedup' in {path}")
        metrics["catchup_speedup"] = data["catchup_speedup"]
        return (metrics, True)
    if bench == "net":
        # Flat loopback-transport cells: per-call RPC overhead, codec
        # streaming floor, and end-to-end WAL-ship throughput. All are
        # single-connection (one handler thread), so they gate on any
        # runner at a matching core count.
        keys = (
            "rpc_small_roundtrips_per_s",
            "rpc_large_mb_per_s",
            "wal_ship_mb_per_s",
            "reship_noop_rounds_per_s",
        )
        for key in keys:
            if key not in data:
                sys.exit(f"error: missing '{key}' in {path}")
        return ({key: data[key] for key in keys}, True)
    if bench == "serving_throughput" or "runs" in data:
        runs = data.get("runs", [])
        if not runs:
            sys.exit(f"error: no 'runs' in {path}")
        return (
            {
                f"{r['mode']}/t{r['threads']}/b{r['batch']}":
                    r["requests_per_second"]
                for r in runs
            },
            True,
        )
    if "benchmarks" in data:  # google-benchmark --benchmark_out JSON
        rows = [b for b in data["benchmarks"]
                if b.get("run_type", "iteration") == "iteration"]
        if not rows:
            sys.exit(f"error: no benchmark iterations in {path}")
        return ({b["name"]: b["real_time"] for b in rows}, False)
    sys.exit(f"error: unrecognized bench JSON shape in {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_TOLERANCE", "0.2")),
        help="allowed fractional regression (default 0.2 = 20%%)",
    )
    args = parser.parse_args()

    baseline_data = load(args.baseline)
    fresh_data = load(args.fresh)
    tag = machine_tag(hardware_threads(fresh_data))

    # Within-run SIMD floors bind regardless of core count, so they run
    # before (and independently of) the baseline comparison below.
    simd_failures = check_simd_floors(fresh_data, args.fresh,
                                      args.tolerance)
    if simd_failures:
        for failure in simd_failures:
            print(f"SIMD FLOOR FAIL: {failure} {tag}")
        return 1

    base_hw = hardware_threads(baseline_data)
    fresh_hw = hardware_threads(fresh_data)
    if base_hw is not None and fresh_hw is not None and base_hw != fresh_hw:
        print(
            f"WARNING: baseline was recorded on {base_hw} hardware "
            f"thread(s) but this run has {fresh_hw}; throughput is not "
            f"comparable across core counts — skipping the gate. {tag}"
        )
        return 0

    baseline, higher_is_better = extract_metrics(
        baseline_data, args.baseline)
    fresh, _ = extract_metrics(fresh_data, args.fresh)

    if base_hw == 1 and fresh_hw == 1:
        baseline, skipped = drop_parallel_labels(baseline)
        fresh, _ = drop_parallel_labels(fresh)
        if skipped:
            banner = "!" * 72
            print(banner)
            print(
                f"!! WARNING: 1-core runner — {len(skipped)} "
                f"parallel-path cell(s) are NOT gated. {tag}"
            )
            print(
                "!! Multi-thread cells measure scheduler round-robin on "
                "this box, not scale-up;"
            )
            print(
                "!! a regression in any cell below would go UNDETECTED "
                "until a multi-core run:"
            )
            for label in skipped:
                print(f"!!   {label}: SKIPPED (single-core) {tag}")
            print(banner)
            annotate_skipped(args.fresh, skipped)
        if not baseline:
            # Passing here would let a misdetected runner green-light
            # any regression: nothing was compared at all. Benches that
            # can run single-core must carry at least one unthreaded or
            # machine-independent (ratio) metric for exactly this case.
            print(
                f"FAIL: every gated cell was skipped as single-core — "
                f"the gate compared nothing. Add an unthreaded or "
                f"machine-independent metric, or run on a multi-core "
                f"runner. {tag}"
            )
            return 1

    failed = False
    for label in sorted(baseline):
        if label not in fresh:
            print(f"{label}: missing from fresh run — FAIL {tag}")
            failed = True
            continue
        base = baseline[label]
        now = fresh[label]
        if higher_is_better:
            ratio = now / base if base > 0 else float("inf")
        else:
            ratio = base / now if now > 0 else float("inf")
        status = "ok"
        if ratio < 1.0 - args.tolerance:
            status = "REGRESSION"
            failed = True
        print(
            f"{label}: baseline={base:.2f} fresh={now:.2f} "
            f"ratio={ratio:.2f} [{status}] {tag}"
        )

    if failed:
        print(
            f"\nFAIL: performance regressed more than "
            f"{args.tolerance:.0%} vs {args.baseline} {tag}"
        )
        return 1
    print(
        f"\nPASS: performance within {args.tolerance:.0%} of baseline "
        f"{tag}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

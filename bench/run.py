"""Benchmark of koopman-dh: three workloads, end-to-end metrics, a traced run.

    python3 bench/run.py --workload {sweep,certify,recover,all} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
`src/`. Every metric is printed by name with its unit, and the last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. The full result, with provenance, is written to
`bench/out/`.

With `--trace 0` the metrics are end to end, from untraced processes:

- run_s: one pass's item time, the sum of its items' latencies (median over
  the run's passes);
- item_p50_ms: median item latency;
- item_tail_ms: the highest of the percentiles 50, 75, 90, 95, 99 and 99.9
  with at least ten of one pass's items beyond it, over every item of the
  run; it and the sample count are printed beside it;
- setup_s: median over several fresh processes of the time from process
  launch to the first item (interpreter, import, inputs, workload set-up);
- peak_rss_mb: peak resident memory of the measuring process.

`failed_ratio` (failed over attempted items) is printed too; in the JSON it
is carried by `attempted` and `failed`. With `--trace 1` the metrics are the
per-layer ones of `tracer.layer_metrics`, from a run whose passes alternate
untraced and traced.

Item latencies are scaled to a fixed host speed. On a shared host the speed
of the same pure-Python code can drift by a third within minutes (seen on a
cloud host with two Intel Xeon vCPUs), so raw wall times of the same code
differ by more than any regression bound from one run to the next. Next to every item the worker
times a fixed Fraction sum that calls no library code (`worker.probe_s`);
an item counts as its latency times REFERENCE_PROBE_S over that probe's
time. Both drift together, so the ratio keeps only the program's cost. The
unscaled wall-clock figures are printed beside the metrics and kept in the
results file. Set-up time is scaled the same way, by the mean of a probe at
the start of the worker and one at the end of its set-up; memory is not.

Both latency percentiles are Harrell-Davis estimates. Item costs come in
steps (sweep's cost grows by 20-40% from one prime and q branch to the
next), so a single order statistic that falls between two steps reads the
slowest item of one or the fastest of the other, and jumps by a step from
run to run; the estimate weighs every item near the percentile instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("sweep", "certify", "recover")
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
SETUP_SAMPLES = 5
# Every thread pool a numerical library might start is held to one thread.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 170
# About the probe's time on an uncontended vCPU of an Intel Xeon cloud host,
# so scaled times read close to wall-clock times there at full speed.
REFERENCE_PROBE_S = 0.00025


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def rank(percentile: float, n: int) -> int:
    """1-based nearest rank of a percentile among n values, computed exactly."""
    return max(1, math.ceil(Fraction(str(percentile)) * n / 100))


def harrell_davis(values, percentile: float) -> float:
    """Harrell-Davis estimate of a percentile: a Beta-weighted mean of all order statistics.

    The i-th smallest of n values weighs the Beta(a, b) mass on ((i-1)/n, i/n),
    a = P(n+1), b = (1-P)(n+1), P = percentile/100; the mass is integrated by
    the midpoint rule on 64 points per interval.
    """
    ordered = numpy.sort(numpy.asarray(values, dtype=float))
    n, share = len(ordered), percentile / 100
    a, b = share * (n + 1), (1 - share) * (n + 1)
    u = (numpy.arange(64 * n) + 0.5) / (64 * n)
    log_density = (a - 1) * numpy.log(u) + (b - 1) * numpy.log1p(-u)
    weights = numpy.exp(log_density - log_density.max()).reshape(n, 64).sum(axis=1)
    return float(weights @ ordered / weights.sum())


def tail_percentile(pass_items: int) -> float:
    """Highest of PERCENTILES with at least ten of a pass's items beyond its rank."""
    fitting = [p for p in PERCENTILES if pass_items - rank(p, pass_items) >= 10]
    if not fitting:
        raise BenchError(f"a pass of {pass_items} items is too small for a tail percentile")
    return max(fitting)


def spawn(workload: str, seed: int, seconds: float, work_dir: str, *flags: str) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--t0", repr(t0), "--work-dir", work_dir, *flags]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(passes: list[dict], setups: list[dict], peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics as (value, unit) pairs, and the notes printed beside them."""
    scaled = [
        [t * REFERENCE_PROBE_S / probe for t, probe in zip(r["latencies_s"], r["probes_s"])]
        for r in passes
    ]
    latencies = [t for pass_ in scaled for t in pass_]
    wall = [t for r in passes for t in r["latencies_s"]]
    tail = tail_percentile(passes[0]["attempted"])
    metrics = {
        "run_s": (statistics.median(sum(pass_) for pass_ in scaled), "s"),
        "item_p50_ms": (1000 * harrell_davis(latencies, 50), "ms"),
        "item_tail_ms": (1000 * harrell_davis(latencies, tail), "ms"),
        "setup_s": (
            statistics.median(r["setup_s"] * REFERENCE_PROBE_S / r["setup_probe_s"] for r in setups),
            "s",
        ),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "item_tail_percentile": tail,
        "items": len(latencies),
        "passes": len(passes),
        "wall_clock": {
            "run_s": statistics.median(sum(r["latencies_s"]) for r in passes),
            "item_p50_ms": 1000 * harrell_davis(wall, 50),
            "item_tail_ms": 1000 * harrell_davis(wall, tail),
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "probe_p50_ms": 1000 * statistics.median(p for r in passes for p in r["probes_s"]),
        },
        "setup_samples_s": [r["setup_s"] for r in setups],
        "pass_wall_s": [r["wall_s"] for r in passes],
    }
    return metrics, notes


def end_to_end(workload: str, seed: int, seconds: float, work_dir: str) -> dict:
    setups = [
        spawn(workload, seed, seconds, work_dir, "--setup-only") for _ in range(SETUP_SAMPLES - 1)
    ]
    run = spawn(workload, seed, seconds, work_dir)
    setups.append(run)
    metrics, notes = summarize(run["passes"], setups, run["peak_rss_mb"])
    return {"run": run, "metrics": metrics, "notes": notes}


def traced(workload: str, seed: int, seconds: float, work_dir: str) -> dict:
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    run = spawn(workload, seed, seconds, work_dir, "--trace", spans_path)
    notes = {"passes": len(run["passes"]) // 2, "spans_file": os.path.relpath(spans_path, ROOT)}
    return {"run": run, "metrics": run["per_layer"], "notes": notes}


def git_commit() -> str:
    """HEAD's commit, or 'unknown' outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def workload_reasons() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    except (OSError, ValueError, KeyError):
        return {}


def provenance(workload: str, seed: int, seconds: float, trace: bool, numpy_version: str) -> dict:
    return {
        "commit": git_commit(),
        "workload": workload,
        "why": workload_reasons().get(workload, ""),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "thread_env": THREAD_ENV,
        "platform": platform.platform(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    measured = (traced if trace else end_to_end)(workload, seed, seconds, work_dir)
    passes = measured["run"]["passes"]
    attempted = sum(r["attempted"] for r in passes)
    failures = [f for r in passes for f in r["failures"]]
    result = {
        "provenance": provenance(workload, seed, seconds, trace, measured["run"]["numpy"]),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured["metrics"].items()},
        "notes": measured["notes"],
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2)
    return result


def print_result(workload: str, result: dict) -> None:
    print(f"{workload:8} provenance {json.dumps(result['provenance'])}")
    for name, m in result["metrics"].items():
        print(f"{workload:8} {name:34} {m['value']:14.6f} {m['unit']}")
    notes = result["notes"]
    if "item_tail_percentile" in notes:
        print(
            f"{workload:8} item_tail_ms is p{notes['item_tail_percentile']:g} of "
            f"{notes['items']} items in {notes['passes']} passes"
        )
    if "wall_clock" in notes:
        unscaled = ", ".join(f"{k} {v:.6f}" for k, v in notes["wall_clock"].items())
        print(f"{workload:8} unscaled wall clock: {unscaled}")
    ratio = result["failed"] / max(result["attempted"], 1)
    print(f"{workload:8} {'failed_ratio':34} {ratio:14.6f} ratio")
    for failure in result["failures"]:
        print(f"{workload:8} FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "koopman_dh")):
        print(f"error: no library source at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    results = {}
    try:
        for workload in chosen:
            results[workload] = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), work_dir
            )
            print_result(workload, results[workload])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    prefix = args.workload == "all"
    summary = {
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{w}.{name}" if prefix else name): m
            for w, r in results.items()
            for name, m in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

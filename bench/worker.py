"""One benchmark process: set up a workload, then time passes of it.

run.py starts this script once per set-up sample and once per measured run,
so each process's set-up time includes interpreter start and the library
import, and its peak memory belongs to that run alone. It runs one thread
and one closed-loop client: each item starts when the previous one ends.
The last line of its standard output is one JSON object.

    python3 bench/worker.py --workload recover --seed 1 --seconds 30 \\
        --t0 <CLOCK_MONOTONIC at launch> --work-dir bench/out/work \\
        [--setup-only | --trace SPANS_FILE]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from fractions import Fraction

import numpy

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import workloads  # noqa: E402  (needs the source tree on the path)
from tracer import SETUP, Tracer, layer_metrics  # noqa: E402

DIGESTS = os.path.join(BENCH, "digests.json")
# Terms of the host-speed probe's Fraction sum: about 0.25 ms of the same
# small-integer and Fraction arithmetic the library does.
PROBE_TERMS = 120


def make_workload(name: str, work_dir: str):
    if name == "sweep":
        with open(DIGESTS) as fh:
            return workloads.Sweep(work_dir, digests=json.load(fh))
    if name == "certify":
        return workloads.Certify()
    if name == "recover":
        return workloads.Recover()
    raise ValueError(f"unknown workload {name!r}")


def probe_s() -> float:
    """Wall time of a fixed pure-Python Fraction sum, with the collector held off.

    It uses no library code, so it reads only how fast the host runs Python
    at that moment; holding the collector off keeps the heap the workload
    left behind out of its time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, PROBE_TERMS):
            total += Fraction(1, i)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def run_pass(workload, items, tracer: Tracer | None = None, first_id: int = 0) -> dict:
    """Run every item once; a failed check or an exception is counted, not raised.

    Each item's latency comes with `probes_s`, the mean of a host-speed probe
    run just before and just after it.
    """
    latencies, probes, failures = [], [], []
    start = time.perf_counter()
    for n, item in enumerate(items):
        if tracer is not None:
            tracer.item = first_id + n
        try:
            prepared = workload.prepare(item)
            before = probe_s()
            began = time.perf_counter()
            try:
                output = workload.run(prepared)
            finally:
                latencies.append(time.perf_counter() - began)
                probes.append((before + probe_s()) / 2)
            problem = workload.check(item, output)
        except Exception as exc:  # an item's failure must not end the pass
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{item}: {problem}")
    return {
        "wall_s": time.perf_counter() - start,
        "attempted": len(items),
        "latencies_s": latencies,
        "probes_s": probes,
        "failures": failures,
    }


def measure(workload, passes, items, seconds: float) -> dict:
    """Untraced passes until the next one would end after `seconds`; at least one."""
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(run_pass(workload, items))
        if time.perf_counter() - start + runs[-1]["wall_s"] > seconds:
            break
        items = next(passes)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"passes": runs, "peak_rss_mb": peak_kib / 1024}


def traced_pass(workload, items, tracer: Tracer, first_id: int) -> tuple[dict, dict]:
    """Run each item untraced and traced back to back, alternating which goes first.

    Pairing items in time keeps the host's speed drift out of the overhead
    ratio; alternating the order cancels any warm-up the first run leaves.
    """
    plain, traced = [], []
    for n, item in enumerate(items):
        for with_trace in ((False, True) if n % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(run_pass(workload, [item]))
                continue
            tracer.install()
            try:
                traced.append(run_pass(workload, [item], tracer, first_id + n))
            finally:
                tracer.uninstall()

    def merged(runs):
        return {
            "wall_s": sum(r["wall_s"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "latencies_s": [t for r in runs for t in r["latencies_s"]],
            "failures": [f for r in runs for f in r["failures"]],
        }

    return merged(plain), merged(traced)


def trace(workload, passes, items, seconds: float, tracer: Tracer, trace_path: str) -> dict:
    """Traced passes until the next would end after `seconds`; at least one."""
    plain, traced = [], []
    item_id = 0
    start = time.perf_counter()
    while True:
        untraced, with_trace = traced_pass(workload, items, tracer, item_id)
        plain.append(untraced)
        traced.append(with_trace)
        item_id += len(items)
        pair_s = untraced["wall_s"] + with_trace["wall_s"]
        if time.perf_counter() - start + pair_s > seconds:
            break
        items = next(passes)
    metrics = layer_metrics(tracer.spans, tracer.counts, passes=len(traced), items=item_id)
    overhead = sum(r["wall_s"] for r in traced) / sum(r["wall_s"] for r in plain)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    tracer.write(trace_path)
    return {"passes": plain + traced, "per_layer": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="SPANS_FILE")
    args = parser.parse_args(argv)

    first_probe = probe_s()
    workload = make_workload(args.workload, args.work_dir)
    passes = workload.passes(args.seed)
    items = next(passes)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.item = SETUP
        tracer.install()
    try:
        workload.setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.counts.clear()  # counters report the passes only
    # CLOCK_MONOTONIC is system-wide, so it compares with the parent's launch time.
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    result = {"setup_s": setup_s, "setup_probe_s": (first_probe + probe_s()) / 2}
    if tracer is not None:
        result.update(trace(workload, passes, items, args.seconds, tracer, args.trace))
    elif not args.setup_only:
        result.update(measure(workload, passes, items, args.seconds))
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

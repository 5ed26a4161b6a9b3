"""Write digests.json: the report digest of every case the sweep workload can draw.

    python3 bench/make_digests.py

Run it at a commit whose sweep reports are the reference. Each case's report
must pass the workload's own checks before its digest is stored; the sweep
workload then fails any item whose report differs from the stored digest,
apart from `manifest.wall_clock_s` and any `diagnostics` block.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import workloads  # noqa: E402  (needs the source tree on the path)


def main() -> int:
    work_dir = os.path.join(BENCH, "out", f"digests-{os.getpid()}")
    sweep = workloads.Sweep(work_dir)
    sweep.setup()
    digests = {}
    try:
        for p in workloads.SWEEP_PRIMES:
            for m in workloads.primitive_roots(p):
                for branch in workloads.SWEEP_BRANCHES:
                    for seed in range(workloads.SWEEP_CONFIG_SEEDS):
                        case = workloads.SweepCase(p, m, branch, seed)
                        problem = sweep.check(case, sweep.run(sweep.prepare(case)))
                        if problem:
                            print(f"{case.key}: {problem}", file=sys.stderr)
                            return 1
                        with open(sweep.report_path) as fh:
                            digests[case.key] = workloads.report_digest(fh.read())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(os.path.join(BENCH, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())

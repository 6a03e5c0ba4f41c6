"""Benchmark of the Dynamic Hybrid Hash Join reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each workload is a closed loop with one client and one operation in
flight: set up (inputs from ``--seed``, an untimed warm-up operation),
then run operations back to back until ``--seconds`` have passed, at
least one, each preceded by ``gc.collect()`` and each checked against an
oracle computed during set-up. With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics of BENCHMARK.json,
timed in scaled seconds (see ``workloads.reference_loop``);
with ``--trace 1`` the layer entry points are wrapped with timing spans
(see ``tracer.py``) and the line carries the per-layer metrics instead.
Everything the run writes goes under ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"no program under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")   # spill files, Spark workers
    # one thread per numeric library, here and in Spark's Python workers:
    # the host has few cores, and idle pool threads make timings noisy
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    try:
        wl.setup()
        if args.trace:
            result = wl.traced(args.seconds)
        else:
            result = wl.end_to_end(args.seconds)
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 perfbench/prove.py --runs 10 --out perfbench/baseline.json

Runs ``run.py`` once per (workload, seed), one run at a time, and prints
for every end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(q3 - q1) / median next to the metric's bound.  A spread at or above a third
of the bound is flagged, except for ``setup_s``, whose bound covers the
drift of its median between sets of runs.  ``--trace`` adds one traced run
per workload.  ``--out`` writes every value with the environment it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent


def bench(workload: str, seed: int, trace: int, seconds: int) -> tuple[dict, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1]), time.perf_counter() - start


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "bound": bound}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--workloads", nargs="+", default=[name for name, _, _ in spec.WORKLOADS])
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    import numpy
    import scipy

    report = {
        "environment": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": 1,
        },
        "seconds": args.seconds,
        "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "claim_seed": spec.CLAIM_SEED,
        "workloads": {},
    }
    steady = True
    for workload in args.workloads:
        runs = [bench(workload, seed, 0, args.seconds) for seed in report["seeds"]]
        entry = {
            "predicted_dominant_layer": next(layer for name, layer, _ in spec.WORKLOADS if name == workload),
            "wall_s": [round(wall, 2) for _, wall in runs],
            "correct": [r["correct"] for r, _ in runs],
            "attempted": [r["attempted"] for r, _ in runs],
            "failed": [r["failed"] for r, _ in runs],
            "end_to_end": {},
        }
        print(f"{workload}: wall {min(entry['wall_s'])}-{max(entry['wall_s'])} s per run, correct={all(entry['correct'])}, "
              f"{sum(entry['failed'])} of {sum(entry['attempted'])} inputs failed")
        for name, unit, _, bound in spec.END_TO_END:
            values = [r["metrics"][name]["value"] for r, _ in runs]
            summary = summarize(values, bound)
            summary["values"] = values
            entry["end_to_end"][name] = summary
            flag = ""
            if name != "setup_s" and summary["spread"] >= bound / 3:
                flag = "  <-- spread not below bound/3"
                steady = False
            print(f"  {name:12s} median {summary['median']:.6g} {unit:8s} "
                  f"spread {summary['spread']:.4f} (bound {bound}){flag}")
        if args.trace:
            traced, wall = bench(workload, report["seeds"][0], 1, args.seconds)
            entry["per_layer"] = {name: value["value"] for name, value in traced["metrics"].items()}
            shares = {k: v for k, v in entry["per_layer"].items() if k.endswith(".share")}
            print("  traced shares: " + ", ".join(f"{k} {v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())

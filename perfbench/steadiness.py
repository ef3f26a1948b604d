#!/usr/bin/env python3
"""Runs each workload k times and prints the spread of every figure.

Usage (from the repository root):
  python3 perfbench/steadiness.py [--runs 10] [--seconds T] [--first-seed 1]

For every workload W, each run is
`perfbench/run.py --workload W --seed S --seconds T --trace 0`, with seeds
first-seed .. first-seed + k - 1 and T the run_seconds of BENCHMARK.json
unless --seconds is given.
For every end-to-end metric, calibrated, and for the raw host-time
figures beside it, the table gives the median, the interquartile range
(Python's statistics.quantiles(values, n=4)) as a share of the median, and
the minimum and maximum. The README's reference figures come from this
command. Every run's result is also saved as JSON under
.bench_results/ at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from build import REPO_ROOT  # noqa: E402
from run import WORKLOADS  # noqa: E402

RAW_FIGURES = ("raw_requests_per_s", "raw_setup_s")


def benchmark_seconds() -> int:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return int(json.load(handle)["run_seconds"])


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=REPO_ROOT)
    if result.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited with "
                           f"{result.returncode}:\n{result.stderr}")
    lines = result.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith('{"perfbench_detail"'):
            record["detail"] = json.loads(line)["perfbench_detail"]
    return record


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values),
            "iqr_share": (q3 - q1) / med if med else float("nan"),
            "min": min(values), "max": max(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=benchmark_seconds())
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    records: dict[str, list[dict]] = {}
    for workload in WORKLOADS:
        records[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            record = run_once(workload, seed, args.seconds)
            records[workload].append(record)
            print(f"{workload} seed {seed}: correct={record['correct']} "
                  f"attempted={record['attempted']} "
                  f"failed={record['failed']}", file=sys.stderr, flush=True)

    print(f"{'workload':<26} {'figure':<22} {'median':>14} {'IQR/med':>8} "
          f"{'min':>14} {'max':>14}")
    for workload, runs in records.items():
        names = list(runs[0]["metrics"])
        series = {name: [r["metrics"][name]["value"] for r in runs]
                  for name in names}
        for name in RAW_FIGURES:
            series[name] = [r["detail"][name] for r in runs]
        for name, values in series.items():
            s = spread(values)
            print(f"{workload:<26} {name:<22} {s['median']:>14.6g} "
                  f"{s['iqr_share'] * 100:>7.2f}% {s['min']:>14.6g} "
                  f"{s['max']:>14.6g}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"{workload:<26} {'correct':<22} {str(correct):>14} "
              f"failed share {sorted(shares)}")

    out_dir = os.path.join(REPO_ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, time.strftime("steadiness-%Y%m%dT%H%M%S.json"))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"runs": args.runs, "seconds": args.seconds,
                   "first_seed": args.first_seed, "records": records},
                  handle, indent=1)
    print(f"results saved to {os.path.relpath(path, REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs one workload of the replay benchmark and prints its result.

Usage (from the repository root):
  python3 perfbench/run.py --workload usa-lru --seed 1 --seconds 10 --trace 0

Builds the driver first (see build.py), runs it, validates the telemetry
files the geant-lcd-pit-telemetry workload writes, and prints as its last
line one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. Earlier lines carry the raw (uncalibrated) figures. Exits
non-zero without a result when the build or the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from build import REPO_ROOT, build_binary, build_dir  # noqa: E402

WORKLOADS = ("usa-lru", "usa-lru-4shards", "geant-lcd-pit-telemetry",
             "webscale-lfu")
TELEMETRY_WORKLOAD = "geant-lcd-pit-telemetry"
# Exports the repository's validator knows; the metrics export
# (ccnopt-obs-v1) has no schema there and is checked here instead.
VALIDATED_EXPORTS = ("timeline", "topo", "trace")


def check_exports(out_dir: str, workload: str) -> list[str]:
    """Validates the files the telemetry workload's last trial wrote."""
    paths = [os.path.join(out_dir, f"{workload}-{kind}.json")
             for kind in VALIDATED_EXPORTS]
    errors = []
    checker = os.path.join(REPO_ROOT, "tools", "check_bench_json.py")
    result = subprocess.run([sys.executable, checker, *paths],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)
    if result.returncode != 0:
        errors.append("check_bench_json.py rejected the exports:\n" +
                      result.stdout)
    metrics_path = os.path.join(out_dir, f"{workload}-metrics.json")
    try:
        with open(metrics_path, encoding="utf-8") as handle:
            record = json.load(handle)
        counters = record["metrics"]["counters"]
        if record.get("schema") != "ccnopt-obs-v1":
            errors.append(f"{metrics_path}: unexpected schema")
        tiers = sum(counters[f"sim.requests.{tier}"]
                    for tier in ("local", "network", "origin"))
        if tiers != counters["sim.requests.measured"]:
            errors.append(f"{metrics_path}: tier counters sum to {tiers}, "
                          f"not {counters['sim.requests.measured']}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        errors.append(f"{metrics_path}: {exc!r}")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build_binary()
    except (OSError, RuntimeError) as exc:
        print(f"perfbench: build failed: {exc}", file=sys.stderr)
        return 1
    out_dir = os.path.join(build_dir(), "perfbench-out")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.stderr.write(result.stdout)
        print(f"perfbench: driver exited with {result.returncode}",
              file=sys.stderr)
        return result.returncode or 1
    record = json.loads(lines[-1])
    if args.workload == TELEMETRY_WORKLOAD:
        errors = check_exports(out_dir, args.workload)
        for error in errors:
            print(f"perfbench: {error}", file=sys.stderr)
        record["correct"] = record["correct"] and not errors
    for line in lines[:-1]:
        print(line)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

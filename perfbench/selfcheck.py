#!/usr/bin/env python3
"""Checks the benchmark's own instruments.

Usage (from the repository root):
  python3 perfbench/selfcheck.py [--seed 1] [--seconds 20]

Runs the oracle's tests (the Euler–Maclaurin harmonic sums against direct
summation; Che's approximation against an exact enumeration of an LRU
with at most 6 items and capacity 2), replays the reference kernel's LRU
against that exact enumeration, and then the calibration self-check: the
process pins itself to one of the CPUs it may use, replays usa-lru alone
for half of --seconds, then again while a busy thread of its own shares
that CPU. Raw throughput must drop by at least 30 %, and calibrated
throughput by at most a third of the raw drop; the kernel's hit ratio
must match its Che value. Only the process's own affinity is changed.
Exits non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from build import build_binary, build_dir  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    try:
        binary = build_binary()
    except (OSError, RuntimeError) as exc:
        print(f"perfbench: build failed: {exc}", file=sys.stderr)
        return 1
    return subprocess.run([binary, "--selfcheck", "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--out-dir",
                           os.path.join(build_dir(), "perfbench-out")]
                          ).returncode


if __name__ == "__main__":
    sys.exit(main())

"""Builds the benchmark driver from the checkout's sources.

The ccnopt libraries under ../src and the driver under cpp/ are compiled
into one CMake build tree (Release) under the build directory: the
directory named by $CARGO_TARGET_DIR when it is set (relative paths are
taken from the repository root), else .bench_build at the repository
root. Compiler output goes to standard error, so standard output stays
free for results. Rebuilding an up-to-date tree is a no-op.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)


def build_dir() -> str:
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(REPO_ROOT, path)


def _run(command: list[str]) -> None:
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        raise RuntimeError(f"{command[0]} failed with exit code "
                           f"{result.returncode}")


def build_binary() -> str:
    """Configures (once) and builds the driver; returns its path."""
    tree = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        command = ["cmake", "-S", HERE, "-B", tree,
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        _run(command)
    jobs = max(1, min(4, os.cpu_count() or 1))
    _run(["cmake", "--build", tree, "-j", str(jobs)])
    return os.path.join(tree, "perfbench")

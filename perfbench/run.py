#!/usr/bin/env python3
"""Builds the query server and the benchmark client from source, then runs
one benchmark run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload navigate --seed 1 --seconds 20 --trace 0

Build output goes to $CARGO_TARGET_DIR (default: .bench_build). Cargo's
messages go to standard error, so the last line of standard output is the
client's JSON result.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    here = Path(__file__).resolve().parent
    if not (root / "Cargo.toml").is_file() or not (root / "crates" / "bench").is_dir():
        print("perfbench: run from the root of a treequery checkout", file=sys.stderr)
        return 2
    target = (root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = ["cargo", "build", "--release", "--offline", "--quiet"]
    for cmd in (
        build + ["-p", "treequery-bench", "--bin", "harness"],
        build + ["--manifest-path", str(here / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    client = target / "release" / "perfbench"
    harness = target / "release" / "harness"
    args = sys.argv[1:] + ["--harness", str(harness)]
    return subprocess.run([str(client)] + args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

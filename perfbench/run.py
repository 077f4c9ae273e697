#!/usr/bin/env python3
"""Build the programs under test and the benchmark, then run the benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload classify|sweep|shard|reproduce \
        --seed N --seconds S --trace 0|1

Builds the release `btrd`, `btr-shard`, `btr-shard-worker` and `reproduce`
binaries from the repository's workspace and the `perfbench` package (a
workspace of its own, so the repository's manifests stay untouched), both
into `$CARGO_TARGET_DIR` (default: the repository's `target/`), offline.
Build output goes to standard error; the benchmark's JSON result is the last
line of standard output. Exits non-zero, printing no result, if either build
fails.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    target = Path(os.environ.get("CARGO_TARGET_DIR", "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "btr-serve", "-p", "btr-shard", "-p", "btr-bench", "--bins"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(Path("perfbench") / "Cargo.toml")],
    ]
    if not (root / "Cargo.toml").is_file():
        print("perfbench: run from the repository root", file=sys.stderr)
        return 2
    for command in builds:
        built = subprocess.run(command, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"perfbench: build failed: {' '.join(command)}", file=sys.stderr)
            return built.returncode or 1
    release = target / "release"
    bench = [str(release / "perfbench"), *sys.argv[1:], "--bin-dir", str(release)]
    return subprocess.run(bench, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the perfbench binary from source, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload caida_ingest --seed 1 --seconds 10 --trace 0

Every argument is passed on to the binary (see perfbench/README.md). Cargo
builds into $CARGO_TARGET_DIR when it is set and into perfbench/target
otherwise; its output goes to stderr, so the binary's JSON result stays the
last line of stdout. Run outputs (checkpoint stores, the exported Chrome
trace) go under <target dir>/perfbench-out and the checkpoint stores are
removed when the run ends. A failed build exits with status 2 and prints
no result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, "perfbench", "target")
    target = os.path.join(os.getcwd(), target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(ROOT, "perfbench", "Cargo.toml"),
        ],
        cwd=ROOT,
        stdout=sys.stderr,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
    )
    if build.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return 2
    out_dir = os.path.join(target, "perfbench-out")
    run = subprocess.run(
        [os.path.join(target, "release", "perfbench"), *sys.argv[1:], "--out-dir", out_dir],
        cwd=ROOT,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

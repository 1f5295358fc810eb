#!/usr/bin/env python3
"""Build and run the HQR benchmark for one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload <tall_skinny|square_ooc|service|cluster>
        --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]
        [--corrupt 0|1] [--out result.json]

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default `.bench_build`), then run once. Spill files
and the Chrome trace go to `<target dir>/perfbench-scratch`. The last line
of standard output is the result JSON; the exit code is 0 only when the
benchmark ran to completion.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every run of the benchmark, build included, must end well within this.
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["tall_skinny", "square_ooc", "service", "cluster"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full")
    ap.add_argument("--corrupt", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="also write the result with its host stamp here")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--corrupt", str(args.corrupt),
           "--scratch", os.path.join(target, "perfbench-scratch")]
    if args.out:
        cmd += ["--out", os.path.abspath(args.out)]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

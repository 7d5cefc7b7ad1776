#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <verify-corpus|serve-mixed|peephole-pass|all>
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --list-metrics

The build goes to $CARGO_TARGET_DIR (default `.bench_build`); the serve
workload's verdict store lives in a scratch directory under it, removed
when the run ends. `--workload all` runs the three workloads one after
another, each in its own process. The exit code is the benchmark's.
"""

import os
import pathlib
import shutil
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ["verify-corpus", "serve-mixed", "peephole-pass"]


def build(target):
    """Builds the benchmark; returns the executable's path, or None."""
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=dict(os.environ, CARGO_TARGET_DIR=str(target)),
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        return None
    return target / "release" / "perfbench"


def run(exe, args, work):
    """Runs the benchmark once, stopping it if this script is stopped."""
    proc = subprocess.Popen([str(exe), *args, "--work-dir", str(work)])
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(target)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    work = target / "perfbench-work" / str(os.getpid())
    at = args.index("--workload") + 1 if "--workload" in args else None
    if at is not None and args[at : at + 1] == ["all"]:
        codes = [run(exe, args[:at] + [w] + args[at + 1 :], work) for w in WORKLOADS]
        return next((c for c in codes if c != 0), 0)
    return run(exe, args, work)


if __name__ == "__main__":
    sys.exit(main())

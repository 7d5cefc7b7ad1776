#!/usr/bin/env python3
"""Determinism self-check: runs each workload's traced phase twice with
one seed and requires identical outputs, failure counts and
deterministic counters.

Usage, from the root of the repository:

    python3 perfbench/selfcheck.py [--seed N] [workload ...]

With no workload named, all three are checked. Exit code 0 when every
workload repeats exactly, 1 otherwise.
"""

import json
import re
import subprocess
import sys

WORKLOADS = ["verify-corpus", "serve-mixed", "peephole-pass"]
# Counts that are a fixed function of the build and the seed. Times,
# store sizes and the tracing overhead are not.
DETERMINISTIC = [
    "sat.conflicts", "sat.calls", "sat.propagations", "sat.decisions",
    "sat.restarts", "smt.gates", "smt.gates_muldiv", "smt.cegis_rounds",
    "typeck.typings", "verifier.attempts", "verifier.retried_conflicts",
    "serve.hits", "serve.misses", "store.appends", "opt.visited",
    "opt.sweeps", "opt.rewrites", "opt.cost",
]
PHASE = re.compile(r"^\S+: traced phase: .*$", re.M)


def traced_run(workload, seed):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True,
    )
    if out.returncode != 0:
        sys.exit(f"{workload}: run failed ({out.returncode}):\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    counters = {k: result["metrics"][k]["value"] for k in DETERMINISTIC}
    return PHASE.search(out.stdout).group(0), counters


def main():
    args = sys.argv[1:]
    seed = 1
    if args[:1] == ["--seed"]:
        seed, args = int(args[1]), args[2:]
    ok = True
    for workload in args or WORKLOADS:
        first, second = traced_run(workload, seed), traced_run(workload, seed)
        same = first == second
        ok &= same
        print(f"{workload} seed {seed}: {'identical' if same else 'DIFFERENT'}")
        print(f"  {first[0]}")
        if not same:
            print(f"  {second[0]}")
            for k in DETERMINISTIC:
                if first[1][k] != second[1][k]:
                    print(f"  {k}: {first[1][k]} then {second[1][k]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

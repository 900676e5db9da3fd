#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of a source checkout:

    python3 e2ebench/selftest.py [WORKLOAD ...]

For each workload (default: all):
  * two untraced runs at one seed report identical max_bits_per_proc,
    total_bits and rounds, and two traced runs identical per-net
    msgs/bits (the traced run itself checks its counts against an
    untraced instance and reconciles Round_end totals with the meters);
  * a second seed runs clean: correct, nothing failed.
Exits 1 on the first mismatch.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("everywhere-honest", "everywhere-flood", "rabin-allpairs")
E2E_COUNTS = ("max_bits_per_proc", "total_bits", "rounds")
NET_COUNTS = tuple(f"{net}.{kind}" for net in ("tree", "a2e", "rabin")
                   for kind in ("msgs", "bits", "adv_msgs", "rounds"))


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: {result}")
    return {k: m["value"] for k, m in result["metrics"].items()}


def same(workload, what, a, b, keys):
    diff = [k for k in keys if a[k] != b[k]]
    if diff:
        sys.exit(f"FAIL {workload}: {what} differ at equal seed: "
                 + ", ".join(f"{k} {a[k]} vs {b[k]}" for k in diff))


def main():
    for workload in sys.argv[1:] or WORKLOADS:
        same(workload, "end-to-end counts", run(workload, 1, 0),
             run(workload, 1, 0), E2E_COUNTS)
        same(workload, "per-net counts", run(workload, 1, 1),
             run(workload, 1, 1), NET_COUNTS)
        run(workload, 2, 0)
        print(f"ok {workload}", flush=True)


if __name__ == "__main__":
    main()

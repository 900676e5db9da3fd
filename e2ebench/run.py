#!/usr/bin/env python3
"""Whole-run agreement benchmark (see e2ebench/NOTES.md).

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds e2ebench/ledger.exe from source with dune (inside the checkout's
own _build), runs the one workload in its own process and re-prints the
program's result line, after checking its shape, as the last line of
stdout.  Exits non-zero without a result line when the checkout cannot
be built or the program fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark executable; returns its path."""
    for required in ("dune-project", "lib", "bench"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail(f"{required} missing: run from the root of a source checkout")
    # The shared dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "./e2ebench/ledger.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        fail(f"build failed (exit {proc.returncode})")
    return os.path.join(ROOT, "_build", "default", "e2ebench", "ledger.exe")


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        fail("no result line")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive integer")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            fail(f"malformed metric {name}: {m}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    # A SIGTERM unwinds through subprocess.run, which kills and reaps the
    # child before re-raising, so no build or workload outlives us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    if proc.returncode != 0:
        fail(f"ledger.exe exited {proc.returncode}")
    result = parse_result(proc.stdout)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-test of the benchmark: determinism of everything it counts.

    python3 perfbench/selftest.py [--seed N] [--seconds S]

1. Runs the traced pass twice, in two processes, and requires every count
   metric (the ones the benchmark lists after "exact counts:") to match
   exactly, and both runs to be correct.
2. Runs each workload untraced twice and requires its simulated-output
   digests to match and no operation to fail.

Exit 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.rstrip("\n").splitlines()
    return lines, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=1)
    args = ap.parse_args()
    failures = []

    runs = [bench("vocoder", args.seed, args.seconds, 1) for _ in range(2)]
    counted = next(l for l in runs[0][0] if l.startswith("exact counts:")).split()[2:]
    for lines, res in runs:
        if not res["correct"] or res["failed"] != 0:
            failures.append("traced run reported failed checks")
    for name in counted:
        a, b = (res["metrics"][name]["value"] for _, res in runs)
        if a != b:
            failures.append(f"count {name}: {a!r} != {b!r}")
    print(f"traced: {len(counted)} count metrics compared")

    for workload in ("vocoder", "soak", "search"):
        pair = [bench(workload, args.seed, args.seconds, 0) for _ in range(2)]
        digests = [sorted(l for l in lines if l.startswith("digest ")) for lines, _ in pair]
        if not digests[0] or digests[0] != digests[1]:
            failures.append(f"{workload}: digests differ or are missing: {digests}")
        for _, res in pair:
            if not res["correct"] or res["failed"] != 0:
                failures.append(f"{workload}: {res['failed']} of {res['attempted']} ops failed")
        print(f"{workload}: {' '.join(d.split()[-1] for d in digests[0])}")

    for f in failures:
        print(f"FAIL {f}")
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

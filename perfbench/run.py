#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload vocoder|soak|search --seed N \
        --seconds S --trace 0|1

The first call configures and builds perfbench/ (which compiles the
simulator's src/ tree) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only rebuild what changed. The
benchmark binary's output is passed through, so the last line of standard
output is the JSON result. With --trace 1 the host-time span log is written
to <build dir>/spans.json. Build failures, a crashed or timed-out benchmark,
or a missing result exit non-zero without printing a result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("vocoder", "soak", "search")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, stdout):
    """Run `cmd` in its own process group; on timeout kill the whole group
    (a build's compiler children included) and wait for it. Returns
    (returncode, captured stdout or None)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    return proc.returncode, out


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; fail on error."""
    rc, _ = run_group(cmd, timeout, sys.stderr)
    if rc != 0:
        fail(f"failed ({rc}): {' '.join(cmd)}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    exe = build(build_dir)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans-out", os.path.join(build_dir, "spans.json")]
    rc, out = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    if rc != 0:
        fail(f"benchmark exited with {rc}")

    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark result has unexpected keys")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pclht-hunt --seed 1 --seconds 20 --trace 0

The script builds perfbench/perfbench.exe from source with dune (release
profile, build directory .bench_build/ at the checkout root, dune cache
off), then runs it with the same arguments.  The benchmark's output is
passed through; its last line is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".  With --trace 1 the
spans of the traced run are written to .bench_build/spans/.

The exit code is the benchmark's: 0 when every correctness check passed,
non-zero otherwise (and always non-zero, with no result printed, when
the checkout cannot be built).
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_bounded(cmd, timeout, **kw):
    """Run [cmd] to completion; on timeout kill it and wait for it to end."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return proc.returncode, out


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at the checkout root: nothing to build")
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_bounded(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--profile", "release", "--display", "quiet", "./perfbench/perfbench.exe"],
        BUILD_TIMEOUT_S, cwd=ROOT, env=env, stdout=sys.stderr)
    if code != 0 or not os.path.exists(EXE):
        fail(f"build failed (dune exit code {code})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    code, out = run_bounded(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        well_formed = isinstance(result, dict) and set(result) == RESULT_KEYS
    except ValueError:
        well_formed = False
    if not well_formed:
        sys.stdout.write(out)
        fail(f"benchmark printed no result line (exit code {code})")
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end benchmark of seqhide.

Run from the repository root:

    python3 perfbench/run.py --workload sanitize-long --seed 1 --seconds 30 --trace 0

Builds perfbench/ (and the seqhide libraries it links) into .bench_build/,
generates the workload's inputs from --seed in a separate process, then
measures the system on them for --seconds and prints one JSON object as
the last line of standard output. --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer ones; BENCHMARK.json lists both. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("sanitize-long", "sanitize-wide", "serve-mixed")
# Once built, input generation and the measured step together must end
# within this many seconds (set-up, oracles, checks and draining the
# server included).
STEP_BUDGET_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then (re)builds the benchmark program; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: {' '.join(cmd)}: {e}")
            return False
        if done.returncode != 0:
            log(f"perfbench: {' '.join(cmd)} exited {done.returncode}")
            return False
    return True


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    ap.add_argument("--inject", choices=("corrupt-one", "unsanitized", "wrong-oracle"),
                    help="plant a fault the output checks must catch")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not build():
        return 1
    deadline = time.monotonic() + STEP_BUDGET_S
    binary = os.path.join(BUILD_DIR, "perfbench")
    # Relative to ROOT, so the server's socket path stays short.
    work = os.path.join(".bench_build", "work",
                        f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", work]
    if args.tiny:
        common.append("--tiny")
    try:
        gen = subprocess.run([binary, "gen"] + common, cwd=ROOT, stdout=sys.stderr,
                             timeout=deadline - time.monotonic())
        if gen.returncode != 0:
            log(f"perfbench: input generation exited {gen.returncode}")
            return 1
        cmd = [binary, "run"] + common + ["--seconds", str(args.seconds),
                                          "--trace", str(args.trace)]
        if args.inject:
            cmd += ["--inject", args.inject]
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
        if run.returncode != 0:
            sys.stderr.write(run.stdout)
            log(f"perfbench: measured step exited {run.returncode}")
            return 1
        print(f"git_sha: {git_sha()}")
        sys.stdout.write(run.stdout)
        sys.stdout.flush()
        return 0
    except subprocess.TimeoutExpired as e:
        log(f"perfbench: timed out: {e}")
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the repository root:  python3 perfbench/smoke_test.py

Checks two things:
  1. every workload prints, as its last line, a result with exactly the
     keys the benchmark contract names, and every metric BENCHMARK.json
     lists (end-to-end untraced, per-layer traced), each with its unit;
  2. the output checks bite: a corrupted output file, an unsanitized
     output file, and a wrong oracle value each make the run incorrect.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "2"


def run(workload, trace, inject=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", str(trace), "--tiny"]
    if inject:
        cmd += ["--inject", inject]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []

    def check(cond, what):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            failures.append(what)

    for w in bench["workloads"]:
        for trace in (0, 1):
            res = run(w["name"], trace)
            tag = f"{w['name']} trace={trace}"
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys")
            check(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{tag}: correct, nothing failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == wanted[trace], f"{tag}: every listed metric, with its unit")
            if trace == 0:
                check(all(v["value"] > 0 for v in res["metrics"].values()),
                      f"{tag}: end-to-end metrics are non-zero")

    for workload, inject in (("sanitize-long", "corrupt-one"),
                             ("sanitize-wide", "unsanitized"),
                             ("serve-mixed", "wrong-oracle")):
        res = run(workload, 0, inject)
        check(res["correct"] is False and res["failed"] >= 1,
              f"{workload}: planted fault '{inject}' is caught")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

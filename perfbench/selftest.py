#!/usr/bin/env python3
"""The benchmark's own tests, at a tiny scale.

    python3 perfbench/selftest.py

Run it from the repository root. It checks that:
- the benchmark's unit tests pass;
- every workload, untraced and traced, exits 0 with a correct result,
  prints a number for each metric and passes every correctness check
  (the metric names and units are BENCHMARK.json's, compiled in; an
  end-to-end metric a workload does not measure fails the run);
- each correctness check fails when its input is corrupted (the canary),
  and the run then exits non-zero without claiming a correct result;
- in a directory that holds only BENCHMARK.json and the benchmark, the
  run exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = "7"  # the seed the committed digests were recorded with
FAILURES = []


def run(args, cwd=ROOT):
    cmd = ["python3", os.path.join("perfbench", "run.py"), "--seed", SEED,
           "--seconds", "1", "--tiny"] + args
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    checks = {}
    for line in lines:
        if line.startswith("perfbench checks "):
            checks = json.loads(line[len("perfbench checks "):])
    return p, result, checks


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    unit = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, capture_output=True, text=True)
    expect(unit.returncode == 0, "unit tests pass")

    for w in bench["workloads"]:
        name = w["name"]
        all_checks = {}
        for trace in ("0", "1"):
            p, result, checks = run(["--workload", name, "--trace", trace])
            for c in checks:
                all_checks.setdefault(c, trace)
            expect(p.returncode == 0 and result is not None and result["correct"],
                   f"{name} trace {trace}: exit 0 and correct")
            if result is None:
                continue
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{name} trace {trace}: every value is a number")
            expect(checks and all(checks.values()), f"{name} trace {trace}: every check passes")
        for check, trace in sorted(all_checks.items()):
            p, result, checks = run(["--workload", name, "--trace", trace, "--canary", check])
            expect(p.returncode != 0 and checks.get(check) is False
                   and (result is None or not result["correct"]),
                   f"{name}: canary on {check} fails the run")

    bare = os.path.join(ROOT, ".perfbench_tmp", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("target", "__pycache__"))
    p, result, _ = run(["--workload", "figures", "--trace", "0"], cwd=bare)
    shutil.rmtree(os.path.dirname(bare), ignore_errors=True)
    expect(p.returncode != 0 and result is None,
           "a directory without the program exits non-zero and prints no result")

    print(f"{len(FAILURES)} failure(s)")
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()

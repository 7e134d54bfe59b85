#!/usr/bin/env python3
"""Build the LPM workspace's `lpm-cli` and the benchmark, then run one
workload in its own process.

    python3 perfbench/run.py --workload figures|sweep-membound|serve-mix \
        --seed N --seconds S --trace 0|1

Run it from the repository root. Builds go to `$CARGO_TARGET_DIR`
(default `.bench_build`). The last line of stdout is the result object;
everything the builds print goes to stderr. Exits non-zero, without a
result, when the program cannot be built or a workload fails outright.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figures", "sweep-membound", "serve-mix")
# A run must end within 180 s; leave room for the build check and cleanup.
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Build `lpm-cli` from the workspace and the benchmark package."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "lpm-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--tiny", action="store_true",
                    help="reduced scale, for the benchmark's own tests")
    ap.add_argument("--canary", help="corrupt the input of this check")
    a = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: no Cargo.toml at the repository root")
    build()
    release = os.path.join(target_dir(), "release")
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"{a.workload}-{os.getpid()}")
    cmd = [os.path.join(release, "lpm-perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace,
           "--lpm-cli", os.path.join(release, "lpm-cli"), "--tmp", tmp]
    if a.tiny:
        cmd.append("--tiny")
    if a.canary:
        cmd += ["--canary", a.canary]
    # Its own process group, so a timeout also ends the serve daemon.
    child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        code = 124
        print(f"perfbench: {a.workload} timed out", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run one perfbench workload from the root of a qcongest checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark and the qcongest CLI with dune, then runs
perfbench/main.exe with QCONGEST_JOBS=1 and QCONGEST_SHARDS=1. The last
line of stdout is the result JSON; build output and logs go to stderr.
Exits non-zero without a result when the checkout is incomplete or the
build fails.
"""
import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    if not all(os.path.exists(p) for p in ("dune-project", "lib", "bin", "perfbench/dune")):
        print("perfbench: run from the root of a qcongest checkout", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "perfbench/main.exe", "bin/qcongest_cli.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    env = dict(os.environ, QCONGEST_JOBS="1", QCONGEST_SHARDS="1")
    cmd = ["_build/default/perfbench/main.exe"]
    # Its own session, so a timeout also takes down the daemons it started.
    proc = subprocess.Popen(cmd + sys.argv[1:], env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

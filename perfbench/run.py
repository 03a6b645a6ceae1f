#!/usr/bin/env python3
"""Builds the campaign benchmark and `nvpim-serviced` from source, then runs
one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Build output goes to `$CARGO_TARGET_DIR`
(default `.bench_build`); daemon logs, state dirs and span files go to
`.bench_work`, removed per run except the span files of traced runs. The
last stdout line is the benchmark's JSON result; cargo's output goes to
stderr. Exits non-zero, printing no result, when the sources are missing or
a build fails.
"""

import os
import signal
import subprocess
import sys

BENCH_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "crates", "service", "Cargo.toml")):
        print("perfbench: repository sources not found beside perfbench/", file=sys.stderr)
        return 2
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "nvpim-service", "--bin", "nvpim-serviced"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for command in builds:
        if subprocess.run(command, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(command), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "nvpim-perfbench"),
        *sys.argv[1:],
        "--daemon-bin", os.path.join(release, "nvpim-serviced"),
        "--work-dir", os.path.join(root, ".bench_work"),
    ]
    # A session of its own, so a timeout also takes down the daemons it spawned.
    with subprocess.Popen(command, cwd=root, env=env, start_new_session=True) as bench:
        try:
            return bench.wait(timeout=BENCH_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(bench.pid, signal.SIGKILL)
            bench.wait()
            print("perfbench: run exceeded %d s" % BENCH_TIMEOUT_S, file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())

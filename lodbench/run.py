#!/usr/bin/env python3
"""Builds lodbench from source and runs one workload.

Run from the root of a lodviz checkout:

    python3 lodbench/run.py --workload serve_http --seed 1 --seconds 25 \
        --trace 0

The build (the lodviz libraries under src/ plus the benchmark binary) goes
to $CARGO_TARGET_DIR, or .bench_build when that is unset, and is reused by
later runs. The last line of standard output is the benchmark's JSON
result; build output goes to standard error. Exits non-zero, printing no
result, when the build or the run fails.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_http", "disk_pool", "explore_ingest")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the benchmark; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "lodbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"lodbench: build failed: {e}", file=sys.stderr)
        return 1

    # A terminated runner takes the benchmark process down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    child = subprocess.Popen(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--workdir", build_dir])
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("lodbench: run timed out", file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())

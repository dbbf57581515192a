#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload q7_spill --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (the library sources under
src/ plus the driver) into .bench_build/; later runs rebuild incrementally.
Build output goes to stderr. The driver's stdout is passed through, so the
last line is the result JSON. Spill files and run state stay under
.bench_build/. Exits non-zero, printing no result, when the build or the run
fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ("q7_spill", "serve_adhoc")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args()


def build(root):
    build_dir = os.path.join(root, BUILD_DIR)
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    args = parse_args()
    root = os.getcwd()
    binary = build(root)
    state_dir = os.path.join(root, BUILD_DIR, "state")
    spill_dir = os.path.join(root, BUILD_DIR, "spill")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--spill-dir", spill_dir, "--state-dir", state_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: driver exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

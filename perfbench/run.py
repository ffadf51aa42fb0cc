#!/usr/bin/env python3
"""End-to-end benchmark entry point for udm (named by BENCHMARK.json).

    python3 perfbench/run.py --workload fit|classify|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the library, the udm_serve daemon and
the udm_perfbench driver from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR, or .bench_build when unset, then runs the driver. The
driver's last stdout line is the result JSON; build output goes to
<build dir>/build.log and check results to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = ".perfbench_work"  # scratch: checkpoints, CSVs, socket, traces
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then builds incrementally; returns the bin dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no udm sources next to perfbench/ (expected src/CMakeLists.txt)")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "-j", "4",
                      "--target", "udm_perfbench", "perfbench_udm_serve"])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=log) != 0:
                fail("build failed, see " + log_path)
    return build_dir


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["fit", "classify", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bin_dir = build(build_dir)
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [os.path.join(bin_dir, "udm_perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", WORK_DIR,
               "--serve-bin", os.path.join(bin_dir, "udm_serve")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             timeout=DRIVER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("driver exited with %d and no result" % run.returncode)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    print(json.dumps(result))
    if run.returncode != 0:
        fail("driver exited with %d" % run.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the MIRA benchmark (see README.md in this directory).

    python3 mirabench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 mirabench/run.py --workload service --seed <n> --calibrate

Run from the repository root. The driver is built from the repository's
sources into .bench_build/ (first run only; later runs reuse the build), then
run with the same arguments. Its last stdout line, one JSON object, is checked
against the metric lists in BENCHMARK.json and printed as the last line.
"""

import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "mirabench")
BINARY = os.path.join(BUILD_DIR, "mirabench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(command, timeout):
    """Runs a build step; its output goes to stderr only if it fails."""
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(command)}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace")[-20000:])
        fail(f"failed: {' '.join(command)}")


def build():
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail(f"{required} not found: run from a MIRA source checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        run_logged(["cmake", "--build", BUILD_DIR, "--target", "mirabench",
                    "-j", jobs], BUILD_TIMEOUT_S)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    args = sys.argv[1:]
    build()
    try:
        done = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run took longer than {RUN_TIMEOUT_S} s", 4)
    if done.returncode != 0:
        fail(f"mirabench exited with code {done.returncode}", done.returncode)
    lines = done.stdout.decode().splitlines()
    if "--calibrate" in args:
        print("\n".join(lines))
        return
    if not lines:
        fail("mirabench printed no result", 5)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result line has the wrong keys", 5)
    trace = args[args.index("--trace") + 1] == "1"
    if sorted(result["metrics"]) != sorted(expected_metrics(trace)):
        fail("result metrics differ from BENCHMARK.json", 5)
    print("\n".join(lines))


if __name__ == "__main__":
    main()

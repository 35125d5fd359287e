#!/usr/bin/env python3
"""Build the simulator and run one cellbench workload.

    python3 cellbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The first run configures and builds
cellbench/CMakeLists.txt (Release) into .bench_build/cellbench; later runs
rebuild only what changed. Each workload ends with its result JSON line;
`--workload all` runs the three workloads in turn. For sharded_station the
run also executes station_star once at the same seed and requires
identical model outputs. Exits 1 if a model-output gate fails, 2 if the
benchmark cannot be built or run.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "cellbench"
BINARY = BUILD_DIR / "cellbench"
WORKLOADS = ("station_star", "bridged_tcp", "sharded_station")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"cellbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally. Build output goes to stderr."""
    if not (ROOT / "src" / "apps" / "scenario.cpp").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def run_binary(args):
    """Runs cellbench; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("cellbench " + " ".join(args) + " timed out")
    return done.returncode, done.stdout.splitlines()


def fingerprint(lines):
    for line in lines:
        if line.startswith("fingerprint "):
            return line.split()[1]
    return None


def run_workload(workload, seed, seconds, trace):
    """Runs one workload, prints its lines and result; returns the result."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", trace]
    if trace == "1":
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    code, lines = run_binary(args)
    if code not in (0, 1) or not lines:
        fail(f"cellbench exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("cellbench printed no result line")
    for line in lines[:-1]:
        print(line)

    if workload == "sharded_station":
        ref_code, ref_lines = run_binary(
            ["--workload", "station_star", "--seed", str(seed), "--fingerprint-only"])
        ours, theirs = fingerprint(lines), fingerprint(ref_lines)
        print(f"station_star reference fingerprint {theirs}")
        if ref_code != 0 or ours is None or ours != theirs:
            print("GATE FAILED: sharded_station model outputs differ from station_star")
            result["correct"] = False

    print(json.dumps(result))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    opts = parser.parse_args()

    build()
    workloads = WORKLOADS if opts.workload == "all" else (opts.workload,)
    results = [run_workload(w, opts.seed, opts.seconds, opts.trace) for w in workloads]
    sys.exit(0 if all(r["correct"] for r in results) else 1)


if __name__ == "__main__":
    main()

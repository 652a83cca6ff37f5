#!/usr/bin/env python3
"""Build and run the macroflow benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which compiles the library
from src/) with CMake under .bench_build/; later runs only check that the
build is up to date. BENCHMARK.json is the one list of workloads and metrics:
the binary's metrics are checked against it and printed in its order, with
unit and better-direction, and the last output line is the run's JSON
result. Build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Configure (once) and build the benchmark; return the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from a full source checkout")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = [cmake, "-S", os.path.join(ROOT, "perfbench"), "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = [cmake, "--build", out, "--target", "macroflow_bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "macroflow_bench")


def unique_keys(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError(f"duplicate key in {keys}")
    return dict(pairs)


def order_metrics(measured, listed, traced):
    """The run's metrics in BENCHMARK.json order. An unknown name, a unit
    other than the listed one or a missing end-to-end metric is a benchmark
    bug; per-layer metrics a workload does not reach read 0. (A non-finite
    value already fails to parse as JSON.)"""
    known = {m["name"]: m for m in listed}
    for name, m in measured.items():
        if name not in known:
            fail(f"metric {name} is not listed in BENCHMARK.json")
        if m["unit"] != known[name]["unit"]:
            fail(f"metric {name} has unit {m['unit']}")
    ordered = {}
    for spec in listed:
        name = spec["name"]
        if name in measured:
            ordered[name] = measured[name]
        elif traced:
            ordered[name] = {"value": 0, "unit": spec["unit"]}
        else:
            fail(f"end-to-end metric {name} is missing")
    return ordered


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--inject", choices=["label", "response"],
                        help="self-test: corrupt one output before checking")
    args = parser.parse_args()

    binary = build()
    os.chdir(ROOT)  # the daemon's socket path stays short and relative
    work = os.path.relpath(os.path.join(os.path.dirname(build_dir()), "work"))
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--work-dir", work]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1], object_pairs_hook=unique_keys)
    except ValueError as e:
        fail(f"benchmark printed no JSON result: {e}")

    traced = args.trace == "1"
    listed = spec["per_layer" if traced else "end_to_end"]
    result["metrics"] = order_metrics(result["metrics"], listed, traced)
    print("BENCHMARK.json metrics:")
    for m in listed:
        value = result["metrics"][m["name"]]["value"]
        print(f"  {m['name']:<30} {value:>18.6f} {m['unit']:<8} "
              f"{m['better']} is better")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

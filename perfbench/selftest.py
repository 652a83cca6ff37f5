#!/usr/bin/env python3
"""Self-test of the macroflow benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Builds the benchmark (as run.py does) and checks, on a small seed and short
runs, that:
  1. every run's result line carries exactly the metric names BENCHMARK.json
     lists, in its order (run.py refuses a metric the binary reports that
     BENCHMARK.json does not list, or a missing end-to-end metric);
  2. every workload passes its checks untraced and traced, and the traced
     replay reproduces the library's outputs (trace.replay_mismatches = 0);
  3. a deliberately corrupted label and a corrupted served CF are each
     counted as a failed op, so the failure accounting is itself tested;
  4. the binary refuses a workload name it does not know before it touches
     the work directory that is named after the workload.
Exits 0 when all checks hold, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = "7"
SECONDS = "2"

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, inject=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", SEED, "--seconds", SECONDS, "--trace", trace]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    names = {"0": [m["name"] for m in spec["end_to_end"]],
             "1": [m["name"] for m in spec["per_layer"]]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            what = f"{workload} trace={trace}"
            result = run(workload, trace)
            check(result is not None, f"{what}: exits 0 with a result line")
            if result is None:
                continue
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], f"{what}: result keys")
            check(list(result["metrics"]) == names[trace],
                  f"{what}: metric names match BENCHMARK.json")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{what}: every check passes")
            if trace == "1":
                check(result["metrics"]["trace.replay_mismatches"]["value"]
                      == 0, f"{what}: replay reproduces the library outputs")

    for workload, inject in (("label_sweep", "label"),
                             ("serve_estimate", "response")):
        result = run(workload, "0", inject)
        check(result is not None and not result["correct"]
              and result["failed"] >= 1,
              f"{workload}: an injected wrong {inject} counts as failed")

    sys.dont_write_bytecode = True
    sys.path.insert(0, HERE)
    import run as runner  # noqa: E402  (perfbench/run.py)
    work = os.path.join(os.path.dirname(runner.build_dir()), "work")
    keep = os.path.join(work, "selftest_keep")
    os.makedirs(keep, exist_ok=True)
    proc = subprocess.run([os.path.join(runner.build_dir(), "macroflow_bench"),
                           "--workload", "../selftest_keep", "--seed", SEED,
                           "--seconds", SECONDS, "--trace", "0", "--work-dir",
                           os.path.join(work, "none")], cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    check(proc.returncode == 2 and os.path.isdir(keep),
          "an unknown workload name is refused and deletes nothing")
    os.rmdir(keep)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

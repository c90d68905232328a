#!/usr/bin/env python3
"""Builds and runs one cwgl_bench workload from the repository root.

  python3 cwgl_bench/run.py --workload W --seed N --seconds S --trace 0|1

Configures and builds the `cwgl` CLI and the `cwgl_bench` driver from
source (Release) under .bench_build/cwgl_bench, then runs the driver with its
work directory inside the build directory. Passes the driver's
`workload metric value unit` lines through and ends with one JSON line
holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). Exits non-zero, without a result, when the
build or the run fails; exits 1 with `"correct": false` when an answer was
wrong.
"""

import argparse
import json
import os
import subprocess
import sys


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "cwgl_bench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "cwgl_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write(f"run.py: build failed: {' '.join(step)}\n")
                return None
    return os.path.join(build_dir, "cwgl_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        sys.stderr.write(f"run.py: cannot read BENCHMARK.json: {e}\n")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    build_dir = os.path.join(".bench_build", "cwgl_bench")
    binary = build(build_dir)
    if binary is None:
        return 1
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(seconds), "--trace", str(args.trace),
         "--out", os.path.join(build_dir, "work")] + extra,
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        sys.stderr.write(f"run.py: driver exited {proc.returncode} "
                         "without a result\n")
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        sys.stderr.write(f"run.py: driver did not report {missing}\n")
        return 1
    result["metrics"] = {m["name"]: result["metrics"][m["name"]]
                         for m in wanted}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

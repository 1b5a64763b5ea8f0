#!/usr/bin/env python3
"""cfnet end-to-end benchmark: builds perfbench/ (and the cfnet sources it
links) on first use, runs one workload, and prints one JSON result line.

    python3 perfbench/run.py --workload crawl|analyze|serve_hot|serve_cold \
        --seed N --seconds S --trace 0|1

The last stdout line is {"correct", "attempted", "failed", "metrics"}: every
end-to-end metric of BENCHMARK.json with --trace 0, every per-layer metric
with --trace 1. A per-layer metric of a call the workload never makes is
reported as 0 (see perfbench/README.md). Build output goes to
<build dir>/build.log and progress to stderr; the build directory is
$CARGO_TARGET_DIR, else .bench_build, relative to the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target",
                  "cfnet_perfbench"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "cfnet_perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20160626)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found")
    with open(spec_path) as f:
        spec = json.load(f)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("cfnet sources (src/) not found next to perfbench/")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--golden", os.path.join(ROOT, "perfbench", "golden.json")]
    if args.trace:
        command += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"workload exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("workload printed no result")
    result = json.loads(lines[-1])

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result["metrics"]
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                fail(f"{name}: unit {measured[name]['unit']!r}, "
                     f"BENCHMARK.json says {unit!r}")
            metrics[name] = measured.pop(name)
        elif args.trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail(f"end-to-end metric {name} was not measured")
    if measured:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(measured))
    result["metrics"] = metrics
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds
perfbench/ (which pulls in the library from the repository's own CMake
build) under .bench_build/; later calls only re-run the up-to-date check.
The measuring program's standard output is passed through unchanged: its
last line is the JSON result.  With --trace 1 the spans are also written to
.bench_build/traces/.

--self-test runs every workload of BENCHMARK.json at its smallest size,
checks that every metric named there is printed with its unit, and checks
that one deliberately corrupted netlist, LUT network and RS shard are each
counted as failures.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("table5_flow", "opt_prove", "gf_kernels")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        result = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                timeout=timeout, check=False)
    if result.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail(f"{' '.join(cmd[:2])} failed (log: {log_path})")


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} at {ROOT}: the benchmark builds the repository's library "
                 "from source and must run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(BUILD, "configure.log"), BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
               os.path.join(BUILD, "build.log"), BUILD_TIMEOUT_S)


def run_benchmark(args, capture):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    cmd += args.extra
    result = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                            timeout=RUN_TIMEOUT_S, check=False, text=True)
    return result


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1])


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1, trace=trace,
                                      extra=["--small"])
            result = run_benchmark(args, capture=True)
            where = f"{workload} --trace {trace}"
            if result.returncode != 0:
                problems.append(f"{where}: exit code {result.returncode}")
                continue
            out = last_json(result.stdout)
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(out)}")
                continue
            if not out["correct"] or out["failed"] != 0 or out["attempted"] < 1:
                problems.append(f"{where}: correct={out['correct']} failed={out['failed']} "
                                f"attempted={out['attempted']}")
            names = {m["name"]: m["unit"] for m in expected[trace]}
            if set(out["metrics"]) != set(names):
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(out['metrics']) ^ set(names))}")
            for name, unit in names.items():
                got = out["metrics"].get(name)
                if got is None:
                    continue
                if got.get("unit") != unit:
                    problems.append(f"{where}: {name} unit {got.get('unit')} != {unit}")
                if trace == 0 and not got.get("value"):
                    problems.append(f"{where}: end-to-end metric {name} is 0")
    # Each corruption must be caught by the output checks of its workload.
    for workload, inject in (("table5_flow", "lut"), ("opt_prove", "netlist"),
                             ("gf_kernels", "shard")):
        args = argparse.Namespace(workload=workload, seed=1, seconds=1, trace=0,
                                  extra=["--small", "--inject", inject])
        result = run_benchmark(args, capture=True)
        out = last_json(result.stdout) if result.returncode == 0 else {}
        frac = out.get("metrics", {}).get("pass_frac", {}).get("value", 1)
        if out.get("correct", True) or out.get("failed", 0) < 1 or frac >= 1:
            problems.append(f"{workload}: corrupted {inject} was not counted as a failure")
        else:
            print(f"self-test: corrupted {inject} counted in {workload} "
                  f"({out['failed']} of {out['attempted']} failed)")
    for p in problems:
        print(f"self-test FAIL: {p}")
    print("self-test:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    build()
    if args.self_test:
        return self_test()
    args.extra = []
    return run_benchmark(args, capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the CausalIoT end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload train-28d --seed 2023 --seconds 30 --trace 0
    python3 perfbench/run.py compare OLD_RESULT.json NEW_RESULT.json

Run from the root of a checkout. The first run configures and builds
perfbench/ (the library from src/ plus the benchmark program) into
.bench_build/. Human-readable metric lines and provenance go to stdout;
the last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones (and writes a Chrome trace). The full result
of every run is kept under .bench_build/results/ for `compare`.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
WORKLOADS = ("train-28d", "serve-saturate")
# Provenance that must match before two results may be compared.
COMPARABLE_KEYS = ("workload", "build_type", "simd_backend")


def log(message):
    print(message, file=sys.stderr, flush=True)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    return declared["per_layer" if trace else "end_to_end"]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources under %s/src; run from the root "
            "of a repository checkout" % ROOT)
        return False
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S).returncode != 0:
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        return subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                              stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S).returncode == 0


def run(args):
    trace = args.trace == 1
    declared = declared_metrics(trace)
    if not build():
        return 1
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = "%s-seed%d-trace-seed%d" % (args.workload, args.seed,
                                        args.trace_seed)
    work_dir = os.path.join(BUILD_ROOT, "work", stem)
    os.makedirs(work_dir, exist_ok=True)
    result_path = os.path.join(RESULTS_DIR, "%s-trace%d.json" % (stem, args.trace))
    trace_path = os.path.join(RESULTS_DIR, stem + ".trace.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--trace-seed", str(args.trace_seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--result", result_path]
    if trace:
        command += ["--trace-out", trace_path]
    exit_code = subprocess.run(command, stdout=sys.stderr,
                               timeout=RUN_TIMEOUT_S).returncode
    if not os.path.exists(result_path):
        log("perfbench: the run wrote no result (exit code %d)" % exit_code)
        return 1
    with open(result_path) as f:
        result = json.load(f)

    metrics = {}
    for spec in declared:
        measured = result["metrics"].get(spec["name"])
        if measured is None or measured["unit"] != spec["unit"]:
            log("perfbench: metric %s (%s) missing from the result"
                % (spec["name"], spec["unit"]))
            return 1
        metrics[spec["name"]] = {"value": measured["value"],
                                 "unit": measured["unit"]}
        print("%-28s %16.6f %s" % (spec["name"], measured["value"],
                                   measured["unit"]))
    attempted, failed = result["attempted"], result["failed"]
    print("%-28s %16.6f %s" % ("failed_ratio", failed / max(attempted, 1),
                               "ratio"))
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))
    for failure in result["failures"]:
        print("FAILED: " + failure)
    if trace:
        print("chrome trace: " + os.path.relpath(trace_path, ROOT))
    print("result: " + os.path.relpath(result_path, ROOT))
    print(json.dumps({"correct": result["correct"] and exit_code == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if exit_code == 0 and result["correct"] else 1


def compare(old_path, new_path):
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    for key in COMPARABLE_KEYS:
        before = old["provenance"].get(key)
        after = new["provenance"].get(key)
        if before != after:
            log("perfbench: refusing to compare: %s differs (%s vs %s)"
                % (key, before, after))
            return 2
    print("%-28s %16s %16s %8s" % ("metric", "old", "new", "new/old"))
    for name, after in new["metrics"].items():
        before = old["metrics"].get(name)
        if before is None:
            continue
        ratio = after["value"] / before["value"] if before["value"] else 0.0
        print("%-28s %16.6g %16.6g %8.3f %s" % (name, before["value"],
                                               after["value"], ratio,
                                               after["unit"]))
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            log("usage: run.py compare OLD_RESULT.json NEW_RESULT.json")
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--trace-seed", type=int, default=2023,
                        help="simulation seed of the 28-day training trace")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

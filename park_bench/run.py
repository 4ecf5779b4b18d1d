#!/usr/bin/env python3
"""Builds park_bench from the engine sources beside it, then runs it.

One workload, one process (the form BENCHMARK.json's command takes):

    python3 park_bench/run.py --workload W --seed N --seconds S --trace 0|1

passes the binary's output through; its last line is the
{"correct", "attempted", "failed", "metrics"} object.

A set of runs (every workload unless --workload names a comma-separated
subset), each workload in its own process:

    python3 park_bench/run.py [--seed N] [--repeat K] [--trace 0|1]
                              [--out FILE]

prints `workload metric value unit` for every metric and writes one
park-bench-v1 set (default .bench_out/park_bench_set.json) for
park_bench/bench_diff.py. Seeds run from N to N+K-1. Other flags
(--threads, --exec, --trace-out, --smoke) go to the binary unchanged.

The build goes to $CARGO_TARGET_DIR if set, else .bench_build, and is
configured once; later calls only rebuild what changed. Exits non-zero
when the sources are missing, the build fails, or any run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["closure_eval", "conflict_eval", "kilorule_commit",
             "payroll_serve"]
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "park", "park.h")):
        log("engine sources not found at %s" % os.path.join(ROOT, "src"))
        sys.exit(3)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            sys.exit(3)
    cmd = ["cmake", "--build", build_dir, "--target", "park_bench",
           "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(3)
    return os.path.join(build_dir, "park_bench")


def run_one(binary, args, capture):
    try:
        return subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        log("%s timed out after %d s" % (" ".join(args), RUN_TIMEOUT_S))
        return None


def main():
    parser = argparse.ArgumentParser(add_help=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--repeat", type=int)
    parser.add_argument("--out")
    args, passthrough = parser.parse_known_args()

    workloads = args.workload.split(",") if args.workload else WORKLOADS
    for w in workloads:
        if w not in WORKLOADS:
            log("unknown workload %s" % w)
            return 2
    binary = build()
    common = ["--seconds", args.seconds, "--trace", args.trace] + passthrough

    if len(workloads) == 1 and args.workload and args.repeat is None \
            and args.out is None:
        proc = run_one(binary, ["--workload", workloads[0], "--seed",
                                str(args.seed)] + common, capture=False)
        return 1 if proc is None else proc.returncode

    out = args.out or os.path.join(".bench_out", "park_bench_set.json")
    if os.path.dirname(out):
        os.makedirs(os.path.dirname(out), exist_ok=True)
    record_path = out + ".run.json"
    runs, status = [], 0
    for seed in range(args.seed, args.seed + (args.repeat or 1)):
        for w in workloads:
            proc = run_one(binary, ["--workload", w, "--seed", str(seed),
                                    "--json", record_path] + common,
                           capture=True)
            if proc is None or proc.returncode != 0:
                status = 1
            if proc is None:
                continue
            sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
            sys.stdout.flush()
            if os.path.isfile(record_path):
                with open(record_path) as f:
                    runs.append(json.load(f))
                os.remove(record_path)
    with open(out, "w") as f:
        json.dump({"schema": "park-bench-v1", "runs": runs}, f, indent=1)
        f.write("\n")
    log("wrote %s (%d runs)" % (out, len(runs)))
    return status


if __name__ == "__main__":
    sys.exit(main())

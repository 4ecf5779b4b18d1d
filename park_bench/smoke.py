#!/usr/bin/env python3
"""Smoke test of the park_bench binary (the park_bench_smoke ctest).

    python3 smoke.py PATH/TO/park_bench

Runs every workload at tiny size with all oracles, untraced and traced.
Checks that each run exits 0 with a correct result line naming exactly
the metrics BENCHMARK.json lists, and that each traced run's Chrome trace
parses and its spans nest inside their parents. payroll_serve's smoke
run also reopens its durable directory and compares the recovered state
with the final snapshot (inside the binary). Takes a few seconds.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["closure_eval", "conflict_eval", "kilorule_commit",
             "payroll_serve"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("park_bench_smoke: FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def run(binary, args, work):
    return subprocess.run([binary] + args + ["--work-dir", work],
                          capture_output=True, text=True, timeout=120)


def check_result(proc, what, expected_metrics):
    if proc.returncode != 0:
        fail("%s exited %d:\n%s" % (what, proc.returncode, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        fail("%s: result keys %s" % (what, sorted(result)))
    if not result["correct"] or result["failed"] != 0:
        fail("%s: incorrect or failed operations: %s" % (what, result))
    if result["attempted"] < 1:
        fail("%s: attempted nothing" % what)
    if set(result["metrics"]) != expected_metrics:
        fail("%s: metrics %s, BENCHMARK.json lists %s" %
             (what, sorted(result["metrics"]), sorted(expected_metrics)))


def check_trace(path, what):
    with open(path) as f:
        trace = json.load(f)
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    if not spans:
        fail("%s: trace has no spans" % what)
    by_id = {(e["pid"], e["args"]["id"]): e for e in spans}
    for e in spans:
        parent = e["args"]["parent"]
        if parent == 0:
            continue
        p = by_id.get((e["pid"], parent))
        if p is None:
            fail("%s: span %s has no parent in the file" % (what, e["name"]))
        # Timestamps are printed in µs with ns precision.
        if (e["ts"] < p["ts"] - 1e-3 or
                e["ts"] + e["dur"] > p["ts"] + p["dur"] + 2e-3):
            fail("%s: span %s lies outside its parent %s" %
                 (what, e["name"], p["name"]))


def main():
    if len(sys.argv) != 2:
        fail("usage: smoke.py PATH/TO/park_bench")
    binary = os.path.abspath(sys.argv[1])
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}

    if run(binary, ["--workload", "closure_eval", "--threads", "2"],
           ".").returncode != 2:
        fail("--threads on an end-to-end run must be a usage error")

    with tempfile.TemporaryDirectory(dir=".") as work:
        for w in WORKLOADS:
            base = ["--workload", w, "--smoke", "--seconds", "0.2"]
            check_result(run(binary, base + ["--trace", "0"], work),
                         w + " untraced", end_to_end)
            trace = os.path.join(work, w + ".trace.json")
            check_result(run(binary, base + ["--trace", "1", "--trace-out",
                                             trace], work),
                         w + " traced", per_layer)
            check_trace(trace, w)
        check_result(run(binary, ["--workload", "closure_eval", "--smoke",
                                  "--seconds", "0.2", "--trace", "1",
                                  "--threads", "2", "--exec", "batch"], work),
                     "closure_eval traced diagnostics", per_layer)
    print("park_bench_smoke: ok")


if __name__ == "__main__":
    main()

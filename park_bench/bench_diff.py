#!/usr/bin/env python3
"""Compares two sets of park-bench-v1 results under BENCHMARK.json.

    python3 park_bench/bench_diff.py BASE.json... -- NEW.json...
    python3 park_bench/bench_diff.py BASE.json NEW.json
    python3 park_bench/bench_diff.py --spread SET.json...

Each file is a set written by park_bench/run.py (or one record written by
park_bench --json). Several files per side are merged.

For every workload and end-to-end metric, prints each side's median and
quartiles (statistics.quantiles, n=4) over its untraced runs, and a
verdict:

  unresolved  either side's spread (quartile distance over median) is
              wider than the metric's bound, and not every new run reads
              better than every base run;
  regressed   the new median is worse than the base median by more than
              the bound;
  improved    at least 10 runs pair up by seed, the new side wins at
              least 9 in 10 pairs (ties count for neither), and the
              medians differ by more than the base side's quartile
              distance;
  unchanged   otherwise.

Run the pairs alternately, so both sides see the same host conditions:
seed 1 base then new, seed 2 new then base, and so on. For every
regression, the per-layer metrics of that workload's traced runs that
moved most are listed, so a regression points at a layer. Exits 1 if
any metric regressed or is unresolved.

--spread prints, per workload and end-to-end metric of one set, the
quartile distance over the median next to a third of the bound: the
steadiness target the benchmark is tuned to.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        if doc.get("schema") != "park-bench-v1":
            sys.exit("bench_diff: %s is not a park-bench-v1 document" % path)
        runs.extend(doc["runs"] if "runs" in doc else [doc])
    return runs


def values(runs, workload, metric, traced):
    """{seed: value} of `metric` over matching runs (last wins)."""
    out = {}
    for r in runs:
        if r["workload"] == workload and r["trace"] == traced and \
                metric in r["metrics"] and r["correct"]:
            out[r["seed"]] = r["metrics"][metric]["value"]
    return out


def summary(vals):
    v = sorted(vals)
    med = statistics.median(v)
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
    return med, q1, q3


def spread(vals):
    med, q1, q3 = summary(vals)
    return (q3 - q1) / med if med else 0.0


def verdict(spec, base, new):
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    b_med, b_q1, b_q3 = summary(list(base.values()))
    n_med, _, _ = summary(list(new.values()))
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    worse_by = ((n_med - b_med) if lower else (b_med - n_med)) / b_med \
        if b_med else 0.0
    all_better = all(better(n, b) for n in new.values()
                     for b in base.values())
    if max(spread(list(base.values())), spread(list(new.values()))) > bound \
            and not all_better:
        return "unresolved", worse_by
    if worse_by > bound:
        return "regressed", worse_by
    pairs = [(base[s], new[s]) for s in base if s in new]
    wins = sum(1 for b, n in pairs if better(n, b))
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and \
            abs(n_med - b_med) > (b_q3 - b_q1):
        return "improved", worse_by
    return "unchanged", worse_by


def layer_moves(spec, base_runs, new_runs, workload, top=5):
    moves = []
    for m in spec["per_layer"]:
        b = list(values(base_runs, workload, m["name"], True).values())
        n = list(values(new_runs, workload, m["name"], True).values())
        if not b or not n:
            continue
        b_med, n_med = statistics.median(b), statistics.median(n)
        if b_med == n_med:
            continue
        rel = (n_med - b_med) / abs(b_med) if b_med else float("inf")
        moves.append((abs(rel), m["name"], b_med, n_med, rel))
    moves.sort(reverse=True)
    return moves[:top]


def workloads_of(spec, runs):
    names = [w["name"] for w in spec["workloads"]]
    return [w for w in names if any(r["workload"] == w for r in runs)]


def cmd_spread(spec, runs):
    print("%-16s %-14s %5s %12s %8s %8s" %
          ("workload", "metric", "runs", "median", "spread", "bound/3"))
    worst = 0.0
    for w in workloads_of(spec, runs):
        for m in spec["end_to_end"]:
            vals = list(values(runs, w, m["name"], False).values())
            if not vals:
                continue
            s = spread(vals)
            flag = "" if s < m["bound"] / 3 or m["name"] == "setup_s" \
                else "  <-- above target"
            print("%-16s %-14s %5d %12.6g %8.4f %8.4f%s" %
                  (w, m["name"], len(vals), statistics.median(vals), s,
                   m["bound"] / 3, flag))
            if m["name"] != "setup_s":
                worst = max(worst, s / m["bound"])
    print("largest spread / bound (setup_s excluded): %.3f" % worst)
    return 0


def cmd_diff(spec, base_runs, new_runs):
    status = 0
    print("%-16s %-14s %12s %23s %12s %23s %8s %5s  %s" %
          ("workload", "metric", "base", "[q1, q3]", "new", "[q1, q3]",
           "worse", "bound", "verdict"))
    regressions = []
    for w in workloads_of(spec, base_runs + new_runs):
        for m in spec["end_to_end"]:
            base = values(base_runs, w, m["name"], False)
            new = values(new_runs, w, m["name"], False)
            if not base or not new:
                print("%-16s %-14s missing on one side" % (w, m["name"]))
                status = 1
                continue
            v, worse_by = verdict(m, base, new)
            b = summary(list(base.values()))
            n = summary(list(new.values()))
            print("%-16s %-14s %12.6g [%10.6g, %10.6g] %12.6g "
                  "[%10.6g, %10.6g] %+7.1f%% %5.2f  %s" %
                  (w, m["name"], b[0], b[1], b[2], n[0], n[1], n[2],
                   100 * worse_by, m["bound"], v))
            if v in ("regressed", "unresolved"):
                status = 1
            if v == "regressed":
                regressions.append((w, m["name"]))
    for w, metric in regressions:
        print("\n%s %s regressed; layer metrics that moved most:" % (w, metric))
        moves = layer_moves(spec, base_runs, new_runs, w)
        if not moves:
            print("  (no traced runs of %s on both sides)" % w)
        for _, name, b_med, n_med, rel in moves:
            print("  %-30s %12.6g -> %12.6g  (%+.1f%%)" %
                  (name, b_med, n_med, 100 * rel))
    return status


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--spread", action="store_true")
    parser.add_argument("files", nargs="+")
    # argparse would swallow the "--" separating the two sides.
    argv = sys.argv[1:]
    new = None
    if "--" in argv:
        cut = argv.index("--")
        argv, new = argv[:cut], argv[cut + 1:]
    args = parser.parse_args(argv)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.spread:
        return cmd_spread(spec, load_runs(args.files))
    if new is not None:
        base = args.files
    elif len(args.files) == 2:
        base, new = args.files[:1], args.files[1:]
    else:
        parser.error("give BASE -- NEW, or exactly two files")
    if not base or not new:
        parser.error("both sides need at least one file")
    return cmd_diff(spec, load_runs(base), load_runs(new))


if __name__ == "__main__":
    sys.exit(main())

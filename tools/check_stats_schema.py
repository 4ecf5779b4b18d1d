#!/usr/bin/env python3
"""Validates park-stats-v1 documents (ParkStats::ToJson, as written by
parkcli --stats-json).

Usage:
    tools/check_stats_schema.py FILE [FILE...]

Exit status 0 iff every file parses, matches the schema, and keeps the
value invariants below. The checker is deliberately stdlib-only (json +
sys) so it runs on a bare CI image. Values are checked only where the
engine guarantees a relation between them:

  - every restart blocks at least one new instance after at least one
    resolved conflict: conflicts_resolved >= restarts and
    blocked_instances >= restarts;
  - a conflict is resolved only after a SELECT call:
    policy_invocations >= conflicts_resolved;
  - with timings.collected, the phase clocks nest: policy_ns <=
    conflict_ns, and gamma_ns + apply_ns + conflict_ns <= total_ns.

The authoritative schema documentation lives in docs/OBSERVABILITY.md;
keep the two in sync — stats_invariance_test.cc pins the C++ emitter to
the same shape.
"""

import json
import sys

# Required key -> type(s) for each object in the document. `int` also
# accepts bools in Python; guard explicitly.


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _check_keys(errors, where, obj, spec):
    if not isinstance(obj, dict):
        errors.append(f"{where}: expected object, got {type(obj).__name__}")
        return
    for key, pred, desc in spec:
        if key not in obj:
            errors.append(f"{where}: missing key '{key}'")
        elif not pred(obj[key]):
            errors.append(f"{where}.{key}: expected {desc}, "
                          f"got {json.dumps(obj[key])[:40]}")
    known = {key for key, _, _ in spec}
    for key in obj:
        if key not in known:
            errors.append(f"{where}: unexpected key '{key}'")


PARK_STATS_COUNTERS = [
    "gamma_steps", "restarts", "conflicts_resolved", "blocked_instances",
    "derived_marks", "policy_invocations", "rule_evaluations",
]
PARK_STATS_PARALLEL = [
    "num_threads", "sections", "tasks", "max_queue_depth",
    "mean_task_latency_ns",
]
PARK_STATS_TIMINGS = [
    "total_ns", "gamma_ns", "apply_ns", "conflict_ns", "policy_ns",
    "parallel_match_ns", "parallel_merge_ns", "pool_busy_ns",
]
PARK_STATS_PLANNER_COUNTERS = [
    "plans_compiled", "cache_hits", "replans", "estimated_rows",
    "actual_rows",
]
# Governance accounting: limits are the configured budgets (0 = none);
# peak/charged report what the run actually consumed.
PARK_STATS_RESOURCE = [
    "memory_limit_bytes", "peak_memory_bytes", "derivation_limit",
    "derivations_charged",
]
# Commit-pipeline I/O retry accounting (journal append/flush/sync).
PARK_STATS_IO_RETRY = [
    "attempts", "retries", "backoff_ms_total", "retries_exhausted",
]
# Columnar storage accounting (segments live at run end, compaction work).
PARK_STATS_STORAGE = [
    "segments", "segment_rows", "compactions", "dict_entries",
]
# Batch executor row counters (all zero under tuple-at-a-time execution).
PARK_STATS_EXEC = [
    "batch_rows", "probe_rows", "merge_rows",
]
# Dependency-scheduler accounting (docs/SCHEDULER.md): rules examined
# for affectedness vs pruned.
PARK_STATS_SCHEDULER = [
    "rules_considered", "rules_skipped",
]
# Serving-layer accounting (docs/SERVING.md): group-commit batches and
# snapshot pins. batch_size_hist is checked separately (array, buckets
# 1 / 2 / 3-4 / 5-8 / 9-16 / 17+).
PARK_STATS_SERVING = [
    "batches", "batched_txns", "max_batch_size", "poisoned_batches",
    "individual_retries", "snapshots_opened", "snapshots_pinned",
    "segment_generations_retained",
]
# Incremental-maintenance accounting (docs/INCREMENTAL.md): commits
# served by the seeded closure vs transparent full-recompute fallbacks.
PARK_STATS_MAINTENANCE = [
    "maintained_commits", "atoms_overdeleted", "atoms_rederived",
    "cone_rules", "full_recompute_fallbacks",
]

def check_park_stats(errors, doc):
    _check_keys(errors, "$", doc, [
        ("schema", lambda v: v == "park-stats-v1", '"park-stats-v1"'),
        ("counters", lambda v: isinstance(v, dict), "object"),
        ("parallel", lambda v: isinstance(v, dict), "object"),
        ("planner", lambda v: isinstance(v, dict), "object"),
        ("scheduler", lambda v: isinstance(v, dict), "object"),
        ("resource", lambda v: isinstance(v, dict), "object"),
        ("io_retry", lambda v: isinstance(v, dict), "object"),
        ("storage", lambda v: isinstance(v, dict), "object"),
        ("exec", lambda v: isinstance(v, dict), "object"),
        ("serving", lambda v: isinstance(v, dict), "object"),
        ("maintenance", lambda v: isinstance(v, dict), "object"),
        ("timings", lambda v: isinstance(v, dict), "object"),
    ])
    if not isinstance(doc, dict):
        return
    _check_keys(errors, "$.counters", doc.get("counters", {}),
                [(k, _is_int, "integer") for k in PARK_STATS_COUNTERS])
    _check_keys(errors, "$.parallel", doc.get("parallel", {}),
                [(k, _is_int, "integer") for k in PARK_STATS_PARALLEL])
    _check_keys(errors, "$.planner", doc.get("planner", {}),
                [(k, _is_int, "integer")
                 for k in PARK_STATS_PLANNER_COUNTERS])
    _check_keys(errors, "$.scheduler", doc.get("scheduler", {}),
                [(k, _is_int, "integer") for k in PARK_STATS_SCHEDULER])
    _check_keys(errors, "$.resource", doc.get("resource", {}),
                [(k, _is_int, "integer") for k in PARK_STATS_RESOURCE])
    _check_keys(errors, "$.io_retry", doc.get("io_retry", {}),
                [(k, _is_int, "integer") for k in PARK_STATS_IO_RETRY])
    _check_keys(errors, "$.storage", doc.get("storage", {}),
                [(k, _is_int, "integer") for k in PARK_STATS_STORAGE])
    exec_spec = [("mode", lambda v: v in ("tuple", "batch"),
                  '"tuple" or "batch"')]
    exec_spec += [(k, _is_int, "integer") for k in PARK_STATS_EXEC]
    _check_keys(errors, "$.exec", doc.get("exec", {}), exec_spec)
    serving_spec = [("batch_size_hist",
                     lambda v: isinstance(v, list) and len(v) == 6
                     and all(_is_int(b) for b in v),
                     "array of 6 integers")]
    serving_spec += [(k, _is_int, "integer") for k in PARK_STATS_SERVING]
    _check_keys(errors, "$.serving", doc.get("serving", {}), serving_spec)
    maintenance_spec = [("mode", lambda v: v in ("off", "incremental"),
                         '"off" or "incremental"')]
    maintenance_spec += [(k, _is_int, "integer")
                         for k in PARK_STATS_MAINTENANCE]
    _check_keys(errors, "$.maintenance", doc.get("maintenance", {}),
                maintenance_spec)
    timings_spec = [("collected", lambda v: isinstance(v, bool), "bool")]
    timings_spec += [(k, _is_int, "integer") for k in PARK_STATS_TIMINGS]
    _check_keys(errors, "$.timings", doc.get("timings", {}), timings_spec)


def check_park_stats_values(errors, doc):
    """The value invariants of the module docstring. Runs only on a
    document whose structure already checked out."""
    counters = doc["counters"]
    for lhs, rhs in [("conflicts_resolved", "restarts"),
                     ("blocked_instances", "restarts"),
                     ("policy_invocations", "conflicts_resolved")]:
        if counters[lhs] < counters[rhs]:
            errors.append(f"$.counters: {lhs} ({counters[lhs]}) < "
                          f"{rhs} ({counters[rhs]})")
    timings = doc["timings"]
    if not timings["collected"]:
        return
    if timings["policy_ns"] > timings["conflict_ns"]:
        errors.append(f"$.timings: policy_ns ({timings['policy_ns']}) > "
                      f"conflict_ns ({timings['conflict_ns']})")
    phases = timings["gamma_ns"] + timings["apply_ns"] + timings["conflict_ns"]
    if phases > timings["total_ns"]:
        errors.append(f"$.timings: gamma_ns + apply_ns + conflict_ns "
                      f"({phases}) > total_ns ({timings['total_ns']})")


def check_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"cannot parse: {e}"]
    errors = []
    check_park_stats(errors, doc)
    if not errors:
        check_park_stats_values(errors, doc)
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        errors = check_file(path)
        if errors:
            failed = True
            for error in errors:
                print(f"{path}: {error}", file=sys.stderr)
        else:
            print(f"{path}: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

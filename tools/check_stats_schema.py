#!/usr/bin/env python3
"""Validates the JSON documents the PARK observability layer emits.

Usage:
    tools/check_stats_schema.py FILE [FILE...]

Each FILE is dispatched on its "schema" tag:

  park-stats-v1                -- ParkStats::ToJson (parkcli --stats-json)
  park-bench-parallel-v1       -- bench_parallel
  park-bench-paper-examples-v1 -- bench_paper_examples
  park-bench-columnar-v1       -- bench_columnar (tuple vs batch exec)
  park-bench-serving-v1        -- bench_serve (group commit + snapshot
                                  readers against the Session front-end)
  park-bench-incremental-v1    -- bench_incremental (maintenance on vs
                                  from-scratch over multi-commit scripts)

Exit status 0 iff every file parses and matches its schema. The checker
is deliberately stdlib-only (json + sys) so it runs on a bare CI image;
it checks structure and types, not values (CI passes a --smoke run whose
timings are meaningless).

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


def _is_num(v):
    return _is_int(v) or isinstance(v, float)


def _check_keys(errors, where, obj, spec, allow_extra=False):
    if not isinstance(obj, dict):
        errors.append(f"{where}: expected object, got {type(obj).__name__}")
        return
    for key, pred, desc in spec:
        if key not in obj:
            errors.append(f"{where}: missing key '{key}'")
        elif not pred(obj[key]):
            errors.append(f"{where}.{key}: expected {desc}, "
                          f"got {json.dumps(obj[key])[:40]}")
    if not allow_extra:
        known = {key for key, _, _ in spec}
        for key in obj:
            if key not in known:
                errors.append(f"{where}: unexpected key '{key}'")


PARK_STATS_COUNTERS = [
    "gamma_steps", "restarts", "conflicts_resolved", "blocked_instances",
    "derived_marks", "policy_invocations", "rule_evaluations",
]
PARK_STATS_PARALLEL = [
    "num_threads", "sections", "tasks", "sliced_units", "slices",
    "max_queue_depth", "mean_task_latency_ns",
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

# Every park-bench-*-v1 document shares the bench_json.h envelope, which
# records the machine and build so a flat speedup curve (or a 1-core CI
# box) is explainable from the JSON alone.
BENCH_ENVELOPE_SPEC = [
    ("hardware_concurrency", _is_int, "integer"),
    ("cpu_model", lambda v: isinstance(v, str), "string"),
    ("build_type", lambda v: v in ("release", "debug"),
     '"release" or "debug"'),
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


BENCH_CONFIG_SPEC = [
    ("threads", _is_int, "integer"),
    ("best_ms", _is_num, "number"),
    ("speedup", _is_num, "number"),
    ("gamma_steps", _is_int, "integer"),
    ("parallel_sections", _is_int, "integer"),
    ("parallel_tasks", _is_int, "integer"),
    ("parallel_sliced_units", _is_int, "integer"),
    ("parallel_slices", _is_int, "integer"),
]


def check_bench_parallel(errors, doc):
    _check_keys(errors, "$", doc, BENCH_ENVELOPE_SPEC + [
        ("schema", lambda v: v == "park-bench-parallel-v1",
         '"park-bench-parallel-v1"'),
        ("smoke", lambda v: isinstance(v, bool), "bool"),
        ("bit_identical", lambda v: v is True, "true"),
        # payroll@4 regression gate: "skipped" (recorded, not silent) on
        # hosts without 4 hardware threads; a failed gate writes
        # "failed" and still exits non-zero.
        ("gate", lambda v: v in ("passed", "failed", "skipped"),
         '"passed", "failed" or "skipped"'),
        ("cases", lambda v: isinstance(v, list) and v, "non-empty array"),
    ])
    for i, case in enumerate(doc.get("cases") or []):
        where = f"$.cases[{i}]"
        _check_keys(errors, where, case, [
            ("name", lambda v: isinstance(v, str) and v, "non-empty string"),
            ("configs", lambda v: isinstance(v, list) and v,
             "non-empty array"),
        ])
        if not isinstance(case, dict):
            continue
        for j, config in enumerate(case.get("configs") or []):
            _check_keys(errors, f"{where}.configs[{j}]", config,
                        BENCH_CONFIG_SPEC)


def check_bench_paper_examples(errors, doc):
    _check_keys(errors, "$", doc, BENCH_ENVELOPE_SPEC + [
        ("schema", lambda v: v == "park-bench-paper-examples-v1",
         '"park-bench-paper-examples-v1"'),
        ("matches", _is_int, "integer"),
        ("total", _is_int, "integer"),
        ("cases", lambda v: isinstance(v, list) and v, "non-empty array"),
    ])
    for i, case in enumerate(doc.get("cases") or []):
        _check_keys(errors, f"$.cases[{i}]", case, [
            ("id", lambda v: isinstance(v, str) and v, "non-empty string"),
            ("description", lambda v: isinstance(v, str), "string"),
            ("match", lambda v: isinstance(v, bool), "bool"),
            ("time_us", _is_num, "number"),
            ("computed", lambda v: isinstance(v, str), "string"),
        ], allow_extra=True)  # optional "note"


COLUMNAR_CONFIG_SPEC = [
    ("exec", lambda v: v in ("tuple", "batch"), '"tuple" or "batch"'),
    ("best_ms", _is_num, "number"),
    ("speedup", _is_num, "number"),
    ("gamma_steps", _is_int, "integer"),
    ("batch_rows", _is_int, "integer"),
    ("probe_rows", _is_int, "integer"),
    ("merge_rows", _is_int, "integer"),
    ("storage_compactions", _is_int, "integer"),
    ("storage_segment_rows", _is_int, "integer"),
]


def check_bench_columnar(errors, doc):
    _check_keys(errors, "$", doc, BENCH_ENVELOPE_SPEC + [
        ("schema", lambda v: v == "park-bench-columnar-v1",
         '"park-bench-columnar-v1"'),
        ("smoke", lambda v: isinstance(v, bool), "bool"),
        ("set_identical", lambda v: v is True, "true"),
        ("cases", lambda v: isinstance(v, list) and v, "non-empty array"),
    ])
    for i, case in enumerate(doc.get("cases") or []):
        where = f"$.cases[{i}]"
        _check_keys(errors, where, case, [
            ("name", lambda v: isinstance(v, str) and v, "non-empty string"),
            ("configs", lambda v: isinstance(v, list) and v,
             "non-empty array"),
        ])
        if not isinstance(case, dict):
            continue
        for j, config in enumerate(case.get("configs") or []):
            _check_keys(errors, f"{where}.configs[{j}]", config,
                        COLUMNAR_CONFIG_SPEC)


SERVING_CONFIG_SPEC = [
    ("max_group_size", _is_int, "integer"),
    ("commits", _is_int, "integer"),
    ("wall_ms", _is_num, "number"),
    ("commits_per_sec", _is_num, "number"),
    ("mean_commit_latency_us", _is_num, "number"),
    ("batches", _is_int, "integer"),
    ("mean_batch_size", _is_num, "number"),
    ("max_batch_size", _is_int, "integer"),
    ("journal_records", _is_int, "integer"),
    ("snapshot_reads", _is_int, "integer"),
    ("throughput_vs_unbatched", _is_num, "number"),
]


def check_bench_serving(errors, doc):
    _check_keys(errors, "$", doc, BENCH_ENVELOPE_SPEC + [
        ("schema", lambda v: v == "park-bench-serving-v1",
         '"park-bench-serving-v1"'),
        ("smoke", lambda v: isinstance(v, bool), "bool"),
        # Every configuration's final state equals the sequential oracle.
        ("bit_identical", lambda v: v is True, "true"),
        # Group-commit >= 2x over fsync-per-commit at 8 writers; "skipped"
        # (recorded, not silent) in smoke mode or off-fsync runs. A failed
        # gate exits non-zero before any JSON is written.
        ("gate", lambda v: v in ("passed", "skipped"),
         '"passed" or "skipped"'),
        ("cases", lambda v: isinstance(v, list) and v, "non-empty array"),
    ])
    for i, case in enumerate(doc.get("cases") or []):
        where = f"$.cases[{i}]"
        _check_keys(errors, where, case, [
            ("name", lambda v: isinstance(v, str) and v, "non-empty string"),
            ("writers", _is_int, "integer"),
            ("readers", _is_int, "integer"),
            ("sync_mode", lambda v: v in ("fsync", "fdatasync", "none"),
             "sync mode name"),
            ("configs", lambda v: isinstance(v, list) and v,
             "non-empty array"),
        ])
        if not isinstance(case, dict):
            continue
        for j, config in enumerate(case.get("configs") or []):
            _check_keys(errors, f"{where}.configs[{j}]", config,
                        SERVING_CONFIG_SPEC)


INCREMENTAL_CONFIG_SPEC = [
    ("threads", _is_int, "integer"),
    ("scratch_ms", _is_num, "number"),
    ("incremental_ms", _is_num, "number"),
    ("speedup", _is_num, "number"),
    ("commits", _is_int, "integer"),
    ("maintained_commits", _is_int, "integer"),
    ("fallbacks", _is_int, "integer"),
    ("atoms_rederived", _is_int, "integer"),
    ("atoms_overdeleted", _is_int, "integer"),
    ("cone_rules", _is_int, "integer"),
]


def check_bench_incremental(errors, doc):
    _check_keys(errors, "$", doc, BENCH_ENVELOPE_SPEC + [
        ("schema", lambda v: v == "park-bench-incremental-v1",
         '"park-bench-incremental-v1"'),
        ("smoke", lambda v: isinstance(v, bool), "bool"),
        # Every incremental run's per-commit diffs and final instance
        # equal the from-scratch replay's.
        ("bit_identical", lambda v: v is True, "true"),
        # Every measured config >= 3x over from-scratch; "skipped" only
        # in smoke mode. A failed gate exits non-zero before any JSON is
        # written, so "failed" never appears.
        ("gate", lambda v: v in ("passed", "skipped"),
         '"passed" or "skipped"'),
        ("cases", lambda v: isinstance(v, list) and v, "non-empty array"),
    ])
    for i, case in enumerate(doc.get("cases") or []):
        where = f"$.cases[{i}]"
        _check_keys(errors, where, case, [
            ("name", lambda v: isinstance(v, str) and v, "non-empty string"),
            ("rules", _is_int, "integer"),
            ("configs", lambda v: isinstance(v, list) and v,
             "non-empty array"),
        ])
        if not isinstance(case, dict):
            continue
        for j, config in enumerate(case.get("configs") or []):
            _check_keys(errors, f"{where}.configs[{j}]", config,
                        INCREMENTAL_CONFIG_SPEC)


CHECKERS = {
    "park-stats-v1": check_park_stats,
    "park-bench-parallel-v1": check_bench_parallel,
    "park-bench-paper-examples-v1": check_bench_paper_examples,
    "park-bench-columnar-v1": check_bench_columnar,
    "park-bench-serving-v1": check_bench_serving,
    "park-bench-incremental-v1": check_bench_incremental,
}


def check_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"cannot parse: {e}"]
    if not isinstance(doc, dict) or "schema" not in doc:
        return ["document has no top-level \"schema\" tag"]
    checker = CHECKERS.get(doc["schema"])
    if checker is None:
        return [f"unknown schema {doc['schema']!r} "
                f"(known: {', '.join(sorted(CHECKERS))})"]
    errors = []
    checker(errors, doc)
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

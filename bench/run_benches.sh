#!/usr/bin/env bash
# Runs every benchmark with machine-readable JSON output so BENCH_*.json
# trajectories can be tracked across commits.
#
#   bench/run_benches.sh [build-dir] [output-dir]
#
# Defaults: build-dir = ./build, output-dir = current directory. Each
# google-benchmark binary writes BENCH_<name>.json via --benchmark_out;
# bench_parallel, bench_paper_examples, bench_columnar, bench_incremental
# and bench_serve write their own JSON (the park-bench-*-v1 envelope of
# bench/bench_json.h).
#
# Every bench is attempted even if an earlier one fails; a failing bench's
# partial JSON is removed (a truncated BENCH_*.json must never pass for a
# real data point) and the script exits non-zero with a summary of the
# failures. A bench that completed but failed its regression gate (JSON
# "gate": "failed") keeps its output as BENCH_<name>.failed.json.
set -uo pipefail

build_dir="${1:-build}"
out_dir="${2:-.}"
bench_dir="${build_dir}/bench"

if [[ ! -d "${bench_dir}" ]]; then
  echo "error: ${bench_dir} not found (build first: cmake -B ${build_dir} && cmake --build ${build_dir})" >&2
  exit 1
fi
mkdir -p "${out_dir}"

# The parallel sweeps bench up to this many threads (bench_parallel's
# thread ladder and bench_columnar's oracle sweep). On a smaller box the
# upper configs timeshare one core, so their "speedups" measure scheduler
# fairness, not the engine — say so up front rather than letting a flat
# curve in BENCH_parallel.json masquerade as a regression. The JSON
# envelope (bench_json.h) records hardware_concurrency/cpu_model/
# build_type for the same reason.
max_bench_threads=8
hw_threads="$(nproc 2>/dev/null || echo 1)"
if (( hw_threads < max_bench_threads )); then
  echo "warning: benches sweep up to ${max_bench_threads} threads but this" \
       "host has ${hw_threads} hardware thread(s); thread counts above" \
       "${hw_threads} timeshare cores and their timings are not meaningful" >&2
fi

failed=()

# run_bench <name> <json-path> <argv...>
run_bench() {
  local name="$1" json="$2"
  shift 2
  echo "== ${name}"
  "$@"
  local status=$?
  if (( status != 0 )); then
    echo "FAIL ${name} (exit ${status})" >&2
    if grep -q '"gate": "failed"' "${json}" 2>/dev/null; then
      # A complete run whose regression gate failed: keep its numbers
      # under a name no trajectory tool reads as a data point.
      mv -f "${json}" "${json%.json}.failed.json"
      echo "kept ${json%.json}.failed.json (gate failed)" >&2
    else
      rm -f "${json}"
    fi
    failed+=("${name}")
  fi
}

gbenches=(
  bench_scaling_db
  bench_scaling_rules
  bench_determinism
  bench_vs_baselines
  bench_policies
  bench_conflict_density
  bench_recursion
  bench_eca
  bench_block_granularity
  bench_substrate
  bench_durability
)

for name in "${gbenches[@]}"; do
  bin="${bench_dir}/${name}"
  if [[ ! -x "${bin}" ]]; then
    echo "skip ${name}: not built" >&2
    continue
  fi
  json="${out_dir}/BENCH_${name#bench_}.json"
  run_bench "${name}" "${json}" \
    "${bin}" --benchmark_out="${json}" --benchmark_out_format=json
done

# bench_parallel covers inter-rule scaling AND the skew_single_rule case,
# whose speedup comes entirely from intra-rule candidate slicing; its JSON
# records hardware_concurrency plus per-config parallel_sliced_units /
# parallel_slices so a flat curve on a small host is explainable. It
# shares the park-bench-*-v1 envelope (bench/bench_json.h) with the other
# self-writing benches; all are validated by tools/check_stats_schema.py.
if [[ -x "${bench_dir}/bench_parallel" ]]; then
  run_bench bench_parallel "${out_dir}/BENCH_parallel.json" \
    "${bench_dir}/bench_parallel" "${out_dir}/BENCH_parallel.json"
  # The payroll@4 regression gate only runs with >= 4 hardware threads;
  # the JSON records the skip and a clean exit must not hide it.
  if grep -q '"gate": "skipped"' "${out_dir}/BENCH_parallel.json" 2>/dev/null; then
    echo "notice: bench_parallel payroll@4 regression gate was SKIPPED" \
         "(host has ${hw_threads} hardware thread(s)); BENCH_parallel.json" \
         "records gate=skipped — this is not a pass" >&2
  fi
fi

# Paper-fidelity record (E1-E9) in the same JSON envelope.
if [[ -x "${bench_dir}/bench_paper_examples" ]]; then
  run_bench bench_paper_examples "${out_dir}/BENCH_paper_examples.json" \
    "${bench_dir}/bench_paper_examples" "${out_dir}/BENCH_paper_examples.json"
fi

# Tuple-at-a-time vs batch-at-a-time execution over columnar segments,
# with an in-run set-identity check between the two executors.
if [[ -x "${bench_dir}/bench_columnar" ]]; then
  run_bench bench_columnar "${out_dir}/BENCH_columnar.json" \
    "${bench_dir}/bench_columnar" "${out_dir}/BENCH_columnar.json"
fi

# Incremental fixpoint maintenance: multi-commit scripts replayed with
# maintenance on vs off (in-run per-commit bit-identity check, >= 3x
# speedup gate on every measured config of both cases).
if [[ -x "${bench_dir}/bench_incremental" ]]; then
  run_bench bench_incremental "${out_dir}/BENCH_incremental.json" \
    "${bench_dir}/bench_incremental" "${out_dir}/BENCH_incremental.json"
fi

# Concurrent Session serving: group-commit throughput vs fsync-per-commit
# at 8 writers under fsync (>= 2x gate), snapshot readers alongside, and
# an in-run bit-identity check against a sequential oracle replay.
if [[ -x "${bench_dir}/bench_serve" ]]; then
  run_bench bench_serve "${out_dir}/BENCH_serving.json" \
    "${bench_dir}/bench_serve" "${out_dir}/BENCH_serving.json"
fi

if ((${#failed[@]} > 0)); then
  echo "error: ${#failed[@]} bench(es) failed: ${failed[*]}" >&2
  exit 1
fi
echo "JSON written to ${out_dir}/BENCH_*.json"

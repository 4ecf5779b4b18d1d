#include "core/park_evaluator.h"

#include <algorithm>

#include "core/run_stats.h"
#include "core/stepper.h"
#include "util/json.h"
#include "util/string_util.h"

namespace park {
namespace {

const char* ExecModeName(ExecMode mode) {
  switch (mode) {
    case ExecMode::kTuple: return "tuple";
    case ExecMode::kBatch: return "batch";
  }
  return "unknown";
}

const char* MaintenanceModeName(MaintenanceMode mode) {
  switch (mode) {
    case MaintenanceMode::kOff: return "off";
    case MaintenanceMode::kIncremental: return "incremental";
  }
  return "unknown";
}

/// Renders the provenance of every marked atom of the final fixpoint.
std::vector<AtomProvenance> RenderProvenance(const IInterpretation& interp,
                                             const Program& program) {
  const SymbolTable& symbols = *program.symbols();
  std::vector<AtomProvenance> out;
  auto collect = [&](ActionKind action, const Database& marked) {
    marked.ForEach([&](const GroundAtom& atom) {
      AtomProvenance& entry = out.emplace_back();
      entry.atom = ActionKindSign(action);
      entry.atom += atom.ToString(symbols);
      entry.derived_by =
          RenderSortedGroundings(interp.Provenance(action, atom), program);
    });
  };
  collect(ActionKind::kInsert, interp.plus());
  collect(ActionKind::kDelete, interp.minus());
  std::sort(out.begin(), out.end(),
            [](const AtomProvenance& a, const AtomProvenance& b) {
              return a.atom < b.atom;
            });
  return out;
}

}  // namespace

Status ValidateOptions(const ParkOptions& options) {
  if (options.num_threads < 0) {
    return InvalidArgumentError(StrFormat(
        "num_threads must be >= 0 (0 = one per hardware thread), got %d",
        options.num_threads));
  }
  if (options.max_steps == 0) {
    return InvalidArgumentError("max_steps must be >= 1");
  }
  if (options.deadline_ms < 0) {
    return InvalidArgumentError(StrFormat(
        "deadline_ms must be >= 0 (0 = unlimited), got %lld",
        static_cast<long long>(options.deadline_ms)));
  }
  if (options.io_max_retries < 0) {
    return InvalidArgumentError(StrFormat(
        "io_max_retries must be >= 0 (0 = no retries), got %d",
        options.io_max_retries));
  }
  if (options.io_backoff_ms < 0) {
    return InvalidArgumentError(StrFormat(
        "io_backoff_ms must be >= 0 (0 = retry without sleeping), got %lld",
        static_cast<long long>(options.io_backoff_ms)));
  }
  return Status::OK();
}

std::string ParkStats::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("park-stats-v1");
  w.Key("counters").BeginObject();
  w.Key("gamma_steps").UInt(gamma_steps);
  w.Key("restarts").UInt(restarts);
  w.Key("conflicts_resolved").UInt(conflicts_resolved);
  w.Key("blocked_instances").UInt(blocked_instances);
  w.Key("derived_marks").UInt(derived_marks);
  w.Key("policy_invocations").UInt(policy_invocations);
  w.Key("rule_evaluations").UInt(rule_evaluations);
  w.EndObject();
  w.Key("parallel").BeginObject();
  w.Key("num_threads").UInt(num_threads);
  w.Key("sections").UInt(parallel_sections);
  w.Key("tasks").UInt(parallel_tasks);
  w.Key("max_queue_depth").UInt(parallel_max_queue_depth);
  w.Key("mean_task_latency_ns")
      .UInt(parallel_tasks == 0 ? 0
                                : timings.pool_busy_ns / parallel_tasks);
  w.EndObject();
  w.Key("planner").BeginObject();
  w.Key("plans_compiled").UInt(plans_compiled);
  w.Key("cache_hits").UInt(plan_cache_hits);
  w.Key("replans").UInt(plan_replans);
  w.Key("estimated_rows").UInt(planner_estimated_rows);
  w.Key("actual_rows").UInt(planner_actual_rows);
  w.EndObject();
  w.Key("scheduler").BeginObject();
  w.Key("rules_considered").UInt(sched_rules_considered);
  w.Key("rules_skipped").UInt(sched_rules_skipped);
  w.EndObject();
  w.Key("resource").BeginObject();
  w.Key("memory_limit_bytes").UInt(memory_limit_bytes);
  w.Key("peak_memory_bytes").UInt(peak_memory_bytes);
  w.Key("derivation_limit").UInt(derivation_limit);
  w.Key("derivations_charged").UInt(derivations_charged);
  w.EndObject();
  w.Key("io_retry").BeginObject();
  w.Key("attempts").UInt(io_attempts);
  w.Key("retries").UInt(io_retries);
  w.Key("backoff_ms_total").UInt(io_backoff_ms_total);
  w.Key("retries_exhausted").UInt(io_retries_exhausted);
  w.EndObject();
  w.Key("storage").BeginObject();
  w.Key("segments").UInt(storage_segments);
  w.Key("segment_rows").UInt(storage_segment_rows);
  w.Key("compactions").UInt(storage_compactions);
  w.Key("dict_entries").UInt(storage_dict_entries);
  w.EndObject();
  w.Key("exec").BeginObject();
  w.Key("mode").String(ExecModeName(exec_mode));
  w.Key("batch_rows").UInt(exec_batch_rows);
  w.Key("probe_rows").UInt(exec_probe_rows);
  w.Key("merge_rows").UInt(exec_merge_rows);
  w.EndObject();
  w.Key("serving").BeginObject();
  w.Key("batches").UInt(serving.batches);
  w.Key("batched_txns").UInt(serving.batched_txns);
  w.Key("max_batch_size").UInt(serving.max_batch_size);
  w.Key("batch_size_hist").BeginArray();
  for (uint64_t bucket : serving.batch_size_hist) w.UInt(bucket);
  w.EndArray();
  w.Key("poisoned_batches").UInt(serving.poisoned_batches);
  w.Key("individual_retries").UInt(serving.individual_retries);
  w.Key("snapshots_opened").UInt(serving.snapshots_opened);
  w.Key("snapshots_pinned").UInt(serving.snapshots_pinned);
  w.Key("segment_generations_retained")
      .UInt(serving.segment_generations_retained);
  w.EndObject();
  w.Key("maintenance").BeginObject();
  w.Key("mode").String(MaintenanceModeName(maintenance_mode));
  w.Key("maintained_commits").UInt(maint_commits);
  w.Key("atoms_overdeleted").UInt(maint_atoms_overdeleted);
  w.Key("atoms_rederived").UInt(maint_atoms_rederived);
  w.Key("cone_rules").UInt(maint_cone_rules);
  w.Key("full_recompute_fallbacks").UInt(maint_full_recompute_fallbacks);
  w.EndObject();
  w.Key("timings").BeginObject();
  w.Key("collected").Bool(timings.collected);
  w.Key("total_ns").UInt(timings.total_ns);
  w.Key("gamma_ns").UInt(timings.gamma_ns);
  w.Key("apply_ns").UInt(timings.apply_ns);
  w.Key("conflict_ns").UInt(timings.conflict_ns);
  w.Key("policy_ns").UInt(timings.policy_ns);
  w.Key("parallel_match_ns").UInt(timings.parallel_match_ns);
  w.Key("parallel_merge_ns").UInt(timings.parallel_merge_ns);
  w.Key("pool_busy_ns").UInt(timings.pool_busy_ns);
  w.EndObject();
  w.EndObject();
  return std::move(w).str();
}

Result<Program> ProgramWithUpdates(const Program& program,
                                   const std::vector<Update>& updates) {
  Program extended = program.Clone();
  const SymbolTable& symbols = *program.symbols();
  for (const Update& update : updates) {
    RuleParts parts;
    parts.head.action = update.action;
    parts.head.atom.predicate = update.atom.predicate();
    for (const Value& v : update.atom.args().values()) {
      parts.head.atom.terms.push_back(Term::Constant(v));
    }
    Status status = extended.AddRule(Rule(std::move(parts)));
    if (!status.ok()) {
      return status.WithContext(
          StrFormat("seeding update %s%s", ActionKindSign(update.action),
                    update.atom.ToString(symbols).c_str()));
    }
  }
  return extended;
}

void RecordGammaSection(const GammaResult& gamma, ParkStats& stats) {
  stats.rule_evaluations += gamma.rules_evaluated;
  stats.sched_rules_considered += gamma.rules_considered;
  stats.sched_rules_skipped += gamma.rules_skipped;
}

void RecordPlannerStats(const PlanCache& plans, const ParkStats& base,
                        ParkStats& stats) {
  stats.plans_compiled = plans.plans_compiled() - base.plans_compiled;
  stats.plan_cache_hits = plans.cache_hits() - base.plan_cache_hits;
  stats.plan_replans = plans.replans() - base.plan_replans;
  stats.planner_estimated_rows =
      plans.estimated_rows() - base.planner_estimated_rows;
  stats.planner_actual_rows = plans.actual_rows() - base.planner_actual_rows;
}

void RecordParallelStats(const ParallelGamma& parallel,
                         const ParkStats& base, ParkStats& stats) {
  const ThreadPool& pool = parallel.pool();
  stats.parallel_sections = pool.sections_run() - base.parallel_sections;
  stats.parallel_tasks = pool.tasks_executed() - base.parallel_tasks;
  stats.parallel_max_queue_depth = pool.max_section_tasks();
  stats.timings.parallel_match_ns =
      parallel.match_ns() - base.timings.parallel_match_ns;
  stats.timings.parallel_merge_ns =
      parallel.merge_ns() - base.timings.parallel_merge_ns;
  stats.timings.pool_busy_ns = pool.busy_ns() - base.timings.pool_busy_ns;
}

void RecordStorageStats(const IInterpretation& interp,
                        const ExecStats& exec_stats, ParkStats& stats) {
  // Sum the columnar footprint over the run's three stores. All three
  // are compacted by the coordinator at every batch-mode Γ step, so
  // these counters are deterministic and thread-count invariant. A
  // tuple-mode run reads no segment, so it reports none, even over a
  // base that an earlier batch run or a Session publication compacted.
  if (stats.exec_mode != ExecMode::kBatch) return;
  Database::ColumnarFootprint fp;
  for (const Database* store : {&interp.base(), &interp.plus(),
                                &interp.minus()}) {
    const Database::ColumnarFootprint part = store->ColumnarStats();
    fp.segments += part.segments;
    fp.segment_rows += part.segment_rows;
    fp.compactions += part.compactions;
    fp.dict_entries += part.dict_entries;
  }
  stats.storage_segments = static_cast<size_t>(fp.segments);
  stats.storage_segment_rows = static_cast<size_t>(fp.segment_rows);
  stats.storage_compactions = static_cast<size_t>(fp.compactions);
  stats.storage_dict_entries = static_cast<size_t>(fp.dict_entries);
  stats.exec_batch_rows =
      exec_stats.batch_rows.load(std::memory_order_relaxed);
  stats.exec_probe_rows =
      exec_stats.probe_rows.load(std::memory_order_relaxed);
  stats.exec_merge_rows =
      exec_stats.merge_rows.load(std::memory_order_relaxed);
}

Result<ParkResult> Park(const Program& program, const Database& db,
                        const ParkOptions& options) {
  ParkStepper stepper(program, db, options);
  PARK_RETURN_IF_ERROR(stepper.Run());
  ParkResult result{Database(db.symbols()), stepper.stats(), stepper.trace(),
                    RenderSortedGroundings(stepper.blocked(), program), {}};
  if (options.record_provenance) {
    result.provenance = RenderProvenance(stepper.interpretation(), program);
  }
  // Last: incorporation consumes the marks the provenance was read from.
  PARK_ASSIGN_OR_RETURN(result.database, stepper.Finish());
  return result;
}

Result<ParkResult> Park(const Database& db, const Program& program,
                        const std::vector<Update>& updates,
                        const ParkOptions& options) {
  PARK_ASSIGN_OR_RETURN(Program extended,
                        ProgramWithUpdates(program, updates));
  return Park(extended, db, options);
}

}  // namespace park

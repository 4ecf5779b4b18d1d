#include "core/park_evaluator.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>

#include "core/run_stats.h"
#include "engine/rule_graph.h"
#include "util/cancellation.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace park {
namespace {

const char* GammaModeName(GammaMode mode) {
  switch (mode) {
    case GammaMode::kNaive: return "naive";
    case GammaMode::kDeltaFiltered: return "delta_filtered";
    case GammaMode::kSemiNaive: return "semi_naive";
  }
  return "unknown";
}

const char* PlannerModeName(PlannerMode mode) {
  switch (mode) {
    case PlannerMode::kHeuristic: return "heuristic";
    case PlannerMode::kCostBased: return "cost_based";
  }
  return "unknown";
}

const char* ExecModeName(ExecMode mode) {
  switch (mode) {
    case ExecMode::kTuple: return "tuple";
    case ExecMode::kBatch: return "batch";
  }
  return "unknown";
}

const char* SchedulerModeName(SchedulerMode mode) {
  switch (mode) {
    case SchedulerMode::kOff: return "off";
    case SchedulerMode::kDependency: return "dependency";
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

/// Arms the run's CancellationToken from the options (deadline, memory /
/// derivation budgets, chained external cancel). Returns nullptr when no
/// governance is configured — the matcher and Γ workers then skip polling
/// entirely, keeping the ungoverned fast path free of even the stride
/// counters' branches.
CancellationToken* ArmRunToken(CancellationToken& token,
                               const ParkOptions& options,
                               std::chrono::steady_clock::time_point start) {
  if (options.deadline_ms <= 0 && options.cancel == nullptr &&
      options.max_memory_bytes == 0 && options.max_derivations == 0) {
    return nullptr;
  }
  if (options.deadline_ms > 0) {
    token.SetDeadline(start + std::chrono::milliseconds(options.deadline_ms));
  }
  if (options.max_memory_bytes > 0) {
    token.SetMemoryLimit(options.max_memory_bytes);
  }
  if (options.max_derivations > 0) {
    token.SetWorkLimit(options.max_derivations);
  }
  token.ChainParent(options.cancel);
  return &token;
}

/// Renders I ∪ {Γ-derived marks} — the inconsistent interpretation the
/// paper prints as a numbered step before resolving, never applied to I.
std::vector<std::string> RenderWithDerivations(
    const IInterpretation& interp, const std::vector<Derivation>& derived,
    const SymbolTable& symbols) {
  std::set<std::string> unmarked;
  std::set<std::string> plus;
  std::set<std::string> minus;
  interp.base().ForEach([&](const GroundAtom& atom) {
    unmarked.insert(atom.ToString(symbols));
  });
  interp.plus().ForEach([&](const GroundAtom& atom) {
    plus.insert("+" + atom.ToString(symbols));
  });
  interp.minus().ForEach([&](const GroundAtom& atom) {
    minus.insert("-" + atom.ToString(symbols));
  });
  for (const Derivation& d : derived) {
    if (d.action == ActionKind::kInsert) {
      plus.insert("+" + d.atom.ToString(symbols));
    } else {
      minus.insert("-" + d.atom.ToString(symbols));
    }
  }
  std::vector<std::string> out;
  out.reserve(unmarked.size() + plus.size() + minus.size());
  out.insert(out.end(), unmarked.begin(), unmarked.end());
  out.insert(out.end(), plus.begin(), plus.end());
  out.insert(out.end(), minus.begin(), minus.end());
  return out;
}

/// Renders the provenance of every marked atom of the final fixpoint.
std::vector<AtomProvenance> RenderProvenance(const IInterpretation& interp,
                                             const Program& program) {
  const SymbolTable& symbols = *program.symbols();
  std::vector<AtomProvenance> out;
  auto collect = [&](ActionKind action, const Database& marked) {
    marked.ForEach([&](const GroundAtom& atom) {
      AtomProvenance entry;
      entry.atom = ActionKindSign(action) + atom.ToString(symbols);
      if (const auto* derivations = interp.Provenance(action, atom)) {
        for (const RuleGrounding& g : *derivations) {
          entry.derived_by.push_back(g.ToString(program, symbols));
        }
        std::sort(entry.derived_by.begin(), entry.derived_by.end());
      }
      out.push_back(std::move(entry));
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

/// Renders the final blocked set, sorted, for ParkResult.
std::vector<std::string> RenderBlocked(const BlockedSet& blocked,
                                       const Program& program) {
  std::vector<std::string> out;
  out.reserve(blocked.size());
  for (const RuleGrounding& g : blocked) {
    out.push_back(g.ToString(program, *program.symbols()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

Status ValidateOptions(const ParkOptions& options) {
  if (options.num_threads < 0) {
    return InvalidArgumentError(StrFormat(
        "num_threads must be >= 0 (0 = one per hardware thread), got %d",
        options.num_threads));
  }
  if (options.min_slice_size == 0) {
    return InvalidArgumentError(
        "min_slice_size must be >= 1 (1 = finest intra-rule slicing)");
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
  w.Key("sliced_units").UInt(parallel_sliced_units);
  w.Key("slices").UInt(parallel_slices);
  w.Key("max_queue_depth").UInt(parallel_max_queue_depth);
  w.Key("mean_task_latency_ns")
      .UInt(parallel_tasks == 0 ? 0
                                : timings.pool_busy_ns / parallel_tasks);
  w.EndObject();
  w.Key("planner").BeginObject();
  w.Key("mode").String(PlannerModeName(planner_mode));
  w.Key("plans_compiled").UInt(plans_compiled);
  w.Key("cache_hits").UInt(plan_cache_hits);
  w.Key("replans").UInt(plan_replans);
  w.Key("estimated_rows").UInt(planner_estimated_rows);
  w.Key("actual_rows").UInt(planner_actual_rows);
  w.EndObject();
  w.Key("scheduler").BeginObject();
  w.Key("mode").String(SchedulerModeName(scheduler_mode));
  w.Key("rules_considered").UInt(sched_rules_considered);
  w.Key("rules_skipped").UInt(sched_rules_skipped);
  w.Key("strata").UInt(sched_strata);
  w.Key("pipeline_stages").UInt(sched_pipeline_stages);
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

namespace {

/// What the Δ loop leaves at its fixpoint: the final interpretation over
/// `db`, the blocked set B, and the run's stats and trace. Park() and
/// ParkDiff() are the two finishers that turn it into a result.
struct ParkRun {
  IInterpretation interp;
  BlockedSet blocked;
  ParkStats stats;
  Trace trace;
};

/// ω_P(⟨∅, D⟩): runs the Δ operator to its fixpoint (§4.2), restarting
/// from I° after every conflict round.
Result<ParkRun> RunPark(const Program& program, const Database& db,
                        const ParkOptions& options) {
  PARK_CHECK(program.symbols() == db.symbols())
      << "program and database must share a symbol table";
  PolicyPtr policy = options.policy ? options.policy : MakeInertiaPolicy();

  IInterpretation interp(&db);
  BlockedSet blocked;
  ParkStats stats;
  Trace trace(options.trace_level);
  DeltaState delta;
  DeltaAtoms delta_atoms;
  const GammaMode mode = options.gamma_mode;
  const int num_threads = ResolveNumThreads(options.num_threads);
  std::optional<ParallelGamma> parallel_state;
  if (num_threads > 1) {
    parallel_state.emplace(program, num_threads, options.min_slice_size);
  }
  ParallelGamma* parallel =
      parallel_state.has_value() ? &*parallel_state : nullptr;
  stats.num_threads = static_cast<size_t>(num_threads);
  stats.planner_mode = options.planner_mode;
  stats.scheduler_mode = options.scheduler_mode;
  // Echoed so one-shot stats reports show the configured mode; the
  // maintenance counters themselves are owned by FixpointMaintainer and
  // ActiveDatabase (a bare Park() call is by definition from-scratch).
  stats.maintenance_mode = options.maintenance_mode;
  // The dependency graph behind delta-driven scheduling, built once per
  // evaluation. Naive Γ matches every rule every step by definition, so
  // the graph would never be consulted — skip building it.
  std::optional<RuleDependencyGraph> graph_state;
  if (options.scheduler_mode == SchedulerMode::kDependency &&
      mode != GammaMode::kNaive) {
    graph_state.emplace(program);
    stats.sched_strata = graph_state->num_strata();
  }
  const RuleDependencyGraph* graph =
      graph_state.has_value() ? &*graph_state : nullptr;
  const ExecMode exec = options.exec_mode;
  stats.exec_mode = exec;
  ExecStats exec_stats;
  ObserverHook observer(options.observer);
  PlanCache plans(program, options.planner_mode);
  if (options.observer != nullptr) {
    plans.set_compile_listener([&](const PlanExplanation& explanation) {
      observer.Notify(
          [&](RunObserver& o) { o.OnPlanCompiled(explanation); });
    });
  }
  const bool timed = options.collect_timings;
  stats.timings.collected = timed;
  if (timed && parallel != nullptr) parallel->EnableTiming();
  const int64_t run_start_ns = timed ? MonotonicNanos() : 0;
  const auto start_time = std::chrono::steady_clock::now();
  // Run governance: one token shared by every thread of this evaluation.
  // Null when no deadline / cancel / budget is configured.
  CancellationToken token;
  CancellationToken* cancel = ArmRunToken(token, options, start_time);
  // Coordinator-side memory scope: the merged Γ derivation list (workers
  // charge their own scratch + buffers while matching).
  CancellationToken::MemoryScope gamma_scope;
  int step = 0;

  trace.RecordInitial(interp, step);
  observer.Notify([&](RunObserver& o) {
    o.OnRunStart(RunStartInfo{program.size(), num_threads,
                              GammaModeName(mode)});
  });

  while (true) {
    if (static_cast<size_t>(step) >= options.max_steps) {
      return ResourceExhaustedError(StrFormat(
          "PARK evaluation exceeded max_steps=%zu", options.max_steps));
    }
    if (cancel != nullptr && cancel->Check()) return cancel->ToStatus();
    observer.Notify([&](RunObserver& o) { o.OnStepStart(step); });
    int64_t gamma_start_ns = timed ? MonotonicNanos() : 0;
    GammaResult gamma;
    switch (mode) {
      case GammaMode::kNaive:
        gamma = ComputeGamma(program, blocked, interp, parallel, &plans,
                             cancel, exec, &exec_stats);
        break;
      case GammaMode::kDeltaFiltered:
        gamma = ComputeGammaFiltered(program, blocked, interp, delta,
                                     parallel, &plans, cancel, exec,
                                     &exec_stats, graph);
        break;
      case GammaMode::kSemiNaive:
        gamma = ComputeGammaSemiNaive(program, blocked, interp, delta_atoms,
                                      parallel, &plans, cancel, exec,
                                      &exec_stats, graph);
        break;
    }
    if (timed) {
      stats.timings.gamma_ns +=
          static_cast<uint64_t>(MonotonicNanos() - gamma_start_ns);
    }
    // A fired token makes the Γ result partial: discard it and surface
    // the cause. The input database is untouched (evaluation mutates only
    // the copy-on-write interpretation, incorporated on success below).
    if (cancel != nullptr) {
      cancel->UpdateScope(gamma_scope, gamma.derivations.capacity() *
                                           sizeof(Derivation));
      if (cancel->Check()) return cancel->ToStatus();
    }
    RecordGammaSection(gamma, stats);
    observer.Notify([&](RunObserver& o) {
      o.OnGammaSection(GammaSectionInfo{
          step, gamma.rules_evaluated, gamma.derivations.size(),
          gamma.newly_marked, gamma.consistent});
    });

    if (gamma.consistent) {
      if (gamma.newly_marked == 0) {
        // Γ(P,B)(I) = I: the bi-structure is a fixpoint of Δ.
        trace.RecordFixpoint(interp, step);
        observer.Notify([&](RunObserver& o) { o.OnFixpoint(step); });
        break;
      }
      int64_t apply_start_ns = timed ? MonotonicNanos() : 0;
      switch (mode) {
        case GammaMode::kNaive:
          stats.derived_marks += ApplyDerivations(gamma.derivations, interp);
          break;
        case GammaMode::kDeltaFiltered:
          stats.derived_marks +=
              ApplyDerivationsTracked(gamma.derivations, interp, delta);
          break;
        case GammaMode::kSemiNaive:
          stats.derived_marks += ApplyDerivationsTrackedAtoms(
              gamma.derivations, interp, delta_atoms);
          break;
      }
      if (timed) {
        stats.timings.apply_ns +=
            static_cast<uint64_t>(MonotonicNanos() - apply_start_ns);
      }
      ++stats.gamma_steps;
      ++step;
      trace.RecordGammaStep(interp, step);
      continue;
    }

    // Inconsistent: this Γ application is counted and shown as a step (the
    // paper's traces include it) but never applied; instead conflicts are
    // resolved, B is extended, and the computation restarts from I°.
    //
    // Conflict triples must be MAXIMAL (§4.2) — they need every currently
    // firable instance on each side, which a delta-driven evaluation may
    // have skipped — so recompute the full Γ before building them.
    if (mode != GammaMode::kNaive) {
      gamma_start_ns = timed ? MonotonicNanos() : 0;
      gamma = ComputeGamma(program, blocked, interp, parallel, &plans,
                           cancel, exec, &exec_stats);
      if (timed) {
        stats.timings.gamma_ns +=
            static_cast<uint64_t>(MonotonicNanos() - gamma_start_ns);
      }
      if (cancel != nullptr && cancel->Check()) return cancel->ToStatus();
      RecordGammaSection(gamma, stats);
      observer.Notify([&](RunObserver& o) {
        o.OnGammaSection(GammaSectionInfo{
            step, gamma.rules_evaluated, gamma.derivations.size(),
            gamma.newly_marked, gamma.consistent});
      });
    }
    ++step;
    if (trace.level() == TraceLevel::kFull) {
      trace.RecordInconsistentStep(
          RenderWithDerivations(interp, gamma.derivations,
                                *program.symbols()),
          step);
    }
    const int64_t conflict_start_ns = timed ? MonotonicNanos() : 0;
    std::vector<Conflict> conflicts = BuildConflicts(gamma, interp);
    if (options.block_granularity == BlockGranularity::kFirstConflictOnly &&
        conflicts.size() > 1) {
      conflicts.resize(1);
    }
    if (trace.level() != TraceLevel::kNone) {
      std::vector<std::string> descriptions;
      descriptions.reserve(conflicts.size());
      for (const Conflict& c : conflicts) {
        descriptions.push_back(c.ToString(program, *program.symbols()));
      }
      trace.RecordConflict(std::move(descriptions), step);
    }

    PolicyContext context{db, program, interp,
                          static_cast<int>(stats.restarts)};
    size_t newly_blocked = 0;
    std::vector<std::string> resolution_notes;
    for (const Conflict& conflict : conflicts) {
      ++stats.policy_invocations;
      const int64_t policy_start_ns = timed ? MonotonicNanos() : 0;
      PARK_ASSIGN_OR_RETURN(Vote vote, policy->Select(context, conflict));
      if (timed) {
        stats.timings.policy_ns +=
            static_cast<uint64_t>(MonotonicNanos() - policy_start_ns);
      }
      if (vote == Vote::kAbstain) {
        return AbortedError(StrFormat(
            "policy '%s' abstained on conflict over %s; wrap it in a "
            "composite with a complete fallback (e.g. inertia)",
            std::string(policy->name()).c_str(),
            conflict.atom.ToString(*program.symbols()).c_str()));
      }
      ++stats.conflicts_resolved;
      observer.Notify(
          [&](RunObserver& o) { o.OnPolicyDecision(conflict, vote); });
      const std::vector<RuleGrounding>& losing =
          vote == Vote::kInsert ? conflict.deleters : conflict.inserters;
      for (const RuleGrounding& g : losing) {
        if (blocked.insert(g).second) ++newly_blocked;
      }
      if (trace.level() != TraceLevel::kNone) {
        resolution_notes.push_back(StrFormat(
            "%s on %s: block %zu instance(s)", VoteToString(vote),
            conflict.atom.ToString(*program.symbols()).c_str(),
            losing.size()));
      }
    }
    observer.Notify([&](RunObserver& o) {
      o.OnConflictRound(ConflictRoundInfo{stats.restarts, conflicts.size(),
                                          newly_blocked});
    });
    if (timed) {
      stats.timings.conflict_ns +=
          static_cast<uint64_t>(MonotonicNanos() - conflict_start_ns);
    }
    if (newly_blocked == 0) {
      return AbortedError(
          "conflict resolution made no progress (no new blocked "
          "instances); the policy decisions are cyclic");
    }
    trace.RecordResolution(std::move(resolution_notes), step);
    interp.ClearMarks();
    delta.Reset();
    delta_atoms.Reset();
    ++stats.restarts;
    observer.Notify(
        [&](RunObserver& o) { o.OnRestart(stats.restarts); });
    trace.RecordRestart(step);
    trace.RecordInitial(interp, step);
  }

  stats.blocked_instances = blocked.size();
  stats.memory_limit_bytes = options.max_memory_bytes;
  stats.derivation_limit = options.max_derivations;
  if (cancel != nullptr) {
    stats.peak_memory_bytes = cancel->peak_bytes();
    stats.derivations_charged = cancel->work_charged();
  }
  RecordStorageStats(interp, exec_stats, stats);
  RecordPlannerStats(plans, stats);
  if (parallel != nullptr) RecordParallelStats(*parallel, stats);
  if (timed) {
    stats.timings.total_ns =
        static_cast<uint64_t>(MonotonicNanos() - run_start_ns);
  }
  observer.Notify([&](RunObserver& o) { o.OnRunEnd(stats); });
  return ParkRun{std::move(interp), std::move(blocked), std::move(stats),
                 std::move(trace)};
}

}  // namespace

void RecordGammaSection(const GammaResult& gamma, ParkStats& stats) {
  stats.rule_evaluations += gamma.rules_evaluated;
  stats.sched_rules_considered += gamma.rules_considered;
  stats.sched_rules_skipped += gamma.rules_skipped;
  stats.sched_pipeline_stages += gamma.pipeline_stages;
}

void RecordPlannerStats(const PlanCache& plans, ParkStats& stats) {
  stats.plans_compiled = plans.plans_compiled();
  stats.plan_cache_hits = plans.cache_hits();
  stats.plan_replans = plans.replans();
  stats.planner_estimated_rows = plans.estimated_rows();
  stats.planner_actual_rows = plans.actual_rows();
}

void RecordParallelStats(const ParallelGamma& parallel, ParkStats& stats) {
  stats.parallel_sections = parallel.pool().sections_run();
  stats.parallel_tasks = parallel.pool().tasks_executed();
  stats.parallel_sliced_units = parallel.sliced_units();
  stats.parallel_slices = parallel.slice_tasks();
  stats.parallel_max_queue_depth = parallel.pool().max_section_tasks();
  stats.timings.parallel_match_ns = parallel.match_ns();
  stats.timings.parallel_merge_ns = parallel.merge_ns();
  stats.timings.pool_busy_ns = parallel.pool().busy_ns();
}

void RecordStorageStats(const IInterpretation& interp,
                        const ExecStats& exec_stats, ParkStats& stats) {
  // Sum the columnar footprint over the run's three stores. All three
  // are compacted by the coordinator at every batch-mode Γ step, so
  // these counters are deterministic and thread-count invariant (zero
  // on tuple-mode runs: nothing triggers a compaction).
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
  PARK_ASSIGN_OR_RETURN(ParkRun run, RunPark(program, db, options));
  ParkResult result{run.interp.Incorporate(), std::move(run.stats),
                    std::move(run.trace), RenderBlocked(run.blocked, program),
                    {}};
  if (options.record_provenance) {
    result.provenance = RenderProvenance(run.interp, program);
  }
  return result;
}

Result<ParkResult> Park(const Database& db, const Program& program,
                        const std::vector<Update>& updates,
                        const ParkOptions& options) {
  PARK_ASSIGN_OR_RETURN(Program extended,
                        ProgramWithUpdates(program, updates));
  return Park(extended, db, options);
}

Result<ParkDiffResult> ParkDiff(const Database& db, const Program& program,
                                const std::vector<Update>& updates,
                                const ParkOptions& options) {
  PARK_ASSIGN_OR_RETURN(Program extended,
                        ProgramWithUpdates(program, updates));
  PARK_ASSIGN_OR_RETURN(ParkRun run, RunPark(extended, db, options));
  return ParkDiffResult{run.interp.MarkDiff(), std::move(run.stats),
                        std::move(run.trace)};
}

}  // namespace park

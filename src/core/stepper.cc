#include "core/stepper.h"

#include "core/run_stats.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace park {
namespace {

const char* StepperGammaModeName(GammaMode mode) {
  switch (mode) {
    case GammaMode::kNaive: return "naive";
    case GammaMode::kDeltaFiltered: return "delta_filtered";
    case GammaMode::kSemiNaive: return "semi_naive";
  }
  return "unknown";
}

}  // namespace

ParkStepper::ParkStepper(const Program& program, const Database& db,
                         ParkOptions options)
    : program_(program),
      db_(db),
      options_(std::move(options)),
      policy_(options_.policy ? options_.policy : MakeInertiaPolicy()),
      plans_(program, options_.planner_mode),
      interp_(&db),
      observer_(options_.observer),
      start_time_(std::chrono::steady_clock::now()) {
  PARK_CHECK(program.symbols() == db.symbols())
      << "program and database must share a symbol table";
  int num_threads = ResolveNumThreads(options_.num_threads);
  stats_.num_threads = static_cast<size_t>(num_threads);
  stats_.planner_mode = options_.planner_mode;
  stats_.exec_mode = options_.exec_mode;
  stats_.timings.collected = options_.collect_timings;
  stats_.memory_limit_bytes = options_.max_memory_bytes;
  stats_.derivation_limit = options_.max_derivations;
  // Arm the run token only when some form of governance is configured;
  // ungoverned runs keep cancel_ == nullptr and skip all polling.
  if (options_.deadline_ms > 0 || options_.cancel != nullptr ||
      options_.max_memory_bytes > 0 || options_.max_derivations > 0) {
    if (options_.deadline_ms > 0) {
      token_.SetDeadline(start_time_ +
                         std::chrono::milliseconds(options_.deadline_ms));
    }
    if (options_.max_memory_bytes > 0) {
      token_.SetMemoryLimit(options_.max_memory_bytes);
    }
    if (options_.max_derivations > 0) {
      token_.SetWorkLimit(options_.max_derivations);
    }
    token_.ChainParent(options_.cancel);
    cancel_ = &token_;
  }
  if (num_threads > 1) {
    parallel_.emplace(program_, num_threads, options_.min_slice_size);
    if (options_.collect_timings) parallel_->EnableTiming();
  }
  stats_.scheduler_mode = options_.scheduler_mode;
  if (options_.scheduler_mode == SchedulerMode::kDependency &&
      options_.gamma_mode != GammaMode::kNaive) {
    graph_.emplace(program_);
    stats_.sched_strata = graph_->num_strata();
  }
  if (options_.observer != nullptr) {
    plans_.set_compile_listener([this](const PlanExplanation& explanation) {
      observer_.Notify(
          [&](RunObserver& o) { o.OnPlanCompiled(explanation); });
    });
  }
  if (options_.collect_timings) run_start_ns_ = MonotonicNanos();
  observer_.Notify([&](RunObserver& o) {
    o.OnRunStart(RunStartInfo{program_.size(), num_threads,
                              StepperGammaModeName(options_.gamma_mode)});
  });
}

void ParkStepper::RefreshResourceStats() {
  if (cancel_ == nullptr) return;
  stats_.peak_memory_bytes = cancel_->peak_bytes();
  stats_.derivations_charged = cancel_->work_charged();
}

Result<StepOutcome> ParkStepper::Step() {
  if (done_) return StepOutcome{};  // kFixpoint
  if (steps_taken_ >= options_.max_steps) {
    return ResourceExhaustedError(StrFormat(
        "PARK evaluation exceeded max_steps=%zu", options_.max_steps));
  }
  if (cancel_ != nullptr && cancel_->Check()) {
    RefreshResourceStats();
    return cancel_->ToStatus();
  }
  const int step_number = static_cast<int>(steps_taken_);
  ++steps_taken_;
  observer_.Notify([&](RunObserver& o) { o.OnStepStart(step_number); });
  const bool timed = options_.collect_timings;

  const GammaMode mode = options_.gamma_mode;
  ParallelGamma* parallel = parallel_.has_value() ? &*parallel_ : nullptr;
  int64_t gamma_start_ns = timed ? MonotonicNanos() : 0;
  GammaResult gamma;
  switch (mode) {
    case GammaMode::kNaive:
      gamma = ComputeGamma(program_, blocked_, interp_, parallel, &plans_,
                           cancel_, options_.exec_mode, &exec_stats_);
      break;
    case GammaMode::kDeltaFiltered:
      gamma = ComputeGammaFiltered(program_, blocked_, interp_, delta_,
                                   parallel, &plans_, cancel_,
                                   options_.exec_mode, &exec_stats_,
                                   graph_.has_value() ? &*graph_ : nullptr);
      break;
    case GammaMode::kSemiNaive:
      gamma = ComputeGammaSemiNaive(program_, blocked_, interp_,
                                    delta_atoms_, parallel, &plans_,
                                    cancel_, options_.exec_mode,
                                    &exec_stats_,
                                    graph_.has_value() ? &*graph_ : nullptr);
      break;
  }
  if (timed) {
    stats_.timings.gamma_ns +=
        static_cast<uint64_t>(MonotonicNanos() - gamma_start_ns);
  }
  if (cancel_ != nullptr) {
    // The merged derivation list lives on the coordinator until applied.
    cancel_->UpdateScope(gamma_scope_,
                         gamma.derivations.capacity() * sizeof(Derivation));
    if (cancel_->Check()) {
      // gamma is partial — discard it and surface the cause.
      RefreshResourceStats();
      return cancel_->ToStatus();
    }
  }
  RecordGammaSection(gamma, stats_);
  if (parallel_.has_value()) RecordParallelStats(*parallel_, stats_);
  RecordPlannerStats(plans_, stats_);
  RefreshResourceStats();
  RecordStorageStats(interp_, exec_stats_, stats_);
  observer_.Notify([&](RunObserver& o) {
    o.OnGammaSection(GammaSectionInfo{
        step_number, gamma.rules_evaluated, gamma.derivations.size(),
        gamma.newly_marked, gamma.consistent});
  });

  if (gamma.consistent) {
    if (gamma.newly_marked == 0) {
      done_ = true;
      stats_.blocked_instances = blocked_.size();
      RefreshResourceStats();
      if (timed) {
        stats_.timings.total_ns =
            static_cast<uint64_t>(MonotonicNanos() - run_start_ns_);
      }
      observer_.Notify([&](RunObserver& o) { o.OnFixpoint(step_number); });
      observer_.Notify([&](RunObserver& o) { o.OnRunEnd(stats_); });
      return StepOutcome{};  // kFixpoint
    }
    StepOutcome outcome;
    outcome.kind = StepOutcome::Kind::kGamma;
    int64_t apply_start_ns = timed ? MonotonicNanos() : 0;
    switch (mode) {
      case GammaMode::kNaive:
        outcome.new_marks = ApplyDerivations(gamma.derivations, interp_);
        break;
      case GammaMode::kDeltaFiltered:
        outcome.new_marks =
            ApplyDerivationsTracked(gamma.derivations, interp_, delta_);
        break;
      case GammaMode::kSemiNaive:
        outcome.new_marks = ApplyDerivationsTrackedAtoms(
            gamma.derivations, interp_, delta_atoms_);
        break;
    }
    if (timed) {
      stats_.timings.apply_ns +=
          static_cast<uint64_t>(MonotonicNanos() - apply_start_ns);
    }
    stats_.derived_marks += outcome.new_marks;
    ++stats_.gamma_steps;
    return outcome;
  }

  // Resolution transition: same logic as the batch evaluator.
  if (mode != GammaMode::kNaive) {
    gamma_start_ns = timed ? MonotonicNanos() : 0;
    gamma = ComputeGamma(program_, blocked_, interp_, parallel, &plans_,
                         cancel_, options_.exec_mode, &exec_stats_);
    if (timed) {
      stats_.timings.gamma_ns +=
          static_cast<uint64_t>(MonotonicNanos() - gamma_start_ns);
    }
    if (cancel_ != nullptr) {
      cancel_->UpdateScope(
          gamma_scope_, gamma.derivations.capacity() * sizeof(Derivation));
      if (cancel_->Check()) {
        RefreshResourceStats();
        return cancel_->ToStatus();
      }
    }
    RecordGammaSection(gamma, stats_);
    if (parallel_.has_value()) RecordParallelStats(*parallel_, stats_);
    RecordPlannerStats(plans_, stats_);
    RefreshResourceStats();
    RecordStorageStats(interp_, exec_stats_, stats_);
    observer_.Notify([&](RunObserver& o) {
      o.OnGammaSection(GammaSectionInfo{
          step_number, gamma.rules_evaluated, gamma.derivations.size(),
          gamma.newly_marked, gamma.consistent});
    });
  }
  const int64_t conflict_start_ns = timed ? MonotonicNanos() : 0;
  std::vector<Conflict> conflicts = BuildConflicts(gamma, interp_);
  if (options_.block_granularity == BlockGranularity::kFirstConflictOnly &&
      conflicts.size() > 1) {
    conflicts.resize(1);
  }

  StepOutcome outcome;
  outcome.kind = StepOutcome::Kind::kResolution;
  PolicyContext context{db_, program_, interp_,
                        static_cast<int>(stats_.restarts)};
  for (const Conflict& conflict : conflicts) {
    ++stats_.policy_invocations;
    const int64_t policy_start_ns = timed ? MonotonicNanos() : 0;
    PARK_ASSIGN_OR_RETURN(Vote vote, policy_->Select(context, conflict));
    if (timed) {
      stats_.timings.policy_ns +=
          static_cast<uint64_t>(MonotonicNanos() - policy_start_ns);
    }
    if (vote == Vote::kAbstain) {
      return AbortedError(StrFormat(
          "policy '%s' abstained on conflict over %s",
          std::string(policy_->name()).c_str(),
          conflict.atom.ToString(*program_.symbols()).c_str()));
    }
    ++stats_.conflicts_resolved;
    observer_.Notify(
        [&](RunObserver& o) { o.OnPolicyDecision(conflict, vote); });
    outcome.conflicts.push_back(
        conflict.ToString(program_, *program_.symbols()));
    const std::vector<RuleGrounding>& losing =
        vote == Vote::kInsert ? conflict.deleters : conflict.inserters;
    for (const RuleGrounding& g : losing) {
      if (blocked_.insert(g).second) ++outcome.newly_blocked;
    }
  }
  observer_.Notify([&](RunObserver& o) {
    o.OnConflictRound(ConflictRoundInfo{
        stats_.restarts, conflicts.size(), outcome.newly_blocked});
  });
  if (timed) {
    stats_.timings.conflict_ns +=
        static_cast<uint64_t>(MonotonicNanos() - conflict_start_ns);
  }
  if (outcome.newly_blocked == 0) {
    return AbortedError(
        "conflict resolution made no progress (no new blocked instances)");
  }
  interp_.ClearMarks();
  delta_.Reset();
  delta_atoms_.Reset();
  ++stats_.restarts;
  observer_.Notify([&](RunObserver& o) { o.OnRestart(stats_.restarts); });
  return outcome;
}

Result<Database> ParkStepper::Finish() {
  while (!done_) {
    PARK_RETURN_IF_ERROR(Step().status());
  }
  return interp_.Incorporate();
}

}  // namespace park

// ParkStepper: the Δ transition operator exposed one step at a time.
//
// The batch evaluator (Park()) runs ω_P to completion; the stepper lets a
// debugger, visualizer, or interactive tool drive the same computation
// transition by transition and inspect the live bi-structure ⟨B, I⟩
// between steps. Finishing a stepper yields exactly PARK(P, D) (asserted
// against the batch evaluator in stepper_test.cc).

#ifndef PARK_CORE_STEPPER_H_
#define PARK_CORE_STEPPER_H_

#include <chrono>
#include <optional>

#include "core/park_evaluator.h"
#include "engine/rule_graph.h"
#include "util/cancellation.h"

namespace park {

/// One Δ transition outcome.
struct StepOutcome {
  enum class Kind {
    kGamma,       // consistent Γ application; `new_marks` atoms added
    kResolution,  // conflicts resolved, blocked set grew, restarted at I°
    kFixpoint,    // Γ(P,B)(I) = I — the computation is complete
  };

  Kind kind = Kind::kFixpoint;
  /// kGamma: number of newly marked atoms.
  size_t new_marks = 0;
  /// kResolution: rendered descriptions of the conflicts just resolved.
  std::vector<std::string> conflicts;
  /// kResolution: number of rule instances newly blocked.
  size_t newly_blocked = 0;
};

/// Stateful, single-use driver of one PARK evaluation. The program and
/// database must outlive the stepper; neither is modified.
class ParkStepper {
 public:
  /// `options.trace_level` is ignored (the live state IS the trace);
  /// policy / granularity / gamma_mode behave as in Park().
  ParkStepper(const Program& program, const Database& db,
              ParkOptions options = {});

  ParkStepper(const ParkStepper&) = delete;
  ParkStepper& operator=(const ParkStepper&) = delete;

  /// Applies one Δ transition. Calling Step() after the fixpoint is
  /// reached keeps returning kFixpoint outcomes. Errors are the same as
  /// Park()'s (policy abstention, no progress, max_steps).
  Result<StepOutcome> Step();

  bool done() const { return done_; }

  /// The live i-interpretation I.
  const IInterpretation& interpretation() const { return interp_; }

  /// The live bi-structure ⟨B, I⟩, order-comparable (Theorem 4.1).
  BiStructureSnapshot Snapshot() const {
    return SnapshotBiStructure(blocked_, interp_, program_);
  }

  const ParkStats& stats() const { return stats_; }

  /// Runs remaining steps to the fixpoint and incorporates: the result
  /// database equals Park(program, db, options).database.
  Result<Database> Finish();

 private:
  /// Folds the run token's budget counters into stats_.
  void RefreshResourceStats();

  const Program& program_;
  const Database& db_;
  ParkOptions options_;
  PolicyPtr policy_;
  /// Engaged iff options_.num_threads resolves to > 1.
  std::optional<ParallelGamma> parallel_;
  /// Delta-driven Γ scheduling (see ParkOptions::scheduler_mode and
  /// docs/SCHEDULER.md). Engaged iff the scheduler is on and the Γ mode
  /// can use it (naive matches everything by definition).
  std::optional<RuleDependencyGraph> graph_;
  /// Compiled rule plans shared by every Γ section of this evaluation
  /// (see ParkOptions::planner_mode); its counters fold into stats_.
  PlanCache plans_;
  IInterpretation interp_;
  BlockedSet blocked_;
  DeltaState delta_;
  DeltaAtoms delta_atoms_;
  ParkStats stats_;
  /// Batch-executor row counters (see ParkOptions::exec_mode); folded
  /// into stats_ after every Γ section. All zero on tuple-mode runs.
  ExecStats exec_stats_;
  /// Exception-isolating view of options_.observer (see core/observer.h);
  /// OnRunStart fires at construction, OnRunEnd when the fixpoint lands.
  ObserverHook observer_;
  size_t steps_taken_ = 0;
  /// Construction time, against which options_.deadline_ms is checked
  /// (the budget covers the whole stepped evaluation, like Park()'s).
  std::chrono::steady_clock::time_point start_time_;
  /// Run governance (deadline / external cancel / memory / derivation
  /// budgets), shared by every thread of every Γ section. cancel_ is null
  /// when no governance is configured — workers then skip polling.
  CancellationToken token_;
  CancellationToken* cancel_ = nullptr;
  /// Coordinator-side memory scope for the merged Γ derivation lists.
  CancellationToken::MemoryScope gamma_scope_;
  /// Construction time on the timings clock (options_.collect_timings).
  int64_t run_start_ns_ = 0;
  bool done_ = false;
};

}  // namespace park

#endif  // PARK_CORE_STEPPER_H_

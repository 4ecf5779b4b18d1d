// ParkStepper: the Δ transition operator exposed one step at a time.
//
// This is the engine's one Δ loop. Park() and ParkDiff() are drivers that
// construct a stepper, run it to done(), and finish the run (incorp(I)
// plus the rendered blocked set and provenance, or the mark diff);
// FixpointMaintainer drives a seeded stepper over its warm caches. A
// debugger, visualizer, or interactive tool drives the same computation
// transition by transition and inspects the live bi-structure ⟨B, I⟩
// between steps. Every option behaves as in Park(), trace_level included:
// the trace is recorded step by step and readable through trace().

#ifndef PARK_CORE_STEPPER_H_
#define PARK_CORE_STEPPER_H_

#include <chrono>
#include <optional>

#include "core/conflict.h"
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
  /// kResolution: the conflicts just resolved (Conflict::ToString renders
  /// them).
  std::vector<Conflict> conflicts;
  /// kResolution: number of rule instances newly blocked.
  size_t newly_blocked = 0;
};

/// Stateful, single-use driver of one PARK evaluation. The program and
/// database must outlive the stepper; neither is modified.
class ParkStepper {
 public:
  ParkStepper(const Program& program, const Database& db,
              ParkOptions options = {});

  /// Warm evaluation state a seeded stepper borrows instead of building
  /// its own; every pointer must outlive the stepper. `parallel` may be
  /// null (sequential Γ).
  struct WarmState {
    PlanCache* plans = nullptr;
    const RuleDependencyGraph* graph = nullptr;
    ParallelGamma* parallel = nullptr;
  };

  /// The seeded closure of incremental maintenance (docs/INCREMENTAL.md):
  /// starts from I = I° plus U's marks (counted in derived_marks, not as
  /// a step) and runs semi-naive Γ from that delta. The closure owns no
  /// conflict machinery: the first inconsistent Γ section ends the run
  /// with kAborted, before any conflict or SELECT work. Planner and pool
  /// counters in stats() are the borrowed objects' lifetime totals.
  ParkStepper(const Program& program, const Database& db,
              ParkOptions options, const std::vector<Update>& seeds,
              WarmState warm);

  ParkStepper(const ParkStepper&) = delete;
  ParkStepper& operator=(const ParkStepper&) = delete;

  /// Applies one Δ transition. Calling Step() after the fixpoint is
  /// reached keeps returning kFixpoint outcomes. Errors are Park()'s
  /// (policy abstention, no progress, max_steps, governance).
  Result<StepOutcome> Step();

  bool done() const { return done_; }

  /// The live i-interpretation I.
  const IInterpretation& interpretation() const { return interp_; }

  /// The live blocked set B.
  const BlockedSet& blocked() const { return blocked_; }

  /// The live bi-structure ⟨B, I⟩, order-comparable (Theorem 4.1).
  BiStructureSnapshot Snapshot() const {
    return SnapshotBiStructure(blocked_, interp_, program_);
  }

  /// The run's counters. The storage, planner, pool and budget counters
  /// are folded in once at the fixpoint; before it (mid-run, or after an
  /// error) they are computed on each call.
  ParkStats stats() const;

  /// The events recorded so far at options.trace_level.
  const Trace& trace() const { return trace_; }

  /// Runs the remaining steps to the fixpoint.
  Status Run();

  /// Run() and incorporate: the result database equals
  /// Park(program, db, options).database.
  Result<Database> Finish();

 private:
  /// Shared construction head: owns the evaluation state, or borrows
  /// `warm`'s when non-null.
  ParkStepper(const Program& program, const Database& db,
              ParkOptions options, const WarmState* warm);
  /// Shared construction tail: stats echoes, governance, observer start.
  void Start();
  /// The one Γ dispatch: the semi-naive section seeded by the last
  /// step's delta, or the full Γ when `full` (maximal conflict sides).
  GammaResult ComputeSection(bool full);
  /// Computes one Γ section and does its bookkeeping (timings, budgets,
  /// counters, observer). Errors only when the run token fired.
  Result<GammaResult> GammaSection(int step, bool full);
  /// Conflict construction, SELECT, and the restart from I°.
  Result<StepOutcome> Resolve(GammaResult gamma, int step);
  /// Sets the counters read off the run's storage, caches and token.
  void FoldRunStats(ParkStats& stats) const;

  const Program& program_;
  const Database& db_;
  ParkOptions options_;
  PolicyPtr policy_;
  /// Seeded maintenance closure: an inconsistent section aborts the run.
  bool seeded_ = false;
  /// Owned evaluation state; a seeded stepper borrows it instead. The
  /// pool is engaged iff options_.num_threads resolves to > 1; the
  /// dependency graph (docs/SCHEDULER.md) schedules every semi-naive
  /// section.
  std::optional<ParallelGamma> own_parallel_;
  std::optional<RuleDependencyGraph> own_graph_;
  std::optional<PlanCache> own_plans_;
  ParallelGamma* parallel_ = nullptr;
  const RuleDependencyGraph* graph_ = nullptr;
  /// Compiled rule plans shared by every Γ section (docs/PLANNER.md).
  PlanCache* plans_ = nullptr;
  IInterpretation interp_;
  BlockedSet blocked_;
  DeltaAtoms delta_atoms_;
  ParkStats stats_;
  /// Batch-executor row counters (see ParkOptions::exec_mode). All zero
  /// on tuple-mode runs.
  ExecStats exec_stats_;
  /// Exception-isolating view of options_.observer (see core/observer.h);
  /// OnRunStart fires at construction, OnRunEnd when the fixpoint lands.
  ObserverHook observer_;
  Trace trace_;
  size_t steps_taken_ = 0;
  /// Construction time, against which options_.deadline_ms is checked
  /// (the budget covers the whole stepped evaluation).
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

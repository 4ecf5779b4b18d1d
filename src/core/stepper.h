// ParkStepper: the Δ transition operator exposed one step at a time.
//
// This is the engine's one Δ loop. Park() is a driver that constructs a
// stepper, runs it to done(), and finishes the run (incorp(I) plus the
// rendered blocked set and provenance). ActiveDatabase runs every commit
// as one stepper over the WarmState it keeps across commits: a seeded
// closure over P when the incremental maintainer admits the commit, else
// the unseeded run over P_U. A debugger, visualizer, or interactive tool
// drives the same computation transition by transition and inspects the
// live bi-structure ⟨B, I⟩ between steps. Every option behaves as in
// Park(), trace_level included: the trace is recorded step by step and
// readable through trace().

#ifndef PARK_CORE_STEPPER_H_
#define PARK_CORE_STEPPER_H_

#include <chrono>
#include <memory>
#include <optional>
#include <vector>

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
  /// Evaluation state that outlives one run: the rule dependency graph
  /// (docs/SCHEDULER.md), the plan cache (docs/PLANNER.md) and, when
  /// num_threads resolves to > 1, the Γ pool (docs/PARALLELISM.md). Built
  /// over a program P, it serves P and every P_U, P followed by body-less
  /// update rules: such a rule watches nothing and needs no plan. It holds
  /// no address of P, so it moves with its owner. ActiveDatabase keeps one
  /// across commits; a one-shot ParkStepper builds its own.
  class WarmState {
   public:
    /// Builds the graph, the plan cache, the head signs and, when
    /// options.num_threads resolves to > 1, the pool (with
    /// options.collect_timings) over `program`, unless already built.
    /// Build-once: a later call with other options changes nothing, so an
    /// owner whose options change must Reset() first (as
    /// ActiveDatabase::Configure does).
    void Bind(const Program& program, const ParkOptions& options);

    /// The derivation scope of a run of `program`, P or a P_U over the
    /// state's P, seeded by `seeds` when non-null (docs/SEMANTICS.md "Γ"
    /// and "Conflicts"). Its clash scope is the predicates with heads of
    /// both signs over P plus the run's updates: the update rules past
    /// num_rules(), or the seeds. Groundings are kept for that scope on
    /// an unseeded run, for none on a seeded closure, and for every
    /// predicate under `record_provenance`. P's head signs come from
    /// Bind; this reads only the updates, in O(|U| log |U|), never P. The
    /// scope borrows the state's sign table, so the state must outlive it
    /// unmoved.
    DerivationScope Scope(const Program& program,
                          const std::vector<Update>* seeds,
                          bool record_provenance) const;

    /// Drops everything; the next Bind rebuilds over its program.
    void Reset() { *this = WarmState(); }

    /// The number of rules the state was built over (0 before Bind).
    size_t num_rules() const { return graph_ ? graph_->size() : 0; }
    bool bound() const { return graph_.has_value(); }

    const RuleDependencyGraph& graph() const { return *graph_; }
    PlanCache& plans() { return *plans_; }
    /// Null on sequential runs.
    ParallelGamma* parallel() { return parallel_.get(); }

    /// How many relations the I⁺ and I⁻ of the last run to reach its
    /// fixpoint held; a run over the state reserves its mark stores for
    /// as many, so a commit's marks do not rehash the relation maps on
    /// their way up.
    size_t plus_relations() const { return plus_relations_; }
    size_t minus_relations() const { return minus_relations_; }
    void NoteMarkStores(const IInterpretation& interp) {
      plus_relations_ = interp.plus().num_relations();
      minus_relations_ = interp.minus().num_relations();
    }

   private:
    std::optional<RuleDependencyGraph> graph_;
    std::optional<PlanCache> plans_;
    // Per predicate id, the SignBit mask of P's heads on it.
    std::vector<uint8_t> head_signs_;
    // unique_ptr, not optional: ParallelGamma owns a thread pool and is
    // immovable, but the state must move with its ActiveDatabase.
    std::unique_ptr<ParallelGamma> parallel_;
    size_t plus_relations_ = 0;
    size_t minus_relations_ = 0;
  };

  /// A one-shot run: builds and owns its evaluation state.
  ParkStepper(const Program& program, const Database& db,
              ParkOptions options = {});

  /// A run over `state`, which must outlive the stepper and be bound over
  /// P, where `program` is P or a P_U (checked: every rule past the
  /// state's is body-less). Without `seeds` this is the run of `program`
  /// from I°. With `seeds` it is the seeded closure of incremental
  /// maintenance (docs/INCREMENTAL.md): it starts from I = I° plus the
  /// seeds' marks (counted in derived_marks, not as a step) and runs
  /// semi-naive Γ from that delta. The closure owns no conflict
  /// machinery: the first inconsistent Γ section ends the run with
  /// kAborted, before any conflict or SELECT work.
  ParkStepper(const Program& program, const Database& db,
              ParkOptions options, WarmState& state,
              const std::vector<Update>* seeds = nullptr);

  /// Removes the compile listener an observed run installed on the plan
  /// cache, which outlives the stepper.
  ~ParkStepper();

  ParkStepper(const ParkStepper&) = delete;
  ParkStepper& operator=(const ParkStepper&) = delete;

  /// Applies one Δ transition. Calling Step() after the fixpoint is
  /// reached keeps returning kFixpoint outcomes. Errors are Park()'s
  /// (policy abstention, no progress, max_steps, governance).
  Result<StepOutcome> Step();

  bool done() const { return done_; }

  /// The live i-interpretation I. Its provenance covers the predicates
  /// with heads of both signs in the program (none in a seeded closure),
  /// or all of them under options.record_provenance (see
  /// IInterpretation::Provenance). After Finish() it holds I° only.
  const IInterpretation& interpretation() const { return interp_; }

  /// The live blocked set B.
  const BlockedSet& blocked() const { return blocked_; }

  /// The live bi-structure ⟨B, I⟩, order-comparable (Theorem 4.1).
  BiStructureSnapshot Snapshot() const {
    return SnapshotBiStructure(blocked_, interp_, program_);
  }

  /// The run's counters; the planner and pool counters count this run
  /// only. The B, planner, pool and budget counters are folded in
  /// once at the fixpoint; before it (mid-run, or after an error) they
  /// are computed on each call.
  ParkStats stats() const;

  /// The events recorded so far at options.trace_level.
  const Trace& trace() const { return trace_; }

  /// Runs the remaining steps to the fixpoint.
  Status Run();

  /// Run() and incorporate: the result database equals
  /// Park(program, db, options).database. Incorporation consumes the
  /// marks (IInterpretation::Incorporate), so read anything off
  /// interpretation() first.
  Result<Database> Finish();

 private:
  /// Shared construction head: borrows `state`, or builds and owns one
  /// when it is null, and sets the run's derivation scope.
  ParkStepper(const Program& program, const Database& db,
              ParkOptions options, WarmState* state,
              const std::vector<Update>* seeds);
  /// Shared construction tail: stats echoes, counter baselines,
  /// governance, observer start.
  void Start();
  /// The one Γ dispatch: the semi-naive section seeded by the last
  /// step's delta (the full Γ at the first step of a round).
  GammaResult ComputeSection();
  /// Computes the step's one Γ section and does its bookkeeping (timings,
  /// budgets, counters). Errors only when the run token fired.
  Result<GammaResult> GammaSection();
  /// Reports the step's section to the observer, with `newly_marked`
  /// marks not already in I.
  void NotifySection(int step, const GammaResult& gamma, size_t newly_marked);
  /// Conflict construction from the step's section, SELECT, and the
  /// restart from I°.
  Result<StepOutcome> Resolve(GammaResult gamma, int step);
  /// Sets the counters read off the run's B, caches and token.
  void FoldRunStats(ParkStats& stats) const;

  const Program& program_;
  const Database& db_;
  ParkOptions options_;
  PolicyPtr policy_;
  /// Seeded maintenance closure: an inconsistent section aborts the run.
  bool seeded_ = false;
  /// A one-shot run's own state; `state_` points at it or at the
  /// borrowed one.
  std::optional<WarmState> own_state_;
  WarmState* state_ = nullptr;
  /// Which derivations the clash test reads and which keep groundings.
  DerivationScope scope_;
  /// The planner and pool totals of `state_` when the run started.
  ParkStats baseline_;
  IInterpretation interp_;
  BlockedSet blocked_;
  DeltaAtoms delta_atoms_;
  ParkStats stats_;
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

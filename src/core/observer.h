// RunObserver: a pluggable callback interface onto the structural points
// of a PARK evaluation and the ActiveDatabase commit pipeline, for
// debuggers, metric sinks, and live dashboards (docs/OBSERVABILITY.md).
//
// Active-rule engines are hard to observe from the outside precisely
// because rule firings cascade invisibly inside one Commit() call; the
// observer makes the Δ loop's skeleton — steps, Γ sections, conflict
// rounds, policy votes, restarts — visible as it happens, without
// touching the semantics:
//
//   - Observation is read-only. Callbacks receive counts and const
//     references; nothing an observer does can change the result.
//   - Observation is non-fatal. The evaluator invokes every callback
//     through ObserverHook, which catches anything thrown, logs it,
//     and DETACHES the observer; the evaluation then finishes exactly
//     as if no observer had been installed (asserted in observer_test).
//   - Observation is cheap. With no observer installed each hook site
//     is one null-pointer test.
//
// Install via ParkOptions::observer (one evaluation) or
// ActiveDatabase::Configure (every commit; also receives the commit
// pipeline and journal/checkpoint events).
//
// Threading: all callbacks fire on the coordinating thread, strictly
// ordered. A parallel Γ section completes its fan-out before
// OnGammaSection fires; worker threads never call observers.

#ifndef PARK_CORE_OBSERVER_H_
#define PARK_CORE_OBSERVER_H_

#include <cstdint>
#include <iosfwd>

#include "core/policy.h"
#include "util/metrics.h"

namespace park {

struct ParkStats;        // core/park_evaluator.h (which includes this header)
struct PlanExplanation;  // engine/matcher.h

/// Static facts about one evaluation, delivered once at run start.
struct RunStartInfo {
  size_t num_rules = 0;
  /// Resolved thread count (after ResolveNumThreads), not the raw knob.
  int num_threads = 1;
};

/// One Γ(P,B)(I) evaluation, parallel or sequential, reported after its
/// fan-out (if any) has completed and before it is applied or resolved.
struct GammaSectionInfo {
  int step = 0;                // Γ applications so far, 0-based
  size_t rules_evaluated = 0;  // bodies matched (section may skip rules)
  size_t derivations = 0;      // firable non-blocked instances found
  size_t newly_marked = 0;     // marks not already in I
  bool consistent = true;      // false: a conflict round follows
};

/// One conflict-resolution round (the paper's blocked-set extension),
/// reported after every conflict in the round has been decided.
struct ConflictRoundInfo {
  size_t restart = 0;        // rounds completed before this one
  size_t conflicts = 0;      // conflicts decided this round
  size_t newly_blocked = 0;  // instances added to B this round
};

/// One committed transaction, reported after the stored instance moved.
struct CommitEndInfo {
  size_t updates = 0;   // user updates in the transaction
  size_t inserted = 0;  // atoms added to the stored instance
  size_t deleted = 0;   // atoms removed from the stored instance
  size_t restarts = 0;  // conflict rounds the evaluation needed
  /// Journal sequence number of the commit's record; 0 when the database
  /// has no journal attached.
  uint64_t journal_seq = 0;
};

/// One completed group commit (serve::Session, docs/SERVING.md): `txns`
/// staged transactions folded into a single PARK firing and journal
/// record. `poisoned` means the folded batch failed as a unit and its
/// members were retried individually (each retry reports its own
/// OnCommitStart/OnCommitEnd pair).
struct BatchCommitInfo {
  uint64_t batch_seq = 0;    // 1-based batch counter of the session
  size_t txns = 0;           // transactions folded into the batch
  uint64_t journal_seq = 0;  // record the batch landed in (0: no journal)
  bool poisoned = false;
};

/// Callback interface. Every method has an empty default, so observers
/// override only the events they care about. Callbacks should be fast
/// (they run inline on the evaluation thread) and must not re-enter the
/// database they observe.
class RunObserver {
 public:
  virtual ~RunObserver() = default;

  // --- PARK loop (Park(), ParkStepper) ---
  virtual void OnRunStart(const RunStartInfo& info) { (void)info; }
  /// A Δ transition begins. `step` counts all transitions (Γ applications
  /// and resolution rounds), matching the step numbering in traces.
  virtual void OnStepStart(int step) { (void)step; }
  virtual void OnGammaSection(const GammaSectionInfo& info) { (void)info; }
  /// The join planner compiled (or, after statistics drift, recompiled) a
  /// rule or Δ-seeded rule variant into a match plan. Fires on the
  /// coordinating thread, before the plan's first execution. Render with
  /// ExplainPlanLine (engine/matcher.h).
  virtual void OnPlanCompiled(const PlanExplanation& explanation) {
    (void)explanation;
  }
  /// One policy decision inside a conflict round. `conflict` is the live
  /// object — render it eagerly if kept beyond the callback.
  virtual void OnPolicyDecision(const Conflict& conflict, Vote vote) {
    (void)conflict;
    (void)vote;
  }
  virtual void OnConflictRound(const ConflictRoundInfo& info) {
    (void)info;
  }
  /// Marks cleared, computation restarting from I°. `restart` is 1-based:
  /// the value ParkStats::restarts will hold from now on.
  virtual void OnRestart(size_t restart) { (void)restart; }
  /// Γ(P,B)(I) = I: the fixpoint is reached (the run's last loop event).
  virtual void OnFixpoint(int step) { (void)step; }
  /// Final event of every successful evaluation; `stats` is complete
  /// (including timings, when collected).
  virtual void OnRunEnd(const ParkStats& stats) { (void)stats; }

  // --- commit pipeline (ActiveDatabase) ---
  virtual void OnCommitStart(size_t updates) { (void)updates; }
  virtual void OnCommitEnd(const CommitEndInfo& info) { (void)info; }
  /// The commit's record reached the journal (post sync-mode handling).
  virtual void OnJournalAppend(uint64_t seq) { (void)seq; }
  /// A checkpoint completed at watermark `seq`.
  virtual void OnCheckpoint(uint64_t seq) { (void)seq; }

  // --- serving layer (serve::Session, docs/SERVING.md) ---
  /// A group commit completed (success or poisoned fallback). Fires on
  /// the leader thread after the batch's members were all reported.
  virtual void OnBatchCommit(const BatchCommitInfo& info) { (void)info; }
  /// A snapshot was opened pinning the generation committed at
  /// `journal_seq` / released (what it pinned became reclaimable).
  /// Fire on the opening thread and on whichever thread dropped the last
  /// handle, respectively.
  virtual void OnSnapshotOpen(uint64_t journal_seq) { (void)journal_seq; }
  virtual void OnSnapshotRelease(uint64_t journal_seq) {
    (void)journal_seq;
  }
};

/// The evaluator-side wrapper that makes observers non-fatal: Notify
/// invokes a callback and, if it throws, logs the error and detaches the
/// observer for the rest of the run. Copyable view; null observer = every
/// Notify is one branch.
class ObserverHook {
 public:
  explicit ObserverHook(RunObserver* observer) : observer_(observer) {}

  bool armed() const { return observer_ != nullptr; }

  template <typename Fn>
  void Notify(Fn&& fn) {
    if (observer_ == nullptr) return;
    try {
      fn(*observer_);
    } catch (...) {
      observer_ = nullptr;
      ReportObserverFailure();
    }
  }

 private:
  void ReportObserverFailure();  // logs; never throws

  RunObserver* observer_;
};

/// Prints one line per event to a stream — the quickest way to watch a
/// run cascade. `symbols` (optional) renders conflict atoms in policy
/// decisions; without it the decision line shows votes only.
class TracingObserver : public RunObserver {
 public:
  explicit TracingObserver(std::ostream& out,
                           const SymbolTable* symbols = nullptr)
      : out_(out), symbols_(symbols) {}

  void OnRunStart(const RunStartInfo& info) override;
  void OnStepStart(int step) override;
  void OnGammaSection(const GammaSectionInfo& info) override;
  void OnPlanCompiled(const PlanExplanation& explanation) override;
  void OnPolicyDecision(const Conflict& conflict, Vote vote) override;
  void OnConflictRound(const ConflictRoundInfo& info) override;
  void OnRestart(size_t restart) override;
  void OnFixpoint(int step) override;
  void OnRunEnd(const ParkStats& stats) override;
  void OnCommitStart(size_t updates) override;
  void OnCommitEnd(const CommitEndInfo& info) override;
  void OnJournalAppend(uint64_t seq) override;
  void OnCheckpoint(uint64_t seq) override;
  void OnBatchCommit(const BatchCommitInfo& info) override;
  void OnSnapshotOpen(uint64_t journal_seq) override;
  void OnSnapshotRelease(uint64_t journal_seq) override;

 private:
  std::ostream& out_;
  const SymbolTable* symbols_;
};

/// Mirrors every event into a MetricsRegistry (counter/timer names in
/// docs/OBSERVABILITY.md, all under "park."), aggregating across runs and
/// commits — point it at a long-lived registry and export ToJson()
/// periodically for a poor-man's dashboard.
class MetricsObserver : public RunObserver {
 public:
  explicit MetricsObserver(MetricsRegistry* registry);

  void OnRunStart(const RunStartInfo& info) override;
  void OnStepStart(int step) override;
  void OnGammaSection(const GammaSectionInfo& info) override;
  void OnPolicyDecision(const Conflict& conflict, Vote vote) override;
  void OnConflictRound(const ConflictRoundInfo& info) override;
  void OnRestart(size_t restart) override;
  void OnFixpoint(int step) override;
  void OnRunEnd(const ParkStats& stats) override;
  void OnCommitStart(size_t updates) override;
  void OnCommitEnd(const CommitEndInfo& info) override;
  void OnJournalAppend(uint64_t seq) override;
  void OnCheckpoint(uint64_t seq) override;
  void OnBatchCommit(const BatchCommitInfo& info) override;
  void OnSnapshotOpen(uint64_t journal_seq) override;
  void OnSnapshotRelease(uint64_t journal_seq) override;

 private:
  MetricsRegistry* registry_;
  // Pre-resolved handles (see util/metrics.h: stable for the registry's
  // lifetime), so per-event cost is one add.
  MetricsRegistry::Counter* runs_;
  MetricsRegistry::Counter* steps_;
  MetricsRegistry::Counter* gamma_sections_;
  MetricsRegistry::Counter* derivations_;
  MetricsRegistry::Counter* new_marks_;
  MetricsRegistry::Counter* inconsistent_sections_;
  MetricsRegistry::Counter* policy_votes_insert_;
  MetricsRegistry::Counter* policy_votes_delete_;
  MetricsRegistry::Counter* conflict_rounds_;
  MetricsRegistry::Counter* conflicts_;
  MetricsRegistry::Counter* newly_blocked_;
  MetricsRegistry::Counter* restarts_;
  MetricsRegistry::Counter* fixpoints_;
  MetricsRegistry::Counter* commits_;
  MetricsRegistry::Counter* commit_inserted_;
  MetricsRegistry::Counter* commit_deleted_;
  MetricsRegistry::Counter* journal_appends_;
  MetricsRegistry::Counter* checkpoints_;
  MetricsRegistry::Counter* batches_;
  MetricsRegistry::Counter* batched_txns_;
  MetricsRegistry::Counter* poisoned_batches_;
  MetricsRegistry::Counter* snapshots_opened_;
  MetricsRegistry::Counter* snapshots_released_;
  MetricsRegistry::Timer* run_timer_;
  MetricsRegistry::Timer* commit_timer_;
  int64_t run_start_ns_ = 0;
  int64_t commit_start_ns_ = 0;
};

}  // namespace park

#endif  // PARK_CORE_OBSERVER_H_

#include "core/observer.h"

#include <exception>
#include <ostream>

#include "core/park_evaluator.h"
#include "util/logging.h"

namespace park {

void ObserverHook::ReportObserverFailure() {
  // Re-raise the in-flight exception to name it in the log; observers are
  // diagnostics, so their failures must never fail the evaluation.
  try {
    throw;
  } catch (const std::exception& e) {
    PARK_LOG(kWarning) << "RunObserver callback threw ("
                       << e.what() << "); observer detached for the rest "
                       << "of this run";
  } catch (...) {
    PARK_LOG(kWarning) << "RunObserver callback threw; observer detached "
                       << "for the rest of this run";
  }
}

// --- TracingObserver -----------------------------------------------------

void TracingObserver::OnRunStart(const RunStartInfo& info) {
  out_ << "[park] run start: " << info.num_rules << " rule(s), "
       << info.num_threads << " thread(s)\n";
}

void TracingObserver::OnStepStart(int step) {
  out_ << "[park] step " << step << " begin\n";
}

void TracingObserver::OnGammaSection(const GammaSectionInfo& info) {
  out_ << "[park] step " << info.step << ": gamma rules="
       << info.rules_evaluated << " derivations=" << info.derivations
       << " new_marks=" << info.newly_marked
       << (info.consistent ? " consistent" : " INCONSISTENT") << "\n";
}

void TracingObserver::OnPlanCompiled(const PlanExplanation& explanation) {
  out_ << "[park] " << ExplainPlanLine(explanation) << "\n";
}

void TracingObserver::OnPolicyDecision(const Conflict& conflict,
                                       Vote vote) {
  out_ << "[park]   select " << VoteToString(vote);
  if (symbols_ != nullptr) {
    out_ << " on " << conflict.atom.ToString(*symbols_);
  }
  out_ << " (ins=" << conflict.inserters().size()
       << " del=" << conflict.deleters().size() << ")\n";
}

void TracingObserver::OnConflictRound(const ConflictRoundInfo& info) {
  out_ << "[park] conflict round " << info.restart << ": "
       << info.conflicts << " conflict(s), " << info.newly_blocked
       << " newly blocked\n";
}

void TracingObserver::OnRestart(size_t restart) {
  out_ << "[park] restart #" << restart << " (marks cleared)\n";
}

void TracingObserver::OnFixpoint(int step) {
  out_ << "[park] fixpoint at step " << step << "\n";
}

void TracingObserver::OnRunEnd(const ParkStats& stats) {
  out_ << "[park] run end: " << stats.gamma_steps << " step(s), "
       << stats.restarts << " restart(s), " << stats.derived_marks
       << " mark(s)\n";
}

void TracingObserver::OnCommitStart(size_t updates) {
  out_ << "[park] commit start: " << updates << " update(s)\n";
}

void TracingObserver::OnCommitEnd(const CommitEndInfo& info) {
  out_ << "[park] commit end: +" << info.inserted << " -" << info.deleted
       << ", " << info.restarts << " restart(s)";
  if (info.journal_seq != 0) out_ << ", journal seq " << info.journal_seq;
  out_ << "\n";
}

void TracingObserver::OnJournalAppend(uint64_t seq) {
  out_ << "[park] journal append seq " << seq << "\n";
}

void TracingObserver::OnCheckpoint(uint64_t seq) {
  out_ << "[park] checkpoint at seq " << seq << "\n";
}

void TracingObserver::OnBatchCommit(const BatchCommitInfo& info) {
  out_ << "[park] batch " << info.batch_seq << ": " << info.txns
       << " txn(s)";
  if (info.journal_seq != 0) out_ << ", journal seq " << info.journal_seq;
  if (info.poisoned) out_ << ", POISONED (members retried individually)";
  out_ << "\n";
}

void TracingObserver::OnSnapshotOpen(uint64_t journal_seq) {
  out_ << "[park] snapshot open at seq " << journal_seq << "\n";
}

void TracingObserver::OnSnapshotRelease(uint64_t journal_seq) {
  out_ << "[park] snapshot release at seq " << journal_seq << "\n";
}

// --- MetricsObserver -----------------------------------------------------

MetricsObserver::MetricsObserver(MetricsRegistry* registry)
    : registry_(registry),
      runs_(registry->GetCounter("park.runs")),
      steps_(registry->GetCounter("park.steps")),
      gamma_sections_(registry->GetCounter("park.gamma_sections")),
      derivations_(registry->GetCounter("park.derivations")),
      new_marks_(registry->GetCounter("park.new_marks")),
      inconsistent_sections_(
          registry->GetCounter("park.inconsistent_sections")),
      policy_votes_insert_(
          registry->GetCounter("park.policy_votes_insert")),
      policy_votes_delete_(
          registry->GetCounter("park.policy_votes_delete")),
      conflict_rounds_(registry->GetCounter("park.conflict_rounds")),
      conflicts_(registry->GetCounter("park.conflicts")),
      newly_blocked_(registry->GetCounter("park.newly_blocked")),
      restarts_(registry->GetCounter("park.restarts")),
      fixpoints_(registry->GetCounter("park.fixpoints")),
      commits_(registry->GetCounter("park.commits")),
      commit_inserted_(registry->GetCounter("park.commit_inserted")),
      commit_deleted_(registry->GetCounter("park.commit_deleted")),
      journal_appends_(registry->GetCounter("park.journal_appends")),
      checkpoints_(registry->GetCounter("park.checkpoints")),
      batches_(registry->GetCounter("park.batches")),
      batched_txns_(registry->GetCounter("park.batched_txns")),
      poisoned_batches_(registry->GetCounter("park.poisoned_batches")),
      snapshots_opened_(registry->GetCounter("park.snapshots_opened")),
      snapshots_released_(registry->GetCounter("park.snapshots_released")),
      run_timer_(registry->GetTimer("park.run")),
      commit_timer_(registry->GetTimer("park.commit")) {}

void MetricsObserver::OnRunStart(const RunStartInfo& info) {
  (void)info;
  runs_->Add();
  if (registry_->enabled()) run_start_ns_ = MonotonicNanos();
}

void MetricsObserver::OnStepStart(int step) {
  (void)step;
  steps_->Add();
}

void MetricsObserver::OnGammaSection(const GammaSectionInfo& info) {
  gamma_sections_->Add();
  derivations_->Add(info.derivations);
  new_marks_->Add(info.newly_marked);
  if (!info.consistent) inconsistent_sections_->Add();
}

void MetricsObserver::OnPolicyDecision(const Conflict& conflict,
                                       Vote vote) {
  (void)conflict;
  if (vote == Vote::kInsert) {
    policy_votes_insert_->Add();
  } else if (vote == Vote::kDelete) {
    policy_votes_delete_->Add();
  }
}

void MetricsObserver::OnConflictRound(const ConflictRoundInfo& info) {
  conflict_rounds_->Add();
  conflicts_->Add(info.conflicts);
  newly_blocked_->Add(info.newly_blocked);
}

void MetricsObserver::OnRestart(size_t restart) {
  (void)restart;
  restarts_->Add();
}

void MetricsObserver::OnFixpoint(int step) {
  (void)step;
  fixpoints_->Add();
}

void MetricsObserver::OnRunEnd(const ParkStats& stats) {
  (void)stats;
  if (registry_->enabled()) {
    run_timer_->Record(
        static_cast<uint64_t>(MonotonicNanos() - run_start_ns_));
  }
}

void MetricsObserver::OnCommitStart(size_t updates) {
  (void)updates;
  commits_->Add();
  if (registry_->enabled()) commit_start_ns_ = MonotonicNanos();
}

void MetricsObserver::OnCommitEnd(const CommitEndInfo& info) {
  commit_inserted_->Add(info.inserted);
  commit_deleted_->Add(info.deleted);
  if (registry_->enabled()) {
    commit_timer_->Record(
        static_cast<uint64_t>(MonotonicNanos() - commit_start_ns_));
  }
}

void MetricsObserver::OnJournalAppend(uint64_t seq) {
  (void)seq;
  journal_appends_->Add();
}

void MetricsObserver::OnCheckpoint(uint64_t seq) {
  (void)seq;
  checkpoints_->Add();
}

void MetricsObserver::OnBatchCommit(const BatchCommitInfo& info) {
  batches_->Add();
  batched_txns_->Add(info.txns);
  if (info.poisoned) poisoned_batches_->Add();
}

void MetricsObserver::OnSnapshotOpen(uint64_t journal_seq) {
  (void)journal_seq;
  snapshots_opened_->Add();
}

void MetricsObserver::OnSnapshotRelease(uint64_t journal_seq) {
  (void)journal_seq;
  snapshots_released_->Add();
}

}  // namespace park

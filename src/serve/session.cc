#include "serve/session.h"

#include <map>
#include <utility>

#include "util/logging.h"

namespace park {

Session::Session(ActiveDatabase db, size_t max_group_size)
    : db_(std::move(db)),
      max_group_size_(max_group_size == 0 ? 1 : max_group_size),
      shared_(std::make_shared<serve_internal::ServingShared>()) {
  shared_->observer = db_.options().observer;
  std::lock_guard<std::mutex> lock(commit_mutex_);
  PublishAllLocked();
}

Session::~Session() {
  // Snapshots may outlive the session; cut the observer loose so their
  // release accounting cannot call into freed memory.
  std::lock_guard<std::mutex> lock(shared_->mutex);
  shared_->observer = nullptr;
}

Result<std::unique_ptr<Session>> Session::Create(Params params) {
  ActiveDatabase db(params.symbols);
  if (!params.rules.empty()) {
    PARK_RETURN_IF_ERROR(
        db.LoadRules(params.rules).WithContext("installing rules"));
  }
  PARK_RETURN_IF_ERROR(
      db.Configure(std::move(params.options)).WithContext("Session::Create"));
  return std::unique_ptr<Session>(
      new Session(std::move(db), params.max_group_size));
}

Result<std::unique_ptr<Session>> Session::Open(const std::string& dir,
                                               Params params) {
  ActiveDatabase::OpenParams open;
  open.rules = std::move(params.rules);
  open.symbols = std::move(params.symbols);
  open.env = params.env;
  open.sync_mode = params.sync_mode;
  open.options = std::move(params.options);
  PARK_ASSIGN_OR_RETURN(ActiveDatabase db,
                        ActiveDatabase::Open(dir, std::move(open)));
  return std::unique_ptr<Session>(
      new Session(std::move(db), params.max_group_size));
}

Transaction Session::Begin() { return Transaction(this, db_.symbols()); }

CommitResult Session::Stabilize() {
  std::lock_guard<std::mutex> lock(commit_mutex_);
  CommitResult result = db_.Stabilize();
  if (result.ok()) {
    const CommitReport* diff = &*result;
    PublishDiffsLocked({&diff, 1});
  }
  return result;
}

Status Session::LoadFacts(std::string_view facts_text) {
  std::lock_guard<std::mutex> lock(commit_mutex_);
  Status loaded = db_.LoadFacts(facts_text);
  // A load that fails part-way keeps the atoms parsed before the error,
  // so publish in either case: the published generation always equals
  // the committed database, which the next commit's diff applies to.
  PublishAllLocked();
  return loaded;
}

Status Session::Checkpoint() {
  std::lock_guard<std::mutex> lock(commit_mutex_);
  return db_.Checkpoint();
}

uint64_t Session::durable_seq() const {
  std::lock_guard<std::mutex> lock(commit_mutex_);
  return db_.durable_seq();
}

park::Snapshot Session::Snapshot() {
  std::shared_ptr<const serve_internal::SnapshotState> state;
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    state = current_;
  }
  auto ticket = std::make_shared<serve_internal::SnapshotTicket>();
  ticket->journal_seq = state->journal_seq;
  ticket->generation = state->generation;
  ticket->shared = shared_;
  RunObserver* observer = nullptr;
  {
    std::lock_guard<std::mutex> lock(shared_->mutex);
    ++shared_->snapshots_opened;
    ++shared_->snapshots_pinned;
    ++shared_->pinned_generations[state->generation];
    observer = shared_->observer;
  }
  ObserverHook hook(observer);
  hook.Notify([&](RunObserver& o) { o.OnSnapshotOpen(state->journal_seq); });
  return park::Snapshot(std::move(state), std::move(ticket));
}

Result<QueryResult> Session::Query(std::string_view pattern_text) {
  std::shared_ptr<const serve_internal::SnapshotState> state;
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    state = current_;
  }
  return park::Snapshot(std::move(state), nullptr).Query(pattern_text);
}

ParkStats::ServingCounters Session::serving_stats() const {
  std::lock_guard<std::mutex> lock(commit_mutex_);
  ParkStats::ServingCounters counters = batch_counters_;
  std::lock_guard<std::mutex> shared_lock(shared_->mutex);
  counters.snapshots_opened = shared_->snapshots_opened;
  counters.snapshots_pinned = shared_->snapshots_pinned;
  counters.segment_generations_retained = shared_->pinned_generations.size();
  return counters;
}

CommitResult Session::CommitThrough(UpdateSet updates) {
  PendingCommit request;
  request.updates = std::move(updates);

  std::unique_lock<std::mutex> queue_lock(queue_mutex_);
  queue_.push_back(&request);
  while (!request.done) {
    if (commit_in_progress_) {
      // A leader is running a batch; it marks our entry done (if drained)
      // and notifies when leadership frees up.
      group_cv_.wait(queue_lock);
      continue;
    }
    // Become the leader: drain up to max_group_size_ queued commits
    // (FIFO, so every earlier arrival folds in before ours) and run them
    // as one batch. If the queue outran the cap and our own entry was
    // not drained, loop and lead again.
    commit_in_progress_ = true;
    std::vector<PendingCommit*> batch;
    while (!queue_.empty() && batch.size() < max_group_size_) {
      batch.push_back(queue_.front());
      queue_.pop_front();
    }
    queue_lock.unlock();
    RunBatch(batch);
    queue_lock.lock();
    for (PendingCommit* member : batch) member->done = true;
    commit_in_progress_ = false;
    group_cv_.notify_all();
  }
  return std::move(*request.result);
}

void Session::RunBatch(std::vector<PendingCommit*>& batch) {
  std::lock_guard<std::mutex> lock(commit_mutex_);
  const uint64_t batch_seq = ++batch_seq_;
  const size_t k = batch.size();

  bool poisoned = false;
  uint64_t journal_seq = 0;

  // Fold U1 ∪ ... ∪ Uk: one deterministic firing, one journal record.
  // UpdateSet dedups, so overlapping members fold cleanly.
  UpdateSet folded = batch[0]->updates;
  for (size_t i = 1; i < k; ++i) {
    for (const Update& update : batch[i]->updates.updates()) {
      folded.Add(update.action, update.atom);
    }
  }
  CommitResult result = db_.CommitUpdates(folded, k);
  if (result.ok()) {
    journal_seq = result->journal_seq;
    batch_counters_.RecordBatch(k);
    // Published first, so that the last member can take the folded
    // report by move: a batch of k members copies it k - 1 times.
    const CommitReport* diff = &*result;
    PublishDiffsLocked({&diff, 1});
    for (size_t i = 0; i < k; ++i) {
      // Every member reports the whole batch's effect (the firing is one
      // PARK run) plus its own placement within the batch.
      CommitReport member_report =
          i + 1 < k ? *result : std::move(result).value();
      member_report.batch_seq = batch_seq;
      member_report.batch_size = static_cast<uint32_t>(k);
      member_report.batch_position = static_cast<uint32_t>(i);
      batch[i]->result =
          std::make_unique<CommitResult>(std::move(member_report));
    }
  } else if (k == 1) {
    batch[0]->result = std::make_unique<CommitResult>(std::move(result));
  } else {
    // Poisoned batch: the folded firing failed (conflicting members, a
    // budget, ...). Fall back to committing members individually in
    // arrival order so one bad transaction cannot fail its batchmates;
    // each retry is its own firing and journal record.
    poisoned = true;
    ++batch_counters_.poisoned_batches;
    std::vector<const CommitReport*> diffs;  // the committed ones, in order
    for (PendingCommit* member : batch) {
      CommitResult member_result = db_.CommitUpdates(member->updates, 1);
      ++batch_counters_.individual_retries;
      if (member_result.ok()) {
        journal_seq = member_result->journal_seq;
        member_result->batch_seq = batch_seq;
        batch_counters_.RecordBatch(1);
      }
      member->result = std::make_unique<CommitResult>(std::move(member_result));
      if (member->result->ok()) diffs.push_back(&**member->result);
    }
    if (!diffs.empty()) PublishDiffsLocked(diffs);
  }

  // Stamp the serving counters (batch + snapshot lifecycle) into every
  // successful member's stats so one report renders a complete
  // park-stats-v1 document.
  {
    ParkStats::ServingCounters counters = batch_counters_;
    {
      std::lock_guard<std::mutex> shared_lock(shared_->mutex);
      counters.snapshots_opened = shared_->snapshots_opened;
      counters.snapshots_pinned = shared_->snapshots_pinned;
      counters.segment_generations_retained =
          shared_->pinned_generations.size();
    }
    for (PendingCommit* member : batch) {
      if (member->result != nullptr && member->result->ok()) {
        (*member->result)->stats.serving = counters;
      }
    }
  }

  ObserverHook hook(db_.options().observer);
  hook.Notify([&](RunObserver& o) {
    o.OnBatchCommit(BatchCommitInfo{batch_seq, k, journal_seq, poisoned});
  });
}

void Session::PublishDiffsLocked(std::span<const CommitReport* const> diffs) {
  auto state = std::make_shared<serve_internal::SnapshotState>();
  state->relations = current_->relations;
  for (const CommitReport* report : diffs) {
    // One commit's diff, grouped by predicate.
    struct PredicateDiff {
      std::vector<const GroundAtom*> inserted;
      std::vector<const GroundAtom*> deleted;
    };
    std::map<PredicateId, PredicateDiff> touched;
    for (const GroundAtom& atom : report->inserted) {
      touched[atom.predicate()].inserted.push_back(&atom);
    }
    for (const GroundAtom& atom : report->deleted) {
      touched[atom.predicate()].deleted.push_back(&atom);
    }
    for (const auto& [pred, diff] : touched) {
      std::shared_ptr<const serve_internal::PublishedRelation>& rel =
          state->relations[pred];
      if (rel == nullptr) {
        const GroundAtom& any = diff.inserted.empty() ? *diff.deleted[0]
                                                      : *diff.inserted[0];
        rel = serve_internal::PublishedRelation::Empty(any.arity());
      }
      rel = rel->WithDiff(diff.inserted, diff.deleted);
    }
  }
  Install(std::move(state));
}

void Session::PublishAllLocked() {
  auto state = std::make_shared<serve_internal::SnapshotState>();
  db_.database().ForEachRelation([&](PredicateId pred, const Relation& rel) {
    state->relations.emplace(pred,
                             serve_internal::PublishedRelation::Build(rel));
  });
  Install(std::move(state));
}

void Session::Install(std::shared_ptr<serve_internal::SnapshotState> state) {
  state->journal_seq = db_.durable_seq();
  state->generation = ++generation_;
  state->symbols = db_.symbols();
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  current_ = std::move(state);
}

}  // namespace park

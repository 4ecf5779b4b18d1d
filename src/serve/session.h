// Session: the thread-safe serving front-end of the library
// (docs/SERVING.md) — THE supported entry point for concurrent use.
//
// A Session owns an ActiveDatabase and fronts it with:
//
//   - Snapshot-isolated reads: Snapshot() pins the current published
//     generation, each relation a shared base run plus a small overlay
//     built from the commits' diffs; any number of readers query it
//     lock-free and wait-free while commits proceed (src/serve/snapshot.h).
//   - Group commit: concurrent Transaction::Commit() calls queue up; one
//     caller becomes the batch leader, folds every queued update set into
//     ONE PARK(D, P, U1 ∪ ... ∪ Uk) firing and ONE journal append +
//     fsync, and distributes per-transaction CommitReports (batch id and
//     position included). PARK's determinism (paper §3) makes the folded
//     firing equivalent to any serialization of compatible members; a
//     poisoned batch (the folded firing fails) falls back to committing
//     its members individually in arrival order, so no transaction's
//     failure can corrupt its batchmates.
//
// Example (threads share one session):
//   park::Session::Params params;
//   params.rules = "emp(X), !active(X), payroll(X, S) -> -payroll(X, S).";
//   auto session = park::Session::Open("/var/lib/park/payroll",
//                                      std::move(params)).value();
//   // writer threads:
//   auto tx = session->Begin();
//   tx.Insert("emp", {"jane"});
//   auto report = std::move(tx).Commit();   // may be batched
//   // reader threads:
//   auto snap = session->Snapshot();
//   auto hits = snap.Query("payroll(X, S)").value();

#ifndef PARK_SERVE_SESSION_H_
#define PARK_SERVE_SESSION_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "eca/active_database.h"
#include "serve/snapshot.h"

namespace park {

/// Configuration for Session::Create/Open. The replay-stable knobs inside
/// `options` (policy, block_granularity) must match across Opens of the
/// same directory, exactly as for ActiveDatabase::Open; batching adds NO
/// new replay-stable knobs — a journal written with any max_group_size
/// replays identically under any other, because a batch is one ordinary
/// (folded) journal record.
/// (Namespace-scope so `= {}` default arguments work; spelled
/// Session::Params in client code.)
struct SessionParams {
  /// Program text installed before recovery (may be empty).
  std::string rules;
  /// Symbol table to share; null creates a fresh one.
  std::shared_ptr<SymbolTable> symbols;
  /// Filesystem to use; null means Env::Default() (Open only).
  Env* env = nullptr;
  /// Durability of each batch's journal record (Open only).
  JournalSyncMode sync_mode = JournalSyncMode::kFsync;
  /// Full evaluation-options bundle (validated via Configure).
  ParkOptions options;
  /// Most transactions one group commit may fold. 1 disables batching
  /// (every commit pays its own firing and fsync).
  size_t max_group_size = 64;
};

class Session : public CommitSink {
 public:
  using Params = SessionParams;

  /// In-memory session (no journal; Checkpoint unavailable).
  static Result<std::unique_ptr<Session>> Create(Params params = {});

  /// Durable session over ActiveDatabase::Open(dir): loads the snapshot,
  /// replays the journal (batch records replay as single folded commits,
  /// bit-identical to the original group firing), attaches the journal.
  static Result<std::unique_ptr<Session>> Open(const std::string& dir,
                                               Params params = {});

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session() override;

  const std::shared_ptr<SymbolTable>& symbols() const {
    return db_.symbols();
  }

  // --- writes ---

  /// Starts a transaction bound to this session's commit pipeline.
  /// Thread-safe; any number of transactions may be in flight and
  /// Commit() concurrently.
  Transaction Begin();

  /// Runs the rules with NO user updates (ActiveDatabase::Stabilize),
  /// serialized with the commit pipeline.
  CommitResult Stabilize();

  /// Bulk-loads fact text WITHOUT firing rules, then republishes the
  /// read snapshot. Setup-time convenience; serialized with commits.
  Status LoadFacts(std::string_view facts_text);

  // --- reads ---

  /// Pins and returns the current committed state. O(#relations), never
  /// blocks behind an in-flight commit's evaluation (only behind the
  /// pointer swap that publishes one).
  park::Snapshot Snapshot();

  /// One-shot query against the current committed state (equivalent to
  /// Snapshot().Query(pattern_text) without the pin accounting).
  Result<QueryResult> Query(std::string_view pattern_text);

  // --- maintenance / introspection ---

  /// Checkpoints the underlying database (snapshot + journal truncation),
  /// serialized with the commit pipeline. Requires Open().
  Status Checkpoint();

  /// Sequence number of the newest durable transaction (0 if in-memory).
  uint64_t durable_seq() const;

  /// Live serving counters (group-commit + snapshot lifecycle); the
  /// park-stats-v1 "serving" block. Each committed transaction's report
  /// also carries these in CommitReport::stats.serving as of its batch.
  ParkStats::ServingCounters serving_stats() const;

  size_t max_group_size() const { return max_group_size_; }

  /// CommitSink implementation — Transaction::Commit() lands here; not
  /// meant to be called directly.
  CommitResult CommitThrough(UpdateSet updates) override;

 private:
  explicit Session(ActiveDatabase db, size_t max_group_size);

  /// One queued Transaction::Commit() call.
  struct PendingCommit {
    UpdateSet updates;
    std::unique_ptr<CommitResult> result;
    bool done = false;
  };

  /// Leader path: commits `batch` as one folded firing (or retries its
  /// members individually when poisoned) and fills every member's
  /// result. Takes commit_mutex_ internally.
  void RunBatch(std::vector<PendingCommit*>& batch);

  /// Publishes the next generation: the current one with each of
  /// `diffs` applied in order to the relations it touches; the others
  /// are shared. Caller holds commit_mutex_.
  void PublishDiffsLocked(std::span<const CommitReport* const> diffs);

  /// Publishes a generation built in full from the committed database
  /// (construction and LoadFacts). Caller holds commit_mutex_.
  void PublishAllLocked();

  /// Installs `state` as the generation new snapshots pin.
  void Install(std::shared_ptr<serve_internal::SnapshotState> state);

  ActiveDatabase db_;
  const size_t max_group_size_;

  /// Serializes access to db_ (batch leaders, Checkpoint, LoadFacts).
  mutable std::mutex commit_mutex_;
  uint64_t batch_seq_ = 0;    // completed batches, 1-based ids
  uint64_t generation_ = 0;   // snapshot publishes
  ParkStats::ServingCounters batch_counters_;  // guarded by commit_mutex_

  /// Group-commit queue. commit_in_progress_ marks an active leader;
  /// followers wait on group_cv_ until their entry is done or leadership
  /// frees up.
  std::mutex queue_mutex_;
  std::condition_variable group_cv_;
  bool commit_in_progress_ = false;
  std::deque<PendingCommit*> queue_;

  /// Published read state. Written only by publication, which holds
  /// commit_mutex_ too, so a publisher reads it without snapshot_mutex_.
  std::mutex snapshot_mutex_;
  std::shared_ptr<const serve_internal::SnapshotState> current_;

  /// Snapshot accounting shared with issued handles (outlives *this).
  std::shared_ptr<serve_internal::ServingShared> shared_;
};

}  // namespace park

#endif  // PARK_SERVE_SESSION_H_

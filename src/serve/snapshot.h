// Snapshot: an immutable, refcounted, point-in-time view of a served
// database (docs/SERVING.md).
//
// A Snapshot pins the generation of published relations that was current
// when Session::Snapshot() was called. Every relation is held by
// shared_ptr as a base run plus an overlay (serve/published_relation.h),
// so reads are lock-free and wait-free: no reader ever blocks a commit or
// takes the session's locks. A later commit publishes new overlays (and
// now and then a new base) beside the pinned ones and never changes
// them; what the pin holds lives until the last Snapshot holding it
// drops. Published relations copy their rows out of the database, so a
// Snapshot stays fully readable after arbitrary later commits, after a
// Checkpoint, and even after the issuing Session has been destroyed.
//
// Consistency: a Snapshot observes exactly the state produced by some
// prefix of the committed transaction sequence — never a partially
// applied commit, never an uncommitted batch (oracle-checked in
// tests/serving_oracle_test.cc against a sequential replay).

#ifndef PARK_SERVE_SNAPSHOT_H_
#define PARK_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "lang/query.h"
#include "serve/published_relation.h"
#include "storage/symbol_table.h"

namespace park {

class RunObserver;
class Session;

namespace serve_internal {

/// Accounting state shared between a Session and every Snapshot it
/// issued, so snapshots outliving the session can still record their
/// release. The observer pointer is nulled when the session dies.
struct ServingShared {
  std::mutex mutex;
  RunObserver* observer = nullptr;
  uint64_t snapshots_opened = 0;
  uint64_t snapshots_pinned = 0;
  /// generation -> live snapshots pinning it (distinct keys = retained
  /// generations).
  std::map<uint64_t, uint64_t> pinned_generations;
};

/// The immutable state one snapshot generation pins. Built by the
/// session under its commit lock, then shared read-only.
struct SnapshotState {
  uint64_t journal_seq = 0;  // newest durable txn folded in (0: no journal)
  uint64_t generation = 0;   // session-wide publish counter, 1-based
  std::shared_ptr<SymbolTable> symbols;
  /// Every published relation. A generation shares the relations a
  /// commit did not touch with the generation before it.
  std::unordered_map<PredicateId, std::shared_ptr<const PublishedRelation>>
      relations;
};

/// One issued Snapshot's refcount token: copies of a Snapshot share it,
/// and the last copy's destruction releases the pin (accounting + the
/// OnSnapshotRelease observer event).
struct SnapshotTicket {
  uint64_t journal_seq = 0;
  uint64_t generation = 0;
  std::shared_ptr<ServingShared> shared;
  ~SnapshotTicket();
};

}  // namespace serve_internal

/// Copyable handle; all copies read the same pinned state. Thread-safe:
/// any number of threads may query the same Snapshot concurrently.
class Snapshot {
 public:
  Snapshot() = default;  // empty handle; valid() is false

  bool valid() const { return state_ != nullptr; }

  /// Journal sequence number of the newest transaction this snapshot
  /// includes (0 for an in-memory session's pre-commit state).
  uint64_t journal_seq() const { return state_->journal_seq; }

  /// The session's publish counter when this snapshot was taken; two
  /// snapshots with equal generation pin the very same relations.
  uint64_t generation() const { return state_->generation; }

  const std::shared_ptr<SymbolTable>& symbols() const {
    return state_->symbols;
  }

  /// Number of atoms across all predicates.
  size_t size() const;
  bool empty() const { return size() == 0; }

  bool Contains(const GroundAtom& atom) const;

  /// Pattern query (lang/query.h semantics) against the pinned state:
  ///   snapshot.Query("payroll(X, S)")
  /// Same results as QueryDatabase against the database at this
  /// snapshot's commit boundary, bit-identical ordering included.
  Result<QueryResult> Query(std::string_view pattern_text) const;

  /// True iff at least one atom matches (`exists` query).
  Result<bool> Matches(std::string_view pattern_text) const;

  /// All atoms as sorted, rendered strings — deterministic; the oracle
  /// tests compare these against a sequential replay.
  std::vector<std::string> SortedAtomStrings() const;

  /// "{p(a), q(a, b)}" with atoms sorted by rendered text.
  std::string ToString() const;

 private:
  friend class Session;
  Snapshot(std::shared_ptr<const serve_internal::SnapshotState> state,
           std::shared_ptr<serve_internal::SnapshotTicket> ticket)
      : state_(std::move(state)), ticket_(std::move(ticket)) {}

  std::shared_ptr<const serve_internal::SnapshotState> state_;
  std::shared_ptr<serve_internal::SnapshotTicket> ticket_;
};

}  // namespace park

#endif  // PARK_SERVE_SNAPSHOT_H_

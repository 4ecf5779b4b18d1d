// Transaction: a unit of user updates evaluated atomically under the PARK
// semantics at commit time. Produced by ActiveDatabase::Begin() (direct,
// single-caller) or Session::Begin() (concurrent serving — the commit is
// routed through the session's group-commit pipeline; docs/SERVING.md).

#ifndef PARK_ECA_TRANSACTION_H_
#define PARK_ECA_TRANSACTION_H_

#include <memory>
#include <optional>

#include "eca/update.h"

namespace park {

class ActiveDatabase;
class Session;

/// Wall-clock decomposition of one commit's pipeline. Always collected —
/// a commit is macro-scale work, so the handful of clock reads is noise
/// (the *intra-evaluation* phase timers stay behind
/// ParkOptions::collect_timings; see CommitReport::stats.timings).
struct CommitTimings {
  uint64_t total_ns = 0;
  uint64_t evaluate_ns = 0;      // the PARK(D, P, U) fixpoint
  uint64_t apply_ns = 0;         // diff + in-place instance update
  uint64_t journal_ns = 0;       // journal append, incl. sync
  uint64_t journal_sync_ns = 0;  // flush/fsync portion of journal_ns
};

/// Structured post-mortem of a failed commit, carried on the error path
/// of CommitResult (failure()). `rolled_back` is true whenever the stored
/// instance was restored to its pre-commit state — which is every failure
/// path, so the database stays usable (and consistent with its durable
/// history) without reopening.
struct CommitFailure {
  enum class Stage {
    kEvaluate,  // PARK(D, P, U) failed (deadline, budget, abstention, ...)
    kJournal,   // durability failed after retries; in-memory diff undone
  };

  Stage stage = Stage::kEvaluate;
  Status cause = Status::OK();
  /// Journal write attempts, first try included (0 outside kJournal).
  int journal_attempts = 0;
  bool rolled_back = true;
};

/// What a commit did. The commit is atomic: either the whole report
/// applies or (on error) nothing changed.
struct CommitReport {
  /// Atoms actually added to / removed from the stored database.
  std::vector<GroundAtom> inserted;
  std::vector<GroundAtom> deleted;
  /// Evaluation counters (restarts > 0 means conflicts were resolved).
  ParkStats stats;
  /// Full trace at the ActiveDatabase's configured trace level.
  Trace trace;
  /// Commit-pipeline phase times (evaluate / apply / journal / sync).
  CommitTimings timings;
  /// Journal sequence number of this commit's record; 0 when the
  /// database has no journal attached. Every member of a group commit
  /// reports the batch's (single) record.
  uint64_t journal_seq = 0;
  /// Group-commit placement (serve::Session, docs/SERVING.md): which
  /// batch this transaction was folded into, how many transactions the
  /// batch held, and this transaction's 0-based arrival position within
  /// it. Direct (non-Session) commits report batch_seq 0 / size 1 /
  /// position 0; a Session batch of one keeps its real batch_seq with
  /// size 1 / position 0. For a batch's atoms, `inserted`/`deleted` list
  /// the whole folded batch's effect — the firing is one PARK run, so
  /// per-member attribution does not exist by construction.
  uint64_t batch_seq = 0;
  uint32_t batch_size = 1;
  uint32_t batch_position = 0;
};

/// The outcome of Commit(): a CommitReport on success, or a Status plus
/// the structured CommitFailure post-mortem on error — no side-channel
/// getter to pair with. Interface-compatible with Result<CommitReport>
/// (ok/status/value/operator*/operator->), so existing `auto report =
/// std::move(tx).Commit()` call sites keep working unchanged.
class CommitResult {
 public:
  /*implicit*/ CommitResult(CommitReport report)
      : report_(std::move(report)) {}
  CommitResult(Status status, CommitFailure failure)
      : status_(std::move(status)), failure_(std::move(failure)) {}

  bool ok() const { return report_.has_value(); }
  /// OK on success; the commit's error otherwise.
  const Status& status() const { return status_; }

  /// Post-mortem of the failed commit: which pipeline stage failed, the
  /// cause, and whether the instance was rolled back. Engaged iff !ok().
  const std::optional<CommitFailure>& failure() const { return failure_; }

  // Report access; the result must be ok().
  CommitReport& operator*() & { return *report_; }
  const CommitReport& operator*() const& { return *report_; }
  CommitReport&& operator*() && { return *std::move(report_); }
  CommitReport* operator->() { return &*report_; }
  const CommitReport* operator->() const { return &*report_; }
  CommitReport& value() & { return *report_; }
  const CommitReport& value() const& { return *report_; }
  CommitReport&& value() && { return *std::move(report_); }

 private:
  Status status_ = Status::OK();
  std::optional<CommitReport> report_;
  std::optional<CommitFailure> failure_;
};

/// Where a Session-bound transaction's staged updates go at Commit().
/// The serving layer implements this with its group-commit pipeline;
/// the indirection exists because eca cannot depend on serve.
class CommitSink {
 public:
  virtual ~CommitSink() = default;
  /// Takes ownership of the staged updates; blocks until the updates are
  /// committed (possibly folded into a batch with concurrent commits)
  /// or rejected.
  virtual CommitResult CommitThrough(UpdateSet updates) = 0;
};

/// A pending set of updates against an ActiveDatabase. Move-only; commit
/// or abandon. Updates are collected eagerly but nothing touches the
/// stored database until Commit.
///
/// A Transaction handle is not itself thread-safe (stage from one thread,
/// or hand it off with a happens-before edge); any number of transactions
/// from the same Session may Commit() concurrently.
class Transaction {
 public:
  Transaction(Transaction&&) = default;
  Transaction& operator=(Transaction&&) = default;
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Stages an insertion/deletion of a ground atom.
  Transaction& Insert(const GroundAtom& atom);
  Transaction& Delete(const GroundAtom& atom);

  /// Convenience: interns and stages `predicate(args...)`.
  Transaction& Insert(std::string_view predicate,
                      const std::vector<std::string>& args);
  Transaction& Delete(std::string_view predicate,
                      const std::vector<std::string>& args);

  /// Stages a parsed "+p(a)" / "-q(b)" update.
  Status Stage(std::string_view update_text);

  const UpdateSet& pending() const { return updates_; }

  /// Runs PARK(D, P, U) and atomically replaces the stored database with
  /// the result; Session-bound transactions route through the session's
  /// group-commit pipeline instead of committing directly. The
  /// transaction must not be reused afterwards.
  CommitResult Commit() &&;

 private:
  friend class ActiveDatabase;
  friend class Session;
  explicit Transaction(ActiveDatabase* db);
  Transaction(CommitSink* sink, std::shared_ptr<SymbolTable> symbols);

  GroundAtom MakeAtom(std::string_view predicate,
                      const std::vector<std::string>& args);

  ActiveDatabase* db_ = nullptr;
  CommitSink* sink_ = nullptr;
  std::shared_ptr<SymbolTable> symbols_;
  UpdateSet updates_;
};

}  // namespace park

#endif  // PARK_ECA_TRANSACTION_H_

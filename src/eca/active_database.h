// ActiveDatabase: the user-facing facade of the library — a database
// instance plus a set of active rules and a conflict-resolution policy.
// Transactions committed against it are evaluated with the full ECA PARK
// semantics PARK(D, P, U).
//
// Example:
//   auto symbols = park::MakeSymbolTable();
//   park::ActiveDatabase db(symbols);
//   PARK_RETURN_IF_ERROR(db.LoadRules("emp(X), !active(X), payroll(X, S)"
//                                     " -> -payroll(X, S)."));
//   PARK_RETURN_IF_ERROR(db.LoadFacts("emp(john). payroll(john, 5000)."));
//   auto tx = db.Begin();
//   tx.Insert("emp", {"jane"});
//   auto report = std::move(tx).Commit();
//
// Durable example (crash-safe; see docs/DURABILITY.md):
//   park::ActiveDatabase::OpenParams params;
//   params.rules = "...";
//   auto db = park::ActiveDatabase::Open("/var/lib/park/payroll", params);
//   ... std::move(tx).Commit() ...   // journaled
//   db->Checkpoint();                // snapshot + journal truncation

#ifndef PARK_ECA_ACTIVE_DATABASE_H_
#define PARK_ECA_ACTIVE_DATABASE_H_

#include <optional>

#include "core/maintenance.h"
#include "core/stepper.h"
#include "eca/journal.h"
#include "eca/transaction.h"

namespace park {

class ActiveDatabase {
 public:
  /// Creates an empty active database. If `symbols` is null a fresh table
  /// is created.
  explicit ActiveDatabase(std::shared_ptr<SymbolTable> symbols = nullptr);

  ActiveDatabase(const ActiveDatabase&) = delete;
  ActiveDatabase& operator=(const ActiveDatabase&) = delete;
  ActiveDatabase(ActiveDatabase&&) = default;
  ActiveDatabase& operator=(ActiveDatabase&&) = default;

  const std::shared_ptr<SymbolTable>& symbols() const {
    return database_.symbols();
  }

  // --- rule management ---

  /// Parses and installs rules (appended to the existing program).
  Status LoadRules(std::string_view program_text);
  /// Installs one already-built rule.
  Status AddRule(Rule rule);
  const Program& program() const { return program_; }

  // --- policy / options ---

  /// Installs a complete evaluation-options bundle after validating it
  /// (ValidateOptions in core/park_evaluator.h). This is the only way to
  /// change an ActiveDatabase's options. On rejection the previous
  /// options are left untouched and a kInvalidArgument status names the
  /// bad knob. Success drops the warm evaluation state (plan cache,
  /// pool, incremental maintenance's INV); the next commit rebuilds it
  /// under the new bundle.
  ///
  /// Two kinds of knobs live in ParkOptions (see docs/OBSERVABILITY.md):
  ///   - replay-stable: policy, block_granularity — these pin down WHICH
  ///     database a commit produces, so they must match across journal
  ///     replays of the same directory;
  ///   - free: num_threads, trace_level, observer, collect_timings —
  ///     performance/observability only; results are bit-identical
  ///     whatever they are set to.
  Status Configure(ParkOptions options);
  const ParkOptions& options() const { return options_; }

  // --- data ---

  /// Parses fact text ("p(a). q(b).") directly into the stored database,
  /// WITHOUT firing rules (bulk load).
  Status LoadFacts(std::string_view facts_text);

  /// Read access to the current instance.
  const Database& database() const { return database_; }
  bool Contains(const GroundAtom& atom) const {
    return database_.Contains(atom);
  }

  // --- transactions ---

  /// Starts a transaction. Multiple sequential transactions are fine;
  /// concurrent ones against a bare ActiveDatabase are not — for
  /// concurrent commits and snapshot reads, front the database with a
  /// serve::Session (src/serve/session.h, docs/SERVING.md), which owns
  /// the ActiveDatabase and serializes commits through its group-commit
  /// pipeline.
  Transaction Begin() { return Transaction(this); }

  /// One-shot convenience: runs a single-update transaction.
  CommitResult Apply(ActionKind action, const GroundAtom& atom);

  /// Runs the rules with NO user updates — PARK(P, D) — replacing the
  /// stored instance with the result. Useful after LoadFacts to bring the
  /// database to a rule-consistent state.
  CommitResult Stabilize();

  // --- crash-safe durability ---

  /// Configuration for Open. The rules and the replay-stable options
  /// (options.policy, options.block_granularity) must be the same on
  /// every Open of a directory: journal replay re-runs PARK, and the
  /// semantics' determinism (paper §3) only pins down the recovered state
  /// when the program and SELECT policy match the original run. The free
  /// knobs (options.num_threads, observer, collect_timings) may differ
  /// per Open without affecting recovery.
  struct OpenParams {
    /// Program text installed before recovery (may be empty).
    std::string rules;
    /// Symbol table to share; null creates a fresh one.
    std::shared_ptr<SymbolTable> symbols;
    /// Filesystem to use; null means Env::Default().
    Env* env = nullptr;
    /// Durability of each commit's journal record.
    JournalSyncMode sync_mode = JournalSyncMode::kFsync;
    /// Full evaluation-options bundle, policy included, installed via
    /// Configure() (i.e. validated) before replay, so recovery itself
    /// runs with the configured threads/policy/trace settings.
    ParkOptions options;
  };

  /// Opens (or creates) the durable database living in directory `dir`:
  /// loads the snapshot if one exists, replays every journal record newer
  /// than the snapshot through the normal commit path, then attaches the
  /// journal for new commits. Each failure point returns a typed Status
  /// (kDataLoss for mid-journal corruption, kInternal for I/O damage,
  /// parse errors verbatim); a torn journal tail is truncated and logged,
  /// and artifacts of an interrupted Checkpoint are cleaned up.
  static Result<ActiveDatabase> Open(const std::string& dir,
                                     OpenParams params);
  static Result<ActiveDatabase> Open(const std::string& dir) {
    return Open(dir, OpenParams());
  }

  /// Writes the current instance as a snapshot and truncates the journal,
  /// bounding recovery time. Crash-safe at every step: the snapshot
  /// carries the sequence number of the last committed transaction, so
  /// recovery never double-applies journal records older than the
  /// snapshot, whichever of the two files a crash leaves behind.
  /// Requires a database opened with Open().
  Status Checkpoint();

  /// Directory of a database opened with Open(); empty otherwise.
  const std::string& dir() const { return dir_; }

  /// Sequence number of the newest durable transaction (0 if none or the
  /// database was not opened with Open()).
  uint64_t durable_seq() const {
    return journal_.has_value() ? journal_->last_seq() : 0;
  }

 private:
  friend class Transaction;
  friend class Session;

  /// Drops INV and the warm state: rules, facts, or options changed
  /// outside the commit path.
  void Invalidate();

  /// Shared commit path: PARK(D, P, U) then apply its diff. `txns`
  /// is the number of transactions folded into `updates` by a group
  /// commit (stamped into the journal record; 1 = plain commit).
  CommitResult CommitUpdates(const UpdateSet& updates, uint64_t txns = 1);

  /// Parses snapshot contents: an optional "# park-snapshot last_seq=N"
  /// header line followed by a fact file. Returns the header's sequence
  /// number (0 when absent) after bulk-loading the facts.
  Result<uint64_t> LoadSnapshotContents(const std::string& contents,
                                        const std::string& path_for_errors);

  Database database_;
  Program program_;
  ParkOptions options_;
  std::optional<TransactionJournal> journal_;
  /// The evaluation state every commit's ParkStepper borrows (dependency
  /// graph, plan cache, pool), bound to (program_, options_).
  ParkStepper::WarmState state_;
  /// Incremental fixpoint maintenance (ParkOptions::maintenance_mode,
  /// docs/INCREMENTAL.md). Consulted by CommitUpdates when the mode is
  /// kIncremental.
  FixpointMaintainer maintainer_;

  // Set by Open.
  std::string dir_;
  Env* env_ = nullptr;
};

}  // namespace park

#endif  // PARK_ECA_ACTIVE_DATABASE_H_

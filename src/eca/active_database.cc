#include "eca/active_database.h"

#include "lang/io.h"
#include "lang/parser.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace park {

namespace {

// On-disk layout of a durable database (see docs/DURABILITY.md).
std::string SnapshotPath(const std::string& dir) {
  return dir + "/snapshot.facts";
}
std::string JournalPath(const std::string& dir) {
  return dir + "/journal.log";
}
std::string CheckpointMarkerPath(const std::string& dir) {
  return dir + "/checkpoint.pending";
}

constexpr char kSnapshotHeaderPrefix[] = "# park-snapshot last_seq=";

}  // namespace

ActiveDatabase::ActiveDatabase(std::shared_ptr<SymbolTable> symbols)
    : database_(symbols ? symbols : MakeSymbolTable()),
      program_(database_.symbols()) {}

void ActiveDatabase::Invalidate() {
  maintainer_.Invalidate();
  state_.Reset();
}

Status ActiveDatabase::LoadRules(std::string_view program_text) {
  PARK_ASSIGN_OR_RETURN(Program parsed,
                        ParseProgram(program_text, database_.symbols()));
  Invalidate();
  for (const Rule& rule : parsed.rules()) {
    // Re-add into the installed program so indexes/labels stay coherent.
    Rule copy = rule;
    PARK_RETURN_IF_ERROR(program_.AddRule(std::move(copy)));
  }
  return Status::OK();
}

Status ActiveDatabase::AddRule(Rule rule) {
  Invalidate();
  return program_.AddRule(std::move(rule));
}

Status ActiveDatabase::Configure(ParkOptions options) {
  PARK_RETURN_IF_ERROR(
      ValidateOptions(options).WithContext("ActiveDatabase::Configure"));
  options_ = std::move(options);
  // The options own the commit pipeline's retry policy too, so an open
  // journal follows every Configure().
  if (journal_.has_value()) {
    journal_->SetRetryPolicy(options_.io_max_retries, options_.io_backoff_ms);
  }
  Invalidate();
  return Status::OK();
}

Status ActiveDatabase::LoadFacts(std::string_view facts_text) {
  // Bulk loads bypass rule evaluation, so the stored instance can no
  // longer be assumed rule-stable.
  Invalidate();
  return ParseFactsInto(facts_text, database_);
}

CommitResult ActiveDatabase::Apply(ActionKind action,
                                   const GroundAtom& atom) {
  Transaction tx = Begin();
  if (action == ActionKind::kInsert) {
    tx.Insert(atom);
  } else {
    tx.Delete(atom);
  }
  return std::move(tx).Commit();
}

CommitResult ActiveDatabase::Stabilize() {
  return CommitUpdates(UpdateSet());
}

CommitResult ActiveDatabase::CommitUpdates(const UpdateSet& updates,
                                           uint64_t txns) {
  ObserverHook observer(options_.observer);
  const int64_t commit_start_ns = MonotonicNanos();
  observer.Notify(
      [&](RunObserver& o) { o.OnCommitStart(updates.updates().size()); });

  // The one commit driver: one ParkStepper over the warm state, bound to
  // P. If the maintainer admits the commit it is the seeded closure over
  // P with U as seeds; otherwise, or when that closure meets a conflict,
  // it is the unseeded run of P_U from D (§4.3), which the same state
  // serves because P_U only appends body-less rules to P.
  const std::vector<Update>& u = updates.updates();
  const bool maintaining =
      options_.maintenance_mode == MaintenanceMode::kIncremental;
  state_.Bind(program_, options_);
  std::optional<Program> extended;  // P_U, for the unseeded run
  std::optional<ParkStepper> stepper;
  auto evaluate = [&](bool seeded) -> Status {
    if (!seeded) {
      PARK_ASSIGN_OR_RETURN(Program p_u, ProgramWithUpdates(program_, u));
      extended.emplace(std::move(p_u));
    }
    stepper.emplace(seeded ? program_ : *extended, database_, options_,
                    state_, seeded ? &u : nullptr);
    return stepper->Run();
  };
  bool seeded = maintaining && maintainer_.Admits(program_, u, options_);
  Status evaluated = evaluate(seeded);
  if (seeded && !evaluated.ok()) {
    // A clash inside the cone (or max_steps): the unseeded run owns
    // conflicts and SELECT policies, and gives the authoritative answer.
    seeded = false;
    evaluated = evaluate(false);
  }
  if (!evaluated.ok()) {
    // Evaluation is copy-on-write, so the stored instance is untouched.
    CommitFailure failure;
    failure.stage = CommitFailure::Stage::kEvaluate;
    failure.cause = evaluated;
    return CommitResult(evaluated, std::move(failure));
  }
  // The diff comes straight off the run's marks: the commit never
  // materializes incorp(I) as a second copy of the stored instance.
  CommitReport report;
  Database::Diff diff = stepper->interpretation().MarkDiff();
  report.inserted = std::move(diff.only_in_this);
  report.deleted = std::move(diff.only_in_other);
  report.stats = stepper->stats();
  report.trace = stepper->trace();
  const bool full_conflict_free =
      report.stats.blocked_instances == 0 && report.stats.restarts == 0;
  if (maintaining) {
    maintainer_.RecordCommit(seeded, u, state_.graph(),
                             report.deleted.size(), report.stats);
  }

  const int64_t evaluated_ns = MonotonicNanos();

  // Apply the diff in place rather than swapping in the result database:
  // O(|changes|) instead of discarding the stored instance, and the
  // column indexes of untouched relations stay warm for the next commit.
  for (const GroundAtom& atom : report.inserted) database_.Insert(atom);
  for (const GroundAtom& atom : report.deleted) database_.Erase(atom);
  const int64_t applied_ns = MonotonicNanos();
  if (journal_.has_value()) {
    // Redo-log semantics: the record is written only for transactions
    // that actually committed. If the append fails even after the
    // journal's transient-failure retries, the in-place diff is undone —
    // its exact inverse — so memory never runs ahead of the durable
    // history: the commit either applied (and is durable) or left the
    // database untouched. The rollback restores a rule-stable instance,
    // so the maintainer's INV flag is deliberately left alone.
    Status appended = journal_->Append(updates, *symbols(), txns);
    if (!appended.ok()) {
      for (const GroundAtom& atom : report.inserted) database_.Erase(atom);
      for (const GroundAtom& atom : report.deleted) database_.Insert(atom);
      CommitFailure failure;
      failure.stage = CommitFailure::Stage::kJournal;
      failure.cause = appended;
      failure.journal_attempts = journal_->last_append_attempts();
      return CommitResult(
          appended.WithContext("commit rolled back: durability failed"),
          std::move(failure));
    }
    report.journal_seq = journal_->last_seq();
    report.timings.journal_ns =
        static_cast<uint64_t>(MonotonicNanos() - applied_ns);
    report.timings.journal_sync_ns = journal_->last_sync_ns();
    report.stats.io_attempts = journal_->io_attempts();
    report.stats.io_retries = journal_->io_retries();
    report.stats.io_backoff_ms_total = journal_->backoff_ms_total();
    report.stats.io_retries_exhausted = journal_->retries_exhausted();
    observer.Notify(
        [&](RunObserver& o) { o.OnJournalAppend(report.journal_seq); });
  }
  if (maintaining && !seeded) {
    // A full run's result database is now durably installed: a
    // conflict-free run of a gated program (re-)establishes INV, so the
    // NEXT commit can go incrementally. (A maintained commit preserves
    // INV, docs/INCREMENTAL.md.)
    maintainer_.NoteFullCommit(program_, full_conflict_free);
  }
  report.timings.evaluate_ns =
      static_cast<uint64_t>(evaluated_ns - commit_start_ns);
  report.timings.apply_ns = static_cast<uint64_t>(applied_ns - evaluated_ns);
  report.timings.total_ns =
      static_cast<uint64_t>(MonotonicNanos() - commit_start_ns);
  observer.Notify([&](RunObserver& o) {
    o.OnCommitEnd(CommitEndInfo{updates.updates().size(),
                                report.inserted.size(),
                                report.deleted.size(), report.stats.restarts,
                                report.journal_seq});
  });
  return report;
}

// --- crash-safe durability ------------------------------------------------

Result<uint64_t> ActiveDatabase::LoadSnapshotContents(
    const std::string& contents, const std::string& path_for_errors) {
  uint64_t snapshot_seq = 0;
  if (StartsWith(contents, kSnapshotHeaderPrefix)) {
    size_t eol = contents.find('\n');
    std::string_view value(contents);
    value.remove_prefix(sizeof(kSnapshotHeaderPrefix) - 1);
    if (eol != std::string::npos) {
      value = value.substr(0, eol - (sizeof(kSnapshotHeaderPrefix) - 1));
    }
    auto parsed = ParseInt64(Trim(value));
    if (!parsed.has_value() || *parsed < 0) {
      return DataLossError(StrFormat(
          "%s: malformed snapshot header \"%.*s\"", path_for_errors.c_str(),
          static_cast<int>(value.size()), value.data()));
    }
    snapshot_seq = static_cast<uint64_t>(*parsed);
  }
  // The header is a `#` comment, which the fact parser skips, so the
  // whole contents parse as one fact file.
  Invalidate();
  Status status = ParseFactsInto(contents, database_);
  if (!status.ok()) {
    return status.WithContext(
        StrFormat("loading snapshot %s", path_for_errors.c_str()));
  }
  return snapshot_seq;
}

Result<ActiveDatabase> ActiveDatabase::Open(const std::string& dir,
                                            OpenParams params) {
  Env* env = params.env != nullptr ? params.env : Env::Default();

  ActiveDatabase db(params.symbols);
  if (!params.rules.empty()) {
    Status status = db.LoadRules(params.rules);
    if (!status.ok()) return status.WithContext("installing rules");
  }
  // Install the options bundle through the validated path.
  {
    Status configured = db.Configure(std::move(params.options));
    if (!configured.ok()) {
      return configured.WithContext("validating OpenParams");
    }
  }

  Status status = env->CreateDir(dir);
  if (!status.ok()) {
    return status.WithContext("creating database directory");
  }

  const std::string snapshot_path = SnapshotPath(dir);
  const std::string journal_path = JournalPath(dir);
  const std::string marker_path = CheckpointMarkerPath(dir);

  // 1. Sweep up after an interrupted Checkpoint. The sequence numbers in
  //    the snapshot and journal make any half-finished checkpoint state
  //    consistent; the marker and temp file are just debris.
  if (env->FileExists(marker_path)) {
    PARK_LOG(kWarning) << "database " << dir
                       << ": previous checkpoint was interrupted; "
                          "recovering from snapshot + journal";
    status = env->RemoveFile(marker_path);
    if (!status.ok()) {
      return status.WithContext("removing stale checkpoint marker");
    }
  }
  status = env->RemoveFile(snapshot_path + ".tmp");
  if (!status.ok()) {
    return status.WithContext("removing stale snapshot temp file");
  }

  // 2. Load the snapshot, if any, and its last_seq watermark.
  uint64_t snapshot_seq = 0;
  auto snapshot = env->ReadFileToString(snapshot_path);
  if (snapshot.ok()) {
    PARK_ASSIGN_OR_RETURN(
        snapshot_seq, db.LoadSnapshotContents(*snapshot, snapshot_path));
  } else if (snapshot.status().code() != StatusCode::kNotFound) {
    return snapshot.status().WithContext("reading snapshot");
  }

  // 3. Replay journal records newer than the snapshot through the normal
  //    commit path. Records at or below the watermark are already folded
  //    into the snapshot (a checkpoint interrupted before truncation
  //    leaves exactly such records behind).
  PARK_ASSIGN_OR_RETURN(
      std::vector<JournalRecord> records,
      TransactionJournal::ReadRecords(journal_path, db.symbols(), env));
  uint64_t last_seq = snapshot_seq;
  for (const JournalRecord& record : records) {
    if (record.seq <= snapshot_seq) continue;
    auto report = db.CommitUpdates(record.updates);
    if (!report.ok()) {
      return report.status().WithContext(StrFormat(
          "replaying journal record %llu",
          static_cast<unsigned long long>(record.seq)));
    }
    last_seq = record.seq;
  }

  // 4. Open the journal for new commits, numbering from where the
  //    recovered history ends, under the installed retry policy.
  JournalOptions journal_options;
  journal_options.env = env;
  journal_options.sync_mode = params.sync_mode;
  journal_options.first_seq = last_seq + 1;
  journal_options.max_retries = db.options_.io_max_retries;
  journal_options.backoff_ms = db.options_.io_backoff_ms;
  PARK_ASSIGN_OR_RETURN(
      TransactionJournal journal,
      TransactionJournal::Open(journal_path, journal_options));
  db.journal_.emplace(std::move(journal));
  db.dir_ = dir;
  db.env_ = env;
  return db;
}

Status ActiveDatabase::Checkpoint() {
  if (dir_.empty() || !journal_.has_value()) {
    return FailedPreconditionError(
        "Checkpoint requires a database opened with ActiveDatabase::Open");
  }
  Env* env = env_;
  const std::string snapshot_path = SnapshotPath(dir_);
  const std::string marker_path = CheckpointMarkerPath(dir_);
  const uint64_t seq = journal_->last_seq();

  // 1. Drop a marker so an interrupted checkpoint is visible (and its
  //    debris swept) on the next Open. Written directly, not atomically:
  //    a torn marker is still a marker.
  {
    PARK_ASSIGN_OR_RETURN(
        std::unique_ptr<WritableFile> marker,
        env->NewWritableFile(marker_path, Env::WriteMode::kTruncate));
    PARK_RETURN_IF_ERROR(marker->Append(StrFormat(
        "last_seq=%llu\n", static_cast<unsigned long long>(seq))));
    PARK_RETURN_IF_ERROR(marker->Sync());
    PARK_RETURN_IF_ERROR(marker->Close());
  }

  // 2. Write the snapshot with the watermark header, fsynced, then
  //    atomically renamed into place. From the moment the rename lands,
  //    recovery skips journal records <= seq, so the journal can be
  //    truncated (or left behind by a crash) without double-applying.
  std::string contents = StrFormat(
      "%s%llu\n", kSnapshotHeaderPrefix,
      static_cast<unsigned long long>(seq));
  for (const std::string& atom : database_.SortedAtomStrings()) {
    contents += atom;
    contents += ".\n";
  }
  PARK_RETURN_IF_ERROR(
      AtomicWriteFile(env, contents, snapshot_path, /*sync=*/true)
          .WithContext("writing checkpoint snapshot"));

  // 3. Truncate the journal through the open handle; numbering goes on
  //    at seq + 1. If the truncation fails the old records simply stay
  //    behind — the watermark already makes them inert — and the handle
  //    keeps appending after them.
  Status truncated = journal_->Truncate();
  if (!truncated.ok()) {
    PARK_LOG(kWarning) << "checkpoint: could not truncate journal "
                       << journal_->path() << ": " << truncated.ToString();
  }

  // 4. Checkpoint complete; retire the marker.
  PARK_RETURN_IF_ERROR(env->RemoveFile(marker_path)
                           .WithContext("removing checkpoint marker"));
  ObserverHook observer(options_.observer);
  observer.Notify([&](RunObserver& o) { o.OnCheckpoint(seq); });
  return Status::OK();
}

}  // namespace park

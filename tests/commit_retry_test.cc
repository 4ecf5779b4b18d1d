// The fault-tolerant commit pipeline: transient (kUnavailable) I/O
// failures are retried with capped exponential backoff inside
// TransactionJournal::Append; when retries are exhausted the
// ActiveDatabase rolls its in-place diff back — the commit either applied
// (and is durable) or left the database untouched, and the handle stays
// usable either way. Also covers observers that throw mid-pipeline.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "park/park.h"
#include "util/env.h"
#include "util/fault_env.h"

namespace park {
namespace {

class CommitRetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "park_commit_retry_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  /// Opens the durable database in Path("db") over `env`, so the commit
  /// journal (Path("db/journal.log")) writes through the fault injector.
  Result<ActiveDatabase> OpenOver(FaultInjectingEnv& env,
                                  ParkOptions options,
                                  std::string rules = "") {
    ActiveDatabase::OpenParams params;
    params.rules = std::move(rules);
    params.env = &env;
    params.sync_mode = JournalSyncMode::kFlush;
    params.options = std::move(options);
    return ActiveDatabase::Open(Path("db"), std::move(params));
  }

  std::string dir_;
};

UpdateSet OneInsert(const std::shared_ptr<SymbolTable>& symbols,
                    const std::string& value) {
  UpdateSet updates;
  EXPECT_TRUE(updates.AddParsed("+p(" + value + ")", symbols).ok());
  return updates;
}

// --- FaultInjectingEnv transient modes ------------------------------------

TEST_F(CommitRetryTest, TransientAppendsFailNTimesThenSucceed) {
  FaultInjectingEnv env(Env::Default());
  TransientFaults transient;
  transient.fail_appends = 2;
  env.set_transient(transient);

  auto file = env.NewWritableFile(Path("f"), Env::WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ((*file)->Append("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ((*file)->Append("x").code(), StatusCode::kUnavailable);
  EXPECT_TRUE((*file)->Append("x").ok());
  EXPECT_EQ(env.transient_failures(), 2);
  ASSERT_TRUE((*file)->Close().ok());
  // The two failed appends persisted nothing.
  auto contents = env.ReadFileToString(Path("f"));
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "x");
}

TEST_F(CommitRetryTest, SeededRandomModeIsDeterministic) {
  auto run = [&](const std::string& name) {
    FaultInjectingEnv env(Env::Default());
    auto file = env.NewWritableFile(Path(name), Env::WriteMode::kTruncate);
    EXPECT_TRUE(file.ok());
    TransientFaults transient;
    transient.random_seed = 42;
    transient.random_percent = 50;
    env.set_transient(transient);
    std::string outcomes;
    for (int i = 0; i < 32; ++i) {
      outcomes += (*file)->Append("x").ok() ? '.' : 'U';
    }
    return outcomes;
  };
  const std::string first = run("a");
  EXPECT_EQ(first, run("b"));
  EXPECT_NE(first.find('U'), std::string::npos);
  EXPECT_NE(first.find('.'), std::string::npos);
}

TEST_F(CommitRetryTest, RandomModeRespectsFailureCap) {
  FaultInjectingEnv env(Env::Default());
  auto file = env.NewWritableFile(Path("f"), Env::WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  TransientFaults transient;
  transient.random_seed = 7;
  transient.random_percent = 100;
  transient.random_max_failures = 3;
  env.set_transient(transient);
  int failures = 0;
  for (int i = 0; i < 10; ++i) {
    if (!(*file)->Append("x").ok()) ++failures;
  }
  EXPECT_EQ(failures, 3);
}

// --- TransactionJournal retry loop ----------------------------------------

TEST_F(CommitRetryTest, AppendRetriesTransientFailuresAndSucceeds) {
  FaultInjectingEnv env(Env::Default());
  TransientFaults transient;
  transient.fail_appends = 2;
  env.set_transient(transient);

  JournalOptions options;
  options.env = &env;
  options.max_retries = 3;
  auto symbols = MakeSymbolTable();
  auto journal = TransactionJournal::Open(Path("j.log"), options);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();

  ASSERT_TRUE(journal->Append(OneInsert(symbols, "a"), *symbols).ok());
  EXPECT_EQ(journal->last_append_attempts(), 3);
  EXPECT_EQ(journal->io_attempts(), 3u);
  EXPECT_EQ(journal->io_retries(), 2u);
  EXPECT_EQ(journal->retries_exhausted(), 0u);
  EXPECT_EQ(journal->last_seq(), 1u);

  // Exactly one clean record on disk.
  auto records = TransactionJournal::ReadRecords(Path("j.log"), symbols);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].seq, 1u);
}

TEST_F(CommitRetryTest, TransientSyncFailureLeavesNoDuplicateRecord) {
  // The append lands, the fsync fails transiently: the retry must first
  // heal the file back to its durable prefix, or the record would appear
  // twice after the successful retry.
  FaultInjectingEnv env(Env::Default());
  TransientFaults transient;
  transient.fail_syncs = 1;
  env.set_transient(transient);

  JournalOptions options;
  options.env = &env;
  options.sync_mode = JournalSyncMode::kFsync;
  options.max_retries = 2;
  auto symbols = MakeSymbolTable();
  auto journal = TransactionJournal::Open(Path("j.log"), options);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();

  ASSERT_TRUE(journal->Append(OneInsert(symbols, "a"), *symbols).ok());
  EXPECT_EQ(journal->last_append_attempts(), 2);

  auto records = TransactionJournal::ReadRecords(Path("j.log"), symbols);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
}

TEST_F(CommitRetryTest, ExhaustedRetriesFailButJournalStaysUsable) {
  FaultInjectingEnv env(Env::Default());
  TransientFaults transient;
  transient.fail_appends = 10;
  env.set_transient(transient);

  JournalOptions options;
  options.env = &env;
  options.max_retries = 2;
  auto symbols = MakeSymbolTable();
  auto journal = TransactionJournal::Open(Path("j.log"), options);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();

  Status failed = journal->Append(OneInsert(symbols, "a"), *symbols);
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(journal->last_append_attempts(), 3);  // 1 try + 2 retries
  EXPECT_EQ(journal->retries_exhausted(), 1u);
  EXPECT_EQ(journal->last_seq(), 0u);  // nothing committed

  // No reopen needed: once the faults clear, the SAME handle appends the
  // SAME sequence number.
  env.set_transient(TransientFaults{});
  ASSERT_TRUE(journal->Append(OneInsert(symbols, "b"), *symbols).ok());
  EXPECT_EQ(journal->last_seq(), 1u);
  auto records = TransactionJournal::ReadRecords(Path("j.log"), symbols);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].seq, 1u);
}

TEST_F(CommitRetryTest, PermanentFailuresAreNotRetried) {
  // A one-shot kFailOp fault is kInternal — the permanent class; the
  // retry loop must give up immediately.
  FaultPlan plan;
  plan.fault_at = 1;  // op 0 is the Open's own open; op 1 is the append
  plan.kind = FaultPlan::Kind::kFailOp;
  FaultInjectingEnv env(Env::Default(), plan);

  JournalOptions options;
  options.env = &env;
  options.max_retries = 5;
  auto symbols = MakeSymbolTable();
  auto journal = TransactionJournal::Open(Path("j.log"), options);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();

  Status failed = journal->Append(OneInsert(symbols, "a"), *symbols);
  EXPECT_EQ(failed.code(), StatusCode::kInternal);
  EXPECT_EQ(journal->last_append_attempts(), 1);
  EXPECT_EQ(journal->io_retries(), 0u);
}

TEST_F(CommitRetryTest, BackoffDoublesAndAccumulates) {
  FaultInjectingEnv env(Env::Default());
  TransientFaults transient;
  transient.fail_appends = 2;
  env.set_transient(transient);

  JournalOptions options;
  options.env = &env;
  options.max_retries = 3;
  options.backoff_ms = 1;
  auto symbols = MakeSymbolTable();
  auto journal = TransactionJournal::Open(Path("j.log"), options);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(journal->Append(OneInsert(symbols, "a"), *symbols).ok());
  EXPECT_EQ(journal->backoff_ms_total(), 1u + 2u);  // 1ms then 2ms
}

// --- ActiveDatabase: applied-exactly-or-untouched -------------------------

TEST_F(CommitRetryTest, ExhaustedJournalRetriesRollTheCommitBack) {
  FaultInjectingEnv env(Env::Default());

  ParkOptions options;
  options.io_max_retries = 1;
  auto opened = OpenOver(env, std::move(options), "p(X) -> +q(X).");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ActiveDatabase& db = *opened;

  // A committed baseline transaction, then permanent-looking transients.
  ASSERT_TRUE(std::move(db.Begin().Insert("p", {"a"})).Commit().ok());
  const std::string before = db.database().ToString();

  TransientFaults transient;
  transient.fail_appends = 10;
  env.set_transient(transient);
  auto failed = std::move(db.Begin().Insert("p", {"b"})).Commit();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);

  // Rolled back exactly: evaluation inserted p(b) AND the rule's q(b),
  // and both are gone again.
  EXPECT_EQ(db.database().ToString(), before);
  // The failure detail rides on the CommitResult itself.
  ASSERT_TRUE(failed.failure().has_value());
  EXPECT_EQ(failed.failure()->stage, CommitFailure::Stage::kJournal);
  EXPECT_EQ(failed.failure()->journal_attempts, 2);
  EXPECT_TRUE(failed.failure()->rolled_back);

  // The database needs no reopen: the same handle commits once the
  // transient condition clears, and the durable history matches memory.
  env.set_transient(TransientFaults{});
  auto report = std::move(db.Begin().Insert("p", {"b"})).Commit();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->stats.io_attempts, 0u);

  auto records =
      TransactionJournal::ReadRecords(Path("db/journal.log"), db.symbols());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);  // the two successful commits only
}

TEST_F(CommitRetryTest, RetriedCommitSucceedsTransparently) {
  FaultInjectingEnv env(Env::Default());

  ParkOptions options;
  options.io_max_retries = 3;
  auto opened = OpenOver(env, std::move(options));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ActiveDatabase& db = *opened;

  TransientFaults transient;
  transient.fail_appends = 2;
  env.set_transient(transient);
  auto report = std::move(db.Begin().Insert("p", {"a"})).Commit();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->journal_seq, 1u);
  EXPECT_EQ(report->stats.io_retries, 2u);
  auto atom = ParseGroundAtom("p(a)", db.symbols());
  ASSERT_TRUE(atom.ok());
  EXPECT_TRUE(db.Contains(*atom));
}

TEST_F(CommitRetryTest, ConfigureReachesTheOpenJournal) {
  FaultInjectingEnv env(Env::Default());

  ParkOptions options;
  options.io_max_retries = 3;
  auto opened = OpenOver(env, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ActiveDatabase& db = *opened;

  // A later Configure() governs the journal Open attached.
  options.io_max_retries = 0;
  ASSERT_TRUE(db.Configure(options).ok());
  TransientFaults transient;
  transient.fail_appends = 1;
  env.set_transient(transient);
  auto failed = std::move(db.Begin().Insert("p", {"a"})).Commit();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  ASSERT_TRUE(failed.failure().has_value());
  EXPECT_EQ(failed.failure()->journal_attempts, 1);
}

// --- observers that throw mid-pipeline ------------------------------------

class ThrowingObserver : public RunObserver {
 public:
  explicit ThrowingObserver(bool throw_on_start, bool throw_on_append)
      : throw_on_start_(throw_on_start), throw_on_append_(throw_on_append) {}

  void OnCommitStart(size_t) override {
    if (throw_on_start_) throw std::runtime_error("observer tantrum");
  }
  void OnJournalAppend(uint64_t seq) override {
    appends_seen_ = seq;
    if (throw_on_append_) throw std::runtime_error("observer tantrum");
  }

  uint64_t appends_seen() const { return appends_seen_; }

 private:
  bool throw_on_start_;
  bool throw_on_append_;
  uint64_t appends_seen_ = 0;
};

TEST_F(CommitRetryTest, ObserverThrowingOnCommitStartDuringRetries) {
  FaultInjectingEnv env(Env::Default());
  ThrowingObserver observer(/*throw_on_start=*/true,
                            /*throw_on_append=*/false);

  ParkOptions options;
  options.io_max_retries = 3;
  options.observer = &observer;
  auto opened = OpenOver(env, std::move(options));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ActiveDatabase& db = *opened;

  TransientFaults transient;
  transient.fail_appends = 2;
  env.set_transient(transient);
  auto report = std::move(db.Begin().Insert("p", {"a"})).Commit();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Applied exactly once, durable exactly once.
  auto records =
      TransactionJournal::ReadRecords(Path("db/journal.log"), db.symbols());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
}

TEST_F(CommitRetryTest, ObserverThrowingOnJournalAppendAfterRollback) {
  FaultInjectingEnv env(Env::Default());
  ThrowingObserver observer(/*throw_on_start=*/false,
                            /*throw_on_append=*/true);

  ParkOptions options;
  options.io_max_retries = 1;
  options.observer = &observer;
  auto opened = OpenOver(env, std::move(options));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ActiveDatabase& db = *opened;

  const std::string before = db.database().ToString();
  TransientFaults transient;
  transient.fail_appends = 10;
  env.set_transient(transient);
  auto failed = std::move(db.Begin().Insert("p", {"a"})).Commit();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(db.database().ToString(), before);  // untouched
  EXPECT_EQ(observer.appends_seen(), 0u);       // append never succeeded

  // Clear faults; the throwing observer must not break the next commit.
  env.set_transient(TransientFaults{});
  auto report = std::move(db.Begin().Insert("p", {"a"})).Commit();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(observer.appends_seen(), 1u);
}

}  // namespace
}  // namespace park

// Durability: the Env boundary and its error mapping, fault injection,
// the checksummed journal format (sequence numbers, torn tails, CRC
// corruption), and ActiveDatabase::Open / Checkpoint recovery.
//
// The exhaustive crash-at-every-syscall harness lives in
// crash_point_test.cc; this file covers the targeted single-fault and
// corrupt-bytes cases.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "park/park.h"
#include "util/crc32.h"
#include "util/env.h"
#include "util/fault_env.h"
#include "util/string_util.h"

namespace park {
namespace {

/// Fresh directory per test, removed on teardown.
class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "park_durability_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  void WriteFile(const std::string& path, const std::string& contents) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }

  std::string ReadFile(const std::string& path) {
    auto contents = Env::Default()->ReadFileToString(path);
    EXPECT_TRUE(contents.ok()) << contents.status().ToString();
    return contents.ok() ? *contents : std::string();
  }

  std::string dir_;
};

// --- Env ------------------------------------------------------------------

TEST_F(DurabilityTest, EnvReadMissingFileIsNotFound) {
  auto contents = Env::Default()->ReadFileToString(Path("missing"));
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kNotFound);
}

TEST_F(DurabilityTest, EnvReadDirectoryIsInternalNotNotFound) {
  // The file EXISTS but cannot be read — this must never map to
  // kNotFound, or callers would mistake a damaged journal for a fresh one.
  auto contents = Env::Default()->ReadFileToString(dir_);
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kInternal);
}

TEST_F(DurabilityTest, EnvWritableFileTruncateAndAppendModes) {
  Env* env = Env::Default();
  std::string path = Path("file");
  {
    auto file = env->NewWritableFile(path, Env::WriteMode::kTruncate);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ASSERT_TRUE((*file)->Append("hello ").ok());
    ASSERT_TRUE((*file)->Append("world").ok());
    ASSERT_TRUE((*file)->Sync().ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  EXPECT_EQ(ReadFile(path), "hello world");
  {
    auto file = env->NewWritableFile(path, Env::WriteMode::kAppend);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("!").ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  EXPECT_EQ(ReadFile(path), "hello world!");
  {
    auto file = env->NewWritableFile(path, Env::WriteMode::kTruncate);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  EXPECT_EQ(ReadFile(path), "");
}

TEST_F(DurabilityTest, EnvFileOps) {
  Env* env = Env::Default();
  std::string path = Path("file");
  WriteFile(path, "0123456789");

  EXPECT_TRUE(env->FileExists(path));
  EXPECT_FALSE(env->FileExists(Path("missing")));

  auto size = env->FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 10u);
  EXPECT_EQ(env->FileSize(Path("missing")).status().code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(env->TruncateFile(path, 4).ok());
  EXPECT_EQ(ReadFile(path), "0123");

  std::string moved = Path("moved");
  ASSERT_TRUE(env->RenameFile(path, moved).ok());
  EXPECT_FALSE(env->FileExists(path));
  EXPECT_EQ(ReadFile(moved), "0123");

  // Removing a missing file is OK: the postcondition already holds.
  EXPECT_TRUE(env->RemoveFile(Path("missing")).ok());
  ASSERT_TRUE(env->RemoveFile(moved).ok());
  EXPECT_FALSE(env->FileExists(moved));

  // Creating an existing directory is OK too.
  EXPECT_TRUE(env->CreateDir(dir_).ok());
  std::string sub = Path("sub");
  ASSERT_TRUE(env->CreateDir(sub).ok());
  EXPECT_TRUE(std::filesystem::is_directory(sub));
}

TEST_F(DurabilityTest, AtomicWriteFileReplacesAndLeavesNoTemp) {
  Env* env = Env::Default();
  std::string path = Path("file");
  ASSERT_TRUE(AtomicWriteFile(env, "first", path, /*sync=*/false).ok());
  EXPECT_EQ(ReadFile(path), "first");
  ASSERT_TRUE(AtomicWriteFile(env, "second", path, /*sync=*/true).ok());
  EXPECT_EQ(ReadFile(path), "second");
  EXPECT_FALSE(env->FileExists(path + ".tmp"));
}

// --- FaultInjectingEnv ----------------------------------------------------

TEST_F(DurabilityTest, FaultEnvPassThroughCountsMutatingOps) {
  FaultInjectingEnv env(Env::Default());  // fault_at = -1: never fires
  std::string path = Path("file");
  auto file = env.NewWritableFile(path, Env::WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("data").ok());
  ASSERT_TRUE((*file)->Flush().ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(env.op_count(), 4);  // open, append, flush, close

  // Reads are not charged: crash consistency is about writes.
  EXPECT_TRUE(env.ReadFileToString(path).ok());
  EXPECT_TRUE(env.FileExists(path));
  EXPECT_TRUE(env.FileSize(path).ok());
  EXPECT_EQ(env.op_count(), 4);
  EXPECT_FALSE(env.crashed());
}

TEST_F(DurabilityTest, FaultEnvFailOpIsTransient) {
  FaultPlan plan;
  plan.fault_at = 0;
  plan.kind = FaultPlan::Kind::kFailOp;
  FaultInjectingEnv env(Env::Default(), plan);
  std::string path = Path("file");

  EXPECT_FALSE(env.NewWritableFile(path, Env::WriteMode::kTruncate).ok());
  EXPECT_FALSE(env.crashed());

  // The very next attempt succeeds: the fault was a one-shot.
  auto file = env.NewWritableFile(path, Env::WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("ok").ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(ReadFile(path), "ok");
}

TEST_F(DurabilityTest, FaultEnvShortWritePersistsPrefix) {
  FaultPlan plan;
  plan.fault_at = 1;  // op 0 = open, op 1 = the append below
  plan.kind = FaultPlan::Kind::kShortWrite;
  plan.torn_write_percent = 50;
  FaultInjectingEnv env(Env::Default(), plan);
  std::string path = Path("file");

  auto file = env.NewWritableFile(path, Env::WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  Status torn = (*file)->Append("0123456789");
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(ReadFile(path), "01234");  // half the payload reached the file

  // The env keeps working after the short write.
  ASSERT_TRUE((*file)->Append("ab").ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(ReadFile(path), "01234ab");
  EXPECT_FALSE(env.crashed());
}

TEST_F(DurabilityTest, FaultEnvCrashIsPermanent) {
  FaultPlan plan;
  plan.fault_at = 1;
  plan.kind = FaultPlan::Kind::kCrash;
  plan.torn_write_percent = 0;
  FaultInjectingEnv env(Env::Default(), plan);
  std::string path = Path("file");

  auto file = env.NewWritableFile(path, Env::WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE((*file)->Append("data").ok());
  EXPECT_TRUE(env.crashed());
  EXPECT_EQ(ReadFile(path), "");  // torn_write_percent = 0: nothing landed

  // The "process" is dead: every later operation fails, reads included.
  EXPECT_FALSE((*file)->Flush().ok());
  EXPECT_FALSE((*file)->Close().ok());
  EXPECT_FALSE(env.ReadFileToString(path).ok());
  EXPECT_FALSE(env.FileExists(path));
  EXPECT_FALSE(env.RemoveFile(path).ok());
  EXPECT_FALSE(env.CreateDir(Path("sub")).ok());
}

// --- journal format -------------------------------------------------------

/// Renders one journal record in the on-disk format with a correct CRC
/// footer (mirrors TransactionJournal::Append).
std::string MakeRecord(uint64_t seq,
                       const std::vector<std::string>& update_lines) {
  std::string payload = std::to_string(seq) + "\n";
  for (const std::string& line : update_lines) payload += line + "\n";
  std::string record = "begin " + std::to_string(seq) + "\n";
  for (const std::string& line : update_lines) record += line + "\n";
  record += "commit " + std::to_string(seq) + " " +
            StrFormat("crc=%08x", Crc32(payload)) + "\n";
  return record;
}

/// MakeRecord with the last CRC hex digit flipped: framing intact, sum
/// wrong — the shape left by bit rot rather than a torn write.
std::string MakeCorruptCrcRecord(uint64_t seq,
                                 const std::vector<std::string>& lines) {
  std::string record = MakeRecord(seq, lines);
  char& digit = record[record.size() - 2];
  digit = (digit == '0') ? '1' : '0';
  return record;
}

UpdateSet ParseUpdates(const std::vector<std::string>& texts,
                       const std::shared_ptr<SymbolTable>& symbols) {
  UpdateSet updates;
  for (const std::string& text : texts) {
    EXPECT_TRUE(updates.AddParsed(text, symbols).ok());
  }
  return updates;
}

TEST_F(DurabilityTest, JournalSequenceNumbersPersistAcrossReopen) {
  auto symbols = MakeSymbolTable();
  std::string path = Path("journal");
  {
    auto journal = TransactionJournal::Open(path);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    EXPECT_EQ(journal->last_seq(), 0u);
    ASSERT_TRUE(journal->Append(ParseUpdates({"+a(1)"}, symbols),
                                *symbols).ok());
    ASSERT_TRUE(journal->Append(ParseUpdates({"+b(2)"}, symbols),
                                *symbols).ok());
    EXPECT_EQ(journal->last_seq(), 2u);
  }
  {
    // Reopen: numbering resumes after the last record on disk.
    auto journal = TransactionJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    EXPECT_EQ(journal->last_seq(), 2u);
    ASSERT_TRUE(journal->Append(ParseUpdates({"+c(3)"}, symbols),
                                *symbols).ok());
    EXPECT_EQ(journal->last_seq(), 3u);
  }
  auto records = TransactionJournal::ReadRecords(path, symbols);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 3u);
  for (size_t i = 0; i < records->size(); ++i) {
    EXPECT_EQ((*records)[i].seq, i + 1);
  }
}

TEST_F(DurabilityTest, JournalFirstSeqStartsCheckpointedJournal) {
  // A checkpoint at sequence 9 reopens the journal with first_seq = 10;
  // the empty journal must then report last_seq() == 9 and number its
  // first record 10.
  auto symbols = MakeSymbolTable();
  std::string path = Path("journal");
  JournalOptions options;
  options.first_seq = 10;
  auto journal = TransactionJournal::Open(path, options);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal->last_seq(), 9u);
  ASSERT_TRUE(journal->Append(ParseUpdates({"+a(1)"}, symbols),
                              *symbols).ok());
  EXPECT_EQ(journal->last_seq(), 10u);

  auto records = TransactionJournal::ReadRecords(path, symbols);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].seq, 10u);
}

TEST_F(DurabilityTest, JournalFailedAppendHealsFileAndRetrySucceeds) {
  auto symbols = MakeSymbolTable();

  // Measure how many mutating ops open + one append cost, so the fault
  // can target the second append's write precisely.
  int64_t ops_before_second_append = 0;
  {
    FaultInjectingEnv counter(Env::Default());
    JournalOptions options;
    options.env = &counter;
    auto journal = TransactionJournal::Open(Path("probe"), options);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append(ParseUpdates({"+a(1)"}, symbols),
                                *symbols).ok());
    ops_before_second_append = counter.op_count();
  }

  FaultPlan plan;
  plan.fault_at = ops_before_second_append;
  plan.kind = FaultPlan::Kind::kShortWrite;
  plan.torn_write_percent = 50;  // tear mid-record
  FaultInjectingEnv env(Env::Default(), plan);
  JournalOptions options;
  options.env = &env;
  std::string path = Path("journal");

  auto journal = TransactionJournal::Open(path, options);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(journal->Append(ParseUpdates({"+a(1)"}, symbols),
                              *symbols).ok());

  // The torn append fails but heals the file back to the durable prefix…
  Status torn = journal->Append(ParseUpdates({"+b(2)"}, symbols), *symbols);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(journal->last_seq(), 1u);

  // …so the retry lands cleanly, with the sequence number reused.
  ASSERT_TRUE(journal->Append(ParseUpdates({"+b(2)"}, symbols),
                              *symbols).ok());
  EXPECT_EQ(journal->last_seq(), 2u);

  bool torn_tail = false;
  auto records =
      TransactionJournal::ReadRecords(path, symbols, nullptr, &torn_tail);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_FALSE(torn_tail);  // healing left no damage behind
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].updates.ToString(*symbols), "{+a(1)}");
  EXPECT_EQ((*records)[1].updates.ToString(*symbols), "{+b(2)}");
}

TEST_F(DurabilityTest, JournalUnhealedAppendPoisonsHandleUntilReopen) {
  auto symbols = MakeSymbolTable();

  int64_t ops_before_second_append = 0;
  {
    FaultInjectingEnv counter(Env::Default());
    JournalOptions options;
    options.env = &counter;
    auto journal = TransactionJournal::Open(Path("probe"), options);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append(ParseUpdates({"+a(1)"}, symbols),
                                *symbols).ok());
    ops_before_second_append = counter.op_count();
  }

  // A crash tears the append AND defeats the healing truncation; the
  // handle must then refuse to write over the torn bytes.
  FaultPlan plan;
  plan.fault_at = ops_before_second_append;
  plan.kind = FaultPlan::Kind::kCrash;
  plan.torn_write_percent = 50;
  FaultInjectingEnv env(Env::Default(), plan);
  JournalOptions options;
  options.env = &env;
  std::string path = Path("journal");
  {
    auto journal = TransactionJournal::Open(path, options);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append(ParseUpdates({"+a(1)"}, symbols),
                                *symbols).ok());
    EXPECT_FALSE(journal->Append(ParseUpdates({"+b(2)"}, symbols),
                                 *symbols).ok());
    Status refused =
        journal->Append(ParseUpdates({"+c(3)"}, symbols), *symbols);
    EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  }

  // Reopening (with a healthy filesystem) truncates the torn tail and
  // resumes exactly after the last durable record.
  auto journal = TransactionJournal::Open(path);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(journal->last_seq(), 1u);
  ASSERT_TRUE(journal->Append(ParseUpdates({"+b(2)"}, symbols),
                              *symbols).ok());
  auto records = TransactionJournal::ReadRecords(path, symbols);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
}

TEST_F(DurabilityTest, JournalUnreadableFileIsAnErrorNotEmpty) {
  // A journal that exists but cannot be read (here: the path is a
  // directory) must never be mistaken for a fresh journal.
  auto read = TransactionJournal::ReadRecords(dir_, MakeSymbolTable());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInternal);

  auto open = TransactionJournal::Open(dir_);
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.status().code(), StatusCode::kInternal);
}

TEST_F(DurabilityTest, JournalMissingPathIsAFreshJournal) {
  // Missing file AND missing directory are both ENOENT: a fresh journal
  // for reads (writers create the file; Open of a missing directory is
  // caught by ActiveDatabase::Open's CreateDir instead).
  auto records = TransactionJournal::ReadRecords(Path("missing"),
                                                 MakeSymbolTable());
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
  records = TransactionJournal::ReadRecords(Path("no_dir") + "/journal",
                                            MakeSymbolTable());
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

// --- table-driven torn/corrupt journals -----------------------------------

struct CorruptJournalCase {
  const char* name;
  std::string contents;
  /// Negative: expect kDataLoss. Otherwise: expected record count.
  int want_records;
  bool want_torn_tail;
};

TEST_F(DurabilityTest, CorruptJournalTable) {
  const std::string valid1 = MakeRecord(1, {"+a(1)"});
  const std::string valid2 = MakeRecord(2, {"+b(2)"});
  const CorruptJournalCase kCases[] = {
      {"empty file", "", 0, false},
      {"single valid record", valid1, 1, false},
      {"torn tail: header only", valid1 + "begin 2\n", 1, true},
      {"torn tail: no commit line", valid1 + "begin 2\n+b(2)\n", 1, true},
      {"torn tail: unterminated line", valid1 + "begin 2\n+b(", 1, true},
      {"torn tail: partial magic", valid1 + "beg", 1, true},
      {"corrupt crc in tail record",
       valid1 + MakeCorruptCrcRecord(2, {"+b(2)"}), 1, true},
      {"corrupt crc mid-journal",
       MakeCorruptCrcRecord(1, {"+a(1)"}) + valid2, -1, false},
      {"truncated record mid-journal", "begin 1\n+a(1)\n" + valid2, -1,
       false},
      {"duplicate begin at tail", "begin 1\nbegin 1\n+a(1)\n", 0, true},
      {"duplicate begin hides a valid record", "begin 1\n" + valid1, -1,
       false},
      {"sequence gap", valid1 + MakeRecord(3, {"+c(3)"}), -1, false},
      {"sequence repeat", valid1 + MakeRecord(1, {"+z(9)"}), -1, false},
      {"update line outside any record", "+a(1)\n", -1, false},
      {"garbage before a valid record", "junk\n" + valid1, -1, false},
  };

  for (const CorruptJournalCase& test : kCases) {
    SCOPED_TRACE(test.name);
    std::string path = Path("journal");
    WriteFile(path, test.contents);
    bool torn_tail = false;
    auto records = TransactionJournal::ReadRecords(
        path, MakeSymbolTable(), nullptr, &torn_tail);
    if (test.want_records < 0) {
      ASSERT_FALSE(records.ok());
      EXPECT_EQ(records.status().code(), StatusCode::kDataLoss);
    } else {
      ASSERT_TRUE(records.ok()) << records.status().ToString();
      EXPECT_EQ(records->size(),
                static_cast<size_t>(test.want_records));
      EXPECT_EQ(torn_tail, test.want_torn_tail);
    }
  }
}

TEST_F(DurabilityTest, OpenTruncatesTornTailOnDisk) {
  // TransactionJournal::Open doesn't just skip the torn tail — it cuts it
  // off, so the next append cannot bury damage mid-journal.
  std::string path = Path("journal");
  const std::string valid = MakeRecord(1, {"+a(1)"});
  WriteFile(path, valid + "begin 2\n+b(");
  auto journal = TransactionJournal::Open(path);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(journal->last_seq(), 1u);
  EXPECT_EQ(ReadFile(path), valid);
}

// --- ActiveDatabase::Open / Checkpoint ------------------------------------

constexpr char kRules[] = R"(
  onboard: +emp(X) -> +active(X).
  cleanup: emp(X), !active(X), payroll(X, S) -> -payroll(X, S).
)";

ActiveDatabase::OpenParams DirParams() {
  ActiveDatabase::OpenParams params;
  params.rules = kRules;
  return params;
}

Status CommitInsert(ActiveDatabase& db, const std::string& predicate,
                    const std::vector<std::string>& args) {
  Transaction tx = db.Begin();
  tx.Insert(predicate, args);
  return std::move(tx).Commit().status();
}

TEST_F(DurabilityTest, OpenCommitReopenCycle) {
  std::string db_dir = Path("db");
  std::string state;
  {
    auto db = ActiveDatabase::Open(db_dir, DirParams());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(db->dir(), db_dir);
    EXPECT_EQ(db->durable_seq(), 0u);
    ASSERT_TRUE(CommitInsert(*db, "emp", {"ada"}).ok());
    ASSERT_TRUE(CommitInsert(*db, "emp", {"bob"}).ok());
    EXPECT_EQ(db->durable_seq(), 2u);
    state = db->database().ToString();
  }
  {
    auto db = ActiveDatabase::Open(db_dir, DirParams());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(db->database().ToString(), state);
    EXPECT_EQ(db->durable_seq(), 2u);
    EXPECT_TRUE(db->Contains(
        ParseGroundAtom("active(ada)", db->symbols()).value()));
  }
}

TEST_F(DurabilityTest, OpenWithMissingParentDirectoryFails) {
  auto db = ActiveDatabase::Open(Path("no_parent") + "/a/b", DirParams());
  ASSERT_FALSE(db.ok());
  EXPECT_NE(db.status().code(), StatusCode::kDataLoss);
}

TEST_F(DurabilityTest, CheckpointTruncatesJournalAndPreservesState) {
  std::string db_dir = Path("db");
  std::string state;
  {
    auto db = ActiveDatabase::Open(db_dir, DirParams());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(CommitInsert(*db, "emp", {"ada"}).ok());
    ASSERT_TRUE(CommitInsert(*db, "emp", {"bob"}).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_EQ(db->durable_seq(), 2u);  // the watermark carries the seq

    // The journal was truncated; only post-checkpoint records remain.
    auto records = TransactionJournal::ReadRecords(db_dir + "/journal.log",
                                                   db->symbols());
    ASSERT_TRUE(records.ok());
    EXPECT_TRUE(records->empty());

    ASSERT_TRUE(CommitInsert(*db, "emp", {"eve"}).ok());
    EXPECT_EQ(db->durable_seq(), 3u);
    records = TransactionJournal::ReadRecords(db_dir + "/journal.log",
                                              db->symbols());
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records->size(), 1u);
    EXPECT_EQ((*records)[0].seq, 3u);
    state = db->database().ToString();

    // No checkpoint debris left behind.
    EXPECT_FALSE(Env::Default()->FileExists(db_dir + "/checkpoint.pending"));
    EXPECT_TRUE(Env::Default()->FileExists(db_dir + "/snapshot.facts"));
  }
  {
    auto db = ActiveDatabase::Open(db_dir, DirParams());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(db->database().ToString(), state);
    EXPECT_EQ(db->durable_seq(), 3u);
  }
}

TEST_F(DurabilityTest, CheckpointIsRepeatable) {
  std::string db_dir = Path("db");
  auto db = ActiveDatabase::Open(db_dir, DirParams());
  ASSERT_TRUE(db.ok());
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(
        CommitInsert(*db, "emp", {"e" + std::to_string(round)}).ok());
    ASSERT_TRUE(db->Checkpoint().ok()) << "round " << round;
  }
  EXPECT_EQ(db->durable_seq(), 3u);
  std::string state = db->database().ToString();

  auto reopened = ActiveDatabase::Open(db_dir, DirParams());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->database().ToString(), state);
  EXPECT_EQ(reopened->durable_seq(), 3u);
}

TEST_F(DurabilityTest, CheckpointRequiresOpen) {
  ActiveDatabase db;
  EXPECT_EQ(db.Checkpoint().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DurabilityTest, CommitAfterAFailedCheckpointStepIsDurable) {
  // A fault at any one mutating operation inside Checkpoint must never
  // leave the database committing without a journal: the next commit
  // either fails or survives a reopen.
  auto open_over = [&](const std::string& db_dir, Env* env) {
    ActiveDatabase::OpenParams params = DirParams();
    params.env = env;
    return ActiveDatabase::Open(db_dir, std::move(params));
  };
  // A fault-free run numbers the operations Checkpoint performs.
  int64_t first = 0;
  int64_t last = 0;
  {
    FaultInjectingEnv env(Env::Default());
    auto db = open_over(Path("counted"), &env);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(CommitInsert(*db, "emp", {"ada"}).ok());
    first = env.op_count();
    ASSERT_TRUE(db->Checkpoint().ok());
    last = env.op_count();
  }
  ASSERT_GT(last, first);
  for (int64_t op = first; op < last; ++op) {
    SCOPED_TRACE(StrFormat("fault at op %lld", static_cast<long long>(op)));
    const std::string db_dir =
        Path(StrFormat("db%lld", static_cast<long long>(op)));
    FaultPlan plan;
    plan.fault_at = op;
    plan.kind = FaultPlan::Kind::kFailOp;
    bool committed = false;
    {
      FaultInjectingEnv env(Env::Default(), plan);
      auto db = open_over(db_dir, &env);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      ASSERT_TRUE(CommitInsert(*db, "emp", {"ada"}).ok());
      Status checkpoint = db->Checkpoint();  // the fault fires in here
      (void)checkpoint;
      committed = CommitInsert(*db, "emp", {"bob"}).ok();
    }
    auto reopened = ActiveDatabase::Open(db_dir, DirParams());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_TRUE(reopened->Contains(
        ParseGroundAtom("emp(ada)", reopened->symbols()).value()));
    if (committed) {
      EXPECT_TRUE(reopened->Contains(
          ParseGroundAtom("emp(bob)", reopened->symbols()).value()));
    }
  }
}

TEST_F(DurabilityTest, InterruptedCheckpointDebrisIsSwept) {
  std::string db_dir = Path("db");
  std::string state;
  {
    auto db = ActiveDatabase::Open(db_dir, DirParams());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(CommitInsert(*db, "emp", {"ada"}).ok());
    state = db->database().ToString();
  }
  // Simulate a crash between a checkpoint's marker write and its
  // completion: marker and temp snapshot left behind, real files intact.
  WriteFile(db_dir + "/checkpoint.pending", "last_seq=1\n");
  WriteFile(db_dir + "/snapshot.facts.tmp", "half a snapsh");
  {
    auto db = ActiveDatabase::Open(db_dir, DirParams());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(db->database().ToString(), state);
  }
  EXPECT_FALSE(Env::Default()->FileExists(db_dir + "/checkpoint.pending"));
  EXPECT_FALSE(Env::Default()->FileExists(db_dir + "/snapshot.facts.tmp"));
}

TEST_F(DurabilityTest, StaleJournalRecordsBelowWatermarkAreSkipped) {
  // A checkpoint interrupted after the snapshot rename but before the
  // journal truncation leaves records at or below the watermark behind;
  // recovery must not double-apply them.
  std::string db_dir = Path("db");
  std::string journal_backup;
  std::string state;
  {
    auto db = ActiveDatabase::Open(db_dir, DirParams());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(CommitInsert(*db, "emp", {"ada"}).ok());
    ASSERT_TRUE(CommitInsert(*db, "emp", {"bob"}).ok());
    journal_backup = ReadFile(db_dir + "/journal.log");
    ASSERT_TRUE(db->Checkpoint().ok());
    state = db->database().ToString();
  }
  // Put the pre-checkpoint journal back, as if truncation never happened.
  WriteFile(db_dir + "/journal.log", journal_backup);
  auto db = ActiveDatabase::Open(db_dir, DirParams());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->database().ToString(), state);
  EXPECT_EQ(db->durable_seq(), 2u);
}

TEST_F(DurabilityTest, MidJournalCorruptionFailsOpenWithDataLoss) {
  std::string db_dir = Path("db");
  {
    auto db = ActiveDatabase::Open(db_dir, DirParams());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(CommitInsert(*db, "emp", {"ada"}).ok());
    ASSERT_TRUE(CommitInsert(*db, "emp", {"bob"}).ok());
  }
  // Flip one hex digit of record 1's CRC: record 2 is still valid after
  // the damage, so this is data loss, not a droppable tail.
  std::string journal_path = db_dir + "/journal.log";
  std::string contents = ReadFile(journal_path);
  size_t crc_pos = contents.find("crc=");
  ASSERT_NE(crc_pos, std::string::npos);
  char& digit = contents[crc_pos + 4];
  digit = (digit == '0') ? '1' : '0';
  WriteFile(journal_path, contents);

  auto db = ActiveDatabase::Open(db_dir, DirParams());
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kDataLoss);
}

TEST_F(DurabilityTest, MalformedSnapshotHeaderIsDataLoss) {
  std::string db_dir = Path("db");
  {
    auto db = ActiveDatabase::Open(db_dir, DirParams());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(CommitInsert(*db, "emp", {"ada"}).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  std::string snapshot_path = db_dir + "/snapshot.facts";
  std::string contents = ReadFile(snapshot_path);
  ASSERT_EQ(contents.rfind("# park-snapshot last_seq=", 0), 0u);
  WriteFile(snapshot_path, "# park-snapshot last_seq=banana\nemp(ada).\n");

  auto db = ActiveDatabase::Open(db_dir, DirParams());
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kDataLoss);
}

// --- replay determinism ---------------------------------------------------

TEST_F(DurabilityTest, ReplayIsDeterministicAcrossRepeatedRecoveries) {
  // Recovery re-RUNS the rules instead of re-reading materialized state,
  // so it leans entirely on the PARK semantics being deterministic
  // (paper §3) given the same program and policy — including through
  // conflicts the policy resolved in the original run.
  ActiveDatabase::OpenParams params;
  params.rules = R"(
    grant: +emp(X) -> +badge(X).
    deny: emp(X), contractor(X) -> -badge(X).
  )";
  std::string db_dir = Path("db");
  std::string state;
  {
    auto db = ActiveDatabase::Open(db_dir, params);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Transaction tx = db->Begin();
    tx.Insert("emp", {"ada"});
    tx.Insert("contractor", {"ada"});  // conflict over badge(ada)
    auto report = std::move(tx).Commit();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->stats.conflicts_resolved, 0u);
    ASSERT_TRUE(CommitInsert(*db, "emp", {"bob"}).ok());
    state = db->database().ToString();
  }
  for (int attempt = 0; attempt < 3; ++attempt) {
    SCOPED_TRACE("recovery attempt " + std::to_string(attempt));
    auto db = ActiveDatabase::Open(db_dir, params);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(db->database().ToString(), state);
    EXPECT_EQ(db->durable_seq(), 2u);
  }
}

}  // namespace
}  // namespace park

// Persistence: file round trips for fact files and programs, the
// transaction journal, and ActiveDatabase crash recovery (Open and
// Checkpoint).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "park/park.h"
#include "util/crc32.h"
#include "util/string_util.h"

namespace park {
namespace {

/// Unique-ish temp path per test; removed on fixture teardown.
class PersistenceTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    std::string path = ::testing::TempDir() + "park_" +
                       ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name() +
                       "_" + name;
    created_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const std::string& path : created_) {
      std::filesystem::remove_all(path);
      std::filesystem::remove_all(path + ".tmp");
    }
  }

  std::vector<std::string> created_;
};

/// Writes `db` as a fact file: one sorted atom per line, as a checkpoint
/// snapshot holds them.
Status WriteFactFile(const Database& db, const std::string& path) {
  std::string contents;
  for (const std::string& atom : db.SortedAtomStrings()) {
    contents += atom + ".\n";
  }
  return WriteStringToFile(contents, path);
}

TEST_F(PersistenceTest, DatabaseRoundTrip) {
  auto symbols = MakeSymbolTable();
  Database db = ParseDatabase(
      "p(a). q(a, 7). r. name(x, \"J. \\\"Q\\\" Doe\").", symbols).value();
  std::string path = TempPath("db.facts");
  ASSERT_TRUE(WriteFactFile(db, path).ok());

  auto loaded = ReadDatabaseFile(path, symbols);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(db.SameAtoms(*loaded));
}

TEST_F(PersistenceTest, DatabaseLoadIntoFreshSymbolTable) {
  auto symbols = MakeSymbolTable();
  Database db = ParseDatabase("p(alpha). q(beta).", symbols).value();
  std::string path = TempPath("db.facts");
  ASSERT_TRUE(WriteFactFile(db, path).ok());
  // A different process would have a different symbol table.
  auto fresh = ReadDatabaseFile(path, MakeSymbolTable());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->ToString(), db.ToString());
}

TEST_F(PersistenceTest, ProgramRoundTrip) {
  auto symbols = MakeSymbolTable();
  Program program = ParseProgram(R"(
    r1 [prio=3]: emp(X), !active(X), payroll(X, S) -> -payroll(X, S).
    -payroll(X, S) -> +audit(X, S).
    -> +seed(a).
  )", symbols).value();
  std::string path = TempPath("prog.rules");
  ASSERT_TRUE(WriteProgramFile(program, path).ok());

  auto loaded = ReadProgramFile(path, MakeSymbolTable());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(ProgramToString(*loaded), ProgramToString(program));
}

TEST_F(PersistenceTest, ReadMissingFileIsNotFound) {
  auto status = ReadDatabaseFile("/nonexistent/park.facts",
                                 MakeSymbolTable()).status();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(PersistenceTest, JournalAppendAndReadRecords) {
  auto symbols = MakeSymbolTable();
  std::string path = TempPath("journal");
  {
    auto journal = TransactionJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    UpdateSet tx1;
    ASSERT_TRUE(tx1.AddParsed("+q(b)", symbols).ok());
    ASSERT_TRUE(tx1.AddParsed("-p(a)", symbols).ok());
    ASSERT_TRUE(journal->Append(tx1, *symbols).ok());
    UpdateSet tx2;
    ASSERT_TRUE(tx2.AddParsed("+r(c)", symbols).ok());
    ASSERT_TRUE(journal->Append(tx2, *symbols).ok());
  }
  auto records = TransactionJournal::ReadRecords(path, symbols);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].seq, 1u);
  EXPECT_EQ((*records)[0].updates.ToString(*symbols), "{+q(b), -p(a)}");
  EXPECT_EQ((*records)[1].seq, 2u);
  EXPECT_EQ((*records)[1].updates.ToString(*symbols), "{+r(c)}");
}

TEST_F(PersistenceTest, JournalMissingFileIsEmpty) {
  auto records =
      TransactionJournal::ReadRecords(TempPath("never_created"),
                                      MakeSymbolTable());
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

// Renders one journal record in the on-disk format with a correct CRC
// footer (mirrors TransactionJournal::Append; kept in sync by the
// round-trip tests).
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

TEST_F(PersistenceTest, JournalTornTailIsIgnored) {
  auto symbols = MakeSymbolTable();
  std::string path = TempPath("journal");
  {
    std::ofstream out(path);
    out << MakeRecord(1, {"+a(1)"})
        << "begin 2\n+b(2)\n";  // crash before the commit footer
  }
  auto records = TransactionJournal::ReadRecords(path, symbols);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].updates.ToString(*symbols), "{+a(1)}");
}

TEST_F(PersistenceTest, JournalTornRecordFollowedByValidOneIsDataLoss) {
  // A torn record in the MIDDLE of the journal means committed bytes
  // vanished; recovery must refuse rather than silently skip it.
  auto symbols = MakeSymbolTable();
  std::string path = TempPath("journal");
  {
    std::ofstream out(path);
    out << "begin 1\n+a(1)\n" << MakeRecord(2, {"+b(2)"});
  }
  auto records = TransactionJournal::ReadRecords(path, symbols);
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kDataLoss);
}

TEST_F(PersistenceTest, JournalMalformedUpdateIsAnError) {
  // The CRC is valid, so the bytes are what the writer wrote — a
  // non-update line inside a committed record is a real error, not
  // damage to be skipped.
  std::string path = TempPath("journal");
  {
    std::ofstream out(path);
    out << MakeRecord(1, {"not_an_update"});
  }
  auto records = TransactionJournal::ReadRecords(path, MakeSymbolTable());
  EXPECT_FALSE(records.ok());
}

TEST_F(PersistenceTest, JournalLineOutsideRecordIsAnError) {
  std::string path = TempPath("journal");
  {
    std::ofstream out(path);
    out << "+a(1)\n";
  }
  auto records = TransactionJournal::ReadRecords(path, MakeSymbolTable());
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kDataLoss);
}

constexpr char kRules[] = R"(
  cleanup: emp(X), !active(X), payroll(X, S) -> -payroll(X, S).
  onboard: +emp(X) -> +active(X).
)";

/// Every Open of one directory installs the same rules.
ActiveDatabase::OpenParams RulesParams() {
  ActiveDatabase::OpenParams params;
  params.rules = kRules;
  params.sync_mode = JournalSyncMode::kFlush;
  return params;
}

TEST_F(PersistenceTest, ActiveDatabaseJournalRecovery) {
  std::string dir = TempPath("db");
  std::string final_state;

  {
    // "Process 1": open a fresh directory and run some transactions.
    auto db = ActiveDatabase::Open(dir, RulesParams());
    ASSERT_TRUE(db.ok()) << db.status().ToString();

    Transaction tx1 = db->Begin();
    tx1.Insert("emp", {"ada"});
    tx1.Insert("payroll", {"ada", "x"});
    ASSERT_TRUE(std::move(tx1).Commit().ok());

    Transaction tx2 = db->Begin();
    tx2.Insert("emp", {"bob"});
    ASSERT_TRUE(std::move(tx2).Commit().ok());

    Transaction tx3 = db->Begin();
    tx3.Delete("active", {"bob"});
    ASSERT_TRUE(std::move(tx3).Commit().ok());

    final_state = db->database().ToString();
  }
  {
    // "Process 2": fresh instance, same rules, replay the journal.
    auto db = ActiveDatabase::Open(dir, RulesParams());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(db->database().ToString(), final_state);
    EXPECT_EQ(db->durable_seq(), 3u);
    // And keep journaling from here.
    Transaction tx = db->Begin();
    tx.Insert("emp", {"eve"});
    auto report = std::move(tx).Commit();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->journal_seq, 4u);
  }
  {
    // "Process 3": the journal now has four records.
    auto db = ActiveDatabase::Open(dir, RulesParams());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(db->durable_seq(), 4u);
    EXPECT_TRUE(db->Contains(
        ParseGroundAtom("active(eve)", db->symbols()).value()));
    EXPECT_NE(db->database().ToString(), final_state);
  }
}

TEST_F(PersistenceTest, CheckpointSaveAndLoad) {
  std::string dir = TempPath("db");
  std::string state;
  {
    auto db = ActiveDatabase::Open(dir, RulesParams());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db->LoadFacts("emp(a). active(a). payroll(a, 100).").ok());
    ASSERT_TRUE(db->Stabilize().ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    state = db->database().ToString();
  }
  {
    auto db = ActiveDatabase::Open(dir, RulesParams());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(db->database().ToString(), state);
  }
}

TEST_F(PersistenceTest, CheckpointPlusJournalWorkflow) {
  std::string dir = TempPath("db");
  std::string state_after_tx;
  {
    auto db = ActiveDatabase::Open(dir, RulesParams());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db->LoadFacts("emp(a). active(a).").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    Transaction tx = db->Begin();
    tx.Insert("emp", {"b"});
    ASSERT_TRUE(std::move(tx).Commit().ok());
    state_after_tx = db->database().ToString();
  }
  {
    auto db = ActiveDatabase::Open(dir, RulesParams());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(db->database().ToString(), state_after_tx);
  }
}

}  // namespace
}  // namespace park

// Robustness of the durable-state loaders: the journal reader and the
// snapshot loader must never crash or hang on damaged files — every call
// returns records (or a loaded database) or a Status with a message.
// Deterministic mutation loop over valid journals and snapshots: byte
// flips, truncations, spliced records, and edited `crc=` / sequence
// fields, in the style of parser_fuzz_test. Mid-journal damage with valid
// records after it must be reported as kDataLoss, never silently dropped.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <string>
#include <vector>

#include "eca/active_database.h"
#include "eca/journal.h"
#include "storage/io.h"
#include "util/random.h"
#include "util/string_util.h"

namespace park {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string MustRead(const std::string& path) {
  auto contents = ReadFileToString(path);
  EXPECT_TRUE(contents.ok()) << contents.status().ToString();
  return contents.ok() ? *contents : std::string();
}

/// A durable database directory holding a checkpointed snapshot (with its
/// `# park-snapshot last_seq=N` header) and a journal of `records` later
/// commits, one of them a folded `batch` record.
struct ValidFiles {
  std::string snapshot;
  std::string journal;
};

ValidFiles MakeValidFiles(int records) {
  const std::string dir = FreshDir("park_loader_fuzz_seed");
  ActiveDatabase::OpenParams params;
  params.rules =
      "onboard: +emp(X) -> +active(X).\n"
      "cleanup: emp(X), !active(X), payroll(X, S) -> -payroll(X, S).\n";
  params.sync_mode = JournalSyncMode::kNone;
  auto db = ActiveDatabase::Open(dir, params);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return {};
  auto commit = [&](int i) {
    Transaction tx = db->Begin();
    tx.Insert("emp", {StrFormat("e%d", i)});
    tx.Insert("payroll", {StrFormat("e%d", i), std::to_string(1000 + i)});
    if (i % 3 == 2) tx.Delete("active", {StrFormat("e%d", i - 1)});
    EXPECT_TRUE(std::move(tx).Commit().ok());
  };
  for (int i = 0; i < 4; ++i) commit(i);
  EXPECT_TRUE(db->Checkpoint().ok());
  for (int i = 4; i < 4 + records; ++i) commit(i);
  ValidFiles files{MustRead(dir + "/snapshot.facts"),
                   MustRead(dir + "/journal.log")};
  // A group-commit record, as a Session writes it.
  UpdateSet folded;
  EXPECT_TRUE(folded.AddParsed("+emp(late)", db->symbols()).ok());
  EXPECT_TRUE(folded.AddParsed("-emp(e0)", db->symbols()).ok());
  auto journal = TransactionJournal::Open(
      dir + "/spliced.log",
      JournalOptions{nullptr, JournalSyncMode::kNone, db->durable_seq() + 1});
  EXPECT_TRUE(journal.ok()) << journal.status().ToString();
  if (journal.ok()) {
    EXPECT_TRUE(journal->Append(folded, *db->symbols(), /*txns=*/2).ok());
    files.journal += MustRead(dir + "/spliced.log");
  }
  return files;
}

/// Byte offsets at which each record of a journal starts.
std::vector<size_t> RecordStarts(const std::string& journal) {
  std::vector<size_t> starts;
  for (size_t pos = 0; pos < journal.size();) {
    if (journal.compare(pos, 6, "begin ") == 0) starts.push_back(pos);
    const size_t nl = journal.find('\n', pos);
    if (nl == std::string::npos) break;
    pos = nl + 1;
  }
  return starts;
}

/// Replaces the digits after `marker` at a random occurrence.
void EditField(Rng& rng, std::string& text, const std::string& marker) {
  std::vector<size_t> hits;
  for (size_t at = text.find(marker); at != std::string::npos;
       at = text.find(marker, at + 1)) {
    hits.push_back(at + marker.size());
  }
  if (hits.empty()) return;
  size_t at = hits[rng.Uniform(hits.size())];
  size_t end = at;
  while (end < text.size() && std::isxdigit(static_cast<unsigned char>(
                                  text[end]))) {
    ++end;
  }
  static const char* kReplacements[] = {"0", "7", "ffffffff", "",
                                        "18446744073709551616", "-1", "x",
                                        "00000000000000000001"};
  text.replace(at, end - at, kReplacements[rng.Uniform(8)]);
}

/// One random mutation of `text`: a byte flip, a truncation, a spliced
/// chunk (duplicated, moved or dropped), or an edited `crc=`, `begin`,
/// `commit` or `last_seq=` field.
std::string Mutate(Rng& rng, std::string text) {
  const int mutations = 1 + static_cast<int>(rng.Uniform(3));
  for (int m = 0; m < mutations && !text.empty(); ++m) {
    const size_t pos = rng.Uniform(text.size());
    const size_t len =
        1 + rng.Uniform(std::min<size_t>(text.size() - pos, 40));
    switch (rng.Uniform(6)) {
      case 0:  // flip a byte, any value
        text[pos] = static_cast<char>(rng.Uniform(256));
        break;
      case 1:  // truncate
        text.resize(pos);
        break;
      case 2:  // duplicate a chunk elsewhere
        text.insert(rng.Uniform(text.size() + 1), text.substr(pos, len));
        break;
      case 3:  // drop a chunk
        text.erase(pos, len);
        break;
      case 4: {  // splice: move a chunk
        std::string chunk = text.substr(pos, len);
        text.erase(pos, len);
        text.insert(rng.Uniform(text.size() + 1), chunk);
        break;
      }
      default: {
        static const char* kFields[] = {"crc=", "begin ", "commit ",
                                        "batch ", "last_seq="};
        EditField(rng, text, kFields[rng.Uniform(5)]);
        break;
      }
    }
  }
  return text;
}

class LoaderFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LoaderFuzzTest, MutatedJournalsReturnRecordsOrStatus) {
  const ValidFiles valid = MakeValidFiles(/*records=*/6);
  ASSERT_FALSE(valid.journal.empty());
  const std::string dir = FreshDir("park_loader_fuzz_journal");
  const std::string path = dir + "/journal.log";
  Rng rng(GetParam());
  size_t read_ok = 0;
  for (int trial = 0; trial < 150; ++trial) {
    ASSERT_TRUE(WriteStringToFile(Mutate(rng, valid.journal), path).ok());
    auto records =
        TransactionJournal::ReadRecords(path, MakeSymbolTable());
    if (records.ok()) {
      ++read_ok;
      for (const JournalRecord& record : *records) {
        EXPECT_GE(record.txns, 1u);
      }
    } else {
      EXPECT_FALSE(records.status().message().empty());
    }
  }
  // Truncations inside the last record read as a torn tail.
  EXPECT_GT(read_ok, 0u);
}

TEST_P(LoaderFuzzTest, MidJournalCorruptionIsDataLoss) {
  const ValidFiles valid = MakeValidFiles(/*records=*/6);
  const std::vector<size_t> starts = RecordStarts(valid.journal);
  ASSERT_GE(starts.size(), 4u);
  const std::string dir = FreshDir("park_loader_fuzz_midjournal");
  const std::string path = dir + "/journal.log";
  Rng rng(GetParam() ^ 0x5151);
  for (int trial = 0; trial < 100; ++trial) {
    // Damage one byte of a record that at least two intact records
    // follow (a changed final newline can take the next one with it).
    const size_t record = rng.Uniform(starts.size() - 2);
    const size_t begin = starts[record];
    const size_t pos = begin + rng.Uniform(starts[record + 1] - begin);
    std::string damaged = valid.journal;
    damaged[pos] = static_cast<char>(
        (static_cast<unsigned char>(damaged[pos]) + 1 + rng.Uniform(255)) %
        256);
    ASSERT_TRUE(WriteStringToFile(damaged, path).ok());
    auto records = TransactionJournal::ReadRecords(path, MakeSymbolTable());
    ASSERT_FALSE(records.ok()) << "byte " << pos << " of record " << record;
    EXPECT_EQ(records.status().code(), StatusCode::kDataLoss)
        << records.status().ToString();
  }
}

TEST_P(LoaderFuzzTest, MutatedSnapshotsLoadOrReturnStatus) {
  // The snapshot loader recovery runs, `# park-snapshot last_seq=` header
  // parse included: a damaged snapshot with no journal beside it.
  const ValidFiles valid = MakeValidFiles(/*records=*/2);
  ASSERT_FALSE(valid.snapshot.empty());
  const std::string dir = FreshDir("park_loader_fuzz_snapshot");
  const std::string path = dir + "/snapshot.facts";
  Rng rng(GetParam() ^ 0x7777);
  for (int trial = 0; trial < 150; ++trial) {
    // Open leaves an empty journal behind; drop it so every trial starts
    // from the snapshot alone.
    std::filesystem::remove(dir + "/journal.log");
    ASSERT_TRUE(WriteStringToFile(Mutate(rng, valid.snapshot), path).ok());
    ActiveDatabase::OpenParams params;
    params.sync_mode = JournalSyncMode::kNone;
    auto db = ActiveDatabase::Open(dir, params);
    if (!db.ok()) {
      EXPECT_FALSE(db.status().message().empty());
    }
  }
}

TEST_P(LoaderFuzzTest, MutatedDirectoriesOpenOrReturnStatus) {
  // Open() reads the snapshot header and replays the journal: both files
  // damaged at once, through the full recovery path.
  const ValidFiles valid = MakeValidFiles(/*records=*/3);
  Rng rng(GetParam() ^ 0x3333);
  for (int trial = 0; trial < 40; ++trial) {
    const std::string dir = FreshDir("park_loader_fuzz_open");
    const bool damage_snapshot = rng.Bernoulli(0.5);
    ASSERT_TRUE(WriteStringToFile(damage_snapshot
                                      ? Mutate(rng, valid.snapshot)
                                      : valid.snapshot,
                                  dir + "/snapshot.facts")
                    .ok());
    ASSERT_TRUE(WriteStringToFile(damage_snapshot
                                      ? valid.journal
                                      : Mutate(rng, valid.journal),
                                  dir + "/journal.log")
                    .ok());
    ActiveDatabase::OpenParams params;
    params.sync_mode = JournalSyncMode::kNone;
    auto db = ActiveDatabase::Open(dir, params);
    if (!db.ok()) {
      EXPECT_FALSE(db.status().message().empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoaderFuzzTest,
                         ::testing::Range<uint64_t>(1, 5));

}  // namespace
}  // namespace park

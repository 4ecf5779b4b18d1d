// Serving-layer oracle: concurrency is an implementation detail of the
// Session front-end, never a semantic one. Whatever interleaving the
// group-commit pipeline produces, (a) the journal must hold ONE record
// per batch whose sequential replay reproduces the served state
// bit-identically, and (b) every Snapshot must observe exactly the state
// some journal prefix produces — never a torn commit, never an
// uncommitted batch. Run under TSan in CI (the serving job), where the
// lock-free reader path and the leader/follower queue get their data-race
// certification.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/policy.h"
#include "eca/journal.h"
#include "lang/query.h"
#include "serve/published_relation.h"
#include "serve/session.h"
#include "util/random.h"
#include "util/string_util.h"

namespace park {
namespace {

std::string TempDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

/// Spin latch: releases all waiting threads at once so commits actually
/// arrive concurrently and the pipeline has batches to fold.
class StartGate {
 public:
  void Wait() const {
    while (!open_.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  void Open() { open_.store(true, std::memory_order_release); }

 private:
  std::atomic<bool> open_{false};
};

struct SnapshotObservation {
  uint64_t journal_seq = 0;
  std::string state;
};

struct CommitObservation {
  uint64_t journal_seq = 0;
  uint64_t batch_seq = 0;
  uint32_t batch_size = 0;
  uint32_t batch_position = 0;
  std::vector<GroundAtom> inserted;
  std::vector<GroundAtom> deleted;
  std::string stats;
};

CommitObservation Observe(const CommitReport& report) {
  return {report.journal_seq, report.batch_seq,     report.batch_size,
          report.batch_position, report.inserted, report.deleted,
          report.stats.ToJson()};
}

/// Batch-report invariants: members of one (non-retried) batch agree on
/// the journal record, the batch size, the folded diff and the stats,
/// and occupy distinct positions. Returns the number of such batches.
size_t ExpectBatchMembersAgree(
    const std::vector<std::vector<CommitObservation>>& commits) {
  std::map<uint64_t, std::vector<const CommitObservation*>> by_batch;
  for (const auto& writer : commits) {
    for (const CommitObservation& obs : writer) {
      EXPECT_GT(obs.journal_seq, 0u);
      EXPECT_GE(obs.batch_size, 1u);
      EXPECT_LT(obs.batch_position, obs.batch_size);
      if (obs.batch_size > 1) by_batch[obs.batch_seq].push_back(&obs);
    }
  }
  for (const auto& [batch_seq, members] : by_batch) {
    SCOPED_TRACE(StrFormat("batch %llu",
                           static_cast<unsigned long long>(batch_seq)));
    const CommitObservation& first = *members.front();
    std::set<uint32_t> positions;
    for (const CommitObservation* obs : members) {
      EXPECT_EQ(obs->journal_seq, first.journal_seq);
      EXPECT_EQ(obs->batch_size, first.batch_size);
      EXPECT_EQ(obs->inserted, first.inserted);
      EXPECT_EQ(obs->deleted, first.deleted);
      EXPECT_EQ(obs->stats, first.stats);
      positions.insert(obs->batch_position);
    }
    EXPECT_EQ(positions.size(), members.size()) << "a repeated position";
  }
  return by_batch.size();
}

/// Writers commit concurrently through a Session whose Γ runs on
/// `num_threads`; readers snapshot meanwhile. The journal, replayed one
/// record at a time, must reproduce every observed state.
void CheckConcurrentCommitsAgainstReplay(int num_threads) {
  SCOPED_TRACE(StrFormat("num_threads=%d", num_threads));
  const std::string dir =
      TempDir(StrFormat("park_serving_oracle_%d", num_threads));
  const char* kRules = "+emp(X) -> +active(X).\n"
                       "-emp(X), payroll(X, S) -> -payroll(X, S).\n";
  constexpr int kWriters = 4;
  constexpr int kCommitsPerWriter = 12;
  constexpr int kReaders = 2;

  Session::Params params;
  params.rules = kRules;
  params.sync_mode = JournalSyncMode::kNone;  // speed; durable group
                                              // commit is tested below
  params.options.num_threads = num_threads;
  auto session_or = Session::Open(dir, std::move(params));
  ASSERT_TRUE(session_or.ok()) << session_or.status().ToString();
  std::unique_ptr<Session> session = std::move(session_or).value();

  StartGate gate;
  std::atomic<bool> writers_done{false};
  std::vector<std::vector<CommitObservation>> commits(kWriters);
  std::vector<std::vector<SnapshotObservation>> reads(kReaders);
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      gate.Wait();
      for (int i = 0; i < kCommitsPerWriter; ++i) {
        Transaction tx = session->Begin();
        tx.Insert("emp", {StrFormat("w%d_%d", w, i)});
        if (i % 3 == 2) {
          tx.Insert("payroll", {StrFormat("w%d_%d", w, i), "1000"});
        }
        auto report = std::move(tx).Commit();
        if (!report.ok()) {
          ++failures;
          continue;
        }
        commits[w].push_back(Observe(*report));
      }
    });
  }
  // Readers snapshot continuously while the writers run; each
  // observation is (journal_seq, full rendered state).
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      gate.Wait();
      while (!writers_done.load(std::memory_order_acquire)) {
        park::Snapshot snap = session->Snapshot();
        reads[r].push_back({snap.journal_seq(), snap.ToString()});
        std::this_thread::yield();
      }
    });
  }
  gate.Open();
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  writers_done.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  ASSERT_EQ(failures.load(), 0);

  // --- Oracle: sequential replay of the journal, one record at a time,
  // recording the state after every prefix. ---
  auto records = TransactionJournal::ReadRecords(dir + "/journal.log",
                                                 session->symbols());
  ASSERT_TRUE(records.ok()) << records.status().ToString();

  ActiveDatabase oracle(session->symbols());
  ASSERT_TRUE(oracle.LoadRules(kRules).ok());
  std::map<uint64_t, std::string> state_at;  // journal_seq -> state
  state_at[0] = oracle.database().ToString();
  uint64_t total_txns = 0;
  uint64_t prev_seq = 0;
  for (const JournalRecord& record : *records) {
    EXPECT_GT(record.seq, prev_seq) << "journal sequence must ascend";
    prev_seq = record.seq;
    total_txns += record.txns;
    Transaction tx = oracle.Begin();
    for (const Update& update : record.updates.updates()) {
      if (update.action == ActionKind::kInsert) {
        tx.Insert(update.atom);
      } else {
        tx.Delete(update.atom);
      }
    }
    auto replayed = std::move(tx).Commit();
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    state_at[record.seq] = oracle.database().ToString();
  }

  // One folded record per batch: the journal's txns sum to every commit.
  EXPECT_EQ(total_txns,
            static_cast<uint64_t>(kWriters) * kCommitsPerWriter);

  // The served final state is the replayed final state, bit-identically.
  EXPECT_EQ(session->Snapshot().ToString(),
            oracle.database().ToString());

  // Every snapshot observed exactly a committed prefix state.
  size_t observations = 0;
  for (const auto& reader : reads) {
    for (const SnapshotObservation& obs : reader) {
      auto it = state_at.find(obs.journal_seq);
      ASSERT_NE(it, state_at.end())
          << "snapshot at seq " << obs.journal_seq
          << " does not match any commit boundary";
      EXPECT_EQ(obs.state, it->second)
          << "snapshot diverges from the sequential replay at seq "
          << obs.journal_seq;
      ++observations;
    }
  }
  EXPECT_GT(observations, 0u);

  ExpectBatchMembersAgree(commits);

  // Batch journal records replay through Open as well: a reopened
  // session serves the identical state.
  session.reset();
  Session::Params reopen;
  reopen.rules = kRules;
  reopen.options.num_threads = num_threads;
  auto reopened = Session::Open(dir, std::move(reopen));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Snapshot().ToString(),
            oracle.database().ToString());
}

TEST(ServingOracleTest, ConcurrentCommitsMatchSequentialJournalReplay) {
  // At 4 threads successive batches are led by different writer threads
  // over the one pool the database keeps across commits.
  for (int num_threads : {1, 4}) {
    CheckConcurrentCommitsAgainstReplay(num_threads);
    if (HasFatalFailure()) return;
  }
}

/// The default Env, except that every Sync takes at least a millisecond:
/// a durable commit costs the same on any disk, so group commit has
/// something to amortize however fast the host's fsync is.
class SlowSyncEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, WriteMode mode) override {
    auto file = base_->NewWritableFile(path, mode);
    if (!file.ok()) return file.status();
    return std::unique_ptr<WritableFile>(
        std::make_unique<SlowSyncFile>(std::move(file).value()));
  }
  Result<std::string> ReadFileToString(const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }

 private:
  class SlowSyncFile : public WritableFile {
   public:
    explicit SlowSyncFile(std::unique_ptr<WritableFile> file)
        : file_(std::move(file)) {}
    Status Append(std::string_view data) override {
      return file_->Append(data);
    }
    Status Flush() override { return file_->Flush(); }
    Status Sync() override {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return file_->Sync();
    }
    Status Close() override { return file_->Close(); }

   private:
    std::unique_ptr<WritableFile> file_;
  };

  Env* base_ = Env::Default();
};

TEST(ServingOracleTest, DurableGroupCommitFoldsConcurrentWriters) {
  // While one batch syncs, the other writers queue up: with 8 writers
  // the batches average at least two transactions, each batch is one
  // journal record, and the result is the sequential one.
  const std::string dir = TempDir("park_serving_group_commit");
  const char* kRules = "+emp(X) -> +active(X).\n";
  constexpr int kWriters = 8;
  constexpr int kCommitsPerWriter = 16;
  SlowSyncEnv env;
  Session::Params params;
  params.rules = kRules;
  params.env = &env;
  params.sync_mode = JournalSyncMode::kFsync;
  auto session_or = Session::Open(dir, std::move(params));
  ASSERT_TRUE(session_or.ok()) << session_or.status().ToString();
  std::unique_ptr<Session> session = std::move(session_or).value();

  StartGate gate;
  std::atomic<int> failures{0};
  std::vector<std::vector<CommitObservation>> commits(kWriters);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      gate.Wait();
      for (int i = 0; i < kCommitsPerWriter; ++i) {
        Transaction tx = session->Begin();
        tx.Insert("emp", {StrFormat("w%d_%d", w, i)});
        auto report = std::move(tx).Commit();
        if (!report.ok()) {
          ++failures;
          continue;
        }
        commits[w].push_back(Observe(*report));
      }
    });
  }
  gate.Open();
  for (std::thread& t : writers) t.join();
  ASSERT_EQ(failures.load(), 0);
  // Each member of a folded batch gets the whole report, its own
  // placement aside.
  EXPECT_GT(ExpectBatchMembersAgree(commits), 0u);

  const ParkStats::ServingCounters counters = session->serving_stats();
  EXPECT_EQ(counters.batched_txns,
            static_cast<uint64_t>(kWriters) * kCommitsPerWriter);
  EXPECT_GE(counters.batched_txns, 2 * counters.batches)
      << counters.batches << " batches";
  auto records = TransactionJournal::ReadRecords(dir + "/journal.log",
                                                 session->symbols());
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(records->size(), counters.batches);

  // Insert-only, with distinct atoms: every order of the same commits
  // reaches the state of this one.
  ActiveDatabase sequential;
  ASSERT_TRUE(sequential.LoadRules(kRules).ok());
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kCommitsPerWriter; ++i) {
      Transaction tx = sequential.Begin();
      tx.Insert("emp", {StrFormat("w%d_%d", w, i)});
      ASSERT_TRUE(std::move(tx).Commit().ok());
    }
  }
  EXPECT_EQ(session->Snapshot().ToString(),
            sequential.database().ToString());
}

TEST(ServingOracleTest, SnapshotsPinTheirGenerationAcrossLaterCommits) {
  auto session_or = Session::Create({});
  ASSERT_TRUE(session_or.ok()) << session_or.status().ToString();
  std::unique_ptr<Session> session = std::move(session_or).value();

  ASSERT_TRUE(std::move(session->Begin().Insert("p", {"a"})).Commit().ok());
  park::Snapshot before = session->Snapshot();
  ASSERT_TRUE(std::move(session->Begin().Insert("p", {"b"})).Commit().ok());
  park::Snapshot after = session->Snapshot();

  // The old handle still reads its pinned generation...
  EXPECT_EQ(before.ToString(), "{p(a)}");
  EXPECT_EQ(after.ToString(), "{p(a), p(b)}");
  EXPECT_LT(before.generation(), after.generation());
  auto hits = before.Query("p(X)");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->bindings.size(), 1u);
  EXPECT_TRUE(after.Matches("p(b)").value());
  EXPECT_FALSE(before.Matches("p(b)").value());

  // ...and the accounting sees two live pins on distinct generations.
  ParkStats::ServingCounters counters = session->serving_stats();
  EXPECT_EQ(counters.snapshots_opened, 2u);
  EXPECT_EQ(counters.snapshots_pinned, 2u);
  EXPECT_EQ(counters.segment_generations_retained, 2u);

  // Dropping one handle releases exactly its pin (copies share a pin).
  park::Snapshot copy = before;
  before = park::Snapshot();
  EXPECT_EQ(session->serving_stats().snapshots_pinned, 2u);
  copy = park::Snapshot();
  counters = session->serving_stats();
  EXPECT_EQ(counters.snapshots_pinned, 1u);
  EXPECT_EQ(counters.segment_generations_retained, 1u);

  // A snapshot outlives its session: destruction of everything the
  // session owned must not disturb the pinned relations.
  session.reset();
  EXPECT_EQ(after.ToString(), "{p(a), p(b)}");
}

TEST(ServingOracleTest, PoisonedBatchFallsBackToIndividualCommits) {
  // The conflict only exists WITHIN a batch: +x(I) and +y(I) are staged
  // by different transactions, so only a fold that unites the two events
  // fires the +a/-a pair. The abstaining policy turns that conflict into
  // a failed folded firing; the pipeline must then commit the members
  // individually (where neither rule fires) without failing anyone.
  Session::Params params;
  params.rules = "+x(I), +y(I) -> +a(I).\n"
                 "+x(I), +y(I) -> -a(I).\n";
  params.options.policy = MakeLambdaPolicy(
      "abstain", [](const PolicyContext&, const Conflict&) -> Result<Vote> {
        return Vote::kAbstain;
      });
  auto session_or = Session::Create(std::move(params));
  ASSERT_TRUE(session_or.ok()) << session_or.status().ToString();
  std::unique_ptr<Session> session = std::move(session_or).value();

  constexpr int kRounds = 25;
  constexpr int kPairs = 3;
  for (int round = 0; round < kRounds; ++round) {
    StartGate gate;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int p = 0; p < kPairs; ++p) {
      for (const char* pred : {"x", "y"}) {
        threads.emplace_back([&, p, pred] {
          gate.Wait();
          Transaction tx = session->Begin();
          tx.Insert(pred, {StrFormat("i%d_%d", round, p)});
          if (!std::move(tx).Commit().ok()) ++failures;
        });
      }
    }
    gate.Open();
    for (std::thread& t : threads) t.join();
    ASSERT_EQ(failures.load(), 0) << "round " << round;
    // Stop as soon as the scheduler actually co-batched a pair.
    if (session->serving_stats().poisoned_batches > 0) break;
  }

  ParkStats::ServingCounters counters = session->serving_stats();
  if (counters.poisoned_batches > 0) {
    // A poisoned batch of k retries k members.
    EXPECT_GE(counters.individual_retries, 2 * counters.poisoned_batches);
  }
  // Whatever got batched, no a(...) may survive and every insert landed.
  park::Snapshot snap = session->Snapshot();
  EXPECT_FALSE(snap.Matches("a(_)").value());
  auto xs = snap.Query("x(I)");
  auto ys = snap.Query("y(I)");
  ASSERT_TRUE(xs.ok());
  ASSERT_TRUE(ys.ok());
  EXPECT_EQ(xs->bindings.size(), ys->bindings.size());
  EXPECT_GT(xs->bindings.size(), 0u);
}

TEST(ServingOracleTest, ReportsAndStatsDescribeTheBatching) {
  auto session_or = Session::Create({});
  ASSERT_TRUE(session_or.ok());
  std::unique_ptr<Session> session = std::move(session_or).value();

  auto report = std::move(session->Begin().Insert("p", {"a"})).Commit();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->batch_seq, 0u);
  EXPECT_EQ(report->batch_size, 1u);
  EXPECT_EQ(report->batch_position, 0u);
  // Each report carries the serving block it was committed under.
  EXPECT_GE(report->stats.serving.batches, 1u);

  ParkStats::ServingCounters counters = session->serving_stats();
  EXPECT_EQ(counters.batches, 1u);
  EXPECT_EQ(counters.batched_txns, 1u);
  EXPECT_EQ(counters.max_batch_size, 1u);
  uint64_t hist_sum = 0;
  for (uint64_t bucket : counters.batch_size_hist) hist_sum += bucket;
  EXPECT_EQ(hist_sum, counters.batches);

  // max_group_size = 1 disables folding entirely.
  Session::Params solo;
  solo.max_group_size = 1;
  auto unbatched = Session::Create(std::move(solo));
  ASSERT_TRUE(unbatched.ok());
  EXPECT_EQ((*unbatched)->max_group_size(), 1u);
}

TEST(ServingOracleTest, SessionQueryAndStabilizeServeCommittedState) {
  Session::Params params;
  params.rules = "p(X) -> +q(X).";
  auto session_or = Session::Create(std::move(params));
  ASSERT_TRUE(session_or.ok());
  std::unique_ptr<Session> session = std::move(session_or).value();

  ASSERT_TRUE(session->LoadFacts("p(a). p(b).").ok());
  // LoadFacts republishes without firing rules...
  EXPECT_FALSE(session->Snapshot().Matches("q(_)").value());
  // ...Stabilize fires them and republishes again.
  auto stabilized = session->Stabilize();
  ASSERT_TRUE(stabilized.ok()) << stabilized.status().ToString();
  auto hits = session->Query("q(X)");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->bindings.size(), 2u);
}

/// One generation of the fold script: the snapshot the session served
/// after a step, and the sequential replay's database after it.
struct PinnedGeneration {
  std::string step;
  park::Snapshot snapshot;
  Database expected;
};

TEST(ServingOracleTest, SnapshotsAcrossOverlayFoldsMatchSequentialReplay) {
  // r starts with kBaseRows loaded atoms b0, b1, .... Every commit inserts
  // two fresh r atoms. Between two folds the special cases remove at most
  // one row from r's overlay (a re-insert revives a tombstone, a delete
  // drops an added row, each after the commit that grew it), so m commits
  // after a fold the overlay holds at least 2m - 1 rows. r never holds
  // more than kMaxRows rows, so it folds again within kFoldWithin
  // commits: the script folds r several times, and at least twice after
  // LoadFacts rebuilds every base in full.
  constexpr int kBaseRows = 64;
  constexpr int kCommits = 40;
  constexpr int kLoadStep = 10;
  constexpr int kStabilizeStep = 20;
  constexpr int kPoisonStep = 30;
  constexpr int kMaxRows = kBaseRows + 3 * kCommits + 3;
  constexpr int kFoldWithin =
      kMaxRows /
          (2 * static_cast<int>(
                   serve_internal::PublishedRelation::kFoldDivisor)) +
      2;
  static_assert(kCommits - kLoadStep >= 2 * kFoldWithin);

  // Deleting an r atom records it in gone, re-inserting it clears it; q
  // atoms, which LoadFacts adds without firing, make Stabilize insert.
  // The x/y pair fires only when one batch folds both events, and the
  // abstaining policy then fails the folded firing: a poisoned batch.
  const char* kRules = "-r(X) -> +gone(X).\n"
                       "+r(X) -> -gone(X).\n"
                       "q(X) -> +r(X).\n"
                       "+x(I), +y(I) -> +a(I).\n"
                       "+x(I), +y(I) -> -a(I).\n";
  auto abstain = [] {
    return MakeLambdaPolicy(
        "abstain", [](const PolicyContext&, const Conflict&) -> Result<Vote> {
          return Vote::kAbstain;
        });
  };
  Session::Params params;
  params.rules = kRules;
  params.options.policy = abstain();
  auto session_or = Session::Create(std::move(params));
  ASSERT_TRUE(session_or.ok()) << session_or.status().ToString();
  std::unique_ptr<Session> session = std::move(session_or).value();

  ActiveDatabase oracle(session->symbols());
  ASSERT_TRUE(oracle.LoadRules(kRules).ok());
  ParkOptions oracle_options;
  oracle_options.policy = abstain();
  ASSERT_TRUE(oracle.Configure(std::move(oracle_options)).ok());

  std::vector<PinnedGeneration> generations;
  auto pin = [&](std::string step) {
    generations.push_back(
        {std::move(step), session->Snapshot(), oracle.database().Clone()});
  };
  auto load = [&](const std::string& facts) {
    ASSERT_TRUE(session->LoadFacts(facts).ok());
    ASSERT_TRUE(oracle.LoadFacts(facts).ok());
    pin("load " + facts);
  };
  auto commit = [&](const std::vector<std::string>& updates) {
    Transaction tx = session->Begin();
    Transaction replay = oracle.Begin();
    std::string step = "commit";
    for (const std::string& update : updates) {
      ASSERT_TRUE(tx.Stage(update).ok()) << update;
      ASSERT_TRUE(replay.Stage(update).ok()) << update;
      step += " " + update;
    }
    auto served = std::move(tx).Commit();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    auto replayed = std::move(replay).Commit();
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    pin(step);
  };

  std::string base_facts;
  for (int i = 0; i < kBaseRows; ++i) base_facts += StrFormat("r(b%d). ", i);
  load(base_facts);
  for (int s = 0; s < kCommits; ++s) {
    if (s == kLoadStep) load("r(l1). r(l2). q(z).");
    if (s == kStabilizeStep) {
      auto served = session->Stabilize();
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      ASSERT_TRUE(oracle.Stabilize().ok());
      pin("stabilize");
    }
    if (s == kPoisonStep) {
      // Commit +x(pK) and +y(pK) from two threads until one batch folds
      // them. Alone, each commits without firing a rule, so the replay
      // commits them one after the other, whatever the batching was.
      for (int round = 0; round < 25; ++round) {
        const std::string id = StrFormat("p%d", round);
        StartGate gate;
        std::atomic<int> failures{0};
        std::vector<std::thread> threads;
        for (const char* pred : {"x", "y"}) {
          threads.emplace_back([&, pred] {
            gate.Wait();
            Transaction tx = session->Begin();
            tx.Insert(pred, {id});
            if (!std::move(tx).Commit().ok()) ++failures;
          });
        }
        gate.Open();
        for (std::thread& t : threads) t.join();
        ASSERT_EQ(failures.load(), 0);
        for (const char* pred : {"x", "y"}) {
          Transaction replay = oracle.Begin();
          replay.Insert(pred, {id});
          ASSERT_TRUE(std::move(replay).Commit().ok());
        }
        if (session->serving_stats().poisoned_batches > 0) break;
      }
      pin("poisoned batch");
    }
    std::vector<std::string> updates = {StrFormat("+r(f%da)", s),
                                        StrFormat("+r(f%db)", s)};
    switch (s % 4) {
      case 0:  // delete a base atom...
        updates.push_back(StrFormat("-r(b%d)", s));
        break;
      case 1:  // ...and re-insert it in the next commit
        updates.push_back(StrFormat("+r(b%d)", s - 1));
        break;
      case 2:  // insert a new atom...
        updates.push_back(StrFormat("+r(n%d)", s));
        break;
      case 3:  // ...and delete it in the next commit
        updates.push_back(StrFormat("-r(n%d)", s - 1));
        break;
    }
    commit(updates);
  }

  // Every atom any generation held: Contains must answer for each.
  std::vector<GroundAtom> touched;
  {
    std::set<std::string> seen;
    for (const PinnedGeneration& g : generations) {
      g.expected.ForEach([&](const GroundAtom& atom) {
        if (seen.insert(atom.ToString(*session->symbols())).second) {
          touched.push_back(atom);
        }
      });
    }
  }
  const std::shared_ptr<SymbolTable> symbols = session->symbols();

  // Every pinned snapshot outlives the session, including those taken
  // before the later folds replaced the bases they hold.
  session.reset();
  for (const PinnedGeneration& g : generations) {
    SCOPED_TRACE(g.step);
    EXPECT_EQ(g.snapshot.SortedAtomStrings(), g.expected.SortedAtomStrings());
    EXPECT_EQ(g.snapshot.ToString(), g.expected.ToString());
    EXPECT_EQ(g.snapshot.size(), g.expected.size());
    for (const GroundAtom& atom : touched) {
      EXPECT_EQ(g.snapshot.Contains(atom), g.expected.Contains(atom))
          << atom.ToString(*symbols);
    }
    for (const char* pattern :
         {"r(X)", "gone(X)", "r(b4)", "r(b5)", "r(n6)", "r(f12a)", "r(l1)",
          "q(X)", "x(I)", "y(I)", "a(I)", "nowhere(X)"}) {
      auto served = g.snapshot.Query(pattern);
      auto expected = QueryDatabase(g.expected, pattern, symbols);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      EXPECT_EQ(served->variable_names, expected->variable_names) << pattern;
      EXPECT_EQ(served->bindings, expected->bindings) << pattern;
    }
  }
}

/// The rows of `rel` in a set, checking that ForEachRow yields each once.
std::set<Tuple> RowsOf(const serve_internal::PublishedRelation& rel) {
  std::set<Tuple> rows;
  size_t visited = 0;
  rel.ForEachRow([&](const Value* row) {
    rows.insert(Tuple(std::span<const Value>(row, rel.arity())));
    ++visited;
  });
  EXPECT_EQ(visited, rows.size());
  return rows;
}

TEST(PublishedRelationTest, EveryVersionKeepsItsRowsAcrossFolds) {
  // Random diffs over p(i, j) with i, j < 12, checked against a set.
  // Half the changes toggle a row an earlier diff changed, so revivals,
  // dropped adds and tombstones of added-then-folded rows all occur.
  using serve_internal::PublishedRelation;
  constexpr int kSide = 12;
  Rng rng(5);
  auto row = [](int i, int j) { return Tuple{Value::Int(i), Value::Int(j)}; };
  Relation relation(2);
  std::set<Tuple> model;
  for (int k = 0; k < 64; ++k) {
    Tuple t = row(rng.UniformInt(0, kSide - 1), rng.UniformInt(0, kSide - 1));
    relation.Insert(t);
    model.insert(t);
  }

  std::shared_ptr<const PublishedRelation> current =
      PublishedRelation::Build(relation);
  std::vector<std::pair<std::shared_ptr<const PublishedRelation>,
                        std::set<Tuple>>>
      versions = {{current, model}};
  int folds = 0;
  std::vector<Tuple> changed;
  for (int c = 0; c < 120; ++c) {
    std::vector<GroundAtom> inserted, deleted;
    std::set<Tuple> in_diff;
    const int changes = static_cast<int>(rng.UniformInt(1, 3));
    for (int k = 0; k < changes; ++k) {
      Tuple t = !changed.empty() && rng.Bernoulli(0.5)
                    ? changed[changed.size() - 1 -
                              rng.UniformInt(0, std::min<int64_t>(
                                                    changed.size() - 1, 7))]
                    : row(rng.UniformInt(0, kSide - 1),
                          rng.UniformInt(0, kSide - 1));
      if (!in_diff.insert(t).second) continue;
      changed.push_back(t);
      if (model.erase(t) > 0) {
        deleted.emplace_back(0, t);
      } else {
        model.insert(t);
        inserted.emplace_back(0, t);
      }
    }
    std::vector<const GroundAtom*> ins, del;
    for (const GroundAtom& a : inserted) ins.push_back(&a);
    for (const GroundAtom& a : deleted) del.push_back(&a);
    std::shared_ptr<const PublishedRelation> next =
        current->WithDiff(ins, del);
    if (&next->base() != &current->base()) ++folds;
    current = std::move(next);
    versions.push_back({current, model});
  }
  EXPECT_GE(folds, 2);

  for (size_t v = 0; v < versions.size(); ++v) {
    SCOPED_TRACE(StrFormat("version %d", static_cast<int>(v)));
    const PublishedRelation& rel = *versions[v].first;
    const std::set<Tuple>& expected = versions[v].second;
    EXPECT_EQ(rel.size(), expected.size());
    EXPECT_EQ(RowsOf(rel), expected);
    for (int i = 0; i < kSide; ++i) {
      for (int j = 0; j < kSide; ++j) {
        const Tuple t = row(i, j);
        EXPECT_EQ(rel.Contains(t.begin()), expected.count(t) > 0);
      }
    }
  }
}

TEST(PublishedRelationTest, NullaryRelationHoldsAtMostTheEmptyRow) {
  using serve_internal::PublishedRelation;
  const GroundAtom unit(0, Tuple{});
  const std::vector<const GroundAtom*> one = {&unit};
  const std::vector<const GroundAtom*> none;
  auto empty = PublishedRelation::Empty(0);
  auto full = empty->WithDiff(one, none);
  auto emptied = full->WithDiff(none, one);
  EXPECT_EQ(empty->size(), 0u);
  EXPECT_EQ(full->size(), 1u);
  EXPECT_EQ(emptied->size(), 0u);
  EXPECT_FALSE(empty->Contains(nullptr));
  EXPECT_TRUE(full->Contains(nullptr));
  EXPECT_FALSE(emptied->Contains(nullptr));
}

}  // namespace
}  // namespace park

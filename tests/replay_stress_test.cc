// End-to-end durability property: after any sequence of random
// transactions against a durable ActiveDatabase (Open), reopening its
// directory replays the journal into a fresh instance and reproduces the
// exact final state — the determinism of PARK (paper §3) made
// operational.

#include <gtest/gtest.h>

#include <filesystem>

#include "park/park.h"
#include "util/random.h"
#include "util/string_util.h"

namespace park {
namespace {

constexpr char kRules[] = R"(
  # Users and sessions with cascading rules and one conflict pair.
  on_join [src=1]:  +user(U) -> +online(U).
  on_part [src=1]:  -user(U), online(U) -> -online(U).
  on_part2 [src=1]: -user(U), session(U, S) -> -session(U, S).
  # Moderation tug-of-war resolved by priority.
  ban [prio=10]:    banned(U), online(U) -> -online(U).
  greet [prio=1]:   user(U) -> +online(U).
)";

PolicyPtr MakeTestPolicy() {
  return MakeCompositePolicy(
      {MakeRulePriorityPolicy(), MakeInertiaPolicy()});
}

/// Same rules and policy on every Open, as replay requires.
ActiveDatabase::OpenParams TestParams() {
  ActiveDatabase::OpenParams params;
  params.rules = kRules;
  params.sync_mode = JournalSyncMode::kFlush;
  params.options.policy = MakeTestPolicy();
  return params;
}

class ReplayStressTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void TearDown() override {
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }
  std::string dir_;
};

TEST_P(ReplayStressTest, JournalReplayReproducesState) {
  dir_ = ::testing::TempDir() + "park_replay_" + std::to_string(GetParam());
  std::filesystem::remove_all(dir_);

  Rng rng(GetParam());
  std::string final_state;
  size_t committed = 0;
  {
    auto opened = ActiveDatabase::Open(dir_, TestParams());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ActiveDatabase& db = *opened;

    for (int t = 0; t < 40; ++t) {
      Transaction tx = db.Begin();
      int ops = 1 + static_cast<int>(rng.Uniform(4));
      for (int o = 0; o < ops; ++o) {
        std::string user = "u" + std::to_string(rng.Uniform(6));
        switch (rng.Uniform(5)) {
          case 0:
            tx.Insert("user", {user});
            break;
          case 1:
            tx.Delete("user", {user});
            break;
          case 2:
            tx.Insert("session", {user, StrFormat("s%d", t)});
            break;
          case 3:
            tx.Insert("banned", {user});
            break;
          default:
            tx.Delete("banned", {user});
            break;
        }
      }
      auto report = std::move(tx).Commit();
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ++committed;
    }
    final_state = db.database().ToString();
  }

  // Crash. New process: same rules + policy, no snapshot, replay.
  {
    auto recovered = ActiveDatabase::Open(dir_, TestParams());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered->database().ToString(), final_state);
  }

  // The journal holds exactly the committed records.
  auto records = TransactionJournal::ReadRecords(dir_ + "/journal.log",
                                                 MakeSymbolTable());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), committed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayStressTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace park

// Commit-diff rollback: ActiveDatabase applies every commit's diff in
// place, and a journal failure must undo it exactly, restoring D. The
// successful commits in between are checked against
// `Park(D, P, U).database.DiffWith(D)`; differential_test checks commit
// scripts against the reference evaluator in every configuration.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "test_util.h"
#include "util/fault_env.h"
#include "util/random.h"
#include "util/string_util.h"

namespace park {
namespace {

constexpr int kNumPredicates = 5;
const char* const kConstants[] = {"a", "b", "c", "d"};

std::string Pred(int i) { return "p" + std::to_string(i); }

std::string RandomAtom(Rng& rng) {
  return Pred(static_cast<int>(rng.UniformInt(0, kNumPredicates - 1))) +
         "(" + kConstants[rng.UniformInt(0, 3)] + ")";
}

/// A random program over unary predicates p0..p4. Every body opens with a
/// positive or event literal binding X, then adds positive, negated, and
/// event literals over X; heads insert or delete, so conflicts (and the
/// restarts that resolve them) are common.
std::string RandomRules(Rng& rng, int num_rules) {
  std::string rules;
  auto literal = [&](bool binding) {
    const std::string atom =
        Pred(static_cast<int>(rng.UniformInt(0, kNumPredicates - 1))) + "(X)";
    const int64_t kind = rng.UniformInt(0, binding ? 3 : 5);
    if (kind == 0) return "+" + atom;
    if (kind == 1) return "-" + atom;
    if (kind >= 4) return "!" + atom;
    return atom;
  };
  for (int r = 0; r < num_rules; ++r) {
    rules += StrFormat("r%d: ", r) + literal(/*binding=*/true);
    const int64_t extra = rng.UniformInt(0, 2);
    for (int64_t b = 0; b < extra; ++b) rules += ", " + literal(false);
    rules += rng.Bernoulli(0.6) ? " -> +" : " -> -";
    rules += Pred(static_cast<int>(rng.UniformInt(0, kNumPredicates - 1)));
    rules += rng.Bernoulli(0.85)
                 ? "(X)"
                 : std::string("(") + kConstants[rng.UniformInt(0, 3)] + ")";
    rules += ".\n";
  }
  return rules;
}

std::string RandomFacts(Rng& rng) {
  std::string facts;
  for (int i = 0; i < 8; ++i) facts += RandomAtom(rng) + ". ";
  return facts;
}

/// One commit's update texts. Random atoms make inserts of present atoms,
/// deletes of absent atoms, and both signs on one atom all likely.
std::vector<std::string> RandomCommit(Rng& rng) {
  std::vector<std::string> updates;
  const int64_t n = rng.UniformInt(0, 4);
  for (int64_t u = 0; u < n; ++u) {
    updates.push_back((rng.Bernoulli(0.5) ? "+" : "-") + RandomAtom(rng));
  }
  return updates;
}

bool SameInstance(const Database& a, const Database& b) {
  if (a.size() != b.size()) return false;
  bool same = true;
  a.ForEach([&](const GroundAtom& atom) { same = same && b.Contains(atom); });
  return same;
}

/// Tallies across a sweep, so the test can assert its cases really
/// exercised conflicts and non-empty diffs.
struct Coverage {
  size_t commits = 0;
  size_t restarts = 0;
  size_t inserted = 0;
  size_t deleted = 0;
  size_t failed = 0;
};

/// Commits `updates` to `db` and checks the report and the new stored
/// instance against the from-scratch reference evaluation.
void CommitAndCompare(ActiveDatabase& db,
                      const std::vector<std::string>& updates,
                      Coverage& coverage) {
  UpdateSet set;
  Transaction tx = db.Begin();
  for (const std::string& text : updates) {
    ASSERT_TRUE(set.AddParsed(text, db.symbols()).ok()) << text;
    ASSERT_TRUE(tx.Stage(text).ok()) << text;
  }
  const Database before = db.database().Clone();
  auto reference = Park(before, db.program(), set.updates(), db.options());
  auto report = std::move(tx).Commit();
  ++coverage.commits;
  ASSERT_EQ(reference.ok(), report.ok())
      << "reference: " << reference.status().ToString()
      << " commit: " << report.status().ToString();
  if (!report.ok()) {
    ++coverage.failed;
    EXPECT_TRUE(SameInstance(db.database(), before));
    return;
  }
  const Database::Diff diff = reference->database.DiffWith(before);
  EXPECT_EQ(report->inserted, diff.only_in_this);
  EXPECT_EQ(report->deleted, diff.only_in_other);
  EXPECT_TRUE(SameInstance(db.database(), reference->database))
      << "stored " << db.database().ToString() << " vs reference "
      << reference->database.ToString();
  EXPECT_EQ(report->stats.gamma_steps, reference->stats.gamma_steps);
  EXPECT_EQ(report->stats.restarts, reference->stats.restarts);
  EXPECT_EQ(report->stats.blocked_instances,
            reference->stats.blocked_instances);
  EXPECT_EQ(report->stats.derived_marks, reference->stats.derived_marks);
  coverage.restarts += report->stats.restarts;
  coverage.inserted += report->inserted.size();
  coverage.deleted += report->deleted.size();
}

TEST(CommitDiffTest, JournalFailureRollbackRestoresDatabase) {
  const std::string dir = ::testing::TempDir() + "park_commit_diff";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir);
  FaultInjectingEnv env(Env::Default());
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(StrFormat("seed %llu", static_cast<unsigned long long>(seed)));
    Rng rng(seed + 1000);
    ActiveDatabase::OpenParams params;
    params.rules = RandomRules(rng, 10);
    params.env = &env;
    params.sync_mode = JournalSyncMode::kFlush;
    params.options.io_max_retries = 0;
    auto opened = ActiveDatabase::Open(
        StrFormat("%s/db%llu", dir.c_str(),
                  static_cast<unsigned long long>(seed)),
        std::move(params));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ActiveDatabase& db = *opened;
    ASSERT_TRUE(db.LoadFacts(RandomFacts(rng)).ok());
    for (int c = 0; c < 8; ++c) {
      const std::vector<std::string> updates = RandomCommit(rng);
      if (c % 2 == 0) {
        CommitAndCompare(db, updates, coverage);
        continue;
      }
      // Every append fails: the commit evaluates and applies its diff,
      // then must undo it exactly.
      const Database before = db.database().Clone();
      TransientFaults faults;
      faults.fail_appends = 1'000'000;
      env.set_transient(faults);
      Transaction tx = db.Begin();
      for (const std::string& text : updates) {
        ASSERT_TRUE(tx.Stage(text).ok());
      }
      auto failed = std::move(tx).Commit();
      env.set_transient(TransientFaults{});
      ASSERT_FALSE(failed.ok());
      ASSERT_TRUE(failed.failure().has_value());
      EXPECT_EQ(failed.failure()->stage, CommitFailure::Stage::kJournal);
      EXPECT_TRUE(SameInstance(db.database(), before))
          << "after rollback " << db.database().ToString() << " vs "
          << before.ToString();
    }
  }
  EXPECT_GT(coverage.inserted + coverage.deleted, 0u);
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace park

// Snapshot::Query over published relations must give exactly the answer
// of QueryDatabase, the full scan over the same atoms: same variable
// names, same sorted, deduplicated bindings. The patterns run against a
// snapshot whose relation is a freshly built base, and against one whose
// relation carries an overlay of added rows and tombstones. They cover
// what a lookup through a column's equal range instead of a scan would
// have to get right: constants in any column, repeated variables,
// anonymous positions, and constants that occur nowhere.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "serve/published_relation.h"
#include "test_util.h"
#include "util/random.h"

namespace park {
namespace {

const char* const kValues[] = {"a", "b", "c", "1", "2"};

std::string RandomValue(Rng& rng) { return kValues[rng.UniformInt(0, 4)]; }

class SnapshotQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto session = Session::Create({});
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    session_ = std::move(session).value();
    fresh_reference_ = std::make_unique<Database>(session_->symbols());

    // One commit into an empty relation: its base holds every row.
    Rng rng(7);
    Transaction tx = session_->Begin();
    for (int i = 0; i < 60; ++i) {
      const std::string atom = "r(" + RandomValue(rng) + ", " +
                               RandomValue(rng) + ", " + RandomValue(rng) +
                               ")";
      ASSERT_TRUE(tx.Stage("+" + atom).ok());
      ASSERT_TRUE(ParseFactsInto(atom + ".", *fresh_reference_).ok());
    }
    // Filler rows, which constant patterns on the first column skip,
    // make the base large enough to carry an overlay without a fold.
    for (int i = 0; i < 200; ++i) {
      const std::string atom = "r(f" + std::to_string(i) + ", " +
                               RandomValue(rng) + ", " + RandomValue(rng) +
                               ")";
      ASSERT_TRUE(tx.Stage("+" + atom).ok());
      ASSERT_TRUE(ParseFactsInto(atom + ".", *fresh_reference_).ok());
    }
    ASSERT_TRUE(std::move(tx).Commit().ok());
    fresh_ = session_->Snapshot();
    ASSERT_EQ(fresh_.size(), fresh_reference_->size());

    // A second commit deletes some rows over the pattern values and adds
    // some absent ones: `changes` overlay rows stay below the fold
    // threshold of a base this size.
    const size_t changes =
        (fresh_.size() - 1) / serve_internal::PublishedRelation::kFoldDivisor;
    ASSERT_GE(changes, 8u);
    reference_ = std::make_unique<Database>(fresh_reference_->Clone());
    Transaction overlay = session_->Begin();
    const size_t to_delete = changes / 2;
    const size_t to_add = changes - to_delete;
    size_t added = 0, deleted = 0;
    std::set<std::string> picked;
    while (added < to_add || deleted < to_delete) {
      const std::string atom = "r(" + RandomValue(rng) + ", " +
                               RandomValue(rng) + ", " + RandomValue(rng) +
                               ")";
      if (!picked.insert(atom).second) continue;
      auto parsed = ParseGroundAtom(atom, session_->symbols());
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      const bool present = reference_->Contains(*parsed);
      if (present ? deleted == to_delete : added == to_add) continue;
      ASSERT_TRUE(overlay.Stage((present ? "-" : "+") + atom).ok());
      if (present) {
        reference_->Erase(*parsed);
        ++deleted;
      } else {
        reference_->Insert(*parsed);
        ++added;
      }
    }
    auto report = std::move(overlay).Commit();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->inserted.size(), added);
    ASSERT_EQ(report->deleted.size(), deleted);
    overlaid_ = session_->Snapshot();
    ASSERT_EQ(overlaid_.size(), reference_->size());
  }

  void ExpectFullScanAnswer(const park::Snapshot& snapshot,
                            const Database& reference,
                            const std::string& pattern) {
    SCOPED_TRACE(pattern);
    auto indexed = snapshot.Query(pattern);
    auto scanned = QueryDatabase(reference, pattern, session_->symbols());
    ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
    ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
    EXPECT_EQ(indexed->variable_names, scanned->variable_names);
    EXPECT_EQ(indexed->bindings, scanned->bindings);
  }

  /// Runs `pattern` against the fresh and the overlaid snapshot.
  void ExpectFullScanAnswers(const std::string& pattern) {
    ExpectFullScanAnswer(fresh_, *fresh_reference_, pattern);
    ExpectFullScanAnswer(overlaid_, *reference_, pattern);
  }

  std::unique_ptr<Session> session_;
  std::unique_ptr<Database> fresh_reference_;
  std::unique_ptr<Database> reference_;
  park::Snapshot fresh_;
  park::Snapshot overlaid_;
};

TEST_F(SnapshotQueryTest, HandPickedPatternsMatchFullScan) {
  ASSERT_GT(fresh_.size(), 10u);
  for (const char* pattern :
       {"r(X, Y, Z)", "r(a, Y, Z)", "r(X, b, Z)", "r(X, Y, c)",
        "r(X, b, 2)", "r(a, b, c)", "r(X, X, Z)", "r(X, Y, X)",
        "r(a, X, X)", "r(X, X, X)", "r(_, Y, _)", "r(_, _, 1)",
        "r(zz, Y, Z)", "r(X, zz, Z)", "r(a, b, zz)", "r(X, 99, Z)"}) {
    ExpectFullScanAnswers(pattern);
  }
}

TEST_F(SnapshotQueryTest, RandomPatternsMatchFullScan) {
  const char* const terms[] = {"X", "Y", "Z", "_", "a",
                               "b", "c", "1", "2", "absent"};
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    std::string pattern = "r(";
    for (int t = 0; t < 3; ++t) {
      if (t > 0) pattern += ", ";
      pattern += terms[rng.UniformInt(0, 9)];
    }
    pattern += ")";
    ExpectFullScanAnswers(pattern);
  }
}

TEST_F(SnapshotQueryTest, OverlaidSnapshotAnswersPointQueries) {
  // Every row over the pattern values, present or not, as a ground
  // query and through Contains, against the overlaid snapshot.
  for (const char* x : kValues) {
    for (const char* y : kValues) {
      for (const char* z : kValues) {
        const std::string atom =
            std::string("r(") + x + ", " + y + ", " + z + ")";
        ExpectFullScanAnswer(overlaid_, *reference_, atom);
        auto parsed = ParseGroundAtom(atom, session_->symbols());
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(overlaid_.Contains(*parsed), reference_->Contains(*parsed))
            << atom;
      }
    }
  }
}

TEST_F(SnapshotQueryTest, UnknownPredicateIsEmpty) {
  park::Snapshot snapshot = session_->Snapshot();
  auto result = snapshot.Query("nowhere(a, X)");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

}  // namespace
}  // namespace park

// Snapshot::Query over pinned segments must give exactly the answer of
// QueryDatabase, the full scan over the same atoms: same variable names,
// same sorted, deduplicated bindings. The patterns cover what a lookup
// through a column's equal range instead of a scan would have to get
// right: constants in any column, repeated variables, anonymous
// positions, and constants that occur nowhere.

#include <gtest/gtest.h>

#include <string>
#include <vector>

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
    reference_ = std::make_unique<Database>(session_->symbols());

    Rng rng(7);
    Transaction tx = session_->Begin();
    for (int i = 0; i < 60; ++i) {
      const std::string atom = "r(" + RandomValue(rng) + ", " +
                               RandomValue(rng) + ", " + RandomValue(rng) +
                               ")";
      ASSERT_TRUE(tx.Stage("+" + atom).ok());
      ASSERT_TRUE(ParseFactsInto(atom + ".", *reference_).ok());
    }
    ASSERT_TRUE(std::move(tx).Commit().ok());
  }

  void ExpectFullScanAnswer(const park::Snapshot& snapshot,
                            const std::string& pattern) {
    SCOPED_TRACE(pattern);
    auto indexed = snapshot.Query(pattern);
    auto scanned = QueryDatabase(*reference_, pattern, session_->symbols());
    ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
    ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
    EXPECT_EQ(indexed->variable_names, scanned->variable_names);
    EXPECT_EQ(indexed->bindings, scanned->bindings);
  }

  std::unique_ptr<Session> session_;
  std::unique_ptr<Database> reference_;
};

TEST_F(SnapshotQueryTest, HandPickedPatternsMatchFullScan) {
  park::Snapshot snapshot = session_->Snapshot();
  ASSERT_GT(snapshot.size(), 10u);
  for (const char* pattern :
       {"r(X, Y, Z)", "r(a, Y, Z)", "r(X, b, Z)", "r(X, Y, c)",
        "r(X, b, 2)", "r(a, b, c)", "r(X, X, Z)", "r(X, Y, X)",
        "r(a, X, X)", "r(X, X, X)", "r(_, Y, _)", "r(_, _, 1)",
        "r(zz, Y, Z)", "r(X, zz, Z)", "r(a, b, zz)", "r(X, 99, Z)"}) {
    ExpectFullScanAnswer(snapshot, pattern);
  }
}

TEST_F(SnapshotQueryTest, RandomPatternsMatchFullScan) {
  park::Snapshot snapshot = session_->Snapshot();
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
    ExpectFullScanAnswer(snapshot, pattern);
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

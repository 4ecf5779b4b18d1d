// RelationStats: the counting-sketch distinct estimator that feeds the
// cost-based planner (docs/PLANNER.md). Pins the properties the planner
// relies on: estimates stay within bounds, deletions are exact (the
// sketch is a pure function of the stored multiset, so churn never
// drifts it), Clone carries statistics along, a sketch built on first
// read equals one maintained all along, and statistics rebuilt from a
// checkpoint + journal recovery match the pre-crash ones.

#include "storage/relation_stats.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "park/park.h"
#include "storage/relation.h"
#include "util/random.h"

namespace park {
namespace {

Tuple T2(int64_t a, int64_t b) { return Tuple{Value::Int(a), Value::Int(b)}; }

TEST(RelationStatsTest, EmptyRelationIsExactZero) {
  Relation rel(2);
  EXPECT_EQ(rel.stats().rows(), 0u);
  EXPECT_EQ(rel.stats().DistinctEstimate(0), 0.0);
  EXPECT_EQ(rel.stats().SelectivityRows(0), 0.0);
}

TEST(RelationStatsTest, RowsMirrorRelationSize) {
  Relation rel(2);
  for (int i = 0; i < 20; ++i) rel.Insert(T2(i, i % 3));
  EXPECT_EQ(rel.stats().rows(), rel.size());
  rel.Insert(T2(0, 0));  // duplicate: no-op for the set, so for the stats
  EXPECT_EQ(rel.stats().rows(), 20u);
  rel.Erase(T2(0, 0));
  EXPECT_EQ(rel.stats().rows(), 19u);
}

TEST(RelationStatsTest, DistinctEstimateWithinBounds) {
  // Column 0 holds 200 distinct values, column 1 only 4. The estimate
  // must stay in [1, rows] and preserve the magnitude gap the planner
  // keys on. Linear counting with 512 buckets is within a few percent
  // at these counts; allow a generous ±25% so the test pins behaviour,
  // not the sketch's exact error curve.
  Relation rel(2);
  for (int i = 0; i < 200; ++i) rel.Insert(T2(i, i % 4));
  const RelationStats& stats = rel.stats();
  double d0 = stats.DistinctEstimate(0);
  double d1 = stats.DistinctEstimate(1);
  EXPECT_GE(d0, 1.0);
  EXPECT_LE(d0, static_cast<double>(stats.rows()));
  EXPECT_NEAR(d0, 200.0, 50.0);
  EXPECT_GE(d1, 1.0);
  EXPECT_NEAR(d1, 4.0, 1.0);
  // Selectivity follows: probing the skewed column yields ~rows/4,
  // probing the near-key column ~1.
  EXPECT_GT(stats.SelectivityRows(1), stats.SelectivityRows(0));
}

TEST(RelationStatsTest, MixedChurnKeepsEstimateInBounds) {
  // Interleaved insert/delete waves: after every wave the estimate must
  // remain in [1, rows] — the invariant the planner's cost model needs.
  Relation rel(2);
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 100; ++i) rel.Insert(T2(wave * 100 + i, i % 7));
    for (int i = 0; i < 50; ++i) rel.Erase(T2(wave * 100 + i, i % 7));
    const RelationStats& stats = rel.stats();
    ASSERT_EQ(stats.rows(), rel.size());
    for (int c = 0; c < 2; ++c) {
      double d = stats.DistinctEstimate(c);
      ASSERT_GE(d, 1.0) << "wave " << wave << " column " << c;
      ASSERT_LE(d, static_cast<double>(stats.rows()))
          << "wave " << wave << " column " << c;
    }
  }
}

TEST(RelationStatsTest, DeletionIsExact) {
  // The sketch stores exact multiset counts, so insert-then-erase
  // returns the estimate to exactly its prior value — no drift, ever.
  Relation rel(2);
  for (int i = 0; i < 50; ++i) rel.Insert(T2(i, i % 5));
  double before0 = rel.stats().DistinctEstimate(0);
  double before1 = rel.stats().DistinctEstimate(1);
  for (int i = 1000; i < 1400; ++i) rel.Insert(T2(i, i));
  for (int i = 1000; i < 1400; ++i) rel.Erase(T2(i, i));
  EXPECT_EQ(rel.stats().DistinctEstimate(0), before0);
  EXPECT_EQ(rel.stats().DistinctEstimate(1), before1);
  EXPECT_EQ(rel.stats().rows(), 50u);
}

TEST(RelationStatsTest, StatsAreAPureFunctionOfTheMultiset) {
  // Two relations reaching the same tuple set along different
  // insert/delete histories report identical statistics — the property
  // behind "identical databases give identical plans".
  Relation a(2);
  Relation b(2);
  for (int i = 0; i < 30; ++i) a.Insert(T2(i, i % 3));
  for (int i = 29; i >= 0; --i) b.Insert(T2(i, i % 3));
  for (int i = 500; i < 600; ++i) b.Insert(T2(i, i));
  for (int i = 500; i < 600; ++i) b.Erase(T2(i, i));
  EXPECT_EQ(a.stats().rows(), b.stats().rows());
  EXPECT_EQ(a.stats().DistinctEstimate(0), b.stats().DistinctEstimate(0));
  EXPECT_EQ(a.stats().DistinctEstimate(1), b.stats().DistinctEstimate(1));
}

TEST(RelationStatsTest, CloneCarriesStatistics) {
  Relation rel(2);
  for (int i = 0; i < 40; ++i) rel.Insert(T2(i, i % 2));
  Relation copy = rel.Clone();
  EXPECT_EQ(copy.stats().rows(), rel.stats().rows());
  EXPECT_EQ(copy.stats().DistinctEstimate(0), rel.stats().DistinctEstimate(0));
  EXPECT_EQ(copy.stats().DistinctEstimate(1), rel.stats().DistinctEstimate(1));
  // And the copy evolves independently.
  copy.Insert(T2(1000, 0));
  EXPECT_EQ(rel.stats().rows(), 40u);
  EXPECT_EQ(copy.stats().rows(), 41u);
}
// --- statistics built on first read ----------------------------------------
//
// A relation builds its sketch on the first stats() call and maintains it
// from then on. Since the sketch is a pure function of the stored
// multiset, a sketch built late must equal, bit for bit, one that was
// read (and so maintained) after every operation.

/// Every column's estimates of `rel`, read through stats().
std::vector<double> Estimates(const Relation& rel) {
  std::vector<double> out = {static_cast<double>(rel.stats().rows())};
  for (int c = 0; c < rel.arity(); ++c) {
    out.push_back(rel.stats().DistinctEstimate(c));
    out.push_back(rel.stats().SelectivityRows(c));
  }
  return out;
}

/// A random Insert (two in three) or Erase of a row over a small domain,
/// so erases often hit and inserts often repeat.
void RandomOp(Rng& rng, Relation& rel) {
  const Tuple row = T2(rng.UniformInt(0, 300), rng.UniformInt(0, 40));
  if (rng.UniformInt(0, 2) < 2) {
    rel.Insert(row);
  } else {
    rel.Erase(row);
  }
}

TEST(RelationStatsTest, StatsBuiltOnFirstReadMatchMaintainedOnes) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Relation read(2);  // stats read after every operation
    Relation unread(2);
    const int ops = static_cast<int>(rng.UniformInt(0, 1500));
    for (int i = 0; i < ops; ++i) {
      Rng same = rng;
      RandomOp(rng, read);
      RandomOp(same, unread);
      Estimates(read);
    }
    EXPECT_TRUE(read.has_stats());
    EXPECT_FALSE(unread.has_stats());
    // A clone of an unbuilt relation builds its own, equal, sketch.
    Relation clone = unread.Clone();
    EXPECT_FALSE(clone.has_stats());
    EXPECT_EQ(Estimates(clone), Estimates(read));
    EXPECT_EQ(Estimates(unread), Estimates(read));
    // Built ones are maintained from then on, through clones and moves.
    Relation moved = std::move(unread);
    Relation read_clone = read.Clone();
    EXPECT_TRUE(moved.has_stats());
    EXPECT_TRUE(read_clone.has_stats());
    for (int i = 0; i < 200; ++i) {
      Rng a = rng;
      Rng b = rng;
      RandomOp(rng, read);
      RandomOp(a, moved);
      RandomOp(b, read_clone);
    }
    Relation late(2);
    read.ForEach([&](std::span<const Value> row) { late.Insert(row); });
    EXPECT_EQ(Estimates(moved), Estimates(read));
    EXPECT_EQ(Estimates(read_clone), Estimates(read));
    EXPECT_EQ(Estimates(late), Estimates(read));
  }
}

TEST(RelationStatsTest, InsertAllKeepsStatisticsExact) {
  // Database::InsertAll takes a relation whole where the target has none
  // and inserts row by row where it has one; with the target's stats
  // built or not, the source's built or not, and the source frozen or
  // not, the result reads as a relation built row by row, and a relation
  // taken whole is thawed: it takes an insert and an erase.
  auto symbols = MakeSymbolTable();
  const PredicateId p = symbols->InternPredicate("p", 2);
  const PredicateId q = symbols->InternPredicate("q", 2);
  for (int variant = 0; variant < 8; ++variant) {
    SCOPED_TRACE(variant);
    Database target(symbols);
    Database source(symbols);
    Relation expected_p(2);
    Relation expected_q(2);
    for (int i = 0; i < 300; ++i) {
      const Tuple row = T2(i % 37, i % 11);
      if (i % 3 == 0) {
        target.Insert(GroundAtom(p, row));
        expected_p.Insert(row);
      } else {
        source.Insert(GroundAtom(p, row));
        expected_p.Insert(row);
      }
      source.Insert(GroundAtom(q, T2(i, i % 5)));
      expected_q.Insert(T2(i, i % 5));
    }
    if (variant & 1) Estimates(*target.GetRelation(p));
    if (variant & 2) {
      Estimates(*source.GetRelation(p));
      Estimates(*source.GetRelation(q));
    }
    if (variant & 4) source.FreezeIndexes();
    target.InsertAll(std::move(source));
    EXPECT_EQ(Estimates(*target.GetRelation(p)), Estimates(expected_p));
    EXPECT_EQ(Estimates(*target.GetRelation(q)), Estimates(expected_q));
    const Relation& moved = *target.GetRelation(q);
    EXPECT_FALSE(moved.frozen());
    const GroundAtom extra(q, T2(1000, 0));
    EXPECT_TRUE(target.Insert(extra));
    EXPECT_TRUE(target.Erase(extra));
    EXPECT_EQ(moved.size(), expected_q.size());
  }
}

TEST(RelationStatsDeathTest, UnbuiltStatsReadWhileFrozenDies) {
  // Like the lazy index build: a plan compiled inside a frozen parallel
  // section must abort loudly rather than race on the lazy build.
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.FreezeIndexes();
  EXPECT_DEATH(rel.stats(), "lazy statistics build on a frozen relation");
}

TEST(RelationStatsTest, BuiltStatsServeAFrozenRelation) {
  Relation rel(2);
  rel.Insert(T2(1, 2));
  EXPECT_EQ(rel.stats().rows(), 1u);
  rel.FreezeIndexes();
  EXPECT_EQ(rel.stats().DistinctEstimate(0), 1.0);
  rel.ThawIndexes();
}

// --- durability interplay --------------------------------------------------
//
// Statistics are not persisted; they are rebuilt incrementally as
// recovery replays the checkpoint snapshot and journal into the live
// Database. Because the sketch is a pure function of the stored
// multiset, the rebuilt statistics match the pre-shutdown ones exactly.

class RelationStatsRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "park_relation_stats_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  static ActiveDatabase::OpenParams Params() {
    ActiveDatabase::OpenParams params;
    params.rules = "onboard: +emp(X, Y) -> +active(X).";
    return params;
  }

  static Status CommitInsert(ActiveDatabase& db, const std::string& pred,
                             const std::vector<std::string>& args) {
    Transaction tx = db.Begin();
    tx.Insert(pred, args);
    return std::move(tx).Commit().status();
  }

  std::string dir_;
};

TEST_F(RelationStatsRecoveryTest, StatsSurviveCheckpointAndRecovery) {
  std::string db_dir = dir_ + "/db";
  size_t rows_before = 0;
  double distinct_before = 0;
  {
    auto db = ActiveDatabase::Open(db_dir, Params());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(CommitInsert(*db, "emp",
                               {"e" + std::to_string(i),
                                "dept" + std::to_string(i % 3)})
                      .ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    // A post-checkpoint commit so recovery exercises snapshot + journal.
    ASSERT_TRUE(CommitInsert(*db, "emp", {"e99", "dept0"}).ok());
    PredicateId emp = db->symbols()->InternPredicate("emp", 2);
    const Relation* rel = db->database().GetRelation(emp);
    ASSERT_NE(rel, nullptr);
    rows_before = rel->stats().rows();
    distinct_before = rel->stats().DistinctEstimate(1);
    EXPECT_EQ(rows_before, 13u);
  }
  {
    auto db = ActiveDatabase::Open(db_dir, Params());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    PredicateId emp = db->symbols()->InternPredicate("emp", 2);
    const Relation* rel = db->database().GetRelation(emp);
    ASSERT_NE(rel, nullptr);
    EXPECT_EQ(rel->stats().rows(), rows_before);
    EXPECT_EQ(rel->stats().DistinctEstimate(1), distinct_before);
  }
}

}  // namespace
}  // namespace park

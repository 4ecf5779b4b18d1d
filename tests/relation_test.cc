#include "storage/relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <utility>
#include <vector>

namespace park {
namespace {

Tuple T2(int64_t a, int64_t b) { return Tuple{Value::Int(a), Value::Int(b)}; }

using Pair = std::pair<int64_t, int64_t>;

Pair AsPair(std::span<const Value> row) {
  return {row[0].int_value(), row[1].int_value()};
}

/// The rows of `rel` matching `pattern` through `probe_column`.
std::set<Pair> Probe(const Relation& rel, const TuplePattern& pattern,
                     int probe_column) {
  std::set<Pair> out;
  rel.ForEachMatchingProbe(pattern, probe_column,
                           [&](std::span<const Value> row) {
                             EXPECT_TRUE(out.insert(AsPair(row)).second)
                                 << "row visited twice";
                           });
  return out;
}

TEST(RelationTest, InsertContainsErase) {
  Relation rel(2);
  EXPECT_TRUE(rel.Insert(T2(1, 2)));
  EXPECT_FALSE(rel.Insert(T2(1, 2)));  // duplicate
  EXPECT_TRUE(rel.Contains(T2(1, 2)));
  EXPECT_FALSE(rel.Contains(T2(2, 1)));
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.Erase(T2(1, 2)));
  EXPECT_FALSE(rel.Erase(T2(1, 2)));
  EXPECT_TRUE(rel.empty());
}

TEST(RelationTest, ForEachVisitsAll) {
  Relation rel(2);
  for (int i = 0; i < 10; ++i) rel.Insert(T2(i, i * i));
  int count = 0;
  rel.ForEach([&](std::span<const Value> t) {
    EXPECT_EQ(t[1].int_value(), t[0].int_value() * t[0].int_value());
    ++count;
  });
  EXPECT_EQ(count, 10);
}

TEST(RelationTest, MatchingUnbound) {
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.Insert(T2(3, 4));
  int count = 0;
  rel.ForEachMatching({std::nullopt, std::nullopt},
                      [&](std::span<const Value>) { ++count; });
  EXPECT_EQ(count, 2);
}

TEST(RelationTest, MatchingFirstColumnBound) {
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.Insert(T2(1, 3));
  rel.Insert(T2(2, 3));
  std::set<int64_t> seconds;
  rel.ForEachMatching({Value::Int(1), std::nullopt}, [&](std::span<const Value> t) {
    seconds.insert(t[1].int_value());
  });
  EXPECT_EQ(seconds, (std::set<int64_t>{2, 3}));
}

TEST(RelationTest, MatchingSecondColumnBound) {
  Relation rel(2);
  rel.Insert(T2(1, 3));
  rel.Insert(T2(2, 3));
  rel.Insert(T2(2, 4));
  int count = 0;
  rel.ForEachMatching({std::nullopt, Value::Int(3)},
                      [&](std::span<const Value>) { ++count; });
  EXPECT_EQ(count, 2);
}

TEST(RelationTest, MatchingAllBoundIsExactLookup) {
  Relation rel(2);
  rel.Insert(T2(5, 6));
  int count = 0;
  rel.ForEachMatching({Value::Int(5), Value::Int(6)},
                      [&](std::span<const Value>) { ++count; });
  EXPECT_EQ(count, 1);
  rel.ForEachMatching({Value::Int(5), Value::Int(7)},
                      [&](std::span<const Value>) { ++count; });
  EXPECT_EQ(count, 1);  // no extra hit
}

TEST(RelationTest, IndexStaysCoherentAcrossMutation) {
  Relation rel(2);
  rel.Insert(T2(1, 1));
  // Force index creation on column 0.
  int count = 0;
  rel.ForEachMatching({Value::Int(1), std::nullopt},
                      [&](std::span<const Value>) { ++count; });
  EXPECT_EQ(count, 1);
  // Mutate after the index exists; the index must track it.
  rel.Insert(T2(1, 2));
  rel.Erase(T2(1, 1));
  count = 0;
  rel.ForEachMatching({Value::Int(1), std::nullopt}, [&](std::span<const Value> t) {
    EXPECT_EQ(t[1].int_value(), 2);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(RelationTest, ZeroArityRelation) {
  Relation rel(0);
  EXPECT_FALSE(rel.Contains(Tuple{}));
  EXPECT_TRUE(rel.Insert(Tuple{}));
  EXPECT_FALSE(rel.Insert(Tuple{}));
  EXPECT_TRUE(rel.Contains(Tuple{}));
  int count = 0;
  rel.ForEachMatching({}, [&](std::span<const Value>) { ++count; });
  EXPECT_EQ(count, 1);
  rel.CompactColumnar();
  EXPECT_EQ(rel.segment_rows(), 1u);

  // Erase and re-insert around a compaction, then clone.
  EXPECT_TRUE(rel.Erase(Tuple{}));
  EXPECT_FALSE(rel.Erase(Tuple{}));
  EXPECT_TRUE(rel.empty());
  EXPECT_FALSE(rel.Contains(Tuple{}));
  rel.CompactColumnar();
  EXPECT_EQ(rel.segment_rows(), 0u);
  EXPECT_TRUE(rel.Insert(Tuple{}));
  rel.CompactColumnar();
  EXPECT_EQ(rel.segment_rows(), 1u);
  Relation copy = rel.Clone();
  EXPECT_EQ(copy.size(), 1u);
  EXPECT_TRUE(copy.Contains(Tuple{}));
  EXPECT_EQ(copy.stats().rows(), 1u);
}

TEST(RelationTest, RowViewsSurviveGrowth) {
  // Views taken from the first chunk, then ten times as many rows — the
  // relation grows through many chunks and its row set rehashes.
  Relation rel(2);
  std::vector<std::pair<std::span<const Value>, Pair>> views;
  for (int64_t i = 0; i < 6; ++i) {
    auto [row, added] = rel.Emplace(T2(i, -i));
    ASSERT_TRUE(added);
    views.emplace_back(row, Pair{i, -i});
  }
  for (int64_t i = 6; i < 2000; ++i) rel.Insert(T2(i, -i));
  rel.BuildIndex(0);
  for (int64_t i = 2000; i < 4000; ++i) rel.Insert(T2(i, -i));
  ASSERT_EQ(rel.size(), 4000u);
  for (const auto& [row, want] : views) {
    EXPECT_EQ(AsPair(row), want);
    // The stored row is the one the view names.
    auto [again, added] = rel.Emplace(row);
    EXPECT_FALSE(added);
    EXPECT_EQ(again.data(), row.data());
  }
  // A moved relation keeps its chunks, so views still read the same rows.
  Relation moved = std::move(rel);
  for (const auto& [row, want] : views) EXPECT_EQ(AsPair(row), want);
  EXPECT_TRUE(moved.Contains(T2(3999, -3999)));
}

TEST(RelationTest, IndexesServeExactlyTheLiveRowsAfterChurn) {
  Relation rel(2);
  std::set<Pair> live;
  auto insert = [&](int64_t a, int64_t b) {
    EXPECT_EQ(rel.Insert(T2(a, b)), live.insert({a, b}).second);
  };
  auto erase = [&](int64_t a, int64_t b) {
    EXPECT_EQ(rel.Erase(T2(a, b)), live.erase({a, b}) == 1);
  };
  for (int64_t i = 0; i < 120; ++i) insert(i % 6, i % 20);
  rel.BuildIndex(0);
  rel.BuildIndex(1);
  // Erase every third row (heads, middles and tails of the chains), then
  // re-insert some of them and add new rows into the recycled ids.
  for (int64_t i = 0; i < 120; i += 3) erase(i % 6, i % 20);
  for (int64_t i = 0; i < 120; i += 9) insert(i % 6, i % 20);
  for (int64_t i = 0; i < 30; ++i) insert(7, 100 + i);
  // Empty a whole chain of column 0, then bring one row of it back.
  for (int64_t b = 0; b < 20; ++b) erase(5, b);
  insert(5, 3);
  ASSERT_EQ(rel.size(), live.size());
  EXPECT_EQ(rel.stats().rows(), live.size());

  for (int64_t a = 0; a < 9; ++a) {
    std::set<Pair> want;
    for (const Pair& p : live) {
      if (p.first == a) want.insert(p);
    }
    EXPECT_EQ(Probe(rel, {Value::Int(a), std::nullopt}, 0), want)
        << "column 0 = " << a;
  }
  for (int64_t b = 0; b < 131; ++b) {
    std::set<Pair> want;
    for (const Pair& p : live) {
      if (p.second == b) want.insert(p);
    }
    EXPECT_EQ(Probe(rel, {std::nullopt, Value::Int(b)}, 1), want)
        << "column 1 = " << b;
  }
  EXPECT_EQ(Probe(rel, {std::nullopt, std::nullopt}, -1), live);
  for (int64_t a = 0; a < 9; ++a) {
    for (int64_t b = 0; b < 131; ++b) {
      EXPECT_EQ(rel.Contains(T2(a, b)), live.contains({a, b}));
    }
  }
}

TEST(RelationTest, EraseAndReinsertBeforeCompactionMerges) {
  Relation rel(2);
  for (int64_t i = 0; i < 10; ++i) rel.Insert(T2(i, 0));
  rel.CompactColumnar();
  // A segment row erased and re-inserted (under a new id), a delta add
  // erased and re-inserted, and a segment row erased for good.
  EXPECT_TRUE(rel.Erase(T2(3, 0)));
  EXPECT_TRUE(rel.Insert(T2(3, 0)));
  EXPECT_TRUE(rel.Insert(T2(100, 0)));
  EXPECT_TRUE(rel.Erase(T2(100, 0)));
  EXPECT_TRUE(rel.Insert(T2(100, 0)));
  EXPECT_TRUE(rel.Erase(T2(7, 0)));
  EXPECT_TRUE(rel.ColumnarDirty());
  rel.CompactColumnar();

  auto segment_rows = [](const Relation& r) {
    std::vector<Tuple> rows;
    const Segment& seg = *r.segment();
    for (uint32_t i = 0; i < seg.num_rows(); ++i) {
      Tuple row;
      for (int c = 0; c < seg.arity(); ++c) row.Append(seg.column(c).value(i));
      rows.push_back(std::move(row));
    }
    return rows;
  };
  std::vector<Tuple> want = rel.SortedTuples();
  ASSERT_EQ(want.size(), 10u);
  EXPECT_EQ(segment_rows(rel), want);

  // The ids retired by those erases are recycled only now; the next
  // merge still sees exactly the set.
  for (int64_t i = 20; i < 26; ++i) rel.Insert(T2(i, 1));
  EXPECT_TRUE(rel.Erase(T2(0, 0)));
  rel.CompactColumnar();
  want = rel.SortedTuples();
  ASSERT_EQ(want.size(), 15u);
  EXPECT_EQ(segment_rows(rel), want);
}

TEST(RelationTest, CloneEqualsOriginal) {
  Relation rel(3);
  for (int64_t i = 0; i < 300; ++i) {
    rel.Insert(Tuple{Value::Int(i % 7), Value::Int(i % 50), Value::Int(i)});
  }
  for (int64_t i = 0; i < 300; i += 4) {
    rel.Erase(Tuple{Value::Int(i % 7), Value::Int(i % 50), Value::Int(i)});
  }
  rel.BuildIndex(1);
  rel.CompactColumnar();
  rel.Erase(Tuple{Value::Int(1), Value::Int(1), Value::Int(1)});

  Relation copy = rel.Clone();
  EXPECT_EQ(copy.size(), rel.size());
  EXPECT_EQ(copy.SortedTuples(), rel.SortedTuples());
  EXPECT_EQ(copy.stats().rows(), rel.stats().rows());
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(copy.stats().DistinctEstimate(c),
              rel.stats().DistinctEstimate(c));
    EXPECT_EQ(copy.stats().SelectivityRows(c), rel.stats().SelectivityRows(c));
  }
  EXPECT_FALSE(copy.HasIndex(1));
  EXPECT_EQ(copy.segment(), nullptr);

  // The copy is independent: its recycled ids hold its own rows.
  for (int64_t i = 1000; i < 1100; ++i) {
    copy.Insert(Tuple{Value::Int(0), Value::Int(0), Value::Int(i)});
  }
  EXPECT_EQ(copy.size(), rel.size() + 100);
  EXPECT_FALSE(rel.Contains(Tuple{Value::Int(0), Value::Int(0),
                                  Value::Int(1000)}));
  std::vector<Tuple> original = rel.SortedTuples();
  int count = 0;
  copy.ForEachMatching({Value::Int(0), Value::Int(0), std::nullopt},
                       [&](std::span<const Value>) { ++count; });
  EXPECT_EQ(count, 100 + static_cast<int>(std::count_if(
                             original.begin(), original.end(),
                             [](const Tuple& t) {
                               return t[0] == Value::Int(0) &&
                                      t[1] == Value::Int(0);
                             })));
}

TEST(RelationTest, FrozenRelationServesConcurrentProbes) {
  Relation rel(2);
  for (int64_t i = 0; i < 2000; ++i) rel.Insert(T2(i % 50, i));
  for (int64_t i = 0; i < 2000; i += 10) rel.Erase(T2(i % 50, i));
  rel.BuildIndex(0);
  rel.BuildIndex(1);
  rel.FreezeIndexes();
  constexpr int kThreads = 4;
  std::vector<int64_t> visited(kThreads, 0);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 5; ++round) {
        for (int64_t a = 0; a < 50; ++a) {
          int64_t rows = 0;
          rel.ForEachMatchingProbe(
              {Value::Int(a), std::nullopt}, 0,
              [&](std::span<const Value> row) {
                if (row[0] != Value::Int(a) || row[1].int_value() % 10 == 0) {
                  ++mismatches[static_cast<size_t>(t)];
                }
                ++rows;
              });
          // 40 rows per value of column 0. The erased rows (i % 10 == 0)
          // are all 40 of each a ≡ 0 (mod 10), and none of the others.
          if (rows != (a % 10 == 0 ? 0 : 40)) {
            ++mismatches[static_cast<size_t>(t)];
          }
          visited[static_cast<size_t>(t)] += rows;
          const int64_t b = (a * 41 + t) % 2000;
          rel.ForEachMatchingProbe({std::nullopt, Value::Int(b)}, 1,
                                   [&](std::span<const Value>) {
                                     ++visited[static_cast<size_t>(t)];
                                   });
          if (rel.Contains(T2(b % 50, b)) != (b % 10 != 0)) {
            ++mismatches[static_cast<size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  rel.ThawIndexes();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
    EXPECT_GT(visited[static_cast<size_t>(t)], 0) << "thread " << t;
  }
}

TEST(RelationTest, CloneIsDeepAndIndexFree) {
  Relation rel(1);
  rel.Insert(Tuple{Value::Int(1)});
  Relation copy = rel.Clone();
  copy.Insert(Tuple{Value::Int(2)});
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_EQ(copy.size(), 2u);
}

TEST(RelationTest, SortedTuples) {
  Relation rel(1);
  rel.Insert(Tuple{Value::Int(3)});
  rel.Insert(Tuple{Value::Int(1)});
  rel.Insert(Tuple{Value::Int(2)});
  std::vector<Tuple> sorted = rel.SortedTuples();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0][0].int_value(), 1);
  EXPECT_EQ(sorted[2][0].int_value(), 3);
}

TEST(RelationTest, LargeMatchViaIndex) {
  Relation rel(2);
  for (int i = 0; i < 1000; ++i) rel.Insert(T2(i % 10, i));
  int count = 0;
  rel.ForEachMatching({Value::Int(7), std::nullopt},
                      [&](std::span<const Value>) { ++count; });
  EXPECT_EQ(count, 100);
}

TEST(RelationTest, PrewarmedIndexServesMatchesWhileFrozen) {
  Relation rel(2);
  for (int i = 0; i < 20; ++i) rel.Insert(T2(i % 4, i));
  rel.BuildIndex(0);
  EXPECT_TRUE(rel.HasIndex(0));
  EXPECT_FALSE(rel.HasIndex(1));
  rel.FreezeIndexes();
  EXPECT_TRUE(rel.frozen());
  // Matching on the prewarmed column is fine while frozen.
  int count = 0;
  rel.ForEachMatching({Value::Int(3), std::nullopt},
                      [&](std::span<const Value>) { ++count; });
  EXPECT_EQ(count, 5);
  // Fully-bound and fully-unbound scans never need an index.
  count = 0;
  rel.ForEachMatching({Value::Int(1), Value::Int(1)},
                      [&](std::span<const Value>) { ++count; });
  EXPECT_EQ(count, 1);
  count = 0;
  rel.ForEach([&](std::span<const Value>) { ++count; });
  EXPECT_EQ(count, 20);
  rel.ThawIndexes();
  EXPECT_FALSE(rel.frozen());
}

TEST(RelationTest, IndexesBuildNoStatistics) {
  // Statistics are built on first read; an index build sizes itself
  // without them, so neither BuildIndex nor a first probe builds them.
  Relation rel(2);
  for (int i = 0; i < 200; ++i) rel.Insert(T2(i % 10, i));
  rel.BuildIndex(1);
  EXPECT_TRUE(rel.HasIndex(1));
  EXPECT_FALSE(rel.has_stats());
  int count = 0;
  rel.ForEachMatching({Value::Int(7), std::nullopt},
                      [&](std::span<const Value>) { ++count; });
  EXPECT_EQ(count, 20);
  EXPECT_TRUE(rel.HasIndex(0));
  EXPECT_FALSE(rel.has_stats());
  EXPECT_EQ(Probe(rel, {std::nullopt, Value::Int(42)}, 1),
            (std::set<Pair>{{2, 42}}));
  EXPECT_FALSE(rel.has_stats());
  // Reading them builds them, and the relation answers as before.
  EXPECT_EQ(rel.stats().rows(), 200u);
  EXPECT_TRUE(rel.has_stats());
  EXPECT_EQ(Probe(rel, {Value::Int(3), std::nullopt}, 0).size(), 20u);
}

TEST(RelationDeathTest, LazyIndexBuildWhileFrozenDies) {
  // The parallel Γ path relies on this check: a missed prewarm must abort
  // loudly rather than race on a lazily-built index.
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.FreezeIndexes();
  EXPECT_DEATH(rel.ForEachMatching({std::nullopt, Value::Int(2)},
                                   [](std::span<const Value>) {}),
               "frozen");
}

TEST(RelationDeathTest, MutationWhileFrozenDies) {
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.FreezeIndexes();
  EXPECT_DEATH(rel.Insert(T2(3, 4)), "frozen");
  EXPECT_DEATH(rel.Erase(T2(1, 2)), "frozen");
}

TEST(RelationDeathTest, ExplicitBuildWhileFrozenDies) {
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.FreezeIndexes();
  EXPECT_DEATH(rel.BuildIndex(0), "frozen");
}

TEST(RelationTest, ThawReenablesLazyBuildsAndMutation) {
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.FreezeIndexes();
  rel.ThawIndexes();
  rel.Insert(T2(1, 3));
  int count = 0;
  rel.ForEachMatching({Value::Int(1), std::nullopt},
                      [&](std::span<const Value>) { ++count; });
  EXPECT_EQ(count, 2);
}

}  // namespace
}  // namespace park

// SymbolTable interning: ids are dense and assigned in first-intern
// order, re-interning a known name returns its id without taking the
// exclusive lock, and concurrent interns and lookups of overlapping names
// agree on one id per name (run under TSan in CI).

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "storage/symbol_table.h"

namespace park {
namespace {

TEST(SymbolTableTest, IdsFollowFirstInternOrder) {
  SymbolTable symbols;
  EXPECT_EQ(symbols.InternSymbol("x"), 0u);
  EXPECT_EQ(symbols.InternSymbol("y"), 1u);
  EXPECT_EQ(symbols.InternSymbol("x"), 0u);
  EXPECT_EQ(symbols.InternSymbol("z"), 2u);
  EXPECT_EQ(symbols.NumSymbols(), 3u);
  EXPECT_EQ(symbols.SymbolName(1), "y");

  EXPECT_EQ(symbols.InternPredicate("p", 1), 0u);
  EXPECT_EQ(symbols.InternPredicate("p", 2), 1u);
  EXPECT_EQ(symbols.InternPredicate("p", 1), 0u);
  EXPECT_EQ(symbols.NumPredicates(), 2u);
  EXPECT_EQ(symbols.PredicateArity(1), 2);
  EXPECT_EQ(symbols.FindPredicate("p", 3), std::nullopt);
}

TEST(SymbolTableTest, ConcurrentInternAndLookupAgree) {
  constexpr int kThreads = 4;
  constexpr int kNames = 200;
  SymbolTable symbols;
  // Half the names exist before the threads start, so hits on the shared
  // path race with misses on the exclusive one.
  for (int i = 0; i < kNames; i += 2) {
    symbols.InternSymbol("s" + std::to_string(i));
    symbols.InternPredicate("p" + std::to_string(i), 1);
  }
  std::vector<std::vector<SymbolId>> symbol_ids(kThreads);
  std::vector<std::vector<PredicateId>> predicate_ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (int k = 0; k < kNames; ++k) {
          // Each thread walks the names from its own offset.
          const int i = (k + t * 37) % kNames;
          const SymbolId id = symbols.InternSymbol("s" + std::to_string(i));
          const PredicateId pred =
              symbols.InternPredicate("p" + std::to_string(i), 1);
          EXPECT_EQ(symbols.FindSymbol("s" + std::to_string(i)), id);
          EXPECT_EQ(symbols.SymbolName(id), "s" + std::to_string(i));
          EXPECT_EQ(symbols.PredicateName(pred), "p" + std::to_string(i));
          if (round == 0) {
            symbol_ids[t].resize(kNames);
            predicate_ids[t].resize(kNames);
            symbol_ids[t][i] = id;
            predicate_ids[t][i] = pred;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(symbols.NumSymbols(), static_cast<size_t>(kNames));
  EXPECT_EQ(symbols.NumPredicates(), static_cast<size_t>(kNames));
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(symbol_ids[t], symbol_ids[0]);
    EXPECT_EQ(predicate_ids[t], predicate_ids[0]);
  }
  // Pre-interned names kept their sequential ids.
  for (int i = 0; i < kNames; i += 2) {
    EXPECT_EQ(symbol_ids[0][i], static_cast<SymbolId>(i / 2));
  }
}

}  // namespace
}  // namespace park

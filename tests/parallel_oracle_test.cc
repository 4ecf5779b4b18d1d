// Parallel Γ structure: the pool is actually used, each task runs whole
// units, and the counters are surfaced in ParkStats. That the parallel
// runs reproduce the reference results bit-for-bit (databases, traces,
// blocked sets, provenance, deterministic counters) at every thread
// count is differential_test's job. Any lazy index build attempted
// inside a frozen parallel section aborts the process, so a green run
// here also certifies the index prewarm pass (exercised further in
// relation_test).

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/random.h"
#include "util/string_util.h"
#include "workload/graph_gen.h"

namespace park {
namespace {

using ::park::testing_util::MustParseDatabase;
using ::park::testing_util::MustParseProgram;

ParkStats RunWithThreads(const Program& program, const Database& db,
                         int num_threads) {
  ParkOptions options;
  options.num_threads = num_threads;
  auto result = Park(program, db, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  return result->stats;
}

TEST(ParallelOracleTest, ParallelStatsAreReported) {
  Workload w =
      MakeTransitiveClosureWorkload(GraphShape::kRandom, 10, 24, 1);
  ParkOptions options;
  options.num_threads = 4;
  auto result = Park(w.program, w.database, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.num_threads, 4u);
  EXPECT_GT(result->stats.parallel_sections, 0u);
  EXPECT_GT(result->stats.parallel_tasks, 0u);
  // Sequential runs report the no-pool defaults.
  auto sequential = Park(w.program, w.database);
  ASSERT_TRUE(sequential.ok());
  EXPECT_EQ(sequential->stats.num_threads, 1u);
  EXPECT_EQ(sequential->stats.parallel_sections, 0u);
}

// --- Whole-unit tasks ---
//
// A skewed program: ONE join rule dominates the candidate space (every
// `edge` tuple feeds its first literal) next to a few tiny rules.

Workload MakeSkewedJoinWorkload() {
  auto symbols = MakeSymbolTable();
  std::string facts;
  // A dense-ish random digraph: ~3 out-edges per node over 200 nodes, so
  // the dominant rule's first literal streams ~600 candidates.
  Rng rng(91);
  for (int n = 0; n < 200; ++n) {
    for (int e = 0; e < 3; ++e) {
      facts += StrFormat("edge(n%d, n%d). ", n,
                         static_cast<int>(rng.UniformInt(0, 199)));
    }
  }
  facts += "flag. ";
  Workload w(symbols);
  w.program = MustParseProgram(
      // The skewed rule: first literal scans every edge tuple.
      "big: edge(X, Y), edge(Y, Z) -> +hop(X, Z).\n"
      // Tiny satellites, including a conflict so restarts are exercised.
      "t1: flag -> +mark.\n"
      "t2: mark -> -flag.\n"
      "t3: edge(X, X) -> -hop(X, X).\n",
      symbols);
  w.database = MustParseDatabase(facts, symbols);
  return w;
}

TEST(ParallelOracleTest, SkewedRuleRunsAsOneWholeTask) {
  // Every section here has fewer units than the pool has chunks, so each
  // unit is its own task: the dominant rule is never split, however large
  // its candidate stream.
  Workload w = MakeSkewedJoinWorkload();
  ParkStats stats = RunWithThreads(w.program, w.database, 4);
  EXPECT_GT(stats.parallel_sections, 0u);
  EXPECT_EQ(stats.parallel_tasks, stats.rule_evaluations);
}

TEST(ParallelOracleTest, SingleRuleProgramFansOut) {
  // A one-rule program still runs its sections on the pool, as one task.
  auto symbols = MakeSymbolTable();
  std::string facts;
  for (int i = 0; i < 64; ++i) {
    facts += StrFormat("p(c%d, c%d). ", i, (i * 7) % 64);
  }
  Program program =
      MustParseProgram("r: p(X, Y), p(Y, Z) -> +q(X, Z).", symbols);
  Database db = MustParseDatabase(facts, symbols);
  ParkStats stats = RunWithThreads(program, db, 2);
  EXPECT_GT(stats.parallel_sections, 0u);
  EXPECT_EQ(stats.parallel_tasks, stats.parallel_sections);
}

}  // namespace
}  // namespace park

// Workload generators: shapes, determinism, and that every generated
// workload actually evaluates under PARK.

#include "workload/conflict_gen.h"
#include "workload/graph_gen.h"
#include "workload/payroll_gen.h"

#include <gtest/gtest.h>

namespace park {
namespace {

size_t CountPredicate(const Workload& w, const Database& db,
                      std::string_view name) {
  size_t count = 0;
  db.ForEach([&](const GroundAtom& atom) {
    if (w.symbols->PredicateName(atom.predicate()) == name) ++count;
  });
  return count;
}

TEST(GraphGenTest, PathClosureSize) {
  Workload w = MakeTransitiveClosureWorkload(GraphShape::kPath, 10, 0, 1);
  EXPECT_EQ(w.database.size(), 9u);  // 9 edges
  auto result = Park(w.program, w.database);
  ASSERT_TRUE(result.ok());
  // Closure of a 10-node path: 9+8+...+1 = 45 paths.
  EXPECT_EQ(CountPredicate(w, result->database, "path"), 45u);
  EXPECT_EQ(result->stats.restarts, 0u);
  // Maximal recursion depth: one Γ step per path length 1..9.
  EXPECT_EQ(result->stats.gamma_steps, 9u);
}

TEST(GraphGenTest, CycleClosureIsComplete) {
  Workload w = MakeTransitiveClosureWorkload(GraphShape::kCycle, 6, 0, 1);
  EXPECT_EQ(w.database.size(), 6u);
  auto result = Park(w.program, w.database);
  ASSERT_TRUE(result.ok());
  // Every ordered pair (including self) is reachable on a cycle: 36.
  EXPECT_EQ(CountPredicate(w, result->database, "path"), 36u);
}

TEST(GraphGenTest, RandomGraphDeterministicInSeed) {
  Workload a = MakeTransitiveClosureWorkload(GraphShape::kRandom, 12, 20, 5);
  Workload b = MakeTransitiveClosureWorkload(GraphShape::kRandom, 12, 20, 5);
  EXPECT_EQ(a.database.size(), 20u);
  EXPECT_EQ(a.database.ToString(), b.database.ToString());
  Workload c = MakeTransitiveClosureWorkload(GraphShape::kRandom, 12, 20, 6);
  EXPECT_NE(a.database.ToString(), c.database.ToString());
}

TEST(GraphGenTest, IrreflexiveWorkloadMatchesPaperShape) {
  Workload w = MakeIrreflexiveGraphWorkload(3);
  EXPECT_EQ(w.database.size(), 3u);
  EXPECT_EQ(w.program.size(), 3u);
  ParkOptions options;
  options.policy = MakeIrreflexiveGraphPolicy();
  auto result = Park(w.program, w.database, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Nodes 0,1,2 ~ a,b,c: adjacent arcs survive, |0-2| = 2 arcs dropped.
  EXPECT_EQ(CountPredicate(w, result->database, "q"), 4u);
}

TEST(GraphGenTest, IrreflexiveWorkloadScalesAndTerminates) {
  for (int n : {4, 6}) {
    Workload w = MakeIrreflexiveGraphWorkload(n);
    ParkOptions options;
    options.policy = MakeIrreflexiveGraphPolicy();
    auto result = Park(w.program, w.database, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // No self-loops survive.
    result->database.ForEach([&](const GroundAtom& atom) {
      if (w.symbols->PredicateName(atom.predicate()) == "q") {
        EXPECT_NE(atom.args()[0], atom.args()[1]);
      }
    });
  }
}

TEST(ConflictGenTest, PairCountsAndDeterminism) {
  Workload w = MakeConflictPairsWorkload(30, 0.5, 9);
  EXPECT_EQ(w.database.size(), 30u);
  EXPECT_GE(w.program.size(), 30u);
  EXPECT_LE(w.program.size(), 60u);
  Workload again = MakeConflictPairsWorkload(30, 0.5, 9);
  EXPECT_EQ(w.program.size(), again.program.size());
}

TEST(ConflictGenTest, ZeroFractionIsConflictFree) {
  Workload w = MakeConflictPairsWorkload(20, 0.0, 1);
  EXPECT_EQ(w.program.size(), 20u);
  auto result = Park(w.program, w.database);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.restarts, 0u);
  EXPECT_EQ(CountPredicate(w, result->database, "t"), 20u);
}

TEST(ConflictGenTest, FullFractionAllConflicted) {
  Workload w = MakeConflictPairsWorkload(20, 1.0, 1);
  EXPECT_EQ(w.program.size(), 40u);
  auto result = Park(w.program, w.database);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.conflicts_resolved, 20u);
  EXPECT_EQ(CountPredicate(w, result->database, "t"), 0u);  // inertia
}

TEST(ConflictGenTest, RestartChainDepthAndConflicts) {
  Workload w = MakeRestartChainWorkload(12, 3);
  auto result = Park(w.program, w.database);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.conflicts_resolved, 3u);
  EXPECT_GE(result->stats.restarts, 1u);
  // The chain itself is fully derived.
  EXPECT_EQ(CountPredicate(w, result->database, "c"), 13u);
  // All boom targets resolved by inertia to absent.
  EXPECT_EQ(CountPredicate(w, result->database, "boom"), 0u);
}

TEST(ConflictGenTest, RestartChainWithoutConflicts) {
  Workload w = MakeRestartChainWorkload(5, 0);
  auto result = Park(w.program, w.database);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.restarts, 0u);
  EXPECT_EQ(CountPredicate(w, result->database, "c"), 6u);
}

TEST(PayrollGenTest, PopulationShape) {
  PayrollParams params;
  params.num_employees = 50;
  params.inactive_fraction = 0.2;
  params.num_deactivations = 5;
  params.seed = 3;
  Workload w = MakePayrollWorkload(params);
  EXPECT_EQ(CountPredicate(w, w.database, "emp"), 50u);
  EXPECT_EQ(CountPredicate(w, w.database, "payroll"), 50u);
  size_t active = CountPredicate(w, w.database, "active");
  EXPECT_GT(active, 25u);
  EXPECT_LT(active, 50u);
  EXPECT_EQ(w.updates.size(), 5u);
}

TEST(PayrollGenTest, StabilizeCleansInactiveEmployees) {
  PayrollParams params;
  params.num_employees = 40;
  params.inactive_fraction = 0.25;
  params.seed = 7;
  Workload w = MakePayrollWorkload(params);
  auto result = Park(w.program, w.database);
  ASSERT_TRUE(result.ok());
  size_t active = CountPredicate(w, w.database, "active");
  // Every inactive employee lost their payroll row and gained an audit.
  EXPECT_EQ(CountPredicate(w, result->database, "payroll"), active);
  EXPECT_EQ(CountPredicate(w, result->database, "audit"), 40u - active);
}

TEST(PayrollGenTest, DeactivationTransactionCascades) {
  PayrollParams params;
  params.num_employees = 30;
  params.inactive_fraction = 0.0;  // everyone active
  params.num_deactivations = 4;
  params.seed = 11;
  Workload w = MakePayrollWorkload(params);
  auto result = Park(w.database, w.program, w.updates.updates());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(CountPredicate(w, result->database, "payroll"), 26u);
  EXPECT_EQ(CountPredicate(w, result->database, "audit"), 4u);
  EXPECT_EQ(CountPredicate(w, result->database, "active"), 26u);
}

TEST(WorkloadHelpersTest, AtomBuilders) {
  auto symbols = MakeSymbolTable();
  EXPECT_EQ(IntAtom(symbols, "p", 7).ToString(*symbols), "p(7)");
  EXPECT_EQ(IntAtom2(symbols, "e", 1, 2).ToString(*symbols), "e(1, 2)");
  EXPECT_EQ(SymAtom(symbols, "emp", "jo").ToString(*symbols), "emp(jo)");
}

}  // namespace
}  // namespace park

// Parallel-vs-sequential oracle: Γ evaluation on a thread pool is an
// implementation detail, never a semantic one. For every workload — paper
// examples, recursive closures, conflict-heavy generators, ECA payroll,
// and randomly generated programs — running with threads ∈ {2, 4} must
// reproduce the sequential run exactly: final database, full trace,
// blocked set, restart/step counters, and provenance, under all three
// Γ modes. Any lazy index build attempted inside a frozen parallel
// section aborts the process, so a green run here also certifies the
// index prewarm pass (exercised further in relation_test).

#include <gtest/gtest.h>

#include "core/stepper.h"
#include "test_util.h"
#include "util/random.h"
#include "util/string_util.h"
#include "workload/conflict_gen.h"
#include "workload/graph_gen.h"
#include "workload/payroll_gen.h"

namespace park {
namespace {

using ::park::testing_util::MustParseDatabase;
using ::park::testing_util::MustParseProgram;

struct RunOutcome {
  std::string database;
  std::vector<std::string> blocked;
  size_t restarts = 0;
  size_t gamma_steps = 0;
  size_t rule_evaluations = 0;
  std::vector<std::vector<std::string>> history;
  std::vector<std::string> provenance;
};

RunOutcome RunWithThreads(const Program& program, const Database& db,
                          GammaMode mode, int num_threads,
                          PolicyPtr policy = nullptr,
                          size_t min_slice_size = kDefaultMinSliceSize,
                          ParkStats* stats_out = nullptr) {
  ParkOptions options;
  options.gamma_mode = mode;
  options.policy = std::move(policy);
  options.trace_level = TraceLevel::kFull;
  options.record_provenance = true;
  options.num_threads = num_threads;
  options.min_slice_size = min_slice_size;
  auto result = Park(program, db, options);
  if (result.ok() && stats_out != nullptr) *stats_out = result->stats;
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  RunOutcome outcome;
  outcome.database = result->database.ToString();
  outcome.blocked = result->blocked;
  outcome.restarts = result->stats.restarts;
  outcome.gamma_steps = result->stats.gamma_steps;
  outcome.rule_evaluations = result->stats.rule_evaluations;
  outcome.history = result->trace.InterpretationHistory();
  for (const AtomProvenance& p : result->provenance) {
    outcome.provenance.push_back(p.atom + " <- " +
                                 Join(p.derived_by, ", "));
  }
  return outcome;
}

const char* ModeName(GammaMode mode) {
  switch (mode) {
    case GammaMode::kNaive: return "naive";
    case GammaMode::kSemiNaive: return "semi-naive";
  }
  return "?";
}

void ExpectThreadCountsAgree(const Program& program, const Database& db,
                             PolicyPtr policy = nullptr) {
  for (GammaMode mode : {GammaMode::kNaive, GammaMode::kSemiNaive}) {
    SCOPED_TRACE(ModeName(mode));
    RunOutcome sequential = RunWithThreads(program, db, mode, 1, policy);
    for (int threads : {2, 4}) {
      SCOPED_TRACE(StrFormat("threads=%d", threads));
      RunOutcome parallel =
          RunWithThreads(program, db, mode, threads, policy);
      EXPECT_EQ(sequential.database, parallel.database);
      EXPECT_EQ(sequential.blocked, parallel.blocked);
      EXPECT_EQ(sequential.restarts, parallel.restarts);
      EXPECT_EQ(sequential.gamma_steps, parallel.gamma_steps);
      EXPECT_EQ(sequential.rule_evaluations, parallel.rule_evaluations);
      EXPECT_EQ(sequential.history, parallel.history);
      EXPECT_EQ(sequential.provenance, parallel.provenance);
    }
  }
}

TEST(ParallelOracleTest, PaperExamplesAgree) {
  const char* programs[] = {
      "r1: p -> +q. r2: p -> -a. r3: q -> +a.",
      "r1: p -> +q. r2: p -> -a. r3: q -> +a. r4: !a -> +r. r5: a -> +s.",
      "r1: p -> +q. r2: p -> -q. r3: q -> +a. r4: q -> -a. r5: p -> +a.",
      "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
      "r1: a -> +b. r2: a -> +d. r3: b -> +c. r4: b -> -d. r5: c -> -b.",
  };
  const char* facts[] = {"p.", "p.", "p.", "p.", "a."};
  for (int i = 0; i < 5; ++i) {
    SCOPED_TRACE(programs[i]);
    auto symbols = MakeSymbolTable();
    Program program = MustParseProgram(programs[i], symbols);
    Database db = MustParseDatabase(facts[i], symbols);
    ExpectThreadCountsAgree(program, db);
  }
}

TEST(ParallelOracleTest, RecursiveClosureAgrees) {
  Workload w =
      MakeTransitiveClosureWorkload(GraphShape::kRandom, 14, 40, 3);
  ExpectThreadCountsAgree(w.program, w.database);
}

TEST(ParallelOracleTest, ConflictWorkloadsAgree) {
  for (double fraction : {0.0, 0.3, 1.0}) {
    SCOPED_TRACE(fraction);
    Workload w = MakeConflictPairsWorkload(25, fraction, 77);
    ExpectThreadCountsAgree(w.program, w.database);
  }
}

TEST(ParallelOracleTest, RestartChainAgrees) {
  Workload w = MakeRestartChainWorkload(16, 4);
  ExpectThreadCountsAgree(w.program, w.database);
}

TEST(ParallelOracleTest, GraphPolicyWorkloadAgrees) {
  Workload w = MakeIrreflexiveGraphWorkload(4);
  ExpectThreadCountsAgree(w.program, w.database,
                          MakeIrreflexiveGraphPolicy());
}

TEST(ParallelOracleTest, PayrollEcaAgrees) {
  PayrollParams params;
  params.num_employees = 60;
  params.inactive_fraction = 0.2;
  params.num_deactivations = 6;
  params.seed = 5;
  Workload w = MakePayrollWorkload(params);
  auto extended = ProgramWithUpdates(w.program, w.updates.updates());
  ASSERT_TRUE(extended.ok());
  ExpectThreadCountsAgree(*extended, w.database);
}

TEST(ParallelOracleTest, SteppedEvaluationAgrees) {
  // The stepper drives the same Δ transitions one at a time; its parallel
  // path must match both the sequential stepper and the batch evaluator.
  Workload w =
      MakeTransitiveClosureWorkload(GraphShape::kRandom, 12, 30, 9);
  ParkOptions sequential_options;
  sequential_options.num_threads = 1;
  ParkStepper sequential(w.program, w.database, sequential_options);
  auto sequential_db = sequential.Finish();
  ASSERT_TRUE(sequential_db.ok()) << sequential_db.status().ToString();
  for (int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    ParkOptions options;
    options.num_threads = threads;
    ParkStepper stepper(w.program, w.database, options);
    auto parallel_db = stepper.Finish();
    ASSERT_TRUE(parallel_db.ok()) << parallel_db.status().ToString();
    EXPECT_EQ(sequential_db->ToString(), parallel_db->ToString());
    EXPECT_EQ(sequential.stats().gamma_steps, stepper.stats().gamma_steps);
    EXPECT_EQ(stepper.stats().num_threads, static_cast<size_t>(threads));
    EXPECT_GT(stepper.stats().parallel_sections, 0u);
  }
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

// --- Intra-rule slicing oracle ---
//
// A skewed program: ONE join rule dominates the candidate space (every
// `edge` tuple seeds it) next to a couple of tiny rules, so intra-rule
// slicing is what parallelizes the section. Swept over min_slice_size
// (1 = finest slicing, 7 = odd uneven partitions, default = tuned) and
// thread counts; every combination must be bit-identical to the
// sequential run in databases, traces, blocked sets, and provenance.

Workload MakeSkewedJoinWorkload() {
  auto symbols = MakeSymbolTable();
  std::string facts;
  // A dense-ish random digraph: ~3 out-edges per node over 40 nodes.
  Rng rng(91);
  for (int n = 0; n < 40; ++n) {
    for (int e = 0; e < 3; ++e) {
      facts += StrFormat("edge(n%d, n%d). ", n,
                         static_cast<int>(rng.UniformInt(0, 39)));
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

TEST(ParallelOracleTest, SkewedRuleSlicingAgrees) {
  Workload w = MakeSkewedJoinWorkload();
  for (GammaMode mode : {GammaMode::kNaive, GammaMode::kSemiNaive}) {
    SCOPED_TRACE(ModeName(mode));
    RunOutcome sequential = RunWithThreads(w.program, w.database, mode, 1);
    for (size_t min_slice_size : {size_t{1}, size_t{7},
                                  kDefaultMinSliceSize}) {
      for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(StrFormat("threads=%d min_slice_size=%zu", threads,
                               min_slice_size));
        RunOutcome sliced = RunWithThreads(w.program, w.database, mode,
                                           threads, nullptr,
                                           min_slice_size);
        EXPECT_EQ(sequential.database, sliced.database);
        EXPECT_EQ(sequential.blocked, sliced.blocked);
        EXPECT_EQ(sequential.restarts, sliced.restarts);
        EXPECT_EQ(sequential.gamma_steps, sliced.gamma_steps);
        EXPECT_EQ(sequential.rule_evaluations, sliced.rule_evaluations);
        EXPECT_EQ(sequential.history, sliced.history);
        EXPECT_EQ(sequential.provenance, sliced.provenance);
      }
    }
  }
}

TEST(ParallelOracleTest, SkewedRuleActuallySlices) {
  // With fine slicing, the dominant rule must split: more slice tasks
  // than rule evaluations in at least one section, surfaced in ParkStats.
  // Both Γ modes run their units through the same fan-out.
  Workload w = MakeSkewedJoinWorkload();
  for (GammaMode mode : {GammaMode::kNaive, GammaMode::kSemiNaive}) {
    SCOPED_TRACE(ModeName(mode));
    ParkStats stats;
    RunWithThreads(w.program, w.database, mode, 4, nullptr,
                   /*min_slice_size=*/1, &stats);
    EXPECT_GT(stats.parallel_sliced_units, 0u);
    EXPECT_GT(stats.parallel_slices, stats.parallel_sliced_units);
    // Slice tasks inflate the pool task count past the units evaluated.
    EXPECT_GT(stats.parallel_tasks, stats.rule_evaluations);
    // Conservative default: a tiny workload with a large min_slice_size
    // must NOT slice.
    ParkStats unsliced;
    RunWithThreads(w.program, w.database, mode, 4, nullptr,
                   /*min_slice_size=*/100000, &unsliced);
    EXPECT_EQ(unsliced.parallel_sliced_units, 0u);
    EXPECT_EQ(unsliced.parallel_slices, 0u);
  }
}

TEST(ParallelOracleTest, SingleRuleProgramFansOut) {
  // Pre-slicing, a one-rule program never used the pool at all; now its
  // candidate space is what gets split.
  auto symbols = MakeSymbolTable();
  std::string facts;
  for (int i = 0; i < 64; ++i) {
    facts += StrFormat("p(c%d, c%d). ", i, (i * 7) % 64);
  }
  Program program =
      MustParseProgram("r: p(X, Y), p(Y, Z) -> +q(X, Z).", symbols);
  Database db = MustParseDatabase(facts, symbols);
  ExpectThreadCountsAgree(program, db);
  ParkStats stats;
  RunWithThreads(program, db, GammaMode::kNaive, 2, nullptr,
                 /*min_slice_size=*/1, &stats);
  EXPECT_GT(stats.parallel_sections, 0u);
  EXPECT_GT(stats.parallel_slices, 0u);
}

// Random programs in the style of gamma_mode_test: propositional rules
// with negation, dense enough to produce conflicts and restarts.
class ParallelOracleRandomTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ParallelOracleRandomTest, RandomProgramsAgree) {
  Rng rng(GetParam());
  std::string rules;
  std::string facts;
  auto atom = [](int i) { return "a" + std::to_string(i); };
  for (int i = 0; i < 10; ++i) {
    if (rng.Bernoulli(0.4)) facts += atom(i) + ". ";
  }
  for (int r = 0; r < 20; ++r) {
    int len = static_cast<int>(rng.UniformInt(1, 3));
    for (int b = 0; b < len; ++b) {
      if (b > 0) rules += ", ";
      if (rng.Bernoulli(0.3)) rules += "!";
      rules += atom(static_cast<int>(rng.UniformInt(0, 9)));
    }
    rules += rng.Bernoulli(0.5) ? " -> +" : " -> -";
    rules += atom(static_cast<int>(rng.UniformInt(0, 9)));
    rules += ".\n";
  }
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram(rules, symbols);
  Database db = MustParseDatabase(facts, symbols);
  ExpectThreadCountsAgree(program, db);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelOracleRandomTest,
                         ::testing::Range<uint64_t>(200, 215));

// Relational random programs: binary predicates with shared variables so
// the matcher actually uses (and must prewarm) column indexes.
class ParallelOracleRelationalTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelOracleRelationalTest, RandomRelationalProgramsAgree) {
  Rng rng(GetParam());
  std::string rules;
  std::string facts;
  auto pred = [](int i) { return "p" + std::to_string(i); };
  auto constant = [](int i) { return "c" + std::to_string(i); };
  for (int p = 0; p < 4; ++p) {
    for (int n = 0; n < 12; ++n) {
      facts += StrFormat("%s(%s, %s). ", pred(p).c_str(),
                         constant(static_cast<int>(rng.UniformInt(0, 5)))
                             .c_str(),
                         constant(static_cast<int>(rng.UniformInt(0, 5)))
                             .c_str());
    }
  }
  for (int r = 0; r < 8; ++r) {
    int p1 = static_cast<int>(rng.UniformInt(0, 3));
    int p2 = static_cast<int>(rng.UniformInt(0, 3));
    int head = static_cast<int>(rng.UniformInt(0, 3));
    rules += StrFormat("%s(X, Y), %s(Y, Z) -> %s%s(X, Z).\n",
                       pred(p1).c_str(), pred(p2).c_str(),
                       rng.Bernoulli(0.7) ? "+" : "-", pred(head).c_str());
  }
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram(rules, symbols);
  Database db = MustParseDatabase(facts, symbols);
  ExpectThreadCountsAgree(program, db);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelOracleRelationalTest,
                         ::testing::Range<uint64_t>(300, 310));

}  // namespace
}  // namespace park

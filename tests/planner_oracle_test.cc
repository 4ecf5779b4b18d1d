// Planner oracle: the cost-based planner's literal orders and the thread
// count are replay-stable, never semantic. Sweeping threads {1, 2, 4} ×
// Γ modes over representative workloads (skewed ones included, where
// the planner reorders bodies) must give identical final databases,
// blocked sets, and restart/step counters; repeating a fixed
// configuration must be bit-identical (traces and provenance included);
// and the planner counters must not depend on the thread count.

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

RunOutcome RunConfig(const Program& program, const Database& db,
                     GammaMode mode, int num_threads,
                     ParkStats* stats_out = nullptr,
                     ExecMode exec = ExecMode::kTuple) {
  ParkOptions options;
  options.gamma_mode = mode;
  options.num_threads = num_threads;
  options.exec_mode = exec;
  options.trace_level = TraceLevel::kFull;
  options.record_provenance = true;
  auto result = Park(program, db, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  if (stats_out != nullptr) *stats_out = result->stats;
  RunOutcome outcome;
  outcome.database = result->database.ToString();
  outcome.blocked = result->blocked;
  outcome.restarts = result->stats.restarts;
  outcome.gamma_steps = result->stats.gamma_steps;
  outcome.rule_evaluations = result->stats.rule_evaluations;
  outcome.history = result->trace.InterpretationHistory();
  for (const AtomProvenance& p : result->provenance) {
    outcome.provenance.push_back(p.atom + " <- " + Join(p.derived_by, ", "));
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

/// The full sweep: for each Γ mode, the single-thread run is the oracle;
/// every thread count must reproduce its database, blocked set,
/// counters, trace history, and provenance.
void ExpectSweepAgrees(const Program& program, const Database& db) {
  for (GammaMode mode : {GammaMode::kNaive, GammaMode::kSemiNaive}) {
    SCOPED_TRACE(ModeName(mode));
    RunOutcome oracle = RunConfig(program, db, mode, 1);
    for (int threads : {2, 4}) {
      SCOPED_TRACE(StrFormat("threads=%d", threads));
      RunOutcome run = RunConfig(program, db, mode, threads);
      EXPECT_EQ(oracle.database, run.database);
      EXPECT_EQ(oracle.blocked, run.blocked);
      EXPECT_EQ(oracle.restarts, run.restarts);
      EXPECT_EQ(oracle.gamma_steps, run.gamma_steps);
      EXPECT_EQ(oracle.rule_evaluations, run.rule_evaluations);
      EXPECT_EQ(oracle.history, run.history);
      EXPECT_EQ(oracle.provenance, run.provenance);
    }
  }
}

TEST(PlannerOracleTest, PaperExamplesAgree) {
  const char* programs[] = {
      "r1: p -> +q. r2: p -> -a. r3: q -> +a.",
      "r1: p -> +q. r2: p -> -q. r3: q -> +a. r4: q -> -a. r5: p -> +a.",
  };
  const char* facts[] = {"p.", "p."};
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE(programs[i]);
    auto symbols = MakeSymbolTable();
    Program program = MustParseProgram(programs[i], symbols);
    Database db = MustParseDatabase(facts[i], symbols);
    ExpectSweepAgrees(program, db);
  }
}

TEST(PlannerOracleTest, RecursiveClosureAgrees) {
  Workload w = MakeTransitiveClosureWorkload(GraphShape::kRandom, 14, 40, 3);
  ExpectSweepAgrees(w.program, w.database);
}

TEST(PlannerOracleTest, ConflictWorkloadAgrees) {
  Workload w = MakeConflictPairsWorkload(25, 0.3, 77);
  ExpectSweepAgrees(w.program, w.database);
}

TEST(PlannerOracleTest, PayrollEcaAgrees) {
  PayrollParams params;
  params.num_employees = 40;
  params.inactive_fraction = 0.2;
  params.num_deactivations = 4;
  params.seed = 5;
  Workload w = MakePayrollWorkload(params);
  auto extended = ProgramWithUpdates(w.program, w.updates.updates());
  ASSERT_TRUE(extended.ok());
  ExpectSweepAgrees(*extended, w.database);
}

TEST(PlannerOracleTest, SkewedJoinAgrees) {
  // The case cost-based planning exists for: one tiny literal next to a
  // large scan. The sweep proves the reordered plans replay identically
  // on every thread count.
  auto symbols = MakeSymbolTable();
  std::string facts = "sel(c0). ";
  Rng rng(17);
  for (int i = 0; i < 150; ++i) {
    facts += StrFormat("big(x%d, c%d). ", i,
                       static_cast<int>(rng.UniformInt(0, 5)));
  }
  Program program = MustParseProgram(
      "skew: big(X, Y), sel(Y) -> +out(X).\n"
      "chain: out(X), big(X, Y) -> +hit(Y).\n",
      symbols);
  Database db = MustParseDatabase(facts, symbols);
  ExpectSweepAgrees(program, db);
}

TEST(PlannerOracleTest, FixedConfigurationIsBitIdentical) {
  Workload w = MakeTransitiveClosureWorkload(GraphShape::kRandom, 12, 30, 9);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(StrFormat("threads=%d", threads));
    ParkStats first_stats;
    ParkStats second_stats;
    RunOutcome first = RunConfig(w.program, w.database, GammaMode::kNaive,
                                 threads, &first_stats);
    RunOutcome second = RunConfig(w.program, w.database, GammaMode::kNaive,
                                  threads, &second_stats);
    EXPECT_EQ(first.database, second.database);
    EXPECT_EQ(first.blocked, second.blocked);
    EXPECT_EQ(first.history, second.history);
    EXPECT_EQ(first.provenance, second.provenance);
    EXPECT_EQ(first_stats.plans_compiled, second_stats.plans_compiled);
    EXPECT_EQ(first_stats.plan_cache_hits, second_stats.plan_cache_hits);
    EXPECT_EQ(first_stats.plan_replans, second_stats.plan_replans);
    EXPECT_EQ(first_stats.planner_estimated_rows,
              second_stats.planner_estimated_rows);
    EXPECT_EQ(first_stats.planner_actual_rows,
              second_stats.planner_actual_rows);
  }
}

TEST(PlannerOracleTest, PlannerCountersAreThreadInvariant) {
  // The coordinator fetches plans in unit order on both the sequential
  // and parallel paths, and actual-rows is a sum over a disjoint slice
  // partition — so every planner counter must be independent of the
  // thread count.
  Workload w = MakeTransitiveClosureWorkload(GraphShape::kRandom, 14, 40, 3);
  for (GammaMode mode : {GammaMode::kNaive, GammaMode::kSemiNaive}) {
    SCOPED_TRACE(ModeName(mode));
    ParkStats base;
    RunConfig(w.program, w.database, mode, 1, &base);
    EXPECT_GT(base.plans_compiled, 0u);
    EXPECT_GT(base.planner_actual_rows, 0u);
    for (int threads : {2, 4}) {
      SCOPED_TRACE(threads);
      ParkStats stats;
      RunConfig(w.program, w.database, mode, threads, &stats);
      EXPECT_EQ(stats.plans_compiled, base.plans_compiled);
      EXPECT_EQ(stats.plan_cache_hits, base.plan_cache_hits);
      EXPECT_EQ(stats.plan_replans, base.plan_replans);
      EXPECT_EQ(stats.planner_estimated_rows, base.planner_estimated_rows);
      EXPECT_EQ(stats.planner_actual_rows, base.planner_actual_rows);
    }
  }
}

TEST(PlannerOracleTest, SteppedEvaluationMatchesBatch) {
  Workload w = MakeTransitiveClosureWorkload(GraphShape::kRandom, 12, 30, 9);
  auto batch = Park(w.program, w.database);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ParkStepper stepper(w.program, w.database);
  auto stepped = stepper.Finish();
  ASSERT_TRUE(stepped.ok()) << stepped.status().ToString();
  EXPECT_EQ(batch->database.ToString(), stepped->ToString());
  EXPECT_EQ(batch->stats.plans_compiled, stepper.stats().plans_compiled);
  EXPECT_EQ(batch->stats.planner_actual_rows,
            stepper.stats().planner_actual_rows);
}

// --- Batch execution oracle (see ParkOptions::exec_mode) ---
//
// The executor mode is a replay-stable knob: batch-at-a-time
// execution over columnar segments (sorted-merge joins included) must
// reproduce the tuple executor's results exactly.

/// For each Γ mode, the tuple single-thread run is the oracle; every
/// batch thread count must reproduce its database, blocked set,
/// counters, trace history, and provenance.
void ExpectExecSweepAgrees(const Program& program, const Database& db) {
  for (GammaMode mode : {GammaMode::kNaive, GammaMode::kSemiNaive}) {
    SCOPED_TRACE(ModeName(mode));
    RunOutcome oracle = RunConfig(program, db, mode, 1);
    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(StrFormat("exec=batch threads=%d", threads));
      RunOutcome run = RunConfig(program, db, mode, threads, nullptr,
                                 ExecMode::kBatch);
      EXPECT_EQ(oracle.database, run.database);
      EXPECT_EQ(oracle.blocked, run.blocked);
      EXPECT_EQ(oracle.restarts, run.restarts);
      EXPECT_EQ(oracle.gamma_steps, run.gamma_steps);
      EXPECT_EQ(oracle.rule_evaluations, run.rule_evaluations);
      EXPECT_EQ(oracle.history, run.history);
      EXPECT_EQ(oracle.provenance, run.provenance);
    }
  }
}

TEST(PlannerOracleTest, BatchExecClosureAgrees) {
  Workload w = MakeTransitiveClosureWorkload(GraphShape::kRandom, 14, 40, 3);
  ExpectExecSweepAgrees(w.program, w.database);
}

TEST(PlannerOracleTest, BatchExecConflictWorkloadAgrees) {
  Workload w = MakeConflictPairsWorkload(25, 0.3, 77);
  ExpectExecSweepAgrees(w.program, w.database);
}

TEST(PlannerOracleTest, BatchExecPayrollEcaAgrees) {
  PayrollParams params;
  params.num_employees = 40;
  params.inactive_fraction = 0.2;
  params.num_deactivations = 4;
  params.seed = 5;
  Workload w = MakePayrollWorkload(params);
  auto extended = ProgramWithUpdates(w.program, w.updates.updates());
  ASSERT_TRUE(extended.ok());
  ExpectExecSweepAgrees(*extended, w.database);
}

TEST(PlannerOracleTest, BatchExecSkewedJoinAgrees) {
  // Enough rows that the planner picks sorted-merge joins for the later
  // literals (kMergeJoinMinRows), so the merge path itself is swept.
  auto symbols = MakeSymbolTable();
  std::string facts = "sel(c0). sel(c1). ";
  Rng rng(17);
  for (int i = 0; i < 150; ++i) {
    facts += StrFormat("big(x%d, c%d). ", i,
                       static_cast<int>(rng.UniformInt(0, 5)));
  }
  Program program = MustParseProgram(
      "skew: big(X, Y), sel(Y) -> +out(X).\n"
      "chain: out(X), big(X, Y) -> +hit(Y).\n",
      symbols);
  Database db = MustParseDatabase(facts, symbols);
  ExpectExecSweepAgrees(program, db);
}

TEST(PlannerOracleTest, BatchFixedConfigurationIsBitIdentical) {
  Workload w = MakeTransitiveClosureWorkload(GraphShape::kRandom, 12, 30, 9);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(StrFormat("exec=batch threads=%d", threads));
    ParkStats first_stats;
    ParkStats second_stats;
    RunOutcome first = RunConfig(w.program, w.database, GammaMode::kNaive,
                                 threads, &first_stats, ExecMode::kBatch);
    RunOutcome second = RunConfig(w.program, w.database, GammaMode::kNaive,
                                  threads, &second_stats, ExecMode::kBatch);
    EXPECT_EQ(first.database, second.database);
    EXPECT_EQ(first.blocked, second.blocked);
    EXPECT_EQ(first.history, second.history);
    EXPECT_EQ(first.provenance, second.provenance);
    EXPECT_EQ(first_stats.exec_batch_rows, second_stats.exec_batch_rows);
    EXPECT_EQ(first_stats.exec_probe_rows, second_stats.exec_probe_rows);
    EXPECT_EQ(first_stats.exec_merge_rows, second_stats.exec_merge_rows);
    EXPECT_EQ(first_stats.storage_compactions,
              second_stats.storage_compactions);
    EXPECT_EQ(first_stats.storage_segment_rows,
              second_stats.storage_segment_rows);
    EXPECT_EQ(first_stats.storage_dict_entries,
              second_stats.storage_dict_entries);
  }
}

TEST(PlannerOracleTest, BatchCountersAreThreadInvariant) {
  // Compaction runs on the coordinator at every Γ step and the exec row
  // counters are sums over a disjoint partition of the same stream, so
  // the storage and exec stats must be independent of the thread count.
  Workload w = MakeTransitiveClosureWorkload(GraphShape::kRandom, 14, 40, 3);
  for (GammaMode mode : {GammaMode::kNaive, GammaMode::kSemiNaive}) {
    SCOPED_TRACE(ModeName(mode));
    ParkStats base;
    RunConfig(w.program, w.database, mode, 1, &base, ExecMode::kBatch);
    EXPECT_GT(base.exec_batch_rows, 0u);
    EXPECT_GT(base.storage_compactions, 0u);
    EXPECT_GT(base.storage_dict_entries, 0u);
    for (int threads : {2, 4}) {
      SCOPED_TRACE(threads);
      ParkStats stats;
      RunConfig(w.program, w.database, mode, threads, &stats,
                ExecMode::kBatch);
      EXPECT_EQ(stats.exec_batch_rows, base.exec_batch_rows);
      EXPECT_EQ(stats.exec_probe_rows, base.exec_probe_rows);
      EXPECT_EQ(stats.exec_merge_rows, base.exec_merge_rows);
      EXPECT_EQ(stats.storage_compactions, base.storage_compactions);
      EXPECT_EQ(stats.storage_segment_rows, base.storage_segment_rows);
      EXPECT_EQ(stats.storage_dict_entries, base.storage_dict_entries);
    }
  }
}

TEST(PlannerOracleTest, RandomRelationalProgramsAgree) {
  for (uint64_t seed = 400; seed < 406; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::string rules;
    std::string facts;
    auto pred = [](int i) { return "p" + std::to_string(i); };
    auto constant = [](int i) { return "c" + std::to_string(i); };
    // Deliberately skewed relation sizes so the planner departs from
    // source order.
    for (int p = 0; p < 4; ++p) {
      int rows = p == 0 ? 40 : 4;
      for (int n = 0; n < rows; ++n) {
        facts += StrFormat(
            "%s(%s, %s). ", pred(p).c_str(),
            constant(static_cast<int>(rng.UniformInt(0, 7))).c_str(),
            constant(static_cast<int>(rng.UniformInt(0, 7))).c_str());
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
    ExpectSweepAgrees(program, db);
  }
}

}  // namespace
}  // namespace park

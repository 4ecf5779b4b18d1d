// Scheduler oracle: the dependency scheduler (docs/SCHEDULER.md) is an
// implementation detail, never a semantic one. For every workload — paper
// examples, recursive closures, conflict generators, and the kilorule
// chains whose sparse deltas the scheduler exists for — every scheduled
// Γ mode must reproduce naive Γ (which matches every rule every step and
// builds no graph) at the set level: final database, blocked set,
// step/restart counters, and full trace. And the parallel runs, which fan
// each scheduled section's seed units out over the pool and concatenate
// the task buffers in unit order, must be bit-identical to the
// sequential run at 2 and 4 threads, evaluation counters and provenance
// included, for both executors. The set-level identity of the watcher
// index with RuleIsAffected is pinned in rule_graph_test.

#include <gtest/gtest.h>

#include "core/park_evaluator.h"
#include "test_util.h"
#include "util/string_util.h"
#include "workload/conflict_gen.h"
#include "workload/graph_gen.h"
#include "workload/kilorule_gen.h"

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

struct Config {
  GammaMode gamma = GammaMode::kSemiNaive;
  ExecMode exec = ExecMode::kTuple;
  int threads = 1;
};

RunOutcome RunConfig(const Program& program, const Database& db,
                     const Config& config, ParkStats* stats_out = nullptr) {
  ParkOptions options;
  options.gamma_mode = config.gamma;
  options.exec_mode = config.exec;
  options.num_threads = config.threads;
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
    outcome.provenance.push_back(p.atom + " <- " +
                                 Join(p.derived_by, ", "));
  }
  return outcome;
}

const char* GammaName(GammaMode mode) {
  switch (mode) {
    case GammaMode::kNaive: return "naive";
    case GammaMode::kSemiNaive: return "semi-naive";
  }
  return "?";
}

/// The full sweep: naive Γ is the unscheduled reference for the result;
/// for each fixed (Γ, exec) configuration the sequential run is the
/// reference for the parallel runs.
void ExpectSchedulerInvisible(const Program& program, const Database& db) {
  Config naive_config;
  naive_config.gamma = GammaMode::kNaive;
  const RunOutcome naive = RunConfig(program, db, naive_config);
  for (GammaMode gamma : {GammaMode::kNaive, GammaMode::kSemiNaive}) {
    for (ExecMode exec : {ExecMode::kTuple, ExecMode::kBatch}) {
      SCOPED_TRACE(StrFormat("gamma=%s exec=%s", GammaName(gamma),
                             exec == ExecMode::kBatch ? "batch" : "tuple"));
      Config reference_config;
      reference_config.gamma = gamma;
      reference_config.exec = exec;
      const RunOutcome reference = RunConfig(program, db, reference_config);
      EXPECT_EQ(naive.database, reference.database);
      EXPECT_EQ(naive.blocked, reference.blocked);
      EXPECT_EQ(naive.restarts, reference.restarts);
      EXPECT_EQ(naive.gamma_steps, reference.gamma_steps);
      EXPECT_EQ(naive.history, reference.history);
      for (int threads : {2, 4}) {
        SCOPED_TRACE(StrFormat("threads=%d", threads));
        Config config = reference_config;
        config.threads = threads;
        RunOutcome run = RunConfig(program, db, config);
        EXPECT_EQ(reference.database, run.database);
        EXPECT_EQ(reference.blocked, run.blocked);
        EXPECT_EQ(reference.restarts, run.restarts);
        EXPECT_EQ(reference.gamma_steps, run.gamma_steps);
        EXPECT_EQ(reference.rule_evaluations, run.rule_evaluations);
        EXPECT_EQ(reference.history, run.history);
        EXPECT_EQ(reference.provenance, run.provenance);
      }
    }
  }
}

TEST(SchedulerOracleTest, PaperExamplesAgree) {
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
    ExpectSchedulerInvisible(program, db);
  }
}

TEST(SchedulerOracleTest, RecursiveClosureAgrees) {
  Workload w =
      MakeTransitiveClosureWorkload(GraphShape::kRandom, 14, 40, 3);
  ExpectSchedulerInvisible(w.program, w.database);
}

TEST(SchedulerOracleTest, ConflictWorkloadsAgree) {
  // Conflicts force restarts and the conflict-resolution Γ recompute,
  // both of which reuse the scheduler's watcher index.
  for (double fraction : {0.3, 1.0}) {
    SCOPED_TRACE(fraction);
    Workload w = MakeConflictPairsWorkload(18, fraction, 77);
    ExpectSchedulerInvisible(w.program, w.database);
  }
}

TEST(SchedulerOracleTest, KiloruleAgrees) {
  // The workload the scheduler exists for: long chains, sparse per-step
  // deltas, a deliberate SCC at the tail.
  Workload w = MakeKiloruleWorkload(/*chains=*/4, /*levels=*/8,
                                    /*facts=*/2);
  ExpectSchedulerInvisible(w.program, w.database);
}

TEST(SchedulerOracleTest, KiloruleCountersShowSkips) {
  Workload w = MakeKiloruleWorkload(/*chains=*/4, /*levels=*/16,
                                    /*facts=*/2);
  ParkStats scheduled;
  RunConfig(w.program, w.database, Config{}, &scheduled);
  EXPECT_GT(scheduled.sched_rules_skipped, 0u);
  // Every Γ section either matches or skips each rule; the watcher index
  // considers strictly fewer rules than a per-step scan over the whole
  // program would.
  ASSERT_EQ(scheduled.restarts, 0u);
  const size_t scan = (scheduled.gamma_steps + 1) * w.program.size();
  EXPECT_EQ(scheduled.rule_evaluations + scheduled.sched_rules_skipped,
            scan);
  EXPECT_LT(scheduled.sched_rules_considered, scan);
}

TEST(SchedulerOracleTest, NaiveModeIgnoresTheScheduler) {
  // Naive Γ re-derives everything every step by definition; there is no
  // delta to schedule from, so every Γ call considers and matches every
  // rule and skips none.
  Workload w = MakeKiloruleWorkload(/*chains=*/2, /*levels=*/4,
                                    /*facts=*/1);
  ParkStats stats;
  Config config;
  config.gamma = GammaMode::kNaive;
  RunConfig(w.program, w.database, config, &stats);
  EXPECT_EQ(stats.sched_rules_skipped, 0u);
  EXPECT_EQ(stats.sched_rules_considered, stats.rule_evaluations);
}

}  // namespace
}  // namespace park

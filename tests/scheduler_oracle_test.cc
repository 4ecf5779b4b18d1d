// The dependency scheduler (docs/SCHEDULER.md) saves work on the kilorule
// chains whose sparse deltas it exists for: rules no delta can wake are
// skipped, and the watcher index considers fewer rules than a per-step
// scan would. That the scheduled runs reproduce the reference results at
// every configuration is differential_test's job; the set-level identity
// of the watcher index with RuleIsAffected is pinned in rule_graph_test.

#include <gtest/gtest.h>

#include "core/park_evaluator.h"
#include "workload/kilorule_gen.h"

namespace park {
namespace {

TEST(SchedulerOracleTest, KiloruleCountersShowSkips) {
  Workload w = MakeKiloruleWorkload(/*chains=*/4, /*levels=*/16,
                                    /*facts=*/2);
  auto result = Park(w.program, w.database);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ParkStats& scheduled = result->stats;
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

}  // namespace
}  // namespace park

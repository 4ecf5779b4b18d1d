// The park-stats-v1 contract: everything under "counters" is a property
// of the computation, not of the machine — identical whatever
// num_threads or min_slice_size is set to. Only the "parallel" and
// "timings" sections may differ between configurations. This is the
// machine-checked form of the schema's invariance promise
// (docs/OBSERVABILITY.md), on top of differential_test's database and
// counter checks.

#include <gtest/gtest.h>

#include <string>

#include "core/park_evaluator.h"
#include "workload/graph_gen.h"
#include "workload/kilorule_gen.h"

namespace park {
namespace {

/// The "counters" object of a park-stats-v1 document (emission order is
/// fixed: counters, parallel, planner, scheduler, then timings last).
std::string CountersSection(const std::string& json) {
  size_t begin = json.find("\"counters\"");
  size_t end = json.find("\"parallel\"");
  EXPECT_NE(begin, std::string::npos);
  EXPECT_NE(end, std::string::npos);
  return json.substr(begin, end - begin);
}

/// The "planner" object — thread-invariant: the coordinator fetches plans
/// and accumulates rows in unit order on every path.
std::string PlannerSection(const std::string& json) {
  size_t begin = json.find("\"planner\"");
  size_t end = json.find("\"scheduler\"");
  EXPECT_NE(begin, std::string::npos);
  EXPECT_NE(end, std::string::npos);
  return json.substr(begin, end - begin);
}

TEST(StatsInvarianceTest, CountersIdenticalAcrossThreadCounts) {
  Workload w = MakeTransitiveClosureWorkload(GraphShape::kRandom,
                                             /*num_nodes=*/64,
                                             /*num_edges=*/256, /*seed=*/7);
  ParkOptions sequential;
  sequential.num_threads = 1;
  sequential.collect_timings = true;
  auto ref = Park(w.program, w.database, sequential);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  const std::string ref_counters = CountersSection(ref->stats.ToJson());

  ParkOptions parallel = sequential;
  parallel.num_threads = 4;
  parallel.min_slice_size = 16;  // force slicing into the picture
  auto par = Park(w.program, w.database, parallel);
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  const std::string json = par->stats.ToJson();

  EXPECT_EQ(CountersSection(json), ref_counters)
      << "counters must not depend on the thread count";
  // The parallel section, by contrast, must reflect the configuration.
  EXPECT_EQ(par->stats.num_threads, 4u);
  EXPECT_GT(par->stats.parallel_sections, 0u);
  EXPECT_NE(json.find("\"num_threads\": 4"), std::string::npos);
}

TEST(StatsInvarianceTest, FieldLevelCountersMatchToo) {
  // Belt and braces for the JSON comparison above: the underlying struct
  // fields agree one by one, so a future ToJson refactor cannot silently
  // weaken the check.
  Workload w = MakeTransitiveClosureWorkload(GraphShape::kPath,
                                             /*num_nodes=*/48,
                                             /*num_edges=*/47, /*seed=*/3);
  ParkOptions a;
  a.num_threads = 1;
  ParkOptions b;
  b.num_threads = 4;
  auto ra = Park(w.program, w.database, a);
  auto rb = Park(w.program, w.database, b);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->stats.gamma_steps, rb->stats.gamma_steps);
  EXPECT_EQ(ra->stats.restarts, rb->stats.restarts);
  EXPECT_EQ(ra->stats.conflicts_resolved, rb->stats.conflicts_resolved);
  EXPECT_EQ(ra->stats.blocked_instances, rb->stats.blocked_instances);
  EXPECT_EQ(ra->stats.derived_marks, rb->stats.derived_marks);
  EXPECT_EQ(ra->stats.policy_invocations, rb->stats.policy_invocations);
  EXPECT_EQ(ra->stats.rule_evaluations, rb->stats.rule_evaluations);
}

TEST(StatsInvarianceTest, PlannerCountersInvariantAcrossThreads) {
  // The drift-envelope replan statistics (and every other planner
  // counter) come from the coordinator's plan fetches, which happen in
  // unit order whether the scheduled rules run on the pool or
  // sequentially.
  Workload w = MakeKiloruleWorkload(/*chains=*/4, /*levels=*/12,
                                    /*facts=*/2);
  ParkOptions reference;
  reference.num_threads = 1;
  auto ref = Park(w.program, w.database, reference);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  const std::string ref_json = ref->stats.ToJson();
  const std::string ref_planner = PlannerSection(ref_json);
  const std::string ref_counters = CountersSection(ref_json);

  for (int threads : {2, 4}) {
    ParkOptions parallel = reference;
    parallel.num_threads = threads;
    auto run = Park(w.program, w.database, parallel);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const std::string json = run->stats.ToJson();
    EXPECT_EQ(PlannerSection(json), ref_planner)
        << threads << " thread(s): planner counters must not see the pool";
    EXPECT_EQ(CountersSection(json), ref_counters);
    EXPECT_EQ(run->stats.plans_compiled, ref->stats.plans_compiled);
    EXPECT_EQ(run->stats.plan_cache_hits, ref->stats.plan_cache_hits);
    EXPECT_EQ(run->stats.plan_replans, ref->stats.plan_replans);
    EXPECT_EQ(run->stats.planner_estimated_rows,
              ref->stats.planner_estimated_rows);
    EXPECT_EQ(run->stats.planner_actual_rows, ref->stats.planner_actual_rows);
  }
}

TEST(StatsInvarianceTest, SchedulerCountersInvariantAcrossThreads) {
  // The scheduler block itself reflects the schedule, not the machine:
  // considered/skipped agree at 1 and 4 threads.
  Workload w = MakeKiloruleWorkload(/*chains=*/4, /*levels=*/8,
                                    /*facts=*/2);
  ParkOptions a;
  a.num_threads = 1;
  ParkOptions b;
  b.num_threads = 4;
  auto ra = Park(w.program, w.database, a);
  auto rb = Park(w.program, w.database, b);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->stats.sched_rules_considered,
            rb->stats.sched_rules_considered);
  EXPECT_EQ(ra->stats.sched_rules_skipped, rb->stats.sched_rules_skipped);
}

TEST(StatsInvarianceTest, TimingsAbsentUnlessRequested) {
  Workload w = MakeTransitiveClosureWorkload(GraphShape::kPath,
                                             /*num_nodes=*/16,
                                             /*num_edges=*/15, /*seed=*/1);
  auto result = Park(w.program, w.database, ParkOptions());
  ASSERT_TRUE(result.ok());
  // collect_timings defaults off: no clock was read, the JSON says so.
  EXPECT_FALSE(result->stats.timings.collected);
  EXPECT_EQ(result->stats.timings.total_ns, 0u);
  EXPECT_NE(result->stats.ToJson().find("\"collected\": false"),
            std::string::npos);
}

TEST(StatsInvarianceTest, ToJsonCarriesSchemaTag) {
  ParkStats stats;
  std::string json = stats.ToJson();
  EXPECT_EQ(json.find("{\n  \"schema\": \"park-stats-v1\""), 0u);
}

TEST(StatsInvarianceTest, ToJsonCarriesServingBlock) {
  // The serving block renders even for non-served runs (all zeros), so
  // every park-stats-v1 document has the same shape; the histogram
  // buckets follow RecordBatch's 1/2/3-4/5-8/9-16/17+ split.
  ParkStats stats;
  stats.serving.RecordBatch(1);
  stats.serving.RecordBatch(2);
  stats.serving.RecordBatch(7);
  stats.serving.RecordBatch(40);
  EXPECT_EQ(stats.serving.batches, 4u);
  EXPECT_EQ(stats.serving.batched_txns, 50u);
  EXPECT_EQ(stats.serving.max_batch_size, 40u);
  EXPECT_EQ(stats.serving.batch_size_hist[0], 1u);
  EXPECT_EQ(stats.serving.batch_size_hist[1], 1u);
  EXPECT_EQ(stats.serving.batch_size_hist[3], 1u);
  EXPECT_EQ(stats.serving.batch_size_hist[5], 1u);
  std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"serving\": {"), std::string::npos);
  EXPECT_NE(json.find("\"batch_size_hist\": ["), std::string::npos);
  EXPECT_NE(json.find("\"snapshots_pinned\": 0"), std::string::npos);
}

}  // namespace
}  // namespace park

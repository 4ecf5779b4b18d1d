// The park-stats-v1 document's shape: the schema tag, the timings block
// when collection is off, and the serving block. That the counters are
// a property of the computation, identical across thread counts and
// executors, is differential_test's Layer 2.

#include <gtest/gtest.h>

#include <string>

#include "core/park_evaluator.h"
#include "workload/graph_gen.h"

namespace park {
namespace {

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

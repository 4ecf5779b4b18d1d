// ActiveDatabase::Configure and ValidateOptions: the single validated
// entry point for evaluation options, the deprecated setters that remain
// as thin wrappers, and the commit-time backstop that catches options
// smuggled in around validation.

#include <gtest/gtest.h>

#include <filesystem>
#include <utility>

#include "core/park_evaluator.h"
#include "eca/active_database.h"

namespace park {
namespace {

TEST(ValidateOptionsTest, DefaultOptionsAreValid) {
  EXPECT_TRUE(ValidateOptions(ParkOptions()).ok());
}

TEST(ValidateOptionsTest, RejectsNegativeThreads) {
  ParkOptions options;
  options.num_threads = -1;
  Status status = ValidateOptions(options);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("num_threads"), std::string::npos);
}

TEST(ValidateOptionsTest, RejectsZeroSliceSize) {
  ParkOptions options;
  options.min_slice_size = 0;
  Status status = ValidateOptions(options);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("min_slice_size"), std::string::npos);
}

TEST(ValidateOptionsTest, RejectsZeroMaxSteps) {
  ParkOptions options;
  options.max_steps = 0;
  EXPECT_EQ(ValidateOptions(options).code(),
            StatusCode::kInvalidArgument);
}

TEST(ValidateOptionsTest, RejectsNegativeDeadline) {
  ParkOptions options;
  options.deadline_ms = -5;
  EXPECT_EQ(ValidateOptions(options).code(),
            StatusCode::kInvalidArgument);
}

TEST(ValidateOptionsTest, AcceptsFreeKnobExtremes) {
  ParkOptions options;
  options.num_threads = 0;  // hardware concurrency
  options.min_slice_size = 1;
  options.deadline_ms = 0;  // no deadline
  EXPECT_TRUE(ValidateOptions(options).ok());
}

TEST(ConfigureTest, InstallsValidatedBundle) {
  ActiveDatabase db;
  ParkOptions options;
  options.num_threads = 2;
  options.min_slice_size = 64;
  options.block_granularity = BlockGranularity::kFirstConflictOnly;
  ASSERT_TRUE(db.Configure(std::move(options)).ok());
  EXPECT_EQ(db.options().num_threads, 2);
  EXPECT_EQ(db.options().min_slice_size, 64u);
  EXPECT_EQ(db.options().block_granularity,
            BlockGranularity::kFirstConflictOnly);
}

TEST(ConfigureTest, RejectionLeavesPreviousOptionsUntouched) {
  ActiveDatabase db;
  ParkOptions good;
  good.num_threads = 3;
  ASSERT_TRUE(db.Configure(std::move(good)).ok());

  ParkOptions bad;
  bad.num_threads = -7;
  Status status = db.Configure(std::move(bad));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.options().num_threads, 3);
}

TEST(ConfigureTest, SurvivingDeprecatedSettersStillWork) {
  // SetPolicy/SetBlockGranularity/SetNumThreads/SetMinSliceSize are gone
  // (use Configure); only SetTraceLevel and mutable_options() survive.
  ActiveDatabase db;
  db.SetTraceLevel(TraceLevel::kFull);
  EXPECT_EQ(db.options().trace_level, TraceLevel::kFull);
}

TEST(ConfigureTest, MutableOptionsBypassIsCaughtAtCommit) {
  ActiveDatabase db;
  ASSERT_TRUE(db.LoadRules("r1: p(X) -> +q(X).").ok());
  // mutable_options() skips validation by construction; the commit-time
  // backstop must refuse to evaluate with the invalid bundle...
  db.mutable_options().num_threads = -1;
  auto tx = db.Begin();
  tx.Insert("p", {"a"});
  auto report = std::move(tx).Commit();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  // ...and refuse atomically: nothing was evaluated or stored.
  EXPECT_EQ(db.database().size(), 0u);

  // Repairing the options un-wedges the database.
  db.mutable_options().num_threads = 1;
  auto tx2 = db.Begin();
  tx2.Insert("p", {"a"});
  EXPECT_TRUE(std::move(tx2).Commit().ok());
  EXPECT_EQ(db.database().size(), 2u);
}

TEST(ConfigureTest, OpenValidatesOptionsBundle) {
  const std::string dir = ::testing::TempDir() + "park_configure_open";
  ActiveDatabase::OpenParams params;
  params.options.num_threads = -2;
  auto db = ActiveDatabase::Open(dir, std::move(params));
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
}

TEST(ConfigureTest, OpenParamsOptionsReachTheDatabase) {
  const std::string dir = ::testing::TempDir() + "park_configure_open_ok";
  std::filesystem::remove_all(dir);
  ActiveDatabase::OpenParams params;
  params.rules = "r1: p(X) -> +q(X).";
  params.sync_mode = JournalSyncMode::kNone;
  params.options.num_threads = 2;
  params.options.block_granularity = BlockGranularity::kFirstConflictOnly;
  auto db = ActiveDatabase::Open(dir, std::move(params));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->options().num_threads, 2);
  EXPECT_EQ(db->options().block_granularity,
            BlockGranularity::kFirstConflictOnly);
}

TEST(ConfigureTest, LegacyOpenPolicyOverridesOptionsPolicy) {
  const std::string dir = ::testing::TempDir() + "park_configure_policy";
  std::filesystem::remove_all(dir);
  ActiveDatabase::OpenParams params;
  params.sync_mode = JournalSyncMode::kNone;
  params.policy = MakeAlwaysInsertPolicy();       // deprecated field...
  params.options.policy = MakeAlwaysDeletePolicy();  // ...wins over this
  auto db = ActiveDatabase::Open(dir, std::move(params));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_NE(db->options().policy, nullptr);
  EXPECT_EQ(db->options().policy->name(), "always-insert");
}

}  // namespace
}  // namespace park

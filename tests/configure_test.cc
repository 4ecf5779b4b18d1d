// ActiveDatabase::Configure and ValidateOptions: the single validated
// entry point for evaluation options, directly and through OpenParams.

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
  options.deadline_ms = 0;  // no deadline
  EXPECT_TRUE(ValidateOptions(options).ok());
}

TEST(ConfigureTest, InstallsValidatedBundle) {
  ActiveDatabase db;
  ParkOptions options;
  options.num_threads = 2;
  options.block_granularity = BlockGranularity::kFirstConflictOnly;
  ASSERT_TRUE(db.Configure(std::move(options)).ok());
  EXPECT_EQ(db.options().num_threads, 2);
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
  params.options.policy = MakeAlwaysDeletePolicy();
  auto db = ActiveDatabase::Open(dir, std::move(params));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->options().num_threads, 2);
  EXPECT_EQ(db->options().block_granularity,
            BlockGranularity::kFirstConflictOnly);
  ASSERT_NE(db->options().policy, nullptr);
  EXPECT_EQ(db->options().policy->name(), "always-delete");
}

}  // namespace
}  // namespace park

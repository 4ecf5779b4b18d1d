// Run governance: the CancellationToken itself, and its plumbing through
// Park() / ParkStepper — a deadline that fires INSIDE one huge Γ step
// (the regression this subsystem exists for), external cancellation,
// memory budgets, and derivation budgets. The fault-free oracle sweeps in
// parallel_oracle_test.cc guarantee ungoverned runs are unaffected.

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "test_util.h"
#include "util/cancellation.h"

namespace park {
namespace {

using ::park::testing_util::MustParseDatabase;
using ::park::testing_util::MustParseProgram;

// --- CancellationToken unit tests ----------------------------------------

TEST(CancellationTokenTest, StartsUnfired) {
  CancellationToken token;
  EXPECT_FALSE(token.Check());
  EXPECT_FALSE(token.fired());
  EXPECT_EQ(token.cause(), CancellationToken::Cause::kNone);
  EXPECT_TRUE(token.ToStatus().ok());
}

TEST(CancellationTokenTest, RequestCancelIsSticky) {
  CancellationToken token;
  token.RequestCancel();
  EXPECT_TRUE(token.fired());
  EXPECT_EQ(token.cause(), CancellationToken::Cause::kCancelled);
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kCancelled);
  // First cause wins: a later deadline trip must not overwrite it.
  token.SetDeadline(std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1));
  EXPECT_TRUE(token.Check());
  EXPECT_EQ(token.cause(), CancellationToken::Cause::kCancelled);
}

TEST(CancellationTokenTest, DeadlineFiresOnCheck) {
  CancellationToken token;
  token.SetDeadline(std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1));
  EXPECT_TRUE(token.Check());
  EXPECT_EQ(token.cause(), CancellationToken::Cause::kDeadline);
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancellationTokenTest, FutureDeadlineDoesNotFire) {
  CancellationToken token;
  token.SetDeadline(std::chrono::steady_clock::now() +
                    std::chrono::hours(1));
  EXPECT_FALSE(token.Check());
}

TEST(CancellationTokenTest, ParentChainPropagatesAsCancelled) {
  CancellationToken parent;
  CancellationToken child;
  child.ChainParent(&parent);
  EXPECT_FALSE(child.Check());
  parent.RequestCancel();
  EXPECT_TRUE(child.Check());
  EXPECT_EQ(child.cause(), CancellationToken::Cause::kCancelled);
}

TEST(CancellationTokenTest, MemoryScopeChargesAndFires) {
  CancellationToken token;
  token.SetMemoryLimit(1000);
  CancellationToken::MemoryScope a, b;
  EXPECT_FALSE(token.UpdateScope(a, 400));
  EXPECT_FALSE(token.UpdateScope(b, 500));
  EXPECT_EQ(token.bytes_in_use(), 900u);
  // Shrinking credits back.
  EXPECT_FALSE(token.UpdateScope(a, 100));
  EXPECT_EQ(token.bytes_in_use(), 600u);
  EXPECT_EQ(token.peak_bytes(), 900u);
  // Crossing the limit fires kMemory.
  EXPECT_TRUE(token.UpdateScope(b, 1000));
  EXPECT_EQ(token.cause(), CancellationToken::Cause::kMemory);
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kResourceExhausted);
  token.CloseScope(a);
  token.CloseScope(b);
  EXPECT_EQ(token.bytes_in_use(), 0u);
  // CloseScope is idempotent.
  token.CloseScope(a);
  EXPECT_EQ(token.bytes_in_use(), 0u);
}

TEST(CancellationTokenTest, WorkBudgetFires) {
  CancellationToken token;
  token.SetWorkLimit(10);
  EXPECT_FALSE(token.ChargeWork(10));
  EXPECT_TRUE(token.ChargeWork(1));
  EXPECT_EQ(token.cause(), CancellationToken::Cause::kWork);
  EXPECT_EQ(token.work_charged(), 11u);
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kResourceExhausted);
}

// --- Park() plumbing ------------------------------------------------------

/// A program whose FIRST Γ step enumerates |e|^3 candidate tuples — the
/// giant-candidate-stream shape that used to run to completion before the
/// between-steps deadline check could fire.
struct GiantStep {
  std::shared_ptr<SymbolTable> symbols = MakeSymbolTable();
  Program program;
  Database db;

  explicit GiantStep(int n)
      : program(MustParseProgram("e(X), e(Y), e(Z) -> +t(X, Y, Z).",
                                 symbols)),
        db([&] {
          std::string facts;
          for (int i = 0; i < n; ++i) {
            facts += "e(v" + std::to_string(i) + "). ";
          }
          return MustParseDatabase(facts, symbols);
        }()) {}
};

TEST(ParkCancellationTest, DeadlineFiresInsideOneGammaStep) {
  for (int threads : {1, 4}) {
    GiantStep giant(200);  // 8M groundings: far beyond a 5ms budget
    ParkOptions options;
    options.num_threads = threads;
    options.deadline_ms = 5;
    const auto start = std::chrono::steady_clock::now();
    auto result = Park(giant.program, giant.db, options);
    const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
        std::chrono::steady_clock::now() - start);
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
        << "threads=" << threads << ": " << result.status().ToString();
    // Cooperative polling every kCheckStride tuples means the run stops
    // in milliseconds, not after the full 8M-tuple enumeration.
    EXPECT_LT(elapsed.count(), 10) << "threads=" << threads;
  }
}

TEST(ParkCancellationTest, PreCancelledTokenStopsTheRun) {
  for (int threads : {1, 4}) {
    GiantStep giant(60);
    CancellationToken external;
    external.RequestCancel();
    ParkOptions options;
    options.num_threads = threads;
    options.cancel = &external;
    auto result = Park(giant.program, giant.db, options);
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << "threads=" << threads;
  }
}

TEST(ParkCancellationTest, ConcurrentCancelFromAnotherThread) {
  GiantStep giant(200);
  CancellationToken external;
  ParkOptions options;
  options.num_threads = 4;
  options.cancel = &external;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    external.RequestCancel();
  });
  auto result = Park(giant.program, giant.db, options);
  canceller.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(ParkCancellationTest, DerivationBudgetFires) {
  for (int threads : {1, 4}) {
    GiantStep giant(40);  // 64k groundings
    ParkOptions options;
    options.num_threads = threads;
    options.max_derivations = 100;
    auto result = Park(giant.program, giant.db, options);
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << "threads=" << threads;
    EXPECT_NE(result.status().ToString().find("max_derivations"),
              std::string::npos);
  }
}

/// Runs `fn` on a thread of its own, after an ungoverned evaluation of
/// `warm_up` at `threads` when given: a thread keeps its Γ section
/// buffers between evaluations, so `fn` then runs with buffers whose
/// capacity an earlier evaluation left behind.
template <typename Fn>
void OnThread(const GiantStep* warm_up, int threads, Fn fn) {
  std::thread thread([&] {
    if (warm_up != nullptr) {
      ParkOptions options;
      options.num_threads = threads;
      auto warmed = Park(warm_up->program, warm_up->db, options);
      ASSERT_TRUE(warmed.ok()) << warmed.status().ToString();
    }
    fn();
  });
  thread.join();
}

TEST(ParkCancellationTest, MemoryBudgetFires) {
  // Cold, and again after a warm-up whose sections hold far more than
  // the budget: a retained buffer's capacity is never charged, so the
  // budget fires the same way on both.
  const GiantStep warm_up(30);  // 27k groundings
  for (int threads : {1, 4}) {
    for (const GiantStep* warm : {static_cast<const GiantStep*>(nullptr),
                                  &warm_up}) {
      OnThread(warm, threads, [&] {
        GiantStep giant(60);  // 216k groundings, megabytes of derivations
        ParkOptions options;
        options.num_threads = threads;
        options.max_memory_bytes = 16 * 1024;
        auto result = Park(giant.program, giant.db, options);
        ASSERT_FALSE(result.ok()) << "threads=" << threads;
        EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
            << "threads=" << threads;
        EXPECT_NE(result.status().ToString().find("max_memory_bytes"),
                  std::string::npos);
      });
    }
  }
}

/// The largest Γ section's derivation count.
class LargestSection : public RunObserver {
 public:
  void OnGammaSection(const GammaSectionInfo& info) override {
    derivations = std::max(derivations, info.derivations);
  }
  size_t derivations = 0;
};

TEST(ParkCancellationTest, MemoryBudgetChargesTheDerivationValues) {
  // One section of 12^3 derivations with 8-ary heads: its head values
  // alone take derivations x 8 x sizeof(Value) bytes, which the budget
  // must see whatever the thread count.
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram(
      "e(X), e(Y), e(Z) -> +w(X, Y, Z, X, Y, Z, X, Y).", symbols);
  std::string facts;
  for (int i = 0; i < 12; ++i) facts += "e(v" + std::to_string(i) + "). ";
  Database db = MustParseDatabase(facts, symbols);
  // Cold, and again on a thread whose buffers a larger section warmed.
  const GiantStep warm_up(30);
  for (int threads : {1, 4}) {
    for (const GiantStep* warm : {static_cast<const GiantStep*>(nullptr),
                                  &warm_up}) {
      OnThread(warm, threads, [&] {
        LargestSection largest;
        ParkOptions options;
        options.num_threads = threads;
        options.max_memory_bytes = 1ull << 32;
        options.observer = &largest;
        auto result = Park(program, db, options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_EQ(largest.derivations, 12u * 12u * 12u);
        EXPECT_GE(result->stats.peak_memory_bytes,
                  largest.derivations * 8 * sizeof(Value))
            << "threads=" << threads << " warm=" << (warm != nullptr);
      });
    }
  }
}

TEST(ParkCancellationTest, GenerousBudgetsLeaveResultIdentical) {
  GiantStep small(8);
  auto plain = Park(small.program, small.db, ParkOptions{});
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  ParkOptions governed;
  governed.deadline_ms = 600000;
  governed.max_memory_bytes = 1ull << 32;
  governed.max_derivations = 1ull << 40;
  auto result = Park(small.program, small.db, governed);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->database.ToString(), plain->database.ToString());
  // Resource accounting surfaces in the stats.
  EXPECT_EQ(result->stats.memory_limit_bytes, governed.max_memory_bytes);
  EXPECT_EQ(result->stats.derivation_limit, governed.max_derivations);
  EXPECT_GT(result->stats.derivations_charged, 0u);
  EXPECT_GT(result->stats.peak_memory_bytes, 0u);
}

TEST(ParkCancellationTest, ValidateOptionsRejectsNegativeIoKnobs) {
  ParkOptions options;
  options.io_max_retries = -1;
  EXPECT_EQ(ValidateOptions(options).code(), StatusCode::kInvalidArgument);
  ParkOptions backoff;
  backoff.io_backoff_ms = -1;
  EXPECT_EQ(ValidateOptions(backoff).code(), StatusCode::kInvalidArgument);
}

// --- ParkStepper plumbing -------------------------------------------------

TEST(StepperCancellationTest, DeadlineFiresInsideOneGammaStep) {
  GiantStep giant(200);
  ParkOptions options;
  options.deadline_ms = 5;
  ParkStepper stepper(giant.program, giant.db, options);
  auto step = stepper.Step();
  ASSERT_FALSE(step.ok());
  EXPECT_EQ(step.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(StepperCancellationTest, WorkBudgetFires) {
  GiantStep giant(40);
  ParkOptions options;
  options.max_derivations = 100;
  ParkStepper stepper(giant.program, giant.db, options);
  auto step = stepper.Step();
  ASSERT_FALSE(step.ok());
  EXPECT_EQ(step.status().code(), StatusCode::kResourceExhausted);
}

// --- ActiveDatabase: governed commits leave the database untouched --------

TEST(CommitCancellationTest, DeadlineFailedCommitLeavesDatabaseUntouched) {
  // The giant cross join is gated on `watch`, which only the FAILING
  // transaction inserts — so the recovery commit below stays fast.
  ActiveDatabase db;
  ASSERT_TRUE(
      db.LoadRules("watch, e(X), e(Y), e(Z) -> +t(X, Y, Z).").ok());
  std::string facts;
  for (int i = 0; i < 200; ++i) facts += "e(v" + std::to_string(i) + "). ";
  ASSERT_TRUE(db.LoadFacts(facts).ok());
  const std::string before = db.database().ToString();

  ParkOptions options;
  options.deadline_ms = 5;
  ASSERT_TRUE(db.Configure(std::move(options)).ok());
  auto report = std::move(db.Begin().Insert("watch", {})).Commit();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(db.database().ToString(), before);
  ASSERT_TRUE(report.failure().has_value());
  EXPECT_EQ(report.failure()->stage, CommitFailure::Stage::kEvaluate);
  EXPECT_TRUE(report.failure()->rolled_back);

  // The database stays usable: lifting the deadline commits normally.
  ASSERT_TRUE(db.Configure(ParkOptions{}).ok());
  auto retry = std::move(db.Begin().Insert("q", {"ok"})).Commit();
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_FALSE(retry.failure().has_value());
}

}  // namespace
}  // namespace park

// A warm Δ loop allocates nothing large, and few small things. This
// binary replaces the global operator new/delete (every overload, over
// malloc/free) and counts the allocations made while counting is on: all
// of them, and those of at least kLargeBytes, which glibc serves by mmap
// by default, so each one is mapped, page-faulted and unmapped again. The
// §4.2 irreflexive-graph program is evaluated twice on one thread; the
// first run warms the thread's retained section buffers, and the second
// must make no large allocation at all, while returning exactly what the
// first returned.

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "park/park.h"
#include "serve/published_relation.h"
#include "workload/graph_gen.h"

namespace {

constexpr size_t kLargeBytes = 128 * 1024;

std::atomic<bool> counting{false};
std::atomic<size_t> large_allocations{0};
std::atomic<size_t> all_allocations{0};

void* Allocate(size_t size, size_t alignment, bool nothrow) {
  if (size == 0) size = 1;
  if (counting.load(std::memory_order_relaxed)) {
    all_allocations.fetch_add(1, std::memory_order_relaxed);
    if (size >= kLargeBytes) {
      large_allocations.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void* p = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, alignment, size) != 0) {
    p = nullptr;
  }
  if (p == nullptr && !nothrow) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t size) { return Allocate(size, 0, false); }
void* operator new[](size_t size) { return Allocate(size, 0, false); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, 0, true);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, 0, true);
}
void* operator new(size_t size, std::align_val_t align) {
  return Allocate(size, static_cast<size_t>(align), false);
}
void* operator new[](size_t size, std::align_val_t align) {
  return Allocate(size, static_cast<size_t>(align), false);
}
void* operator new(size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return Allocate(size, static_cast<size_t>(align), true);
}
void* operator new[](size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return Allocate(size, static_cast<size_t>(align), true);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace park {
namespace {

/// What one evaluation returns, rendered.
struct Outcome {
  std::string database;
  std::string blocked;
  std::string trace;
  std::string stats;
};

Outcome Evaluate(const Workload& w, int threads, size_t* large) {
  ParkOptions options;
  options.policy = MakeIrreflexiveGraphPolicy();
  options.num_threads = threads;
  options.trace_level = TraceLevel::kSummary;
  large_allocations.store(0);
  counting.store(true);
  auto result = Park(w.program, w.database, options);
  counting.store(false);
  *large = large_allocations.load();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  Outcome out;
  out.database = result->database.ToString();
  for (const std::string& b : result->blocked) out.blocked += b + " ";
  out.trace = result->trace.ToString();
  out.stats = result->stats.ToJson();
  return out;
}

void ExpectWarmRunAllocatesNothingLarge(int threads) {
  const Workload w = MakeIrreflexiveGraphWorkload(24);
  size_t cold_large = 0;
  size_t warm_large = 0;
  const Outcome cold = Evaluate(w, threads, &cold_large);
  const Outcome warm = Evaluate(w, threads, &warm_large);
  EXPECT_EQ(warm_large, 0u) << "threads=" << threads << " (the cold run made "
                            << cold_large << ")";
  EXPECT_EQ(warm.database, cold.database);
  EXPECT_EQ(warm.blocked, cold.blocked);
  EXPECT_EQ(warm.trace, cold.trace);
  EXPECT_EQ(warm.stats, cold.stats);
  EXPECT_FALSE(cold.blocked.empty());
}

TEST(SteadyStateAllocTest, WarmSequentialRunAllocatesNothingLarge) {
  ExpectWarmRunAllocatesNothingLarge(1);
}

TEST(SteadyStateAllocTest, WarmParallelRunAllocatesNothingLarge) {
  ExpectWarmRunAllocatesNothingLarge(4);
}

/// The database and the rendered B of one ParkStepper run, and how many
/// allocations its Run() made.
struct SteppedRun {
  std::string database;
  std::string blocked;
  size_t allocations = 0;
};

SteppedRun StepIrreflexive(const Workload& w, int threads) {
  ParkOptions options;
  options.policy = MakeIrreflexiveGraphPolicy();
  options.num_threads = threads;
  ParkStepper stepper(w.program, w.database, options);
  all_allocations.store(0);
  counting.store(true);
  const Status status = stepper.Run();
  counting.store(false);
  SteppedRun out;
  out.allocations = all_allocations.load();
  EXPECT_TRUE(status.ok()) << status.ToString();
  for (const std::string& b :
       RenderSortedGroundings(stepper.blocked(), w.program)) {
    out.blocked += b + " ";
  }
  auto database = stepper.Finish();
  EXPECT_TRUE(database.ok()) << database.status().ToString();
  if (database.ok()) out.database = database->ToString();
  return out;
}

/// A conflict round allocates per conflict, not per grounding. At n = 24,
/// while B, the provenance and each conflict side still held one heap
/// Tuple per grounding, a warm Run() made 22,136 allocations (this test
/// counted 22,124 on one thread and 22,177 on four). The bound is a
/// quarter of that; flat rows make about 2,050.
void ExpectWarmRunAllocatesLittle(int threads) {
  constexpr size_t kPerGroundingAllocations = 22136;
  const Workload w = MakeIrreflexiveGraphWorkload(24);
  const SteppedRun cold = StepIrreflexive(w, threads);
  const SteppedRun warm = StepIrreflexive(w, threads);
  EXPECT_LE(warm.allocations, kPerGroundingAllocations / 4)
      << "threads=" << threads << " (the cold run made " << cold.allocations
      << ")";
  EXPECT_EQ(warm.database, cold.database);
  EXPECT_EQ(warm.blocked, cold.blocked);
  EXPECT_FALSE(cold.blocked.empty());
}

TEST(SteadyStateAllocTest, WarmSequentialRunAllocatesPerConflict) {
  ExpectWarmRunAllocatesLittle(1);
}

TEST(SteadyStateAllocTest, WarmParallelRunAllocatesPerConflict) {
  ExpectWarmRunAllocatesLittle(4);
}

/// Publication is O(diff): a Session commit that changes one employee of
/// the payroll program publishes that change as an overlay on the
/// relations it touched, so it allocates nothing that grows with the
/// 8,192-row payroll relation. Rebuilding that relation's published rows
/// copies 8,192 x 2 x 16 B = 256 KiB of values; while every commit did
/// so, the kCommits commits below made 192 allocations of 128 KiB or
/// more. kCommits stays far below the 8,192 / kFoldDivisor = 512 overlay
/// rows at which payroll and active fold into a new base.
TEST(SteadyStateAllocTest, SessionCommitPublishesItsDiff) {
  constexpr int kEmployees = 8192;
  constexpr int kCommits = 32;
  static_assert(kCommits * serve_internal::PublishedRelation::kFoldDivisor <
                kEmployees);
  Session::Params params;
  params.rules =
      "cleanup: emp(X), !active(X), payroll(X, S) -> -payroll(X, S).\n"
      "cascade: -payroll(X, S) -> +audit(X).\n"
      "onboard: +emp(X) -> +active(X).\n";
  auto session = Session::Create(std::move(params));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::string facts;
  for (int i = 0; i < kEmployees; ++i) {
    const std::string e = "e" + std::to_string(i);
    facts += "emp(" + e + "). active(" + e + "). payroll(" + e + ", " +
             std::to_string(30000 + i) + ").\n";
  }
  ASSERT_TRUE((*session)->LoadFacts(facts).ok());
  // Commit i onboards n<i> or deactivates e<i>, which cascades to
  // -payroll(e<i>, S) and +audit(e<i>).
  auto commit = [&](int i) {
    Transaction tx = (*session)->Begin();
    if (i % 2 == 0) {
      tx.Insert("emp", {"n" + std::to_string(i)});
    } else {
      tx.Delete("active", {"e" + std::to_string(i)});
    }
    auto report = std::move(tx).Commit();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  };
  commit(0);  // warm-up: builds the stored relations' column indexes
  commit(1);

  large_allocations.store(0);
  counting.store(true);
  for (int i = 2; i < 2 + kCommits; ++i) commit(i);
  counting.store(false);
  EXPECT_EQ(large_allocations.load(), 0u);

  Snapshot snapshot = (*session)->Snapshot();
  // Each onboarding adds emp and active atoms; each deactivation removes
  // active and payroll atoms and adds an audit atom.
  constexpr size_t kEach = (2 + kCommits) / 2;
  EXPECT_EQ(snapshot.size(), 3 * kEmployees + 2 * kEach - kEach);
  auto payroll = snapshot.Query("payroll(e1, S)");
  ASSERT_TRUE(payroll.ok());
  EXPECT_TRUE(payroll->empty());
  EXPECT_TRUE(snapshot.Matches("audit(e1)").value());
  EXPECT_TRUE(snapshot.Matches("active(n2)").value());
}

TEST(SteadyStateAllocTest, CountsLargeAllocations) {
  // The counter itself works: a large buffer made while counting counts.
  large_allocations.store(0);
  counting.store(true);
  std::string big(2 * kLargeBytes, 'x');
  counting.store(false);
  EXPECT_EQ(large_allocations.load(), 1u);
  EXPECT_EQ(big.size(), 2 * kLargeBytes);
}

}  // namespace
}  // namespace park

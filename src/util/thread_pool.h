// ThreadPool: a fixed-size worker pool with a blocking parallel-for.
//
// Built for the Γ evaluator's fan-out: one coordinator thread repeatedly
// issues ParallelFor over a task list (rules, or (rule, seed) pairs),
// workers pull chunks of indexes off a shared atomic cursor, and the call
// returns only when every index has been processed. The pool threads are
// created once and parked on a condition variable between sections, so a
// fixpoint computation with thousands of Γ steps pays thread-spawn cost
// exactly once.
//
// Concurrency contract: only one thread may call ParallelFor at a time
// (the PARK evaluators are single-coordinator by construction). The task
// body must not call back into the same pool — the Γ evaluator cuts each
// section's units into ONE flat list of chunk tasks precisely so sections
// never nest; ParallelFor enforces this with a PARK_CHECK against
// re-entry.

#ifndef PARK_UTIL_THREAD_POOL_H_
#define PARK_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "util/function_ref.h"

namespace park {

/// Resolves a user-facing thread-count knob: 0 means "one per hardware
/// thread" (at least 1); positive values are taken literally up to a cap
/// of 4x the hardware concurrency — oversubscribing beyond that only adds
/// scheduler pressure, so larger requests are clamped with a logged
/// warning instead of spawning thousands of workers. Negative values
/// behave like 0.
int ResolveNumThreads(int requested);

class ThreadPool {
 public:
  /// Creates a pool that runs tasks on `num_threads` threads total: the
  /// caller of ParallelFor participates, so `num_threads - 1` workers are
  /// spawned. `num_threads` must be >= 1.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads participating in ParallelFor (workers + caller).
  int num_threads() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Invokes `fn(i)` exactly once for every i in [0, n), distributed over
  /// the pool in chunks of `chunk` consecutive indexes, and blocks until
  /// all invocations have returned. `fn` must be safe to call from
  /// multiple threads concurrently, and must not call ParallelFor on this
  /// pool again (checked: re-entry aborts instead of deadlocking).
  void ParallelFor(size_t n, FunctionRef<void(size_t)> fn,
                   size_t chunk = 1);

  /// Cumulative number of indexes processed by ParallelFor calls and the
  /// number of non-empty (n > 0) sections run — the evaluator surfaces
  /// these in ParkStats. Sections that fan out no work count nothing.
  uint64_t tasks_executed() const { return tasks_executed_; }
  uint64_t sections_run() const { return sections_run_; }

  /// Largest single section (peak queue depth) since construction or the
  /// last ResetMaxSectionTasks(). Tracked always: one compare per
  /// section. A pool kept across evaluations is reset as each one starts,
  /// so the peak is that evaluation's.
  size_t max_section_tasks() const { return max_section_tasks_; }
  void ResetMaxSectionTasks() { max_section_tasks_ = 0; }

  /// When enabled, ParallelFor accumulates its wall time (two clock reads
  /// per section — the observability layer's pool-busy / mean-task-latency
  /// metrics). Off by default; flip only from the coordinator thread
  /// between sections.
  void set_collect_timing(bool collect) { collect_timing_ = collect; }
  uint64_t busy_ns() const { return busy_ns_; }
  /// Mean wall time a section spent per task while timing was enabled —
  /// an upper bound on mean task latency (workers may idle at the tail).
  uint64_t mean_task_latency_ns() const {
    return tasks_executed_ == 0 ? 0 : busy_ns_ / tasks_executed_;
  }

 private:
  void WorkerLoop();
  /// Pulls chunks off the shared cursor until the current section is
  /// exhausted.
  void RunSection(FunctionRef<void(size_t)> fn, size_t n, size_t chunk);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for a new section
  std::condition_variable done_cv_;  // coordinator waits for completion
  bool stop_ = false;

  // Current section, guarded by mu_ except for the atomic cursor. The
  // FunctionRef is copied by value into each worker before running; it
  // stays valid because ParallelFor blocks until workers_pending_ drains.
  uint64_t generation_ = 0;
  const FunctionRef<void(size_t)>* section_fn_ = nullptr;
  size_t section_n_ = 0;
  size_t section_chunk_ = 1;
  int workers_pending_ = 0;
  std::atomic<size_t> cursor_{0};
  // Re-entrancy guard for ParallelFor (atomic: a worker task calling back
  // in would race a plain flag before it aborted).
  std::atomic<bool> in_parallel_for_{false};

  uint64_t tasks_executed_ = 0;
  uint64_t sections_run_ = 0;
  size_t max_section_tasks_ = 0;
  bool collect_timing_ = false;
  uint64_t busy_ns_ = 0;
};

}  // namespace park

#endif  // PARK_UTIL_THREAD_POOL_H_

// CancellationToken: cooperative run governance for the evaluator.
//
// One token is shared by every thread of one PARK run. It aggregates four
// independent trip conditions — an external cancel request, a wall-clock
// deadline, a memory budget, and a work (derivation) budget — into a
// single sticky "fired" state with a cause. Workers poll `Check()` at a
// bounded stride (every few hundred tuples) and abandon their work as
// soon as the token fires; the evaluator then converts the cause into a
// Status (`kCancelled` / `kDeadlineExceeded` / `kResourceExhausted`).
//
// The token never frees or owns anything: memory accounting is
// cooperative. A worker opens a MemoryScope, periodically reports how
// many bytes its scratch structures currently hold, and closes the scope
// when its unit of work ends; the token tracks the sum across threads and
// fires when the configured limit is crossed. Overshoot is bounded by the
// polling stride times the per-tuple cost, not by the input size.
//
// All methods are thread-safe. Firing is sticky and monotone: the first
// cause to trip wins; later trips are ignored.

#ifndef PARK_UTIL_CANCELLATION_H_
#define PARK_UTIL_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "util/status.h"

namespace park {

class CancellationToken {
 public:
  /// Why the token fired. `kNone` means it has not fired.
  enum class Cause : int {
    kNone = 0,
    kCancelled,  // RequestCancel() (directly or via a chained parent)
    kDeadline,   // the wall-clock deadline expired
    kMemory,     // the memory budget was exceeded
    kWork,       // the work/derivation budget was exceeded
  };

  /// How often workers should poll `Check()`: once per this many tuples
  /// visited. Bounds both the deadline latency and the budget overshoot.
  static constexpr uint64_t kCheckStride = 512;

  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Arms the wall-clock deadline. Call before the run starts.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_relaxed);
  }
  /// Arms the memory budget (total bytes across all scopes). 0 disables.
  void SetMemoryLimit(size_t max_bytes) {
    memory_limit_.store(max_bytes, std::memory_order_relaxed);
  }
  /// Arms the work budget (ChargeWork units, e.g. derivations). 0 disables.
  void SetWorkLimit(uint64_t max_units) {
    work_limit_.store(max_units, std::memory_order_relaxed);
  }
  /// Chains an upstream cancel source: if `parent` has fired (for any
  /// cause), this token fires with kCancelled at the next Check(). The
  /// parent must outlive this token. Pass nullptr to unchain.
  void ChainParent(const CancellationToken* parent) { parent_ = parent; }

  /// Trips the token with kCancelled. Safe from any thread, including
  /// ones outside the run (the external-cancel entry point).
  void RequestCancel() { Fire(Cause::kCancelled); }

  /// Polls every trip condition (parent, deadline). Returns true iff the
  /// token has fired. Cheap when no deadline is armed; one clock read
  /// otherwise. Budgets fire at charge time, not here.
  bool Check() {
    if (fired()) return true;
    if (parent_ != nullptr && parent_->fired()) {
      Fire(Cause::kCancelled);
      return true;
    }
    int64_t deadline_ns = deadline_ns_.load(std::memory_order_relaxed);
    if (deadline_ns != 0 &&
        std::chrono::steady_clock::now().time_since_epoch().count() >=
            deadline_ns) {
      Fire(Cause::kDeadline);
      return true;
    }
    return false;
  }

  /// Sticky fired state; no clock read. What workers spin on.
  bool fired() const {
    return cause_.load(std::memory_order_relaxed) !=
           static_cast<int>(Cause::kNone);
  }
  Cause cause() const {
    return static_cast<Cause>(cause_.load(std::memory_order_relaxed));
  }

  /// One worker's share of the memory budget. Open implicitly by value
  /// initialization; report with UpdateScope; release with CloseScope.
  struct MemoryScope {
    size_t charged = 0;
  };

  /// Reports that the structures covered by `scope` now hold `now_bytes`
  /// bytes. Adjusts the global tally by the delta (both directions — a
  /// rewound arena credits back) and fires kMemory if the limit is
  /// crossed. Returns true iff the token has fired (any cause).
  bool UpdateScope(MemoryScope& scope, size_t now_bytes);
  /// Returns the scope's bytes to the budget. Idempotent.
  void CloseScope(MemoryScope& scope);

  /// Charges `units` of work (derivations). Fires kWork past the limit.
  /// Returns true iff the token has fired (any cause).
  bool ChargeWork(uint64_t units);

  /// Bytes currently charged across all open scopes / the high-water mark.
  size_t bytes_in_use() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  size_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t work_charged() const {
    return work_.load(std::memory_order_relaxed);
  }

  /// The fired cause as a Status; OK if the token has not fired.
  Status ToStatus() const;

 private:
  /// First cause wins; later calls are no-ops.
  void Fire(Cause cause) {
    int expected = static_cast<int>(Cause::kNone);
    cause_.compare_exchange_strong(expected, static_cast<int>(cause),
                                   std::memory_order_relaxed);
  }

  std::atomic<int> cause_{static_cast<int>(Cause::kNone)};
  std::atomic<int64_t> deadline_ns_{0};
  std::atomic<size_t> memory_limit_{0};
  std::atomic<uint64_t> work_limit_{0};
  std::atomic<size_t> bytes_{0};
  std::atomic<size_t> peak_bytes_{0};
  std::atomic<uint64_t> work_{0};
  const CancellationToken* parent_ = nullptr;
};

}  // namespace park

#endif  // PARK_UTIL_CANCELLATION_H_

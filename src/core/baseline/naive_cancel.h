// Baseline 2: the "stubborn" naive semantics the paper dismantles in §4.1
// — compute the full inflationary fixpoint ignoring conflicts, then cancel
// every conflicting pair {+a, -a} (the principle of inertia applied only
// at the end), then incorporate.
//
// On program P2 of §4.1 this produces {p, q, r, s}, keeping the atom `s`
// whose only derivation went through the cancelled +a — which is exactly
// why PARK restarts from I° with blocked instances instead. The divergence
// is asserted in park_paper_examples_test (PaperE2) and baseline_test.

#ifndef PARK_CORE_BASELINE_NAIVE_CANCEL_H_
#define PARK_CORE_BASELINE_NAIVE_CANCEL_H_

#include "core/baseline/inflationary.h"

namespace park {

struct NaiveCancelResult {
  Database database;
  size_t steps = 0;
  /// Number of {+a, -a} pairs that were cancelled at the end.
  size_t cancelled_pairs = 0;
  /// Fixpoint literals before cancellation, rendered and sorted.
  std::vector<std::string> fixpoint_literals;
};

/// Computes the naive cancel-at-the-end semantics of `program` on `db`.
Result<NaiveCancelResult> NaiveCancelSemantics(const Program& program,
                                               const Database& db,
                                               size_t max_steps = 1'000'000);

}  // namespace park

#endif  // PARK_CORE_BASELINE_NAIVE_CANCEL_H_

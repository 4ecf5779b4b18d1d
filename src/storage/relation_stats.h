// RelationStats: cheap, incrementally maintained per-relation statistics
// for the cost-based join planner (docs/PLANNER.md).
//
// A Relation builds its stats on first read (Relation::stats()), from its
// rows in one scan, and maintains them on every Insert/Erase from then on;
// until then it keeps only its exact row count. The mark stores of a
// maintained commit, which nothing plans over, thus never build a sketch.
//
// Per relation the planner needs two numbers: how many rows a scan would
// visit (exact — the tuple set knows its size) and, per column, roughly
// how many distinct values a column-index probe would divide those rows
// by. Distinct counts are estimated with a fixed-size counting sketch:
// each column owns kBuckets counters, a value hashing to bucket b
// increments counter[b] on insert and decrements it on delete, and the
// distinct-value estimate is read off the occupied-bucket fraction with
// the linear-counting formula n ≈ -K·ln(empty/K). Because the sketch
// stores exact multiset counts (not bits), deletions are handled exactly:
// the sketch state is a pure function of the stored multiset, so the
// estimate never drifts under churn — the property relation_stats_test
// pins down. Error: within a few percent while the true distinct count is
// below ~K/2, saturating smoothly toward K·ln(K) above; the planner only
// needs relative magnitudes, so saturation is benign.
//
// Everything here is deterministic (a fixed hash, no randomness), which
// the planner's determinism argument relies on: identical databases give
// identical statistics give identical plans.

#ifndef PARK_STORAGE_RELATION_STATS_H_
#define PARK_STORAGE_RELATION_STATS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/tuple.h"

namespace park {

class RelationStats {
 public:
  /// Buckets per column sketch. 512 × 4 bytes = 2 KiB per column — small
  /// enough to keep on every relation the planner reads, large enough
  /// that the estimate is sharp for the distinct counts that change plan
  /// choices.
  static constexpr size_t kBuckets = 512;

  RelationStats() = default;
  explicit RelationStats(int arity) : arity_(arity) {}

  int arity() const { return arity_; }
  /// Exact row count (mirrors the owning Relation's size).
  size_t rows() const { return rows_; }

  /// Incremental maintenance; called with every row of the relation when
  /// the stats are built, then by Relation::Insert / Erase with rows that
  /// actually entered / left the set.
  void OnInsert(std::span<const Value> row);
  void OnErase(std::span<const Value> row);

  /// Estimated number of distinct values in `column`, in [0, rows()].
  /// Exact (0) for an empty relation; never returns 0 for a non-empty one.
  double DistinctEstimate(int column) const;

  /// Estimated rows matching an equality probe on `column`:
  /// rows / distinct(column), the planner's per-bound-column selectivity.
  double SelectivityRows(int column) const;

 private:
  int arity_ = 0;
  size_t rows_ = 0;
  // sketches_[c][b]: number of stored values of column c hashing to b.
  // Allocated on the first row (empty relations stay tiny).
  std::vector<std::vector<uint32_t>> sketches_;
};

}  // namespace park

#endif  // PARK_STORAGE_RELATION_STATS_H_

// Segment: an immutable, dictionary-encoded, columnar snapshot of a
// relation's tuple set.
//
// Rows are lexicographically sorted tuples; each attribute is a Column
// (storage/column.h) whose codes preserve value order. A Segment never
// changes after Build — the Relation that owns it accumulates inserts in
// a small delta store and marks erased rows dead, and merges the live
// rows into a fresh Segment at Relation::CompactColumnar. No engine path
// reads a segment: plans run tuple-at-a-time over the relations' hash
// indexes, and a serving Session's snapshots read their own published
// relations (serve/published_relation.h). Segments stay, awaiting removal
// with Relation's columnar state, because park_bench times their build
// (`storage.compact_ms`). Because the row order is the canonical sorted
// order of the tuple set, a segment built from the same set is the same
// whatever insertion history produced it (segment_test).

#ifndef PARK_STORAGE_SEGMENT_H_
#define PARK_STORAGE_SEGMENT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/column.h"

namespace park {

class Segment {
 public:
  Segment() = default;

  /// Builds from `rows` (each a Value[arity] row), which MUST be
  /// lexicographically sorted and duplicate-free. The segment copies
  /// every value out of the rows, so it holds no pointers into the owning
  /// Relation afterwards. 0-ary relations yield a segment with num_rows
  /// in {0, 1} and no columns.
  static Segment Build(int arity, std::span<const Value* const> rows);

  int arity() const { return arity_; }
  uint32_t num_rows() const { return num_rows_; }

  const Column& column(int c) const {
    return columns_[static_cast<size_t>(c)];
  }

 private:
  int arity_ = 0;
  uint32_t num_rows_ = 0;
  std::vector<Column> columns_;
};

}  // namespace park

#endif  // PARK_STORAGE_SEGMENT_H_

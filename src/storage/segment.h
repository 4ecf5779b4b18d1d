// Segment: an immutable, dictionary-encoded, columnar snapshot of a
// relation's tuple set.
//
// Rows are lexicographically sorted tuples; each attribute is a Column
// (storage/column.h) whose codes preserve value order. A Segment never
// changes after Build — the Relation that owns it accumulates inserts in
// a small delta store and marks erased rows dead, and merges the live
// rows into a fresh Segment at a compaction point (Δ-step boundaries in
// batch execution). Segments serve the batch executor and the
// park-stats-v1 `storage` counters only; a serving Session's snapshots
// read their own published relations (serve/published_relation.h). Because the row order is the canonical sorted order of the
// tuple set, a segment built from the same set is byte-for-byte the same
// whatever insertion history produced it — the determinism anchor for
// batch-at-a-time execution (docs/STORAGE.md).

#ifndef PARK_STORAGE_SEGMENT_H_
#define PARK_STORAGE_SEGMENT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/column.h"
#include "storage/tuple.h"

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

  /// Row `r` as a contiguous Value[arity] span. The flat copy exists so
  /// the batch executor's candidate checks read one cache line instead
  /// of jumping between the owning relation's chunks; because rows are
  /// stored in sorted order, a probe on column 0 (the common case for
  /// compiled join steps) walks this array sequentially.
  const Value* row(uint32_t r) const {
    return row_values_.data() + static_cast<size_t>(r) * arity_;
  }

  /// Whole-row membership probe through the segment's flat
  /// open-addressing index: `hash` must be TupleHash over `args[0..n)`
  /// (n == arity). It touches one slot array line and one flat row span,
  /// and the slot line can be prefetched a block ahead via PrefetchRow,
  /// which is what makes the batch executor's filter steps faster than
  /// per-candidate probing.
  bool ContainsRow(const Value* args, size_t n, size_t hash) const {
    if (probe_slots_.empty()) return false;
    size_t slot = MixHash(hash) & probe_mask_;
    while (true) {
      uint32_t entry = probe_slots_[slot];
      if (entry == 0) return false;
      const Value* row = this->row(entry - 1);
      size_t j = 0;
      while (j < n && row[j] == args[j]) ++j;
      if (j == n) return true;
      slot = (slot + 1) & probe_mask_;
    }
  }

  /// Hints the cache line of `hash`'s probe slot into cache ahead of the
  /// ContainsRow call (no-op for empty segments).
  void PrefetchRow(size_t hash) const {
    if (!probe_slots_.empty()) {
      __builtin_prefetch(probe_slots_.data() + (MixHash(hash) & probe_mask_));
    }
  }

  /// Sum of per-column dictionary sizes (the `dict_entries` stats
  /// counter).
  uint64_t DictEntries() const;

 private:
  int arity_ = 0;
  uint32_t num_rows_ = 0;
  std::vector<Column> columns_;
  std::vector<Value> row_values_;  // row-major, num_rows_ * arity_
  // Open-addressing whole-row index: power-of-two sized, linear probing,
  // entries are row+1 (0 = empty). Built in row order, so byte-identical
  // for the same tuple set like everything else in the segment.
  std::vector<uint32_t> probe_slots_;
  size_t probe_mask_ = 0;
};

}  // namespace park

#endif  // PARK_STORAGE_SEGMENT_H_

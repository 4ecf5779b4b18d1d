// Relation: the tuple store for one predicate.
//
// A Relation is a set of fixed-arity rows plus lazily built, incrementally
// maintained per-column hash indexes. Rows are flat Value[arity] blocks in
// chunks that never move, found through one open-addressing set of row
// ids; a column index is an open-addressing map from a value to the first
// row holding it, with the rest of the rows chained through a per-row
// `next` array. The engine's body matcher asks for rows matching a partial
// binding; when some column of the binding is bound, the relation answers
// via a column index instead of a full scan.

#ifndef PARK_STORAGE_RELATION_H_
#define PARK_STORAGE_RELATION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "storage/relation_stats.h"
#include "storage/segment.h"
#include "storage/tuple.h"
#include "util/function_ref.h"
#include "util/logging.h"

namespace park {

/// A partial binding over the columns of a relation: `std::nullopt` means
/// "any value". Used as the query form for Relation::ForEachMatching.
using TuplePattern = std::vector<std::optional<Value>>;

/// Row set with on-demand column indexes.
///
/// Rows are handed out as `std::span<const Value>` views into the
/// relation's chunks. A view stays valid until its row is erased or the
/// relation is destroyed: chunks never move, not even when the relation
/// grows or is moved.
///
/// Thread safety: mutation is single-threaded, but read-only access from
/// many threads is supported via index freezing. The lazy index build in
/// ForEachMatching mutates under `const`, so a concurrent reader could
/// observe a half-built index; the parallel Γ evaluator therefore calls
/// BuildIndex for every column its plans will probe and then
/// FreezeIndexes() before fanning out. While frozen, any operation that
/// would mutate the relation — a lazy index build included — fails loudly
/// instead of racing. The lazy statistics build of stats() follows the
/// same rule; plans, its only reader, are compiled before the freeze.
class Relation {
 public:
  explicit Relation(int arity) : arity_(arity) {}

  // Relations are heavyweight; copying is explicit via Clone().
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  /// Deep copy of the rows (chunk by chunk, with the row set copied
  /// as is — nothing is rehashed) and the stats if built, without the
  /// indexes (they rebuild on demand), the columnar view and the frozen
  /// flag.
  Relation Clone() const;

  int arity() const { return arity_; }
  size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }

  /// Inserts `row`; returns true if it was not already present.
  /// `row.size()` must equal the relation arity. Must not be frozen.
  bool Insert(std::span<const Value> row) { return Emplace(row).second; }

  /// Inserts `row` unless present, and returns the stored row and
  /// whether it was new. The row is hashed once: a present row costs one
  /// probe, an absent one is written into the slot that probe found.
  /// Same preconditions as Insert.
  std::pair<std::span<const Value>, bool> Emplace(std::span<const Value> row);

  /// Removes `row`; returns true if it was present. Must not be frozen.
  bool Erase(std::span<const Value> row);

  /// Whole-row membership. A span of the wrong arity is never contained.
  bool Contains(std::span<const Value> row) const {
    return row.size() == static_cast<size_t>(arity_) &&
           FindRow(row.data(), RowHash(row.data())) != kNoRow;
  }

  /// Invokes `fn` for every row, in unspecified order. `fn` must not
  /// mutate this relation.
  void ForEach(FunctionRef<void(std::span<const Value>)> fn) const;

  /// Invokes `fn` for every row consistent with `pattern` (same arity;
  /// bound positions must match exactly). Uses the first bound column's
  /// index, building it on first use — unless the relation is frozen, in
  /// which case the index must already exist.
  void ForEachMatching(const TuplePattern& pattern,
                       FunctionRef<void(std::span<const Value>)> fn) const;

  /// ForEachMatching with the probe column chosen by the caller (the
  /// cost-based planner picks the most selective bound column instead of
  /// the first one). `probe_column` must be a bound pattern position, or
  /// -1 for a full scan. Every row passed to `fn` is a stable view into
  /// this relation's chunks, which is what lets the compiled matcher
  /// buffer `const Value*` candidates.
  void ForEachMatchingProbe(const TuplePattern& pattern, int probe_column,
                            FunctionRef<void(std::span<const Value>)> fn) const;

  /// Builds the hash index for `column` now (no-op if already built).
  /// This is the explicit prewarm used before a frozen parallel section;
  /// `const` because indexes are caches, like the lazy build.
  void BuildIndex(int column) const;

  bool HasIndex(int column) const {
    return static_cast<size_t>(column) < indexes_.size() &&
           indexes_[static_cast<size_t>(column)].has_value();
  }

  /// Enters read-only mode: concurrent ForEach/ForEachMatching/Contains
  /// are safe, and any attempted mutation (Insert, Erase, lazy index
  /// build) aborts with a check failure instead of racing.
  void FreezeIndexes() const { frozen_ = true; }
  void ThawIndexes() const { frozen_ = false; }
  bool frozen() const { return frozen_; }

  /// Storage statistics (row count, per-column distinct estimates) for
  /// the cost-based join planner; see storage/relation_stats.h. The
  /// first call builds them from the rows in one scan, and Insert/Erase
  /// maintain them from then on, so a relation nothing plans over never
  /// pays for a sketch. The sketch is a pure function of the rows, so
  /// when it is built changes no estimate. Like the lazy index build, the
  /// first call mutates under `const`, and on a frozen relation it fails
  /// loudly instead of racing.
  const RelationStats& stats() const {
    if (!has_stats_) BuildStats();
    return stats_;
  }
  /// True once stats() has built the statistics.
  bool has_stats() const { return has_stats_; }

  /// All rows as Tuples, sorted — for deterministic printing and diffs.
  std::vector<Tuple> SortedTuples() const;

  // --- Columnar view (awaiting removal; see docs/STORAGE.md) ---
  //
  // No engine path reads the columnar view: plans run tuple-at-a-time
  // over the hash indexes above, and a serving Session publishes its own
  // form of a relation (serve/published_relation.h). It stays only
  // because park_bench times CompactColumnar (`storage.compact_ms`).
  // The view is an immutable dictionary-encoded Segment over the
  // lexicographically sorted row set; `segment_rows_` maps each segment
  // row to the row id it was built from. Between compactions, Insert
  // appends the new row id to a small delta store and Erase marks the row
  // dead; CompactColumnar merges the live segment rows with the sorted
  // delta into a fresh segment. An erased row's id is not reused until
  // that merge has run, so every id the merge reads still names the row
  // the segment was built from. Because the merged row order is the
  // canonical sorted order of the set, the view is independent of
  // mutation history.

  /// Builds or merges the segment (no-op when the view is already
  /// compact). Fails loudly on a frozen relation.
  void CompactColumnar() const;

  /// Discards the columnar view (segment, delta store, dead-row bookkeeping)
  /// and its compaction count, and thaws the relation: it then reads like
  /// one built by Insert alone, as Clone() would copy it, but keeps its
  /// rows and hash indexes.
  void DropColumnar();

  /// The last built segment, or null before the first CompactColumnar.
  const Segment* segment() const { return segment_.get(); }
  bool ColumnarDirty() const {
    return segment_ == nullptr || !delta_adds_.empty() ||
           !retired_rows_.empty();
  }
  uint64_t compactions() const { return compactions_; }
  uint64_t segment_rows() const {
    return segment_ != nullptr ? segment_->num_rows() : 0;
  }

 private:
  static constexpr uint32_t kNoRow = UINT32_MAX;
  // Chunk k holds kFirstChunkRows << k rows, so the thousands of tiny
  // relations of a large program each pay for a few rows only, and row
  // r's chunk is found from the bit width of r.
  static constexpr int kFirstChunkShift = 2;
  static constexpr uint32_t kFirstChunkRows = 1u << kFirstChunkShift;

  /// One open-addressing entry: a row id (kNoRow = empty) and the low 32
  /// bits of its key's mixed hash, which both place it (hash & mask) and
  /// screen probes before any row is read. Tables are power-of-two sized,
  /// probe linearly, are at most half full, and delete by backward shift.
  struct Slot {
    uint32_t row = kNoRow;
    uint32_t hash = 0;
  };

  /// Column index: `slots` maps each distinct value of the column to the
  /// first row holding it (the value is read from that row); `next[r]` is
  /// the following row with row r's value, or kNoRow. Only live rows are
  /// chained.
  struct ColumnIndex {
    std::vector<Slot> slots;
    size_t distinct = 0;
    std::vector<uint32_t> next;
  };

  /// The slot hashes of a row (`row[0..arity)`) and of an index key.
  uint32_t RowHash(const Value* row) const {
    return static_cast<uint32_t>(
        MixHash(HashValues(row, static_cast<size_t>(arity_))));
  }
  static uint32_t ValueHash(const Value& v) {
    return static_cast<uint32_t>(MixHash(v.Hash()));
  }

  /// The slot holding the entry with `hash` that `same(row)` accepts,
  /// or else the empty slot ending its probe run. `slots` is non-empty.
  template <typename Same>
  static size_t ProbeSlot(const std::vector<Slot>& slots, uint32_t hash,
                          Same same);
  /// Doubles `slots` (or makes the smallest table) and reinserts.
  static void GrowSlots(std::vector<Slot>& slots);
  static void EraseSlot(std::vector<Slot>& slots, size_t i);

  const Value* RowData(uint32_t row) const;
  bool IsDead(uint32_t row) const { return !dead_.empty() && dead_[row] != 0; }
  bool RowLess(uint32_t a, uint32_t b) const;
  /// The row-set slot holding the row equal to `row[0..arity)` (with
  /// `hash` = RowHash(row)), or the empty slot where it would go.
  /// `slots_` is non-empty.
  size_t RowSlot(const Value* row, uint32_t hash) const;
  /// The id of the stored row equal to `row[0..arity)`, or kNoRow.
  uint32_t FindRow(const Value* row, uint32_t hash) const;
  /// Invokes `fn(id, row)` for every live row, in row-id order.
  template <typename Fn>
  void ScanRows(Fn&& fn) const;
  /// Stores `row` under a recycled or fresh row id and returns the id.
  uint32_t AllocateRow(std::span<const Value> row);
  static bool Matches(const Value* row, const TuplePattern& pattern);

  /// The slot of `index` holding the chain of `column` value `v`, or
  /// the empty slot where that chain would go.
  size_t IndexSlot(const ColumnIndex& index, int column,
                   const Value& v) const;
  void IndexInsert(ColumnIndex& index, int column, uint32_t row) const;
  void IndexErase(ColumnIndex& index, int column, uint32_t row);
  void EnsureIndex(int column) const;
  /// Calls `fn` for every row on `column`'s index chain for the
  /// pattern's value that matches the whole pattern.
  void ProbeIndex(const TuplePattern& pattern, int column,
                  FunctionRef<void(std::span<const Value>)> fn) const;
  void BuildStats() const;

  int arity_;
  // Built on the first stats() call; until then the relation only keeps
  // its exact row count, `live_`.
  mutable RelationStats stats_;
  mutable bool has_stats_ = false;
  // Row storage: chunk k is reserved to its full size once and only
  // appended to, so its buffer never moves.
  std::vector<std::vector<Value>> chunks_;
  uint32_t num_rows_ = 0;  // row ids handed out: live, dead or recycled
  size_t live_ = 0;
  std::vector<Slot> slots_;  // the row set
  // dead_[r] != 0 iff row id r holds no row. Empty until the first erase.
  std::vector<uint8_t> dead_;
  // Dead row ids ready for reuse. Compaction (const) refills it from
  // `retired_rows_`, hence mutable.
  mutable std::vector<uint32_t> free_rows_;
  // indexes_[c] is built lazily; nullopt means "not built".
  mutable std::vector<std::optional<ColumnIndex>> indexes_;
  // Columnar state: nothing is tracked until the first CompactColumnar()
  // call builds a segment, so a relation never compacted pays nothing
  // here.
  mutable std::unique_ptr<const Segment> segment_;
  mutable std::vector<uint32_t> segment_rows_;  // row ids, sorted by row
  mutable std::vector<uint32_t> delta_adds_;    // insertion order
  // Ids erased since the segment was built: the merge still reads them
  // (as dead), so they are recycled only once it has run.
  mutable std::vector<uint32_t> retired_rows_;
  mutable uint64_t compactions_ = 0;
  mutable bool frozen_ = false;
};

}  // namespace park

#endif  // PARK_STORAGE_RELATION_H_

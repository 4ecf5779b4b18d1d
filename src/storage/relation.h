// Relation: the tuple store for one predicate.
//
// A Relation is an unordered set of Tuples plus lazily built, incrementally
// maintained per-column hash indexes. The engine's body matcher asks for
// tuples matching a partial binding; when some column of the binding is
// bound, the relation answers via a column index instead of a full scan.

#ifndef PARK_STORAGE_RELATION_H_
#define PARK_STORAGE_RELATION_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
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

/// Tuple set with on-demand column indexes.
///
/// Thread safety: mutation is single-threaded, but read-only access from
/// many threads is supported via index freezing. The lazy index build in
/// ForEachMatching mutates under `const`, so a concurrent reader could
/// observe a half-built index; the parallel Γ evaluator therefore calls
/// BuildIndex for every column its plans will probe and then
/// FreezeIndexes() before fanning out. While frozen, any operation that
/// would mutate the relation — a lazy index build included — fails loudly
/// instead of racing.
class Relation {
 public:
  explicit Relation(int arity) : arity_(arity), stats_(arity) {}

  // Relations are heavyweight; copying is explicit via Clone().
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  /// Deep copy without the indexes (they rebuild on demand) and without
  /// the frozen flag.
  Relation Clone() const;

  int arity() const { return arity_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// Inserts `t`; returns true if the tuple was not already present.
  /// `t.arity()` must equal the relation arity. Must not be frozen.
  bool Insert(const Tuple& t);

  /// Inserts the row `args` unless present, and returns the stored tuple
  /// and whether it was new. A present row costs one probe and no
  /// allocation; an absent one is hashed again on insertion. Same
  /// preconditions as Insert.
  std::pair<const Tuple*, bool> Emplace(std::span<const Value> args);

  /// Removes `t`; returns true if it was present. Must not be frozen.
  bool Erase(const Tuple& t);

  bool Contains(const Tuple& t) const { return tuples_.contains(t); }

  /// Heterogeneous lookup from a flat Value[n] span — no Tuple is
  /// materialized. The batch executor's dedup and filter checks run on
  /// segment rows and binding rows stored this way.
  bool Contains(const Value* data, size_t n) const {
    return tuples_.find(TupleSpan{data, n}) != tuples_.end();
  }

  /// Invokes `fn` for every tuple, in unspecified order. `fn` must not
  /// mutate this relation.
  void ForEach(FunctionRef<void(const Tuple&)> fn) const;

  /// Invokes `fn` for every tuple consistent with `pattern` (same arity;
  /// bound positions must match exactly). Uses the most selective column
  /// index among bound positions, building it on first use — unless the
  /// relation is frozen, in which case the index must already exist.
  void ForEachMatching(const TuplePattern& pattern,
                       FunctionRef<void(const Tuple&)> fn) const;

  /// ForEachMatching with the probe column chosen by the caller (the
  /// cost-based planner picks the most selective bound column instead of
  /// the first one). `probe_column` must be a bound pattern position, or
  /// -1 for a full scan. Every tuple passed to `fn` is a stable pointer
  /// into this relation's storage (no temporary fast path), which is what
  /// lets the compiled matcher buffer `const Tuple*` candidates.
  void ForEachMatchingProbe(const TuplePattern& pattern, int probe_column,
                            FunctionRef<void(const Tuple&)> fn) const;

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

  /// Live storage statistics (row count, per-column distinct estimates),
  /// maintained incrementally by Insert/Erase. The cost-based join
  /// planner reads these; see storage/relation_stats.h.
  const RelationStats& stats() const { return stats_; }

  /// All tuples, sorted — for deterministic printing and diffs.
  std::vector<Tuple> SortedTuples() const;

  // --- Columnar view (batch execution; see docs/STORAGE.md) ---
  //
  // The columnar view is an immutable dictionary-encoded Segment over the
  // lexicographically sorted tuple set plus `rows`, the segment-row ->
  // stable-tuple-pointer map (into `tuples_`, node-based, so pointers
  // survive rehash). Between compactions, Insert appends to a small delta
  // store and Erase records a tombstone; Columnar() merges all three back
  // into a fresh segment. Because the merged row order is the canonical
  // sorted order of the set, the view is independent of mutation history
  // — the determinism anchor of batch-at-a-time execution.

  struct ColumnarView {
    const Segment* segment = nullptr;
    /// rows[r] is the tuple at segment row r.
    const std::vector<const Tuple*>* rows = nullptr;
  };

  /// The compacted view, building or merging on demand. Like the lazy
  /// index build, compaction mutates under `const`; a frozen relation
  /// must already be compact (CompactColumnar runs before the freeze) —
  /// a dirty view inside a frozen section fails loudly instead of racing.
  ColumnarView Columnar() const;

  /// Eager compaction (no-op when the view is already compact). The
  /// batch-mode evaluator calls this for every relation at each Γ-section
  /// boundary, so `compactions()` is a property of the computation, not
  /// of the thread count.
  void CompactColumnar() const;

  /// Discards the columnar view (segment, delta store, tombstones) and
  /// its compaction count, and thaws the relation: it then reads like one
  /// built by Insert alone, as Clone() would copy it, but keeps its tuple
  /// storage and hash indexes.
  void DropColumnar();

  bool HasSegment() const { return segment_ != nullptr; }
  bool ColumnarDirty() const {
    return segment_ == nullptr || !delta_adds_.empty() || !tombstones_.empty();
  }
  uint64_t compactions() const { return compactions_; }
  uint64_t segment_rows() const {
    return segment_ != nullptr ? segment_->num_rows() : 0;
  }
  uint64_t dict_entries() const {
    return segment_ != nullptr ? segment_->DictEntries() : 0;
  }

  /// Shared ownership of the current segment, for snapshot pinning: a
  /// serving Snapshot holds the returned pointer, so compaction (which
  /// installs a fresh segment) defers reclamation of this generation
  /// until the last pinning snapshot drops. Segments are self-contained
  /// (they copy row values out of the tuple set), so a pinned segment
  /// stays readable across any later mutation of this relation. The
  /// relation must be compact (CompactColumnar first).
  std::shared_ptr<const Segment> SharedSegment() const {
    PARK_CHECK(!ColumnarDirty()) << "SharedSegment on a dirty relation";
    return segment_;
  }

  /// Monotone generation counter: bumps on every segment (re)build, so
  /// two snapshots pin the same segment object iff they report the same
  /// generation for this relation.
  uint64_t segment_generation() const { return compactions_; }

 private:
  // Value -> tuples having that value in the indexed column. Pointers are
  // into `tuples_` (node-based, so stable until erase).
  using ColumnIndex = std::unordered_multimap<Value, const Tuple*, ValueHash>;

  /// The bookkeeping of a newly stored tuple: stats, built indexes, the
  /// columnar delta.
  void OnStored(const Tuple* stored);
  void EnsureIndex(int column) const;
  void CompactColumnarImpl() const;
  static bool Matches(const Tuple& t, const TuplePattern& pattern);

  int arity_;
  RelationStats stats_;
  std::unordered_set<Tuple, TupleHash, TupleEq> tuples_;
  // indexes_[c] is built lazily; nullopt means "not built".
  mutable std::vector<std::optional<ColumnIndex>> indexes_;
  // Columnar state: nothing is tracked until the first Columnar() /
  // CompactColumnar() call builds a segment, so tuple-mode-only runs pay
  // zero overhead here. Erased segment rows are tombstoned by index and
  // their set nodes parked in `graveyard_` so every `segment_rows_`
  // pointer stays dereferenceable until the merge rebuilds the view.
  mutable std::shared_ptr<const Segment> segment_;
  mutable std::vector<const Tuple*> segment_rows_;
  mutable std::vector<const Tuple*> delta_adds_;  // insertion order
  mutable std::vector<uint32_t> tombstones_;      // erased segment rows
  mutable std::vector<std::unordered_set<Tuple, TupleHash, TupleEq>::node_type>
      graveyard_;
  mutable uint64_t compactions_ = 0;
  mutable bool frozen_ = false;
};

}  // namespace park

#endif  // PARK_STORAGE_RELATION_H_

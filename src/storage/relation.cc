#include "storage/relation.h"

#include <algorithm>

#include "util/logging.h"

namespace park {

Relation Relation::Clone() const {
  Relation copy(arity_);
  copy.tuples_ = tuples_;
  // The stats are a pure function of the tuple multiset, so the sketch
  // state copies verbatim with it.
  copy.stats_ = stats_;
  return copy;
}

bool Relation::Insert(const Tuple& t) {
  PARK_CHECK_EQ(t.arity(), arity_) << "arity mismatch on insert";
  PARK_CHECK(!frozen_) << "Insert on a frozen relation";
  auto [it, inserted] = tuples_.insert(t);
  if (!inserted) return false;
  OnStored(&*it);
  return true;
}

std::pair<const Tuple*, bool> Relation::Emplace(std::span<const Value> args) {
  PARK_CHECK_EQ(static_cast<int>(args.size()), arity_)
      << "arity mismatch on insert";
  PARK_CHECK(!frozen_) << "Insert on a frozen relation";
  auto found = tuples_.find(TupleSpan{args.data(), args.size()});
  if (found != tuples_.end()) return {&*found, false};
  const Tuple* stored = &*tuples_.emplace(args).first;
  OnStored(stored);
  return {stored, true};
}

void Relation::OnStored(const Tuple* stored) {
  stats_.OnInsert(*stored);
  for (int c = 0; c < static_cast<int>(indexes_.size()); ++c) {
    if (indexes_[static_cast<size_t>(c)].has_value()) {
      indexes_[static_cast<size_t>(c)]->emplace((*stored)[c], stored);
    }
  }
  if (segment_ != nullptr) delta_adds_.push_back(stored);
}

bool Relation::Erase(const Tuple& t) {
  PARK_CHECK(!frozen_) << "Erase on a frozen relation";
  auto it = tuples_.find(t);
  if (it == tuples_.end()) return false;
  stats_.OnErase(t);
  const Tuple* stored = &*it;
  for (int c = 0; c < static_cast<int>(indexes_.size()); ++c) {
    auto& index = indexes_[static_cast<size_t>(c)];
    if (!index.has_value()) continue;
    auto range = index->equal_range((*stored)[c]);
    for (auto e = range.first; e != range.second; ++e) {
      if (e->second == stored) {
        index->erase(e);
        break;
      }
    }
  }
  if (segment_ != nullptr) {
    // The tuple is either a delta add (drop it) or a segment row. A
    // segment row is tombstoned by index and its node parked in the
    // graveyard instead of destroyed: `segment_rows_` holds raw pointers
    // into the nodes and later erases binary-search through them, so
    // every entry must stay dereferenceable until the next compaction.
    auto d = std::find(delta_adds_.begin(), delta_adds_.end(), stored);
    if (d != delta_adds_.end()) {
      delta_adds_.erase(d);
      tuples_.erase(it);
    } else {
      auto row = std::lower_bound(
          segment_rows_.begin(), segment_rows_.end(), *stored,
          [](const Tuple* a, const Tuple& b) { return *a < b; });
      PARK_CHECK(row != segment_rows_.end() && **row == *stored)
          << "erased tuple missing from both segment and delta";
      tombstones_.push_back(
          static_cast<uint32_t>(row - segment_rows_.begin()));
      graveyard_.push_back(tuples_.extract(it));
    }
  } else {
    tuples_.erase(it);
  }
  return true;
}

void Relation::ForEach(FunctionRef<void(const Tuple&)> fn) const {
  for (const Tuple& t : tuples_) fn(t);
}

bool Relation::Matches(const Tuple& t, const TuplePattern& pattern) {
  for (int c = 0; c < t.arity(); ++c) {
    const auto& want = pattern[static_cast<size_t>(c)];
    if (want.has_value() && *want != t[c]) return false;
  }
  return true;
}

void Relation::EnsureIndex(int column) const {
  if (static_cast<size_t>(column) < indexes_.size() &&
      indexes_[static_cast<size_t>(column)].has_value()) {
    return;
  }
  // A missing index inside a frozen (parallel, read-only) section means
  // the prewarm pass under-approximated the plans — fail loudly rather
  // than race on the lazy build.
  PARK_CHECK(!frozen_)
      << "lazy index build for column " << column
      << " on a frozen relation (prewarm missed this column)";
  if (static_cast<size_t>(column) >= indexes_.size()) {
    indexes_.resize(static_cast<size_t>(arity_));
  }
  auto& index = indexes_[static_cast<size_t>(column)];
  index.emplace();
  index->reserve(tuples_.size());
  for (const Tuple& t : tuples_) {
    index->emplace(t[column], &t);
  }
}

void Relation::BuildIndex(int column) const {
  PARK_CHECK_LT(column, arity_) << "BuildIndex column out of range";
  PARK_CHECK(!frozen_) << "BuildIndex on a frozen relation";
  EnsureIndex(column);
}

void Relation::ForEachMatching(const TuplePattern& pattern,
                               FunctionRef<void(const Tuple&)> fn) const {
  PARK_CHECK_EQ(static_cast<int>(pattern.size()), arity_)
      << "pattern arity mismatch";
  int bound_column = -1;
  for (int c = 0; c < arity_; ++c) {
    if (pattern[static_cast<size_t>(c)].has_value()) {
      bound_column = c;
      break;
    }
  }
  if (bound_column < 0) {
    // Fully unbound: plain scan.
    for (const Tuple& t : tuples_) fn(t);
    return;
  }
  // Exact-match fast path when every column is bound.
  bool all_bound = true;
  for (const auto& slot : pattern) all_bound = all_bound && slot.has_value();
  if (all_bound) {
    // Probe by span through a stack row (heap only past kInlineArity)
    // and hand `fn` the stored tuple.
    constexpr int kInlineArity = 8;
    Value inline_row[kInlineArity];
    std::vector<Value> heap_row;
    Value* row = inline_row;
    if (arity_ > kInlineArity) {
      heap_row.resize(static_cast<size_t>(arity_));
      row = heap_row.data();
    }
    for (int c = 0; c < arity_; ++c) row[c] = *pattern[static_cast<size_t>(c)];
    auto it = tuples_.find(TupleSpan{row, static_cast<size_t>(arity_)});
    if (it != tuples_.end()) fn(*it);
    return;
  }
  EnsureIndex(bound_column);
  const ColumnIndex& index = *indexes_[static_cast<size_t>(bound_column)];
  auto range = index.equal_range(*pattern[static_cast<size_t>(bound_column)]);
  for (auto it = range.first; it != range.second; ++it) {
    const Tuple& t = *it->second;
    if (Matches(t, pattern)) fn(t);
  }
}

void Relation::ForEachMatchingProbe(const TuplePattern& pattern,
                                    int probe_column,
                                    FunctionRef<void(const Tuple&)> fn) const {
  PARK_CHECK_EQ(static_cast<int>(pattern.size()), arity_)
      << "pattern arity mismatch";
  if (probe_column < 0) {
    for (const Tuple& t : tuples_) {
      if (Matches(t, pattern)) fn(t);
    }
    return;
  }
  PARK_CHECK_LT(probe_column, arity_) << "probe column out of range";
  PARK_CHECK(pattern[static_cast<size_t>(probe_column)].has_value())
      << "probe column must be a bound pattern position";
  EnsureIndex(probe_column);
  const ColumnIndex& index = *indexes_[static_cast<size_t>(probe_column)];
  auto range = index.equal_range(*pattern[static_cast<size_t>(probe_column)]);
  for (auto it = range.first; it != range.second; ++it) {
    const Tuple& t = *it->second;
    if (Matches(t, pattern)) fn(t);
  }
}

Relation::ColumnarView Relation::Columnar() const {
  if (ColumnarDirty()) {
    // Mirrors the lazy-index rule: a dirty view inside a frozen
    // (parallel, read-only) section means the coordinator's compaction
    // sweep missed this relation — fail loudly rather than race.
    PARK_CHECK(!frozen_)
        << "lazy columnar compaction on a frozen relation "
           "(compaction sweep missed this relation)";
    CompactColumnarImpl();
  }
  return ColumnarView{segment_.get(), &segment_rows_};
}

void Relation::CompactColumnar() const {
  if (!ColumnarDirty()) return;
  PARK_CHECK(!frozen_) << "CompactColumnar on a frozen relation";
  CompactColumnarImpl();
}

void Relation::DropColumnar() {
  segment_.reset();
  segment_rows_.clear();
  delta_adds_.clear();
  tombstones_.clear();
  graveyard_.clear();
  compactions_ = 0;
  frozen_ = false;
}

void Relation::CompactColumnarImpl() const {
  if (segment_ == nullptr) {
    // First build: sort the whole set.
    segment_rows_.clear();
    segment_rows_.reserve(tuples_.size());
    for (const Tuple& t : tuples_) segment_rows_.push_back(&t);
    std::sort(segment_rows_.begin(), segment_rows_.end(),
              [](const Tuple* a, const Tuple* b) { return *a < *b; });
  } else {
    // Merge (segment rows − tombstones) with the sorted delta. A delta
    // add can never equal a live segment row (it was absent from the set
    // when inserted), so strict < places every add uniquely.
    std::sort(delta_adds_.begin(), delta_adds_.end(),
              [](const Tuple* a, const Tuple* b) { return *a < *b; });
    std::sort(tombstones_.begin(), tombstones_.end());
    std::vector<const Tuple*> merged;
    merged.reserve(segment_rows_.size() + delta_adds_.size() -
                   tombstones_.size());
    size_t ti = 0;
    size_t di = 0;
    for (size_t r = 0; r < segment_rows_.size(); ++r) {
      if (ti < tombstones_.size() &&
          tombstones_[ti] == static_cast<uint32_t>(r)) {
        ++ti;
        continue;
      }
      const Tuple* row = segment_rows_[r];
      while (di < delta_adds_.size() && *delta_adds_[di] < *row) {
        merged.push_back(delta_adds_[di++]);
      }
      merged.push_back(row);
    }
    while (di < delta_adds_.size()) merged.push_back(delta_adds_[di++]);
    segment_rows_ = std::move(merged);
    delta_adds_.clear();
    tombstones_.clear();
    graveyard_.clear();
  }
  // A fresh shared segment per build: snapshots pinning the previous
  // generation keep it alive; unpinned generations free immediately.
  segment_ =
      std::make_shared<const Segment>(Segment::Build(arity_, segment_rows_));
  ++compactions_;
}

std::vector<Tuple> Relation::SortedTuples() const {
  std::vector<Tuple> out(tuples_.begin(), tuples_.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace park

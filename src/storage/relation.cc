#include "storage/relation.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/logging.h"

namespace park {
namespace {

// Smallest open-addressing table; tables double from here.
constexpr size_t kMinSlots = 8;

// True when `entries` entries would fill a table of `slots` slots past
// half: linear probing stays short below that load.
bool Crowded(size_t entries, size_t slots) { return entries * 2 > slots; }

// The smallest table that holds `n` entries uncrowded.
size_t SlotsFor(size_t n) {
  size_t slots = kMinSlots;
  while (Crowded(n, slots)) slots <<= 1;
  return slots;
}

}  // namespace

// --- Open addressing (the row set and the column indexes) ---

template <typename Same>
size_t Relation::ProbeSlot(const std::vector<Slot>& slots, uint32_t hash,
                           Same same) {
  const size_t mask = slots.size() - 1;
  size_t i = hash & mask;
  while (slots[i].row != kNoRow &&
         !(slots[i].hash == hash && same(slots[i].row))) {
    i = (i + 1) & mask;
  }
  return i;
}

void Relation::GrowSlots(std::vector<Slot>& slots) {
  // Stored hashes place every entry again: no key is reread or rehashed.
  std::vector<Slot> grown(slots.empty() ? kMinSlots : slots.size() * 2);
  const size_t mask = grown.size() - 1;
  for (const Slot& s : slots) {
    if (s.row == kNoRow) continue;
    size_t i = s.hash & mask;
    while (grown[i].row != kNoRow) i = (i + 1) & mask;
    grown[i] = s;
  }
  slots = std::move(grown);
}

void Relation::EraseSlot(std::vector<Slot>& slots, size_t i) {
  // Backward shift: pull each later entry of the probe run into the hole
  // unless its home slot lies cyclically in (hole, entry].
  const size_t mask = slots.size() - 1;
  size_t j = i;
  while (true) {
    j = (j + 1) & mask;
    if (slots[j].row == kNoRow) break;
    const size_t home = slots[j].hash & mask;
    if (((j - home) & mask) < ((j - i) & mask)) continue;
    slots[i] = slots[j];
    i = j;
  }
  slots[i] = Slot{};
}

// --- Rows ---

const Value* Relation::RowData(uint32_t row) const {
  const int k = std::bit_width((row >> kFirstChunkShift) + 1) - 1;
  const uint32_t first = ((1u << k) - 1) << kFirstChunkShift;
  return chunks_[static_cast<size_t>(k)].data() +
         static_cast<size_t>(row - first) * static_cast<size_t>(arity_);
}

template <typename Fn>
void Relation::ScanRows(Fn&& fn) const {
  const bool any_dead = live_ != num_rows_;
  const size_t n = static_cast<size_t>(arity_);
  uint32_t id = 0;
  for (size_t k = 0; id < num_rows_; ++k) {
    const Value* row = chunks_[k].data();
    const uint32_t end = static_cast<uint32_t>(std::min<uint64_t>(
        num_rows_, uint64_t{id} + (uint64_t{kFirstChunkRows} << k)));
    for (; id < end; ++id, row += n) {
      if (any_dead && dead_[id] != 0) continue;
      fn(id, row);
    }
  }
}

size_t Relation::RowSlot(const Value* row, uint32_t hash) const {
  return ProbeSlot(slots_, hash, [&](uint32_t id) {
    const Value* stored = RowData(id);
    return std::equal(stored, stored + arity_, row);
  });
}

bool Relation::RowLess(uint32_t a, uint32_t b) const {
  const Value* ra = RowData(a);
  const Value* rb = RowData(b);
  return std::lexicographical_compare(ra, ra + arity_, rb, rb + arity_);
}

uint32_t Relation::FindRow(const Value* row, uint32_t hash) const {
  return slots_.empty() ? kNoRow : slots_[RowSlot(row, hash)].row;
}

uint32_t Relation::AllocateRow(std::span<const Value> row) {
  if (!free_rows_.empty()) {
    const uint32_t id = free_rows_.back();
    free_rows_.pop_back();
    dead_[id] = 0;
    std::copy(row.begin(), row.end(), const_cast<Value*>(RowData(id)));
    return id;
  }
  PARK_CHECK_LT(num_rows_, kNoRow) << "relation row count overflow";
  const uint32_t id = num_rows_++;
  const size_t k =
      static_cast<size_t>(std::bit_width((id >> kFirstChunkShift) + 1) - 1);
  if (k == chunks_.size()) {
    // Reserved once to full size and only appended to: never moves.
    chunks_.emplace_back().reserve((size_t{kFirstChunkRows} << k) *
                                   static_cast<size_t>(arity_));
  }
  chunks_[k].insert(chunks_[k].end(), row.begin(), row.end());
  if (!dead_.empty()) dead_.push_back(0);
  return id;
}

Relation Relation::Clone() const {
  Relation copy(arity_);
  copy.chunks_.reserve(chunks_.size());
  for (size_t k = 0; k < chunks_.size(); ++k) {
    std::vector<Value>& chunk = copy.chunks_.emplace_back();
    chunk.reserve((size_t{kFirstChunkRows} << k) *
                  static_cast<size_t>(arity_));
    chunk.assign(chunks_[k].begin(), chunks_[k].end());
  }
  copy.num_rows_ = num_rows_;
  copy.live_ = live_;
  copy.slots_ = slots_;
  copy.dead_ = dead_;
  // The copy has no segment, so nothing reads its dead rows any more.
  copy.free_rows_ = free_rows_;
  copy.free_rows_.insert(copy.free_rows_.end(), retired_rows_.begin(),
                         retired_rows_.end());
  // The stats are a pure function of the row multiset, so the sketch
  // state copies verbatim with it.
  copy.stats_ = stats_;
  copy.has_stats_ = has_stats_;
  return copy;
}

std::pair<std::span<const Value>, bool> Relation::Emplace(
    std::span<const Value> row) {
  PARK_CHECK_EQ(row.size(), static_cast<size_t>(arity_))
      << "arity mismatch on insert";
  PARK_CHECK(!frozen_) << "Insert on a frozen relation";
  const uint32_t hash = RowHash(row.data());
  if (slots_.empty()) GrowSlots(slots_);
  size_t slot = RowSlot(row.data(), hash);
  if (slots_[slot].row != kNoRow) {
    return {{RowData(slots_[slot].row), row.size()}, false};
  }
  if (Crowded(live_ + 1, slots_.size())) {
    GrowSlots(slots_);
    slot = RowSlot(row.data(), hash);
  }
  const uint32_t id = AllocateRow(row);
  slots_[slot] = Slot{id, hash};
  ++live_;
  if (has_stats_) stats_.OnInsert(row);
  for (size_t c = 0; c < indexes_.size(); ++c) {
    if (indexes_[c].has_value()) {
      IndexInsert(*indexes_[c], static_cast<int>(c), id);
    }
  }
  if (segment_ != nullptr) delta_adds_.push_back(id);
  return {{RowData(id), row.size()}, true};
}

bool Relation::Erase(std::span<const Value> row) {
  PARK_CHECK(!frozen_) << "Erase on a frozen relation";
  if (row.size() != static_cast<size_t>(arity_) || slots_.empty()) {
    return false;
  }
  const size_t slot = RowSlot(row.data(), RowHash(row.data()));
  const uint32_t id = slots_[slot].row;
  if (id == kNoRow) return false;
  EraseSlot(slots_, slot);
  --live_;
  if (has_stats_) stats_.OnErase(row);
  for (size_t c = 0; c < indexes_.size(); ++c) {
    if (indexes_[c].has_value()) {
      IndexErase(*indexes_[c], static_cast<int>(c), id);
    }
  }
  if (dead_.empty()) dead_.assign(num_rows_, 0);
  dead_[id] = 1;
  // A built segment's next merge still reads the id (and skips it as
  // dead), so it is recycled only after that merge.
  (segment_ != nullptr ? retired_rows_ : free_rows_).push_back(id);
  return true;
}

void Relation::ForEach(FunctionRef<void(std::span<const Value>)> fn) const {
  const size_t n = static_cast<size_t>(arity_);
  ScanRows([&](uint32_t, const Value* row) { fn({row, n}); });
}

bool Relation::Matches(const Value* row, const TuplePattern& pattern) {
  for (size_t c = 0; c < pattern.size(); ++c) {
    if (pattern[c].has_value() && *pattern[c] != row[c]) return false;
  }
  return true;
}

// --- Column indexes ---

size_t Relation::IndexSlot(const ColumnIndex& index, int column,
                           const Value& v) const {
  return ProbeSlot(index.slots, ValueHash(v), [&](uint32_t head) {
    return RowData(head)[column] == v;
  });
}

void Relation::IndexInsert(ColumnIndex& index, int column,
                           uint32_t row) const {
  const Value& v = RowData(row)[column];
  size_t slot = IndexSlot(index, column, v);
  if (index.next.size() < num_rows_) index.next.resize(num_rows_, kNoRow);
  if (index.slots[slot].row != kNoRow) {
    // A known value: the row becomes the head of its chain.
    index.next[row] = index.slots[slot].row;
    index.slots[slot].row = row;
    return;
  }
  if (Crowded(index.distinct + 1, index.slots.size())) {
    GrowSlots(index.slots);
    slot = IndexSlot(index, column, v);
  }
  index.next[row] = kNoRow;
  index.slots[slot] = Slot{row, ValueHash(v)};
  ++index.distinct;
}

void Relation::IndexErase(ColumnIndex& index, int column, uint32_t row) {
  const size_t slot = IndexSlot(index, column, RowData(row)[column]);
  uint32_t& head = index.slots[slot].row;
  PARK_CHECK_NE(head, kNoRow) << "erased row missing from its column index";
  if (head == row) {
    if (index.next[row] == kNoRow) {
      EraseSlot(index.slots, slot);
      --index.distinct;
    } else {
      head = index.next[row];
    }
    return;
  }
  uint32_t prev = head;
  while (index.next[prev] != row) prev = index.next[prev];
  index.next[prev] = index.next[row];
}

void Relation::EnsureIndex(int column) const {
  if (HasIndex(column)) return;
  // A missing index inside a frozen (parallel, read-only) section means
  // the prewarm pass under-approximated the plans — fail loudly rather
  // than race on the lazy build.
  PARK_CHECK(!frozen_)
      << "lazy index build for column " << column
      << " on a frozen relation (prewarm missed this column)";
  if (static_cast<size_t>(column) >= indexes_.size()) {
    indexes_.resize(static_cast<size_t>(arity_));
  }
  ColumnIndex& index = indexes_[static_cast<size_t>(column)].emplace();
  // Sized for the stats' distinct estimate when they are built, and
  // never builds them: a low estimate only costs a regrowth.
  const double distinct = has_stats_ ? stats_.DistinctEstimate(column) : 0;
  index.slots.resize(SlotsFor(static_cast<size_t>(distinct)));
  index.next.assign(num_rows_, kNoRow);
  ScanRows([&](uint32_t id, const Value*) { IndexInsert(index, column, id); });
}

void Relation::BuildStats() const {
  // An unbuilt sketch read inside a frozen (parallel, read-only) section
  // means a plan compiled after the freeze — fail loudly rather than race
  // on the lazy build.
  PARK_CHECK(!frozen_) << "lazy statistics build on a frozen relation";
  stats_ = RelationStats(arity_);
  const size_t n = static_cast<size_t>(arity_);
  ScanRows([&](uint32_t, const Value* row) { stats_.OnInsert({row, n}); });
  has_stats_ = true;
}

void Relation::BuildIndex(int column) const {
  PARK_CHECK_LT(column, arity_) << "BuildIndex column out of range";
  PARK_CHECK(!frozen_) << "BuildIndex on a frozen relation";
  EnsureIndex(column);
}

void Relation::ProbeIndex(
    const TuplePattern& pattern, int column,
    FunctionRef<void(std::span<const Value>)> fn) const {
  EnsureIndex(column);
  const ColumnIndex& index = *indexes_[static_cast<size_t>(column)];
  const size_t n = static_cast<size_t>(arity_);
  const Value& v = *pattern[static_cast<size_t>(column)];
  for (uint32_t id = index.slots[IndexSlot(index, column, v)].row;
       id != kNoRow; id = index.next[id]) {
    const Value* row = RowData(id);
    if (Matches(row, pattern)) fn({row, n});
  }
}

void Relation::ForEachMatching(
    const TuplePattern& pattern,
    FunctionRef<void(std::span<const Value>)> fn) const {
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
    ForEach(fn);
    return;
  }
  // Exact-match fast path when every column is bound.
  bool all_bound = true;
  for (const auto& slot : pattern) all_bound = all_bound && slot.has_value();
  if (all_bound) {
    // Probe through a stack row (heap only past kInlineArity) and hand
    // `fn` the stored row.
    constexpr int kInlineArity = 8;
    Value inline_row[kInlineArity];
    std::vector<Value> heap_row;
    Value* row = inline_row;
    if (arity_ > kInlineArity) {
      heap_row.resize(static_cast<size_t>(arity_));
      row = heap_row.data();
    }
    for (int c = 0; c < arity_; ++c) row[c] = *pattern[static_cast<size_t>(c)];
    const uint32_t id = FindRow(row, RowHash(row));
    if (id != kNoRow) fn({RowData(id), static_cast<size_t>(arity_)});
    return;
  }
  ProbeIndex(pattern, bound_column, fn);
}

void Relation::ForEachMatchingProbe(
    const TuplePattern& pattern, int probe_column,
    FunctionRef<void(std::span<const Value>)> fn) const {
  PARK_CHECK_EQ(static_cast<int>(pattern.size()), arity_)
      << "pattern arity mismatch";
  if (probe_column < 0) {
    const size_t n = static_cast<size_t>(arity_);
    ScanRows([&](uint32_t, const Value* row) {
      if (Matches(row, pattern)) fn({row, n});
    });
    return;
  }
  PARK_CHECK_LT(probe_column, arity_) << "probe column out of range";
  PARK_CHECK(pattern[static_cast<size_t>(probe_column)].has_value())
      << "probe column must be a bound pattern position";
  ProbeIndex(pattern, probe_column, fn);
}

// --- Columnar view ---

void Relation::CompactColumnar() const {
  if (!ColumnarDirty()) return;
  PARK_CHECK(!frozen_) << "CompactColumnar on a frozen relation";
  auto less = [&](uint32_t a, uint32_t b) { return RowLess(a, b); };
  if (segment_ == nullptr) {
    // First build: sort the whole set.
    segment_rows_.clear();
    segment_rows_.reserve(live_);
    ScanRows([&](uint32_t id, const Value*) { segment_rows_.push_back(id); });
    std::sort(segment_rows_.begin(), segment_rows_.end(), less);
  } else {
    // Merge the live segment rows with the sorted live delta. A delta
    // add can never equal a live segment row (it was absent from the set
    // when inserted), so strict < places every add uniquely. No id read
    // here was recycled since the last build (Erase retires them).
    std::erase_if(delta_adds_, [&](uint32_t id) { return IsDead(id); });
    std::sort(delta_adds_.begin(), delta_adds_.end(), less);
    std::vector<uint32_t> merged;
    merged.reserve(live_);
    size_t di = 0;
    for (uint32_t id : segment_rows_) {
      if (IsDead(id)) continue;
      while (di < delta_adds_.size() && less(delta_adds_[di], id)) {
        merged.push_back(delta_adds_[di++]);
      }
      merged.push_back(id);
    }
    merged.insert(merged.end(), delta_adds_.begin() + di, delta_adds_.end());
    segment_rows_ = std::move(merged);
    delta_adds_.clear();
    free_rows_.insert(free_rows_.end(), retired_rows_.begin(),
                      retired_rows_.end());
    retired_rows_.clear();
  }
  std::vector<const Value*> rows;
  rows.reserve(segment_rows_.size());
  for (uint32_t id : segment_rows_) rows.push_back(RowData(id));
  segment_ = std::make_unique<const Segment>(Segment::Build(arity_, rows));
  ++compactions_;
}

void Relation::DropColumnar() {
  segment_.reset();
  segment_rows_ = {};
  delta_adds_ = {};
  free_rows_.insert(free_rows_.end(), retired_rows_.begin(),
                    retired_rows_.end());
  retired_rows_ = {};
  compactions_ = 0;
  frozen_ = false;
}

std::vector<Tuple> Relation::SortedTuples() const {
  std::vector<Tuple> out;
  out.reserve(live_);
  const size_t n = static_cast<size_t>(arity_);
  ScanRows([&](uint32_t, const Value* row) {
    out.emplace_back(std::span<const Value>(row, n));
  });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace park

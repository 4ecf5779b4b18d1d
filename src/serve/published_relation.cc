#include "serve/published_relation.h"

#include <iterator>

#include "util/hash.h"
#include "util/logging.h"

namespace park {
namespace serve_internal {
namespace {

bool RowLess(const Value* a, const Value* b, size_t arity) {
  return std::lexicographical_compare(a, a + arity, b, b + arity);
}

bool RowEqual(const Value* a, const Value* b, size_t arity) {
  return std::equal(a, a + arity, b);
}

void SortRows(std::vector<const Value*>& rows, size_t arity) {
  std::sort(rows.begin(), rows.end(), [arity](const Value* a, const Value* b) {
    return RowLess(a, b, arity);
  });
}

size_t SlotHash(const Value* row, size_t arity) {
  return MixHash(HashValues(row, arity));
}

}  // namespace

BaseRun::BaseRun(int arity, uint32_t num_rows, std::vector<Value> values)
    : arity_(static_cast<size_t>(arity)),
      num_rows_(num_rows),
      values_(std::move(values)) {
  if (num_rows_ == 0) return;
  size_t slots = 4;
  while (slots < static_cast<size_t>(num_rows_) * 2) slots <<= 1;
  slots_.assign(slots, 0);
  mask_ = slots - 1;
  for (uint32_t r = 0; r < num_rows_; ++r) {
    size_t slot = SlotHash(row(r), arity_) & mask_;
    while (slots_[slot] != 0) slot = (slot + 1) & mask_;
    slots_[slot] = r + 1;
  }
}

uint32_t BaseRun::Find(const Value* args) const {
  if (slots_.empty()) return kAbsent;
  size_t slot = SlotHash(args, arity_) & mask_;
  while (slots_[slot] != 0) {
    const uint32_t r = slots_[slot] - 1;
    if (RowEqual(row(r), args, arity_)) return r;
    slot = (slot + 1) & mask_;
  }
  return kAbsent;
}

std::shared_ptr<const PublishedRelation> PublishedRelation::Build(
    const Relation& relation) {
  const size_t arity = static_cast<size_t>(relation.arity());
  std::vector<const Value*> rows;
  rows.reserve(relation.size());
  relation.ForEach(
      [&](std::span<const Value> row) { rows.push_back(row.data()); });
  SortRows(rows, arity);
  PARK_CHECK(rows.size() < BaseRun::kAbsent) << "relation row count overflow";
  std::vector<Value> values;
  values.reserve(rows.size() * arity);
  for (const Value* row : rows) values.insert(values.end(), row, row + arity);
  return std::shared_ptr<const PublishedRelation>(new PublishedRelation(
      relation.arity(),
      std::make_shared<const BaseRun>(relation.arity(),
                                      static_cast<uint32_t>(rows.size()),
                                      std::move(values))));
}

std::shared_ptr<const PublishedRelation> PublishedRelation::Empty(int arity) {
  return std::shared_ptr<const PublishedRelation>(new PublishedRelation(
      arity, std::make_shared<const BaseRun>(arity, 0, std::vector<Value>())));
}

std::shared_ptr<const PublishedRelation> PublishedRelation::WithDiff(
    std::span<const GroundAtom* const> inserted,
    std::span<const GroundAtom* const> deleted) const {
  const size_t arity = static_cast<size_t>(arity_);
  // Split each side of the diff into base rows, by index, and rows
  // outside the base. Base indexes are in row order, so sorting either
  // kind sorts by row.
  std::vector<uint32_t> revived, killed;
  std::vector<const Value*> adds, drops;
  auto split = [&](std::span<const GroundAtom* const> atoms,
                   std::vector<uint32_t>& in_base,
                   std::vector<const Value*>& outside) {
    for (const GroundAtom* atom : atoms) {
      const Value* row = atom->args().values().data();
      const uint32_t r = base_->Find(row);
      if (r != BaseRun::kAbsent) {
        in_base.push_back(r);
      } else {
        outside.push_back(row);
      }
    }
  };
  split(inserted, revived, adds);
  split(deleted, killed, drops);
  std::sort(revived.begin(), revived.end());
  std::sort(killed.begin(), killed.end());
  SortRows(adds, arity);
  SortRows(drops, arity);

  std::shared_ptr<PublishedRelation> next(
      new PublishedRelation(arity_, base_));
  // Tombstones: (old \ revived) + killed.
  std::vector<uint32_t> kept;
  kept.reserve(tombstones_.size());
  std::set_difference(tombstones_.begin(), tombstones_.end(), revived.begin(),
                      revived.end(), std::back_inserter(kept));
  next->tombstones_.reserve(kept.size() + killed.size());
  std::merge(kept.begin(), kept.end(), killed.begin(), killed.end(),
             std::back_inserter(next->tombstones_));

  // Added rows: (old \ drops) + adds, in one merge pass.
  next->added_.reserve((num_added_ + adds.size()) * arity);
  auto append = [&](const Value* row) {
    next->added_.insert(next->added_.end(), row, row + arity);
    ++next->num_added_;
  };
  uint32_t i = 0;
  size_t j = 0, k = 0;
  while (i < num_added_ || j < adds.size()) {
    if (j == adds.size() ||
        (i < num_added_ && RowLess(added_row(i), adds[j], arity))) {
      // `drops` is a sorted subset of the added rows.
      const Value* row = added_row(i++);
      if (k < drops.size() && RowEqual(drops[k], row, arity)) {
        ++k;
        continue;
      }
      append(row);
    } else {
      append(adds[j++]);
    }
  }

  const size_t overlay = next->tombstones_.size() + next->num_added_;
  if (overlay * kFoldDivisor > base_->num_rows()) next->Fold();
  return next;
}

void PublishedRelation::Fold() {
  const size_t arity = static_cast<size_t>(arity_);
  const size_t rows = size();
  PARK_CHECK(rows < BaseRun::kAbsent) << "relation row count overflow";
  std::vector<Value> values;
  values.reserve(rows * arity);
  // Both inputs are sorted and disjoint: merge them.
  uint32_t i = 0;
  auto take_added_below = [&](const Value* bound) {
    while (i < num_added_ &&
           (bound == nullptr || RowLess(added_row(i), bound, arity))) {
      const Value* row = added_row(i++);
      values.insert(values.end(), row, row + arity);
    }
  };
  ForEachLiveBaseRow([&](const Value* row) {
    take_added_below(row);
    values.insert(values.end(), row, row + arity);
  });
  take_added_below(nullptr);
  base_ = std::make_shared<const BaseRun>(arity_, static_cast<uint32_t>(rows),
                                          std::move(values));
  added_.clear();
  added_.shrink_to_fit();
  num_added_ = 0;
  tombstones_.clear();
  tombstones_.shrink_to_fit();
}

bool PublishedRelation::Contains(const Value* args) const {
  const uint32_t r = base_->Find(args);
  if (r != BaseRun::kAbsent) return !Tombstoned(r);
  const size_t arity = static_cast<size_t>(arity_);
  uint32_t lo = 0, hi = num_added_;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (RowLess(added_row(mid), args, arity)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < num_added_ && RowEqual(added_row(lo), args, arity);
}

}  // namespace serve_internal
}  // namespace park

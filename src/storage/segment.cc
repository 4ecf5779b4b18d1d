#include "storage/segment.h"

#include <algorithm>

#include "util/logging.h"

namespace park {

Segment Segment::Build(int arity, std::span<const Value* const> rows) {
  Segment seg;
  seg.arity_ = arity;
  PARK_CHECK(rows.size() < UINT32_MAX) << "segment row count overflow";
  seg.num_rows_ = static_cast<uint32_t>(rows.size());
  seg.columns_.reserve(static_cast<size_t>(arity));
  std::vector<Value> values(rows.size());
  for (int c = 0; c < arity; ++c) {
    for (size_t r = 0; r < rows.size(); ++r) values[r] = rows[r][c];
    ColumnDictionary dict = ColumnDictionary::FromValues(values);
    std::vector<uint32_t> codes(rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      codes[r] = *dict.CodeFor(rows[r][c]);
    }
    seg.columns_.emplace_back(std::move(dict), std::move(codes));
  }
  seg.row_values_.reserve(rows.size() * static_cast<size_t>(arity));
  for (const Value* row : rows) {
    seg.row_values_.insert(seg.row_values_.end(), row, row + arity);
  }
  if (!rows.empty()) {
    size_t slots = 4;
    while (slots < rows.size() * 2) slots <<= 1;
    seg.probe_slots_.assign(slots, 0);
    seg.probe_mask_ = slots - 1;
    for (uint32_t r = 0; r < seg.num_rows_; ++r) {
      size_t slot = MixHash(TupleHash{}(TupleSpan{
                        seg.row(r), static_cast<size_t>(arity)})) &
                    seg.probe_mask_;
      while (seg.probe_slots_[slot] != 0) {
        slot = (slot + 1) & seg.probe_mask_;
      }
      seg.probe_slots_[slot] = r + 1;
    }
  }
  return seg;
}

uint64_t Segment::DictEntries() const {
  uint64_t total = 0;
  for (const Column& col : columns_) total += col.dictionary().size();
  return total;
}

}  // namespace park

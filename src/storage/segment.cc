#include "storage/segment.h"

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
  return seg;
}

}  // namespace park

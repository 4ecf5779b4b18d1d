#include "storage/column.h"

#include <algorithm>
#include <utility>

namespace park {

ColumnDictionary ColumnDictionary::FromValues(std::vector<Value> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  ColumnDictionary dict;
  dict.sorted_ = std::move(values);
  return dict;
}

std::optional<uint32_t> ColumnDictionary::CodeFor(const Value& v) const {
  auto it = std::lower_bound(sorted_.begin(), sorted_.end(), v);
  if (it == sorted_.end() || *it != v) return std::nullopt;
  return static_cast<uint32_t>(it - sorted_.begin());
}

Column::Column(ColumnDictionary dict, std::vector<uint32_t> codes)
    : dict_(std::move(dict)), codes_(std::move(codes)) {}

}  // namespace park

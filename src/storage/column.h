// Column: one dictionary-encoded attribute of an immutable Segment.
//
// A column stores, for every segment row, a 32-bit code into a sorted
// per-column dictionary. Codes are assigned in value-sort order, so
// comparing codes compares values: a column's code sequence ordered by
// the segment's lexicographic row order is non-decreasing for column 0.

#ifndef PARK_STORAGE_COLUMN_H_
#define PARK_STORAGE_COLUMN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "storage/value.h"

namespace park {

/// The sorted distinct values of one column. The code of a value is its
/// rank: ValueFor(CodeFor(v)) == v and code order == value order.
class ColumnDictionary {
 public:
  ColumnDictionary() = default;

  /// Builds from an arbitrary value sequence (sorted + deduplicated here).
  static ColumnDictionary FromValues(std::vector<Value> values);

  uint32_t size() const { return static_cast<uint32_t>(sorted_.size()); }
  bool empty() const { return sorted_.empty(); }

  const Value& ValueFor(uint32_t code) const {
    return sorted_[static_cast<size_t>(code)];
  }

  /// Rank of `v`, or nullopt when `v` is not in the dictionary.
  std::optional<uint32_t> CodeFor(const Value& v) const;

 private:
  std::vector<Value> sorted_;
};

/// One segment attribute: the dictionary and one code per row.
class Column {
 public:
  Column() = default;
  Column(ColumnDictionary dict, std::vector<uint32_t> codes);

  uint32_t num_rows() const { return static_cast<uint32_t>(codes_.size()); }
  const ColumnDictionary& dictionary() const { return dict_; }

  uint32_t code(uint32_t row) const { return codes_[static_cast<size_t>(row)]; }
  const Value& value(uint32_t row) const { return dict_.ValueFor(code(row)); }

 private:
  ColumnDictionary dict_;
  std::vector<uint32_t> codes_;
};

}  // namespace park

#endif  // PARK_STORAGE_COLUMN_H_

// Tuple: an ordered list of Values — one row of a relation.

#ifndef PARK_STORAGE_TUPLE_H_
#define PARK_STORAGE_TUPLE_H_

#include <algorithm>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "storage/value.h"

namespace park {

/// The hash of the row `values[0..n)`: Tuple::Hash and every borrowed
/// view of a row (TupleSpan, AtomView) hash through here, so a view
/// probes a set of Tuples.
inline size_t HashValues(const Value* values, size_t n) {
  size_t seed = 0x51ed270b;
  for (size_t i = 0; i < n; ++i) seed = HashCombine(seed, values[i].Hash());
  return seed;
}

/// A fixed-arity row. Tuples are value types: copyable, hashable,
/// lexicographically ordered.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}
  Tuple(std::initializer_list<Value> values) : values_(values) {}
  explicit Tuple(std::span<const Value> values)
      : values_(values.begin(), values.end()) {}

  int arity() const { return static_cast<int>(values_.size()); }
  bool empty() const { return values_.empty(); }

  const Value& operator[](int i) const { return values_[static_cast<size_t>(i)]; }
  Value& operator[](int i) { return values_[static_cast<size_t>(i)]; }

  const std::vector<Value>& values() const { return values_; }
  std::span<const Value> span() const { return values_; }

  /// A Tuple is a contiguous range of Values, so it converts implicitly
  /// to the `std::span<const Value>` rows that storage takes.
  const Value* begin() const { return values_.data(); }
  const Value* end() const { return values_.data() + values_.size(); }

  void Append(Value v) { values_.push_back(v); }

  /// "(v1, v2, ...)" — or "" for the 0-ary tuple.
  std::string ToString(const SymbolTable& table) const;

  size_t Hash() const { return HashValues(values_.data(), values_.size()); }

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.values_ == b.values_;
  }
  friend bool operator!=(const Tuple& a, const Tuple& b) { return !(a == b); }
  friend bool operator<(const Tuple& a, const Tuple& b) {
    return a.values_ < b.values_;
  }

 private:
  std::vector<Value> values_;
};

/// A borrowed view of a row's values, hashed like the Tuple it names: the
/// key of sets of rows stored elsewhere (Γ's Δ-atom sets), and the
/// hashing form of the batch executor's flat Value rows.
struct TupleSpan {
  const Value* data = nullptr;
  size_t size = 0;
};

struct TupleHash {
  size_t operator()(const Tuple& t) const { return t.Hash(); }
  size_t operator()(const TupleSpan& s) const {
    return HashValues(s.data, s.size);
  }
};

struct TupleEq {
  bool operator()(const TupleSpan& a, const TupleSpan& b) const {
    return std::equal(a.data, a.data + a.size, b.data, b.data + b.size);
  }
};

}  // namespace park

#endif  // PARK_STORAGE_TUPLE_H_

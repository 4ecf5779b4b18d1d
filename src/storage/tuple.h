// Tuple: an ordered list of Values — one row of a relation.

#ifndef PARK_STORAGE_TUPLE_H_
#define PARK_STORAGE_TUPLE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "storage/value.h"
#include "util/logging.h"

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
///
/// Up to kInlineValues values live inside the Tuple, so copying an atom
/// of that arity allocates nothing; a longer row is one heap block of
/// exactly its arity (docs/STORAGE.md, "Tuples and atoms").
class Tuple {
 public:
  static constexpr uint32_t kInlineValues = 2;

  Tuple() {}  // not defaulted: the union's Values have a constructor
  explicit Tuple(const std::vector<Value>& values)
      : Tuple(std::span<const Value>(values)) {}
  Tuple(std::initializer_list<Value> values)
      : Tuple(std::span<const Value>(values.begin(), values.size())) {}
  explicit Tuple(std::span<const Value> values) { Assign(values); }

  Tuple(const Tuple& other) { Assign(other.span()); }
  Tuple(Tuple&& other) noexcept { Take(other); }
  Tuple& operator=(const Tuple& other) {
    if (this != &other) Assign(other.span());
    return *this;
  }
  Tuple& operator=(Tuple&& other) noexcept {
    if (this != &other) {
      Free();
      Take(other);
    }
    return *this;
  }
  ~Tuple() { Free(); }

  int arity() const { return static_cast<int>(size_); }
  bool empty() const { return size_ == 0; }

  const Value& operator[](int i) const {
    CheckIndex(i);
    return data()[i];
  }
  Value& operator[](int i) {
    CheckIndex(i);
    return data()[i];
  }

  std::span<const Value> values() const { return span(); }
  std::span<const Value> span() const { return {data(), size_}; }

  /// A Tuple is a contiguous range of Values, so it converts implicitly
  /// to the `std::span<const Value>` rows that storage takes.
  const Value* begin() const { return data(); }
  const Value* end() const { return data() + size_; }

  void Append(Value v) {
    if (size_ == capacity_) Grow(2 * capacity_);
    data()[size_++] = v;
  }

  /// "(v1, v2, ...)" — or "" for the 0-ary tuple.
  std::string ToString(const SymbolTable& table) const;

  size_t Hash() const { return HashValues(data(), size_); }

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator!=(const Tuple& a, const Tuple& b) { return !(a == b); }
  friend bool operator<(const Tuple& a, const Tuple& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }

 private:
  static_assert(std::is_trivially_copyable_v<Value>);

  bool on_heap() const { return capacity_ > kInlineValues; }
  const Value* data() const { return on_heap() ? heap_ : inline_; }
  Value* data() { return on_heap() ? heap_ : inline_; }

  void CheckIndex([[maybe_unused]] int i) const {
#if defined(_GLIBCXX_ASSERTIONS)
    PARK_CHECK(i >= 0 && static_cast<uint32_t>(i) < size_)
        << "Tuple index " << i << " out of range for arity " << size_;
#endif
  }

  static Value* AllocateValues(uint32_t n) {
    return static_cast<Value*>(::operator new(n * sizeof(Value)));
  }

  /// Makes this Tuple hold `values`, reusing its storage when it fits.
  void Assign(std::span<const Value> values) {
    const uint32_t n = static_cast<uint32_t>(values.size());
    if (n > capacity_) {
      Free();
      heap_ = AllocateValues(n);
      capacity_ = n;
    }
    std::uninitialized_copy(values.begin(), values.end(), data());
    size_ = n;
  }

  /// Takes `other`'s values, leaving it empty. This Tuple holds no heap
  /// block. Values are trivially copyable, so the union moves as bytes
  /// whichever member it holds: no branch, which keeps the moves of a
  /// sort as cheap as a vector's.
  void Take(Tuple& other) {
    std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.size_ = 0;
    other.capacity_ = kInlineValues;
  }

  void Grow(uint32_t capacity) {
    Value* grown = AllocateValues(capacity);
    std::uninitialized_copy(begin(), end(), grown);
    Free();
    heap_ = grown;
    capacity_ = capacity;
  }

  /// Releases the heap block, if any; the Tuple is then inline.
  void Free() {
    if (on_heap()) ::operator delete(heap_);
    capacity_ = kInlineValues;
  }

  // The union starts zeroed, so its bytes are never indeterminate when
  // Take copies them all.
  union {
    unsigned char bytes_[kInlineValues * sizeof(Value)] = {};
    Value inline_[kInlineValues];
    Value* heap_;
  };
  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineValues;
};

}  // namespace park

#endif  // PARK_STORAGE_TUPLE_H_

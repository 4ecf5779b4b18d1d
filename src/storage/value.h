// Value: a typed Datalog constant.
//
// Values are 16-byte, trivially copyable tagged unions. Symbols and string
// literals carry interned ids; rendering them back to text requires the
// SymbolTable that interned them.

#ifndef PARK_STORAGE_VALUE_H_
#define PARK_STORAGE_VALUE_H_

#include <cstdint>
#include <functional>
#include <string>

#include "storage/symbol_table.h"
#include "util/hash.h"

namespace park {

/// The dynamic type of a Value.
enum class ValueType : uint8_t {
  kSymbol = 0,  // An interned constant symbol, e.g. `alice`.
  kInt = 1,     // A 64-bit signed integer, e.g. `42`.
  kString = 2,  // An interned quoted string literal, e.g. `"J. Doe"`.
};

/// A single Datalog constant. Equality and ordering are across-type total:
/// symbols < ints < strings, then by payload. Two symbol (or string) Values
/// are equal iff their interned ids are equal, so comparisons never touch
/// the symbol table.
class Value {
 public:
  /// Default-constructs the symbol with id 0; meaningful Values come from
  /// the factories below.
  Value() : type_(ValueType::kSymbol), payload_(0) {}

  static Value Symbol(SymbolId id) {
    return Value(ValueType::kSymbol, static_cast<uint64_t>(id));
  }
  static Value Int(int64_t v) {
    return Value(ValueType::kInt, static_cast<uint64_t>(v));
  }
  static Value String(SymbolId id) {
    return Value(ValueType::kString, static_cast<uint64_t>(id));
  }

  ValueType type() const { return type_; }
  bool is_symbol() const { return type_ == ValueType::kSymbol; }
  bool is_int() const { return type_ == ValueType::kInt; }
  bool is_string() const { return type_ == ValueType::kString; }

  /// Accessors; the type must match (checked).
  SymbolId symbol_id() const {
    PARK_CHECK(type_ != ValueType::kInt) << "not an interned value";
    return static_cast<SymbolId>(payload_);
  }
  int64_t int_value() const {
    PARK_CHECK(is_int()) << "not an int value";
    return static_cast<int64_t>(payload_);
  }

  /// Renders the value using `table` for interned names. Strings are quoted
  /// with C-style escaping of `"` and `\`.
  std::string ToString(const SymbolTable& table) const;
  /// Appends ToString's rendering to `out`.
  void AppendTo(std::string& out, const SymbolTable& table) const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.type_ == b.type_ && a.payload_ == b.payload_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator<(const Value& a, const Value& b) {
    if (a.type_ != b.type_) return a.type_ < b.type_;
    if (a.type_ == ValueType::kInt) {
      return static_cast<int64_t>(a.payload_) <
             static_cast<int64_t>(b.payload_);
    }
    return a.payload_ < b.payload_;
  }

  size_t Hash() const {
    return HashCombine(static_cast<size_t>(type_),
                       std::hash<uint64_t>{}(payload_));
  }

 private:
  Value(ValueType type, uint64_t payload) : type_(type), payload_(payload) {}

  ValueType type_;
  uint64_t payload_;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Interprets `text` the way the rule/fact parser would interpret a
/// constant term: an optionally negative digit string becomes an integer
/// Value, anything else an interned symbol. Used by every convenience
/// atom builder (Database::InsertAtom, Transaction::Insert, RuleBuilder)
/// so that programmatic atoms and parsed atoms always agree.
Value ConstantFromText(std::string_view text, SymbolTable& symbols);

}  // namespace park

#endif  // PARK_STORAGE_VALUE_H_

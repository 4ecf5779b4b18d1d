// Interning of constant symbols, string literals, and predicates.
//
// A SymbolTable maps names to dense integer ids so that the rest of the
// engine can compare and hash values in O(1) without touching strings. One
// SymbolTable is shared (via std::shared_ptr) between a Database, the
// Programs that run against it, and the evaluator; mixing ids from
// different tables is a programming error.

#ifndef PARK_STORAGE_SYMBOL_TABLE_H_
#define PARK_STORAGE_SYMBOL_TABLE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/logging.h"

namespace park {

/// Dense id of an interned constant symbol or string literal.
using SymbolId = uint32_t;

/// Dense id of a (name, arity) predicate.
using PredicateId = uint32_t;

/// Bidirectional name<->id maps for symbols and predicates.
///
/// Thread-safe: lookups take a shared lock, and so does interning a name
/// that is already present; only interning a new name takes the exclusive
/// lock.
/// Name references returned by SymbolName/PredicateName stay valid for the
/// table's lifetime — entries live in deques and are never moved or erased —
/// so concurrent serving sessions can intern and resolve names freely.
class SymbolTable {
 public:
  SymbolTable() = default;
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// Returns the id for `name`, interning it on first use.
  SymbolId InternSymbol(std::string_view name);

  /// Returns the id for `name` if already interned.
  std::optional<SymbolId> FindSymbol(std::string_view name) const;

  /// Returns the name of an interned symbol. `id` must be valid.
  const std::string& SymbolName(SymbolId id) const;

  size_t NumSymbols() const;

  /// Returns the id for predicate `name/arity`, interning on first use.
  /// The same name with two different arities yields two predicates.
  PredicateId InternPredicate(std::string_view name, int arity);

  /// Returns the id for `name/arity` if already interned.
  std::optional<PredicateId> FindPredicate(std::string_view name,
                                           int arity) const;

  /// Predicate accessors; `id` must be valid.
  const std::string& PredicateName(PredicateId id) const;
  int PredicateArity(PredicateId id) const;

  size_t NumPredicates() const;

 private:
  struct PredicateInfo {
    std::string name;
    int arity;
  };

  mutable std::shared_mutex mutex_;

  std::unordered_map<std::string, SymbolId> symbol_ids_;
  std::deque<std::string> symbol_names_;  // deque: stable addresses

  std::unordered_map<std::string, PredicateId> predicate_ids_;  // "name/arity"
  std::deque<PredicateInfo> predicates_;
};

/// Convenience factory for the shared-ownership idiom used across the API.
inline std::shared_ptr<SymbolTable> MakeSymbolTable() {
  return std::make_shared<SymbolTable>();
}

}  // namespace park

#endif  // PARK_STORAGE_SYMBOL_TABLE_H_

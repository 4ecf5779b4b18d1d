#include "storage/symbol_table.h"

#include <mutex>

namespace park {

SymbolId SymbolTable::InternSymbol(std::string_view name) {
  // Hits (the common case: re-parsing known names) share the lock with
  // other readers; only a miss takes it exclusively, and re-checks since
  // another writer may have interned `name` in between.
  if (std::optional<SymbolId> found = FindSymbol(name)) return *found;
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto it = symbol_ids_.find(std::string(name));
  if (it != symbol_ids_.end()) return it->second;
  SymbolId id = static_cast<SymbolId>(symbol_names_.size());
  symbol_names_.emplace_back(name);
  symbol_ids_.emplace(symbol_names_.back(), id);
  return id;
}

std::optional<SymbolId> SymbolTable::FindSymbol(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = symbol_ids_.find(std::string(name));
  if (it == symbol_ids_.end()) return std::nullopt;
  return it->second;
}

const std::string& SymbolTable::SymbolName(SymbolId id) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  PARK_CHECK_LT(id, symbol_names_.size()) << "invalid symbol id";
  // Safe to return by reference: the deque never moves settled entries
  // and an interned name is immutable for the table's lifetime.
  return symbol_names_[id];
}

PredicateId SymbolTable::InternPredicate(std::string_view name, int arity) {
  PARK_CHECK_GE(arity, 0);
  std::string key(name);
  key += '/';
  key += std::to_string(arity);
  {
    // Shared-lock fast path and exclusive re-check, as in InternSymbol.
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = predicate_ids_.find(key);
    if (it != predicate_ids_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto it = predicate_ids_.find(key);
  if (it != predicate_ids_.end()) return it->second;
  PredicateId id = static_cast<PredicateId>(predicates_.size());
  predicates_.push_back(PredicateInfo{std::string(name), arity});
  predicate_ids_.emplace(std::move(key), id);
  return id;
}

std::optional<PredicateId> SymbolTable::FindPredicate(std::string_view name,
                                                      int arity) const {
  std::string key(name);
  key += '/';
  key += std::to_string(arity);
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = predicate_ids_.find(key);
  if (it == predicate_ids_.end()) return std::nullopt;
  return it->second;
}

const std::string& SymbolTable::PredicateName(PredicateId id) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  PARK_CHECK_LT(id, predicates_.size()) << "invalid predicate id";
  return predicates_[id].name;
}

int SymbolTable::PredicateArity(PredicateId id) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  PARK_CHECK_LT(id, predicates_.size()) << "invalid predicate id";
  return predicates_[id].arity;
}

size_t SymbolTable::NumSymbols() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return symbol_names_.size();
}

size_t SymbolTable::NumPredicates() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return predicates_.size();
}

}  // namespace park

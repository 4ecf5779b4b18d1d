// Ad-hoc pattern queries over a Database: the read side of the library.
//
//   auto hits = park::QueryDatabase(db, "payroll(X, S)", symbols).value();
//   // hits.variable_names == {"X", "S"}
//   // hits.bindings       == one Tuple (X, S) per matching atom
//
// Patterns are single atoms in the ordinary surface syntax; variables,
// repeated variables (`q(X, X)`), anonymous `_`, and constants all work.

#ifndef PARK_LANG_QUERY_H_
#define PARK_LANG_QUERY_H_

#include <optional>
#include <span>

#include "lang/parser.h"
#include "storage/database.h"

namespace park {

/// The answer to a pattern query.
struct QueryResult {
  /// Names of the pattern's named variables, in first-occurrence order
  /// (anonymous `_` positions are not reported).
  std::vector<std::string> variable_names;
  /// One row per matching atom: the values bound to `variable_names`.
  /// Sorted, duplicate-free.
  std::vector<Tuple> bindings;

  size_t size() const { return bindings.size(); }
  bool empty() const { return bindings.empty(); }

  /// Rendered rows: {"X=a, S=100", ...} in sorted order.
  std::vector<std::string> ToStrings(const SymbolTable& symbols) const;
};

namespace query_internal {

/// Binds `atom`'s variables against `row`, which holds one value per term
/// of `atom`, and returns the projection onto the variable indexes in
/// `projection`, or nullopt when a constant or a repeated variable
/// disagrees. The one binder of QueryDatabase (over a relation's index
/// probe) and of serve's Snapshot::Query (over a published relation's
/// rows), so both answer a pattern alike. Inline because it runs once
/// per scanned row.
inline std::optional<Tuple> BindRow(const AtomPattern& atom,
                                    std::span<const Value> row,
                                    size_t num_variables,
                                    const std::vector<int>& projection) {
  std::vector<std::optional<Value>> binding(num_variables);
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    const Term& term = atom.terms[i];
    const Value& value = row[i];
    if (term.is_constant()) {
      if (term.constant() != value) return std::nullopt;
      continue;
    }
    auto& slot = binding[static_cast<size_t>(term.var_index())];
    if (slot.has_value()) {
      if (*slot != value) return std::nullopt;
    } else {
      slot = value;
    }
  }
  Tuple out;
  for (int var : projection) out.Append(*binding[static_cast<size_t>(var)]);
  return out;
}

}  // namespace query_internal

/// Matches `pattern_text` (e.g. "payroll(X, 100)") against `db`.
/// Returns kInvalidArgument on parse errors. A predicate never seen by
/// `db` yields an empty result, not an error.
Result<QueryResult> QueryDatabase(const Database& db,
                                  std::string_view pattern_text,
                                  const std::shared_ptr<SymbolTable>& symbols);

/// True iff at least one atom matches (`exists` query).
Result<bool> DatabaseMatches(const Database& db,
                             std::string_view pattern_text,
                             const std::shared_ptr<SymbolTable>& symbols);

}  // namespace park

#endif  // PARK_LANG_QUERY_H_

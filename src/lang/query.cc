#include "lang/query.h"

#include <algorithm>

namespace park {
std::vector<std::string> QueryResult::ToStrings(
    const SymbolTable& symbols) const {
  std::vector<std::string> out;
  out.reserve(bindings.size());
  for (const Tuple& row : bindings) {
    std::string rendered;
    for (size_t i = 0; i < variable_names.size(); ++i) {
      if (i > 0) rendered += ", ";
      rendered += variable_names[i];
      rendered += "=";
      rendered += row[static_cast<int>(i)].ToString(symbols);
    }
    out.push_back(std::move(rendered));
  }
  return out;
}

Result<QueryResult> QueryDatabase(
    const Database& db, std::string_view pattern_text,
    const std::shared_ptr<SymbolTable>& symbols) {
  PARK_ASSIGN_OR_RETURN(ParsedAtomPattern parsed,
                        ParseAtomPattern(pattern_text, symbols));

  QueryResult result;
  // Project the named (non-anonymous) variables, by variable index.
  std::vector<int> projection;
  for (size_t v = 0; v < parsed.variable_names.size(); ++v) {
    if (parsed.variable_names[v] != "_") {
      projection.push_back(static_cast<int>(v));
      result.variable_names.push_back(parsed.variable_names[v]);
    }
  }

  const Relation* relation = db.GetRelation(parsed.atom.predicate);
  if (relation == nullptr) return result;  // predicate never populated

  // Constants become bound pattern positions; variables scan.
  TuplePattern tuple_pattern;
  tuple_pattern.reserve(parsed.atom.terms.size());
  for (const Term& term : parsed.atom.terms) {
    if (term.is_constant()) {
      tuple_pattern.push_back(term.constant());
    } else {
      tuple_pattern.push_back(std::nullopt);
    }
  }

  relation->ForEachMatching(tuple_pattern, [&](std::span<const Value> args) {
    auto row = query_internal::BindRow(parsed.atom, args,
                                       parsed.variable_names.size(),
                                       projection);
    if (row.has_value()) result.bindings.push_back(std::move(*row));
  });
  std::sort(result.bindings.begin(), result.bindings.end());
  result.bindings.erase(
      std::unique(result.bindings.begin(), result.bindings.end()),
      result.bindings.end());
  return result;
}

Result<bool> DatabaseMatches(const Database& db,
                             std::string_view pattern_text,
                             const std::shared_ptr<SymbolTable>& symbols) {
  PARK_ASSIGN_OR_RETURN(QueryResult result,
                        QueryDatabase(db, pattern_text, symbols));
  return !result.empty();
}

}  // namespace park

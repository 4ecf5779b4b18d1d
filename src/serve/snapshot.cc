#include "serve/snapshot.h"

#include <algorithm>

#include "core/observer.h"
#include "lang/parser.h"
#include "storage/ground_atom.h"

namespace park {

namespace serve_internal {

SnapshotTicket::~SnapshotTicket() {
  if (shared == nullptr) return;
  RunObserver* observer = nullptr;
  {
    std::lock_guard<std::mutex> lock(shared->mutex);
    --shared->snapshots_pinned;
    auto it = shared->pinned_generations.find(generation);
    if (it != shared->pinned_generations.end() && --it->second == 0) {
      shared->pinned_generations.erase(it);
    }
    observer = shared->observer;
  }
  // Notify outside the lock: the callback must not be able to deadlock
  // against a concurrent Snapshot() taking the accounting mutex.
  ObserverHook hook(observer);
  hook.Notify([&](RunObserver& o) { o.OnSnapshotRelease(journal_seq); });
}

}  // namespace serve_internal

size_t Snapshot::size() const {
  size_t total = 0;
  for (const auto& [pred, rel] : state_->relations) {
    (void)pred;
    total += rel->size();
  }
  return total;
}

bool Snapshot::Contains(const GroundAtom& atom) const {
  auto it = state_->relations.find(atom.predicate());
  if (it == state_->relations.end()) return false;
  if (atom.arity() != it->second->arity()) return false;
  return it->second->Contains(atom.args().values().data());
}

Result<QueryResult> Snapshot::Query(std::string_view pattern_text) const {
  PARK_ASSIGN_OR_RETURN(ParsedAtomPattern parsed,
                        ParseAtomPattern(pattern_text, state_->symbols));

  QueryResult result;
  std::vector<int> projection;
  for (size_t v = 0; v < parsed.variable_names.size(); ++v) {
    if (parsed.variable_names[v] != "_") {
      projection.push_back(static_cast<int>(v));
      result.variable_names.push_back(parsed.variable_names[v]);
    }
  }

  auto it = state_->relations.find(parsed.atom.predicate);
  if (it == state_->relations.end()) return result;  // never populated
  const serve_internal::PublishedRelation& rel = *it->second;
  const serve_internal::BaseRun& base = rel.base();
  const size_t arity = static_cast<size_t>(rel.arity());

  // The base's rows, then the overlay's added rows, in one loop body:
  // with a second call site GCC at -O2 stopped inlining BindRow, and a
  // scan read about a tenth slower. A base row is looked up among the
  // tombstones only once it matches the pattern.
  struct Run {
    const Value* rows;
    uint32_t count;
    bool base;
  };
  const Run runs[] = {{base.row(0), base.num_rows(), true},
                      {rel.added_row(0), rel.num_added(), false}};
  for (const Run& run : runs) {
    for (uint32_t r = 0; r < run.count; ++r) {
      auto row = query_internal::BindRow(
          parsed.atom, {run.rows + r * arity, arity},
          parsed.variable_names.size(), projection);
      if (row.has_value() && !(run.base && rel.Tombstoned(r))) {
        result.bindings.push_back(std::move(*row));
      }
    }
  }
  // Each part is sorted, but the projection can reorder — sort and dedup
  // exactly like QueryDatabase so results are bit-identical.
  std::sort(result.bindings.begin(), result.bindings.end());
  result.bindings.erase(
      std::unique(result.bindings.begin(), result.bindings.end()),
      result.bindings.end());
  return result;
}

Result<bool> Snapshot::Matches(std::string_view pattern_text) const {
  PARK_ASSIGN_OR_RETURN(QueryResult result, Query(pattern_text));
  return !result.empty();
}

std::vector<std::string> Snapshot::SortedAtomStrings() const {
  const SymbolTable& symbols = *state_->symbols;
  std::vector<std::string> out;
  out.reserve(size());
  for (const auto& [pred, rel] : state_->relations) {
    rel->ForEachRow([&](const Value* row) {
      Tuple args;
      for (int c = 0; c < rel->arity(); ++c) args.Append(row[c]);
      out.push_back(GroundAtom(pred, std::move(args)).ToString(symbols));
    });
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string Snapshot::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const std::string& atom : SortedAtomStrings()) {
    if (!first) out += ", ";
    first = false;
    out += atom;
  }
  out += "}";
  return out;
}

}  // namespace park

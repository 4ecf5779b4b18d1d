// UpdateSet: the set U of transaction updates of paper §4.3, with
// convenience constructors and rendering.

#ifndef PARK_ECA_UPDATE_H_
#define PARK_ECA_UPDATE_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "core/park_evaluator.h"

namespace park {

/// An ordered, duplicate-free collection of ±a updates. Order is kept for
/// reporting only; the semantics is set-based. Add and Contains are
/// hashed, so staging n updates costs O(n).
class UpdateSet {
 public:
  UpdateSet() = default;

  /// Adds ±atom; duplicates are ignored. Returns *this for chaining.
  UpdateSet& Add(ActionKind action, const GroundAtom& atom);
  UpdateSet& AddInsert(const GroundAtom& atom) {
    return Add(ActionKind::kInsert, atom);
  }
  UpdateSet& AddDelete(const GroundAtom& atom) {
    return Add(ActionKind::kDelete, atom);
  }

  /// Parses "+p(a)" / "-q(b, 1)" using `symbols` and adds it.
  Status AddParsed(std::string_view text,
                   const std::shared_ptr<SymbolTable>& symbols);

  const std::vector<Update>& updates() const { return updates_; }
  size_t size() const { return updates_.size(); }
  bool empty() const { return updates_.empty(); }
  void clear() {
    updates_.clear();
    staged_[0].clear();
    staged_[1].clear();
  }

  bool Contains(ActionKind action, const GroundAtom& atom) const;

  /// "{+q(b), -s(a)}" in insertion order.
  std::string ToString(const SymbolTable& symbols) const;

 private:
  using AtomSet = std::unordered_set<GroundAtom, GroundAtomHash, GroundAtomEq>;

  AtomSet& Staged(ActionKind action) {
    return staged_[action == ActionKind::kInsert ? 0 : 1];
  }
  const AtomSet& Staged(ActionKind action) const {
    return staged_[action == ActionKind::kInsert ? 0 : 1];
  }

  std::vector<Update> updates_;  // insertion order
  AtomSet staged_[2];            // the atoms of updates_, + and -
};

}  // namespace park

#endif  // PARK_ECA_UPDATE_H_

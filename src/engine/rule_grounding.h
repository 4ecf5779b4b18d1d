// Rule groundings: a pair (r, θ) of a rule and a ground substitution for
// it (paper §4.2). The `B` component of a bi-structure, a conflict's
// sides and the provenance of marked atoms are sets of groundings; all
// three store them flat, as a rule index plus a binding in a Value array,
// and hand them out as GroundingViews.

#ifndef PARK_ENGINE_RULE_GROUNDING_H_
#define PARK_ENGINE_RULE_GROUNDING_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <ranges>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "lang/ast.h"
#include "storage/atom_table.h"
#include "util/arena.h"

namespace park {

/// A borrowed grounding: a rule index and the value bound to each of the
/// rule's variables (indexed by variable index), stored elsewhere — the
/// matcher's scratch, a Γ section's arena, a GroundingSet or a Conflict.
/// Ordered by rule, then binding lexicographically.
class GroundingView {
 public:
  GroundingView() = default;
  GroundingView(int rule_index, std::span<const Value> binding)
      : rule_index_(rule_index), binding_(binding) {}

  int rule_index() const { return rule_index_; }
  std::span<const Value> binding() const { return binding_; }

  size_t Hash() const {
    return HashCombine(static_cast<size_t>(rule_index_),
                       HashValues(binding_.data(), binding_.size()));
  }

  friend bool operator==(const GroundingView& a, const GroundingView& b) {
    return a.rule_index_ == b.rule_index_ &&
           std::ranges::equal(a.binding_, b.binding_);
  }
  friend bool operator<(const GroundingView& a, const GroundingView& b) {
    if (a.rule_index_ != b.rule_index_) return a.rule_index_ < b.rule_index_;
    return std::lexicographical_compare(a.binding_.begin(), a.binding_.end(),
                                        b.binding_.begin(), b.binding_.end());
  }

 private:
  int rule_index_ = -1;
  std::span<const Value> binding_;
};

/// An owned grounding: the rule index plus its binding as a Tuple. The
/// engine keeps none (it stores groundings flat); the reference evaluator
/// and tests build them. Value type: copyable, hashable, ordered like
/// GroundingView, and viewed as one wherever a view is taken.
class RuleGrounding {
 public:
  RuleGrounding() : rule_index_(-1) {}
  RuleGrounding(int rule_index, Tuple binding)
      : rule_index_(rule_index), binding_(std::move(binding)) {}
  explicit RuleGrounding(GroundingView g)
      : rule_index_(g.rule_index()), binding_(g.binding()) {}

  int rule_index() const { return rule_index_; }
  const Tuple& binding() const { return binding_; }

  GroundingView view() const {
    return GroundingView(rule_index_, binding_.span());
  }
  operator GroundingView() const { return view(); }  // NOLINT

  /// Renders as "(r1, [X <- a, Y <- b])", using the rule's variable names.
  std::string ToString(const Program& program,
                       const SymbolTable& symbols) const;

  size_t Hash() const { return view().Hash(); }

  friend bool operator==(const RuleGrounding& a, const RuleGrounding& b) {
    return a.rule_index_ == b.rule_index_ && a.binding_ == b.binding_;
  }
  friend bool operator!=(const RuleGrounding& a, const RuleGrounding& b) {
    return !(a == b);
  }
  friend bool operator<(const RuleGrounding& a, const RuleGrounding& b) {
    return a.view() < b.view();
  }

 private:
  int rule_index_;
  Tuple binding_;
};

struct RuleGroundingHash {
  size_t operator()(const RuleGrounding& g) const { return g.Hash(); }
};

/// Appends "(r1, [X <- a, Y <- b])" to `out`, with the rule's label and
/// variable names; a rule with no name shows as "r#<index>" and a rule
/// with no variables as "(r1)".
void AppendGrounding(std::string& out, GroundingView g, const Program& program,
                     const SymbolTable& symbols);

/// The rendering of every grounding in `groundings` (any range of
/// GroundingViews), sorted: how B and an atom's provenance are printed.
template <typename Range>
std::vector<std::string> RenderSortedGroundings(const Range& groundings,
                                                const Program& program) {
  const SymbolTable& symbols = *program.symbols();
  std::vector<std::string> out;
  if constexpr (std::ranges::sized_range<Range>) {
    out.reserve(std::ranges::size(groundings));
  }
  for (GroundingView g : groundings) {
    std::string& rendered = out.emplace_back();
    // Room for the label and a short value per variable: one allocation
    // for most groundings.
    rendered.reserve(8 + 12 * g.binding().size());
    AppendGrounding(rendered, g, program, symbols);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// A set of rule groundings stored flat, with no heap object per
/// grounding. Each binding is copied once into a chunked Value arena, and
/// one AtomTable keyed by (rule, binding) finds it, so a grounding's id is
/// dense, in insertion order, and stable until Clear. Probing with a view
/// copies nothing. Read-only use (Find, Contains, iteration) is safe from
/// many threads at once.
class GroundingSet {
 public:
  static constexpr uint32_t kAbsent = AtomTable::kAbsent;

  /// Adds `g` unless present; returns its id and whether it was new.
  std::pair<uint32_t, bool> Emplace(GroundingView g);
  /// Adds `g`; returns true if it was not already present.
  bool Insert(GroundingView g) { return Emplace(g).second; }

  /// The id of `g`, or kAbsent.
  uint32_t Find(GroundingView g) const { return table_.Find(Key(g)); }
  bool Contains(GroundingView g) const { return Find(g) != kAbsent; }

  size_t size() const { return table_.size(); }
  bool empty() const { return table_.size() == 0; }

  /// The grounding with id `id`.
  GroundingView operator[](uint32_t id) const {
    const AtomView key = table_.atom(id);
    return GroundingView(static_cast<int>(key.predicate), key.args);
  }

  /// Iterates the groundings as GroundingViews, in insertion order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = GroundingView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = GroundingView;

    const_iterator() = default;
    const_iterator(const GroundingSet* set, uint32_t id)
        : set_(set), id_(id) {}
    GroundingView operator*() const { return (*set_)[id_]; }
    const_iterator& operator++() {
      ++id_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++id_;
      return before;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.id_ == b.id_;
    }

   private:
    const GroundingSet* set_ = nullptr;
    uint32_t id_ = 0;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const {
    return const_iterator(this, static_cast<uint32_t>(size()));
  }

  /// Forgets every grounding and keeps the memory.
  void Clear();

 private:
  /// The table key: the rule index stands in the predicate's place.
  static AtomView Key(GroundingView g) {
    return AtomView{static_cast<PredicateId>(g.rule_index()), g.binding()};
  }

  AtomTable table_;
  std::unique_ptr<Arena> values_;  // made on the first non-empty binding
};

/// The `B` of a bi-structure ⟨B, I⟩: rule instances barred from firing.
/// It only grows during a run, and Γ probes it for every grounding it
/// enumerates.
using BlockedSet = GroundingSet;

}  // namespace park

#endif  // PARK_ENGINE_RULE_GROUNDING_H_

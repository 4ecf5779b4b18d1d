// RuleGrounding: a pair (r, θ) of a rule and a ground substitution for it
// (paper §4.2). Blocked-rule-instance sets — the `B` component of a
// bi-structure — are sets of RuleGroundings.

#ifndef PARK_ENGINE_RULE_GROUNDING_H_
#define PARK_ENGINE_RULE_GROUNDING_H_

#include <algorithm>
#include <span>
#include <string>
#include <unordered_set>

#include "lang/ast.h"

namespace park {

/// A ground instance of a rule: the rule's index in its Program plus the
/// value bound to each of the rule's variables (indexed by variable index,
/// stored as a Tuple). Value type: copyable, hashable, ordered.
class RuleGrounding {
 public:
  RuleGrounding() : rule_index_(-1) {}
  RuleGrounding(int rule_index, Tuple binding)
      : rule_index_(rule_index), binding_(std::move(binding)) {}

  int rule_index() const { return rule_index_; }
  const Tuple& binding() const { return binding_; }

  /// Renders as "(r1, [X <- a, Y <- b])", using the rule's variable names.
  std::string ToString(const Program& program,
                       const SymbolTable& symbols) const;

  size_t Hash() const {
    return HashCombine(static_cast<size_t>(rule_index_), binding_.Hash());
  }

  friend bool operator==(const RuleGrounding& a, const RuleGrounding& b) {
    return a.rule_index_ == b.rule_index_ && a.binding_ == b.binding_;
  }
  friend bool operator!=(const RuleGrounding& a, const RuleGrounding& b) {
    return !(a == b);
  }
  friend bool operator<(const RuleGrounding& a, const RuleGrounding& b) {
    if (a.rule_index_ != b.rule_index_) return a.rule_index_ < b.rule_index_;
    return a.binding_ < b.binding_;
  }

 private:
  int rule_index_;
  Tuple binding_;
};

/// A borrowed grounding: a rule index and a binding stored elsewhere (the
/// matcher's scratch). Probes a BlockedSet without building a
/// RuleGrounding.
struct GroundingView {
  int rule_index;
  std::span<const Value> binding;

  size_t Hash() const {
    return HashCombine(static_cast<size_t>(rule_index),
                       HashValues(binding.data(), binding.size()));
  }
};

struct RuleGroundingHash {
  using is_transparent = void;
  size_t operator()(const RuleGrounding& g) const { return g.Hash(); }
  size_t operator()(const GroundingView& g) const { return g.Hash(); }
};

struct RuleGroundingEq {
  using is_transparent = void;
  bool operator()(const RuleGrounding& a, const RuleGrounding& b) const {
    return a == b;
  }
  bool operator()(const GroundingView& a, const RuleGrounding& b) const {
    return a.rule_index == b.rule_index() &&
           std::ranges::equal(a.binding, b.binding().span());
  }
  bool operator()(const RuleGrounding& a, const GroundingView& b) const {
    return (*this)(b, a);
  }
};

/// The `B` of a bi-structure ⟨B, I⟩: rule instances barred from firing.
using BlockedSet =
    std::unordered_set<RuleGrounding, RuleGroundingHash, RuleGroundingEq>;

}  // namespace park

#endif  // PARK_ENGINE_RULE_GROUNDING_H_

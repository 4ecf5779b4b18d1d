// Specificity-based conflict resolution (paper §5): "more specific rules
// should be given priority over more general rules" — the classic
// penguin/bird default-reasoning principle.
//
// Specificity of a rule here is the pair (number of body literals, number
// of constant argument positions in the body), compared lexicographically:
// penguin(X) -> -flies(X) does not beat bird(X) -> +flies(X) on this
// metric alone, but penguin(X), bird(X) -> -flies(X) does, as does any
// rule mentioning more conditions. The paper notes the principle is
// incomplete; equal or incomparable specificity abstains, so combine this
// policy with a fallback via MakeCompositePolicy.

#include <algorithm>
#include <utility>

#include "core/policy.h"

namespace park {
namespace {

std::pair<int, int> RuleSpecificity(const Rule& rule) {
  int constants = 0;
  for (const BodyLiteral& lit : rule.body()) {
    for (const Term& t : lit.atom.terms) {
      if (t.is_constant()) ++constants;
    }
  }
  return {static_cast<int>(rule.body().size()), constants};
}

std::pair<int, int> MaxSpecificity(const Program& program,
                                   const ConflictSide& side) {
  std::pair<int, int> best{-1, -1};
  for (GroundingView g : side) {
    best = std::max(best, RuleSpecificity(program.rule(g.rule_index())));
  }
  return best;
}

class SpecificityPolicy final : public ConflictResolutionPolicy {
 public:
  std::string_view name() const override { return "specificity"; }

  Result<Vote> Select(const PolicyContext& context,
                      const Conflict& conflict) override {
    auto ins = MaxSpecificity(context.program, conflict.inserters());
    auto del = MaxSpecificity(context.program, conflict.deleters());
    if (ins > del) return Vote::kInsert;
    if (del > ins) return Vote::kDelete;
    return Vote::kAbstain;
  }
};

}  // namespace

PolicyPtr MakeSpecificityPolicy() {
  return std::make_shared<SpecificityPolicy>();
}

}  // namespace park

// Rule-priority conflict resolution (paper §5, following Ariel, Postgres
// and Starburst): the side containing the rule instance with the highest
// priority wins. Priority is the rule's `[prio=N]` annotation, defaulting
// to its 1-based program position (the paper's "rule ri has priority i").

#include <algorithm>
#include <limits>

#include "core/policy.h"

namespace park {
namespace {

int EffectivePriority(const Program& program, GroundingView g) {
  const Rule& rule = program.rule(g.rule_index());
  return rule.priority().value_or(rule.index() + 1);
}

int MaxPriority(const Program& program,
                const ConflictSide& side) {
  int best = std::numeric_limits<int>::min();
  for (GroundingView g : side) {
    best = std::max(best, EffectivePriority(program, g));
  }
  return best;
}

class RulePriorityPolicy final : public ConflictResolutionPolicy {
 public:
  std::string_view name() const override { return "rule-priority"; }

  Result<Vote> Select(const PolicyContext& context,
                      const Conflict& conflict) override {
    int ins = MaxPriority(context.program, conflict.inserters());
    int del = MaxPriority(context.program, conflict.deleters());
    if (ins > del) return Vote::kInsert;
    if (del > ins) return Vote::kDelete;
    return Vote::kAbstain;
  }
};

}  // namespace

PolicyPtr MakeRulePriorityPolicy() {
  return std::make_shared<RulePriorityPolicy>();
}

}  // namespace park

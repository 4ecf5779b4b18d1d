// Source-reliability conflict resolution — the paper's §5 voting-scheme
// critic that "may know that the two rules that are involved in the
// conflict came from two different sources, and that one of these sources
// is 'more reliable' than the other", available directly as a policy.

#include <algorithm>
#include <limits>

#include "core/policy.h"

namespace park {
namespace {

class SourceReliabilityPolicy final : public ConflictResolutionPolicy {
 public:
  SourceReliabilityPolicy(std::unordered_map<int, int> reliability,
                          int default_reliability)
      : reliability_(std::move(reliability)),
        default_reliability_(default_reliability) {}

  std::string_view name() const override { return "source-reliability"; }

  Result<Vote> Select(const PolicyContext& context,
                      const Conflict& conflict) override {
    int ins = SideReliability(context.program, conflict.inserters());
    int del = SideReliability(context.program, conflict.deleters());
    if (ins > del) return Vote::kInsert;
    if (del > ins) return Vote::kDelete;
    return Vote::kAbstain;
  }

 private:
  int RuleReliability(const Rule& rule) const {
    if (!rule.source().has_value()) return default_reliability_;
    auto it = reliability_.find(*rule.source());
    return it == reliability_.end() ? default_reliability_ : it->second;
  }

  int SideReliability(const Program& program,
                      const ConflictSide& side) const {
    int best = std::numeric_limits<int>::min();
    for (GroundingView g : side) {
      best = std::max(best, RuleReliability(program.rule(g.rule_index())));
    }
    return best;
  }

  std::unordered_map<int, int> reliability_;
  int default_reliability_;
};

}  // namespace

PolicyPtr MakeSourceReliabilityPolicy(
    std::unordered_map<int, int> reliability, int default_reliability) {
  return std::make_shared<SourceReliabilityPolicy>(std::move(reliability),
                                                   default_reliability);
}

}  // namespace park

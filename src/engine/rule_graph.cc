#include "engine/rule_graph.h"

#include <algorithm>

namespace park {

RuleDependencyGraph::RuleDependencyGraph(const Program& program) {
  const size_t n = program.size();

  // Watcher index: invert each body over the same polarity split
  // RuleIsAffected uses; record each head write for the cone BFS. Rules
  // arrive in ascending index order, so each watcher list stays sorted;
  // the back() check dedupes repeated literals of one predicate within a
  // body.
  auto watch = [](WatcherIndex& index, PredicateId pred, int rule) {
    if (pred >= index.size()) index.resize(pred + 1);
    std::vector<int>& list = index[pred];
    if (list.empty() || list.back() != rule) list.push_back(rule);
  };
  heads_.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    const Rule& rule = program.rule(r);
    heads_.emplace_back(rule.head().action, rule.head().atom.predicate);
    for (const BodyLiteral& lit : rule.body()) {
      switch (lit.kind) {
        case LiteralKind::kPositive:
        case LiteralKind::kEventInsert:
          watch(plus_watchers_, lit.atom.predicate, static_cast<int>(r));
          break;
        case LiteralKind::kNegated:
        case LiteralKind::kEventDelete:
          watch(minus_watchers_, lit.atom.predicate, static_cast<int>(r));
          break;
      }
    }
  }
}

const std::vector<int>& RuleDependencyGraph::Watchers(
    const WatcherIndex& index, PredicateId predicate) const {
  return predicate < index.size() ? index[predicate] : empty_;
}

const std::vector<int>& RuleDependencyGraph::PlusWatchers(
    PredicateId predicate) const {
  return Watchers(plus_watchers_, predicate);
}

const std::vector<int>& RuleDependencyGraph::MinusWatchers(
    PredicateId predicate) const {
  return Watchers(minus_watchers_, predicate);
}

void RuleDependencyGraph::Schedule(const DeltaState& delta,
                                   std::vector<int>& rules) const {
  rules.clear();
  if (delta.initial) {
    rules.resize(size());
    for (size_t r = 0; r < size(); ++r) rules[r] = static_cast<int>(r);
    return;
  }
  // Union of the changed predicates' watcher lists. A rule watching
  // several changed predicates appears in several lists, so sort +
  // unique; the result is exactly {r : RuleIsAffected(r, delta)} in
  // program order, reached in O(Σ |watchers|) instead of O(|P|).
  for (PredicateId pred : delta.plus_changed) {
    const std::vector<int>& watchers = PlusWatchers(pred);
    rules.insert(rules.end(), watchers.begin(), watchers.end());
  }
  for (PredicateId pred : delta.minus_changed) {
    const std::vector<int>& watchers = MinusWatchers(pred);
    rules.insert(rules.end(), watchers.begin(), watchers.end());
  }
  std::sort(rules.begin(), rules.end());
  rules.erase(std::unique(rules.begin(), rules.end()), rules.end());
}

std::vector<int> RuleDependencyGraph::ConeRules(
    const std::vector<PredicateId>& plus_preds,
    const std::vector<PredicateId>& minus_preds) const {
  std::vector<char> in_cone(size(), 0);
  std::vector<int> frontier;
  auto wake = [&](const WatcherIndex& index, PredicateId pred) {
    for (int r : Watchers(index, pred)) {
      if (!in_cone[static_cast<size_t>(r)]) {
        in_cone[static_cast<size_t>(r)] = 1;
        frontier.push_back(r);
      }
    }
  };
  for (PredicateId pred : plus_preds) wake(plus_watchers_, pred);
  for (PredicateId pred : minus_preds) wake(minus_watchers_, pred);
  // BFS: a woken rule's head mark wakes that polarity's watchers, exactly
  // as the runtime scheduler would.
  for (size_t i = 0; i < frontier.size(); ++i) {
    const auto& [action, pred] = heads_[static_cast<size_t>(frontier[i])];
    wake(action == ActionKind::kInsert ? plus_watchers_ : minus_watchers_,
         pred);
  }
  std::sort(frontier.begin(), frontier.end());
  return frontier;
}

}  // namespace park

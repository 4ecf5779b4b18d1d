// The static rule/predicate dependency graph behind delta-driven Γ
// scheduling (docs/SCHEDULER.md).
//
// Built once per program (an ActiveDatabase keeps it across commits):
// for every rule, which predicates its body WATCHES — split by the
// polarity of the marks that can wake it (positive and +event literals
// gain witnesses from new `+` marks; negated and -event literals from
// new `-` marks, see engine/consequence.h) — and which predicate its
// head WRITES. Inverting
// the watch relation gives the per-predicate watcher index the scheduler
// uses to turn a Γ step's delta into its affected rule set in
// O(|changed predicates|) instead of an O(|P|) all-rules RuleIsAffected
// scan per step.
//
// Following each rule's head write to the watchers of its polarity gives
// the static dependency cone of an update set (ConeRules). Scheduling
// NEVER changes results: the affected set equals RuleIsAffected's by
// construction (rule_graph_test).

#ifndef PARK_ENGINE_RULE_GRAPH_H_
#define PARK_ENGINE_RULE_GRAPH_H_

#include <vector>

#include "engine/consequence.h"
#include "lang/ast.h"

namespace park {

/// Immutable dependency analysis of one Program; it keeps no reference to
/// the program, and also serves P extended with body-less rules, which
/// watch nothing. Thread-compatible: built on the coordinator, read-only
/// afterwards (workers never touch it).
class RuleDependencyGraph {
 public:
  explicit RuleDependencyGraph(const Program& program);

  size_t size() const { return heads_.size(); }

  /// Rules with a body literal that gains witnesses from new `+` (resp.
  /// `-`) marks of `predicate`, ascending. Empty for unwatched predicates.
  const std::vector<int>& PlusWatchers(PredicateId predicate) const;
  const std::vector<int>& MinusWatchers(PredicateId predicate) const;

  /// Replaces `rules` with the affected rules of a semi-naive Γ section,
  /// ascending (= program order): gathered through the watcher index, and
  /// identical by construction to {r : RuleIsAffected(r, delta)}. The
  /// caller's buffer is reused, so a warm Δ loop allocates nothing here.
  void Schedule(const DeltaState& delta, std::vector<int>& rules) const;

  /// Every rule transitively reachable from marks of the given polarities:
  /// the closure of the watcher wake-up relation starting from `+` marks
  /// of plus_preds and `-` marks of minus_preds, following each woken
  /// rule's head write to its own watchers. Ascending rule indexes. This
  /// is the static dependency CONE of an update set — incremental
  /// maintenance (docs/INCREMENTAL.md) reports its size and uses it to
  /// bound what a commit can touch.
  std::vector<int> ConeRules(const std::vector<PredicateId>& plus_preds,
                             const std::vector<PredicateId>& minus_preds)
      const;

 private:
  /// Watcher lists by predicate id, like WarmState's head signs:
  /// predicate ids are dense, and an id past the end has no watchers.
  using WatcherIndex = std::vector<std::vector<int>>;

  const std::vector<int>& Watchers(const WatcherIndex& index,
                                   PredicateId predicate) const;

  WatcherIndex plus_watchers_;
  WatcherIndex minus_watchers_;
  /// Per-rule head write (action polarity + predicate), for cone BFS.
  std::vector<std::pair<ActionKind, PredicateId>> heads_;
  std::vector<int> empty_;
};

}  // namespace park

#endif  // PARK_ENGINE_RULE_GRAPH_H_

// The static rule/predicate dependency graph behind delta-driven Γ
// scheduling (docs/SCHEDULER.md).
//
// Built once per (program, evaluation): for every rule, which predicates
// its body WATCHES — split by the polarity of the marks that can wake it
// (positive and +event literals gain witnesses from new `+` marks;
// negated and -event literals from new `-` marks, see
// engine/consequence.h) — and which predicate its head WRITES. Inverting
// the watch relation gives the per-predicate watcher index the scheduler
// uses to turn a Γ step's delta into its affected rule set in
// O(|changed predicates|) instead of an O(|P|) all-rules RuleIsAffected
// scan per step.
//
// On top of the same edges (rule r feeds rule s iff r's head write is
// watched by s's body) the graph condenses strongly connected components
// and assigns each rule a STRATUM: the longest feed path from any source
// component to the rule's component. Rules in one stratum never feed each
// other through rules of later strata, so a Γ section's affected set
// partitions into strata-ordered stages, reported as the section's
// pipeline_stages counter. Scheduling NEVER changes results: the affected
// set equals RuleIsAffected's by construction (rule_graph_test).

#ifndef PARK_ENGINE_RULE_GRAPH_H_
#define PARK_ENGINE_RULE_GRAPH_H_

#include <unordered_map>
#include <vector>

#include "engine/consequence.h"
#include "lang/ast.h"

namespace park {

/// One Γ section's schedule: the affected rules (program order — exactly
/// the set a RuleIsAffected scan would select) plus their partition into
/// strata-ordered stages.
struct GammaSchedule {
  /// Affected rule indexes, ascending (= program order).
  std::vector<int> rules;
  /// Stage partition of `rules`: stages in ascending stratum order, each
  /// stage's rules in program order. Empty when `rules` is empty;
  /// size() == 1 when every affected rule shares one stratum.
  std::vector<std::vector<int>> stages;
};

/// Immutable dependency analysis of one Program. The program must outlive
/// the graph. Thread-compatible: built on the coordinator, read-only
/// afterwards (workers never touch it).
class RuleDependencyGraph {
 public:
  explicit RuleDependencyGraph(const Program& program);

  size_t size() const { return stratum_.size(); }

  /// Rules with a body literal that gains witnesses from new `+` (resp.
  /// `-`) marks of `predicate`, ascending. Empty for unwatched predicates.
  const std::vector<int>& PlusWatchers(PredicateId predicate) const;
  const std::vector<int>& MinusWatchers(PredicateId predicate) const;

  /// Stratum of `rule_index` (0-based level in the condensation's longest-
  /// path layering; rules of one SCC share a stratum).
  int stratum(int rule_index) const {
    return stratum_[static_cast<size_t>(rule_index)];
  }
  /// Number of distinct strata (0 for the empty program).
  size_t num_strata() const { return num_strata_; }
  /// Strongly connected components of the rule feed graph (recursive rule
  /// clusters collapse to one component each).
  size_t num_sccs() const { return num_sccs_; }
  /// Distinct rule → rule feed edges (self-loops included).
  size_t num_edges() const { return num_edges_; }

  /// The schedule for a semi-naive Γ section: affected rules gathered
  /// through the watcher index (identical, by construction, to the set
  /// {r : RuleIsAffected(r, delta)}), partitioned into stages by stratum.
  GammaSchedule Schedule(const DeltaState& delta) const;

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
  /// Partitions an affected set (ascending rule indexes) into
  /// strata-ordered stages.
  std::vector<std::vector<int>> StagesFor(
      const std::vector<int>& rules) const;

  using WatcherIndex = std::unordered_map<PredicateId, std::vector<int>>;

  const std::vector<int>& Watchers(const WatcherIndex& index,
                                   PredicateId predicate) const;

  WatcherIndex plus_watchers_;
  WatcherIndex minus_watchers_;
  /// Per-rule head write (action polarity + predicate), for cone BFS.
  std::vector<std::pair<ActionKind, PredicateId>> heads_;
  std::vector<int> stratum_;  // per rule index
  size_t num_strata_ = 0;
  size_t num_sccs_ = 0;
  size_t num_edges_ = 0;
  std::vector<int> empty_;
};

}  // namespace park

#endif  // PARK_ENGINE_RULE_GRAPH_H_

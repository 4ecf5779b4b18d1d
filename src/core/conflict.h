// Conflicts (paper §4.2): a conflict is a maximal triple (a, ins, del)
// where `a` is a ground atom, `ins` is the set of rule groundings with
// valid bodies commanding +a, and `del` the set commanding -a.
//
// Conflicts are built from a Γ derivation list ("one step into the
// future"), restricted to non-blocked instances, and augmented with the
// provenance of marked atoms already in I — see DESIGN.md §2 for why both
// refinements are necessary and faithful, and why the semi-naive section
// of the inconsistent step is as good a list as the full Γ.

#ifndef PARK_CORE_CONFLICT_H_
#define PARK_CORE_CONFLICT_H_

#include <string>
#include <vector>

#include "engine/consequence.h"

namespace park {

/// How much of `conflicts(P, I)` is blocked per resolution round.
enum class BlockGranularity {
  /// Block the losing side of every conflict found in the round — the
  /// paper's main definition of `blocked(D, P, I, SELECT)`.
  kAllConflicts,
  /// Block the losing side of only the first conflict (atom-sorted), then
  /// restart — the paper's §4.2 refinement ("include only a non-empty part
  /// of conflicts into blocked"), which avoids blocking instances that
  /// later rounds would never find in conflict. More restarts, fewer
  /// unnecessarily blocked instances.
  ///
  /// "First" is the smallest clashing atom by GroundAtom order, which
  /// compares interned predicate and symbol ids, not names. Ids are handed
  /// out where a predicate or constant first appears in the rule and fact
  /// text, so reordering that text (even adding an inert rule in front)
  /// can change which conflict is resolved first, hence B and the number
  /// of restarts. The paper leaves the choice open; this order is kept.
  kFirstConflictOnly,
};

/// One conflict triple (a, ins, del). Both sides are non-empty, sorted,
/// and duplicate-free.
struct Conflict {
  GroundAtom atom;
  std::vector<RuleGrounding> inserters;  // the paper's `ins`
  std::vector<RuleGrounding> deleters;   // the paper's `del`

  /// "q(a): ins={(r1, [x <- a])} del={(r2, [x <- a])}"
  std::string ToString(const Program& program,
                       const SymbolTable& symbols) const;

  friend bool operator==(const Conflict&, const Conflict&) = default;
};

/// Builds conflicts(P, I) from the Γ section `gamma` computed against
/// `interp`: the full Γ, or the semi-naive section of a step of the
/// current round (DESIGN.md §2). One Conflict per clashing atom, sorted by
/// atom for determinism; with kFirstConflictOnly, only the smallest
/// clashing atom's. The clash-scope derivations are grouped by
/// (conflict, side) in one counting pass over the thread's flat atom
/// table; each group is sorted by (rule, binding) straight from the
/// section's arena, and its groundings are copied once, merged with the
/// atom's provenance where it has any (docs/SEMANTICS.md "Conflicts").
std::vector<Conflict> BuildConflicts(
    GammaResult gamma, const IInterpretation& interp,
    BlockGranularity granularity = BlockGranularity::kAllConflicts);

}  // namespace park

#endif  // PARK_CORE_CONFLICT_H_

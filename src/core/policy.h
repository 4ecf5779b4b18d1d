// Conflict-resolution policies — the SELECT parameter of the PARK
// semantics.
//
// A policy maps (D, P, I, conflict) to a resolution. The paper requires
// the inference engine and the policy to be independent components; here
// the policy is an abstract interface passed into the evaluator, and the
// engine treats it as an oracle.
//
// Policies vote kInsert (keep the insertion, block the deleting
// instances), kDelete (the reverse), or kAbstain (no opinion — meaningful
// inside composite/voting policies; the top-level policy handed to the
// evaluator must decide, so an abstention there aborts evaluation with a
// status error). A policy may also fail (e.g. an interactive policy whose
// user hangs up); failures propagate out of the evaluator as-is.

#ifndef PARK_CORE_POLICY_H_
#define PARK_CORE_POLICY_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/conflict.h"

namespace park {

/// A policy's opinion on one conflict.
enum class Vote {
  kInsert,   // perform the insertion; suppress (block) the deleters
  kDelete,   // perform the deletion; suppress (block) the inserters
  kAbstain,  // no opinion; defer to the next policy in a chain
};

const char* VoteToString(Vote vote);

/// Everything a policy may inspect: the original database instance D, the
/// running program P (with transaction-update seed rules, if any), the
/// current i-interpretation I, and where the computation stands.
struct PolicyContext {
  const Database& database;            // D — the original instance
  const Program& program;              // P (or P_U)
  /// I, the current state. Its provenance (IInterpretation::Provenance,
  /// a range of GroundingViews valid until the restart) is present for
  /// the predicates with heads of both signs in the program, which
  /// include every conflict's atom, and for all predicates under
  /// ParkOptions::record_provenance.
  const IInterpretation& interpretation;
  int restart_count = 0;               // conflict-resolution rounds so far
};

/// The SELECT function. Implementations must be deterministic functions of
/// their inputs (plus any explicit seed/state they were constructed with);
/// the unambiguous-semantics guarantee of PARK is relative to that.
class ConflictResolutionPolicy {
 public:
  virtual ~ConflictResolutionPolicy() = default;

  /// Short identifier used in traces and bench tables ("inertia", ...).
  virtual std::string_view name() const = 0;

  /// Resolves one conflict. See Vote for the meaning of the result. The
  /// conflict's sides (`conflict.inserters()`, `conflict.deleters()`)
  /// are ranges of GroundingViews with `rule_index()` and `binding()`;
  /// copy a grounding into a RuleGrounding to keep it past the conflict.
  virtual Result<Vote> Select(const PolicyContext& context,
                              const Conflict& conflict) = 0;
};

using PolicyPtr = std::shared_ptr<ConflictResolutionPolicy>;

/// Wraps a callable as a policy; the simplest way to express bespoke
/// application strategies (e.g. the custom SELECT of the paper's §4.2
/// graph example).
PolicyPtr MakeLambdaPolicy(
    std::string name,
    std::function<Result<Vote>(const PolicyContext&, const Conflict&)> fn);

/// Renders a human-readable description of a conflict, used by interactive
/// policies and traces.
std::string DescribeConflict(const PolicyContext& context,
                             const Conflict& conflict);

// --- Policy factories (one .cc per strategy under core/policies/) ---

/// The principle of inertia (§4.1): conflicting actions cancel out and the
/// atom keeps its status from the original database D — vote kInsert iff
/// the atom is in D.
PolicyPtr MakeInertiaPolicy();

/// Rule priority (§5; Ariel/Postgres/Starburst style): the side containing
/// the highest-priority rule wins. A rule's priority is its `[prio=N]`
/// annotation, defaulting to its 1-based position in the program (the
/// paper's "rule ri has priority i"). Ties abstain.
PolicyPtr MakeRulePriorityPolicy();

/// Specificity (§5): the side whose most specific rule wins, where a
/// rule's specificity is (number of body literals, number of constant
/// arguments in the body) compared lexicographically. Incomparable or
/// equal specificity abstains — the paper notes this principle "is not a
/// complete conflict resolution strategy" and must be combined.
PolicyPtr MakeSpecificityPolicy();

/// Random (§5): votes kInsert with probability 1/2 from a deterministic
/// seeded stream, so a run is reproducible given the seed.
PolicyPtr MakeRandomPolicy(uint64_t seed);

/// Constant policies: always insert / always delete.
PolicyPtr MakeAlwaysInsertPolicy();
PolicyPtr MakeAlwaysDeletePolicy();

/// Interactive (§5): delegates to `ask`, which typically renders
/// DescribeConflict and queries a human. See MakeStreamInteractivePolicy
/// in policies/interactive for a ready-made stdin/stdout loop.
PolicyPtr MakeInteractivePolicy(
    std::function<Result<Vote>(const PolicyContext&, const Conflict&)> ask);

/// Interactive over iostreams: prints the conflict to `out` and reads
/// "i"/"insert", "d"/"delete" or "a"/"abstain" lines from `in`.
PolicyPtr MakeStreamInteractivePolicy(std::istream& in, std::ostream& out);

/// Voting (§5): each critic votes; the strict majority of non-abstaining
/// critics wins, otherwise the vote is kAbstain.
PolicyPtr MakeVotingPolicy(std::vector<PolicyPtr> critics);

/// Composite: asks each policy in order and returns the first non-abstain
/// vote; abstains if all abstain. The idiomatic complete strategy is e.g.
///   MakeCompositePolicy({MakeSpecificityPolicy(), MakeInertiaPolicy()}).
PolicyPtr MakeCompositePolicy(std::vector<PolicyPtr> policies);

/// Table-driven per-predicate resolution — the paper's "flexible conflict
/// resolution ... may depend critically upon the atom in question" as a
/// reusable policy: conflicts over a predicate listed in `bias` resolve to
/// the associated vote; others abstain. Keys are predicate names (any
/// arity of that name matches).
PolicyPtr MakePredicateBiasPolicy(
    std::unordered_map<std::string, Vote> bias);

/// Integrity protection: conflicts over any predicate in `protected_names`
/// resolve to kInsert (the deletion is suppressed); everything else
/// abstains. Chain before a general-purpose fallback to make a set of
/// relations effectively delete-proof against rule conflicts.
PolicyPtr MakeProtectedPredicatesPolicy(
    std::vector<std::string> protected_names);

/// Source reliability — §5's source-based critic: rules carry `[src=N]`
/// annotations; `reliability` maps source ids to trust scores (higher
/// wins; unannotated rules and unmapped sources score
/// `default_reliability`). The side containing the most reliable rule
/// wins; ties abstain.
PolicyPtr MakeSourceReliabilityPolicy(
    std::unordered_map<int, int> reliability, int default_reliability = 0);

}  // namespace park

#endif  // PARK_CORE_POLICY_H_

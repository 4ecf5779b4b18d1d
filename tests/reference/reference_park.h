// ReferencePark: PARK(D, P, U) computed the way §4.2/§4.3 and DESIGN.md §2
// write it down, for differential testing of the engine.
//
// It grounds P_U = P ∪ {→ ±a | ±a ∈ U} over the active domain and iterates
// Δ on plain ordered sets: Γ(P,B)(I) checks every ground body literal by
// literal, conflicts are the clashing atoms of Γ(P,B)(I) with both
// documented completions (blocked instances excluded, sides augmented by
// the provenance of marks already in I), SELECT decides through the
// caller's policy, the losing sides join B, and I restarts from I°.
//
// It shares the parser, the AST, the value types and the SELECT interface
// with the engine, and nothing of the evaluation machinery: no plans,
// indexes, scheduler, thread pool, or IInterpretation validity.
// The one engine type it builds is the IInterpretation a PolicyContext
// carries, filled from the reference's own sets just before each Select.
// It is exponential in the number of rule variables and meant for small
// inputs only.

#ifndef PARK_TESTS_REFERENCE_REFERENCE_PARK_H_
#define PARK_TESTS_REFERENCE_REFERENCE_PARK_H_

#include <set>
#include <string>
#include <vector>

#include "core/park_evaluator.h"
#include "core/policy.h"
#include "lang/ast.h"
#include "storage/database.h"

namespace park {
namespace reference {

/// What the reference computes for one PARK(D, P, U).
struct ReferenceRun {
  /// incorp(I) at the fixpoint.
  std::set<GroundAtom> database;
  /// The final blocked set B, rendered and sorted like ParkResult::blocked.
  std::vector<std::string> blocked;
  /// Conflict-resolution rounds (Δ's second case).
  size_t restarts = 0;
  /// Consistent Γ applications that added a mark.
  size_t gamma_steps = 0;
  /// Every marked atom of the fixpoint with the groundings that derived it
  /// in the final round, rendered "+q(a) <- (r1, [X <- a]), ..." and
  /// sorted; the same content as ParkResult::provenance.
  std::vector<std::string> provenance;
  /// |B| after each restart, in order (Theorem 4.1: strictly growing).
  std::vector<size_t> blocked_sizes;
  /// The number of ground instances of P_U over the active domain, the
  /// bound Theorem 4.1 puts on `restarts`.
  size_t ground_instances = 0;
  /// Whether I at the fixpoint holds no atom marked both ways.
  bool consistent = true;
};

/// Computes PARK(D, P, U) by definition. `program` and `db` share a
/// symbol table. Errors as Park(): kAborted when the policy abstains or a
/// resolution blocks nothing new, or the policy's own failure.
Result<ReferenceRun> ReferencePark(const Database& db, const Program& program,
                                   const std::vector<Update>& updates,
                                   const PolicyPtr& policy,
                                   BlockGranularity granularity);

}  // namespace reference
}  // namespace park

#endif  // PARK_TESTS_REFERENCE_REFERENCE_PARK_H_

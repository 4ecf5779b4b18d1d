// FixpointMaintainer: the INV fast path of the commit path
// (docs/INCREMENTAL.md).
//
// PARK's principle of inertia makes within-commit deletions non-cascading
// (a `-` mark never invalidates a positive body literal — see
// IInterpretation::IsValid), so the classical DRed over-delete cone of an
// eligible base-fact delete is the atom itself. What remains of
// over-delete/re-derive is the RE-DERIVE half: when the stored database is
// known to be RULE-STABLE (running the rules with no updates would change
// nothing — the invariant INV, established by any conflict-free full
// commit), a new commit's effect is exactly the semi-naive closure seeded
// from U over the stored instance — bit-identical to the from-scratch
// PARK(D, P, U) (proved in docs/INCREMENTAL.md, checked against the
// reference evaluator by differential_test) at cost proportional to |U|
// and its cone instead of |D|.
//
// The maintainer owns no evaluation state. It tracks INV and the static
// gate of the program, and decides per commit whether ActiveDatabase runs
// its one ParkStepper as that seeded closure over P or as the unseeded
// run over P_U. Anything outside the proof obligations takes the unseeded
// run: programs with delete heads or event/negation feedback onto derived
// predicates, commits that delete derived predicates or carry an atom
// with both signs, armed governance / tracing / provenance / observers,
// a closure that meets a conflict, and any commit before INV is
// (re-)established. Fallbacks are transparent and counted
// (ParkStats::maint_full_recompute_fallbacks).

#ifndef PARK_CORE_MAINTENANCE_H_
#define PARK_CORE_MAINTENANCE_H_

#include <unordered_set>
#include <vector>

#include "core/park_evaluator.h"
#include "engine/rule_graph.h"

namespace park {

/// One per ActiveDatabase. Not thread-safe (commits are already
/// serialized by the owner: directly for a bare ActiveDatabase, by the
/// group-commit leader for a Session).
class FixpointMaintainer {
 public:
  /// Whether PARK(D, P, U) may run as the seeded closure over P with U as
  /// seeds: INV holds and the static, options and dynamic gates pass.
  bool Admits(const Program& program, const std::vector<Update>& updates,
              const ParkOptions& options);

  /// Fills the maintenance block of a commit's stats: a commit the seeded
  /// closure served (`maintained`, with `graph` the state's dependency
  /// graph of P and `deleted` the size of its delete list), or one that
  /// fell back to the unseeded run.
  void RecordCommit(bool maintained, const std::vector<Update>& updates,
                    const RuleDependencyGraph& graph, size_t deleted,
                    ParkStats& stats) const;

  /// Reports a full (unseeded) commit whose result database has been
  /// durably installed. `conflict_free` means the run ended with no
  /// blocked instances and no restarts — INV is established iff that
  /// holds and the program passes the static gate; otherwise cleared.
  void NoteFullCommit(const Program& program, bool conflict_free);

  /// Drops INV and the static gate analysis: rules, facts, or options
  /// changed underneath the maintained state. The next commit falls back
  /// to the full evaluator and re-establishes INV from its result.
  void Invalidate();

  /// Whether the stored database is currently known rule-stable (INV).
  bool stable() const { return stable_; }

 private:
  /// Runs the static gate over `program` unless it already has since the
  /// last Invalidate().
  void Analyze(const Program& program);

  // --- static gate analysis of the program (valid while analyzed_) ---
  bool analyzed_ = false;
  bool static_eligible_ = false;
  std::unordered_set<PredicateId> head_preds_;

  /// INV: PARK(D, P, ∅).database == D for the CURRENT stored instance.
  bool stable_ = false;
};

}  // namespace park

#endif  // PARK_CORE_MAINTENANCE_H_

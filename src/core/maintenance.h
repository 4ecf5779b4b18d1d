// FixpointMaintainer: incremental maintenance of the materialized PARK
// fixpoint across commits (docs/INCREMENTAL.md).
//
// PARK's principle of inertia makes within-commit deletions non-cascading
// (a `-` mark never invalidates a positive body literal — see
// IInterpretation::IsValid), so the classical DRed over-delete cone of an
// eligible base-fact delete is the atom itself. What remains of
// over-delete/re-derive is the RE-DERIVE half: when the stored database is
// known to be RULE-STABLE (running the rules with no updates would change
// nothing — the invariant INV, established by any conflict-free full
// commit), a new commit's effect is exactly the semi-naive closure seeded
// from U over the stored instance. The maintainer tracks INV, checks the
// eligibility gates, runs that seeded closure as a seeded ParkStepper
// (the engine's one Δ loop) over the warm caches it keeps across commits
// (dependency graph, plan cache, thread pool), and hands back the
// commit's diff — bit-identical to the from-scratch PARK(D, P, U) (proved
// in docs/INCREMENTAL.md, checked against the reference evaluator by
// differential_test) at cost proportional to |U| and its cone instead of
// |D|.
//
// Anything outside the proof obligations falls back to the full
// evaluator: programs with delete heads or event/negation feedback onto
// derived predicates, commits that delete derived predicates or insert
// into negated ones, conflicts discovered mid-closure, armed governance /
// tracing / provenance / observers, and any commit before INV is
// (re-)established. Fallbacks are transparent and counted
// (ParkStats::maint_full_recompute_fallbacks).

#ifndef PARK_CORE_MAINTENANCE_H_
#define PARK_CORE_MAINTENANCE_H_

#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "core/park_evaluator.h"
#include "engine/consequence.h"
#include "engine/matcher.h"
#include "engine/rule_graph.h"

namespace park {

/// One per ActiveDatabase. Not thread-safe (commits are already
/// serialized by the owner: directly for a bare ActiveDatabase, by the
/// group-commit leader for a Session).
class FixpointMaintainer {
 public:
  /// Serves PARK(D, P, U) incrementally if every gate passes; returns
  /// nullopt (database untouched, INV flag untouched) when the commit
  /// must go through the full evaluator. On success the result holds the
  /// exact diff ParkDiff would report (both lists sorted the same way)
  /// and the evaluation stats with the maintenance block filled; its
  /// trace is empty. `db` is read, never written — the caller applies
  /// the diff, journals, and keeps its rollback semantics.
  std::optional<ParkDiffResult> TryCommit(
      const Database& db, const Program& program,
      const std::vector<Update>& updates, const ParkOptions& options);

  /// Reports a full (from-scratch) commit whose result database has been
  /// durably installed. `conflict_free` means the run ended with no
  /// blocked instances and no restarts — INV is established iff that
  /// holds and the program passes the static gate; otherwise cleared.
  void NoteFullCommit(const Program& program, const ParkOptions& options,
                      bool conflict_free);

  /// Drops INV and every binding: rules, facts, or options changed
  /// underneath the maintained state. The next commit falls back to the
  /// full evaluator and re-establishes INV from its result.
  void Invalidate();

  /// Whether the stored database is currently known rule-stable (INV).
  bool stable() const { return stable_; }

 private:
  /// (Re)binds the warm caches to (program, options) — dependency graph,
  /// plan cache, parallel pool, static gate analysis — rebuilding only
  /// what the changed knobs require. Drops INV when the program identity
  /// changed without an Invalidate() call.
  void EnsureBound(const Program& program, const ParkOptions& options);

  // --- binding (valid while bound_program_ matches) ---
  const Program* bound_program_ = nullptr;
  size_t bound_rule_count_ = 0;
  int bound_threads_ = 1;            // resolved
  size_t bound_slice_ = 0;
  std::optional<RuleDependencyGraph> graph_;
  std::optional<PlanCache> plans_;
  // unique_ptr, not optional: ParallelGamma owns a thread pool and is
  // immovable, but the maintainer must move with its ActiveDatabase.
  std::unique_ptr<ParallelGamma> parallel_;

  // --- static gate analysis of the bound program ---
  bool static_eligible_ = false;
  std::unordered_set<PredicateId> head_preds_;
  std::unordered_set<PredicateId> negated_preds_;

  /// INV: PARK(D, P, ∅).database == D for the CURRENT stored instance.
  bool stable_ = false;
};

}  // namespace park

#endif  // PARK_CORE_MAINTENANCE_H_

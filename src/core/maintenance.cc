#include "core/maintenance.h"

namespace park {

void FixpointMaintainer::Invalidate() {
  stable_ = false;
  analyzed_ = false;
  static_eligible_ = false;
  head_preds_.clear();
}

void FixpointMaintainer::Analyze(const Program& program) {
  if (analyzed_) return;
  analyzed_ = true;
  // Static gate (docs/INCREMENTAL.md): (1) every head inserts — delete
  // heads make the stabilized instance a moving target; (2) no event or
  // negated body literal reads a predicate some head writes — those
  // literal kinds are satisfied by MARKS, and a from-scratch run marks
  // every derived atom while the seeded closure marks only the cone, so
  // feedback through them could fire rules the closure never sees.
  static_eligible_ = true;
  for (const Rule& rule : program.rules()) {
    if (rule.head().action != ActionKind::kInsert) static_eligible_ = false;
    head_preds_.insert(rule.head().atom.predicate);
  }
  for (const Rule& rule : program.rules()) {
    for (const BodyLiteral& lit : rule.body()) {
      if (lit.kind != LiteralKind::kPositive &&
          head_preds_.count(lit.atom.predicate) > 0) {
        static_eligible_ = false;
      }
    }
  }
}

void FixpointMaintainer::NoteFullCommit(const Program& program,
                                        bool conflict_free) {
  Analyze(program);
  // INV holds after a conflict-free full run of a gated program: the run
  // ended at a Γ fixpoint, so every rule body valid over the pure result
  // instance had fired and its (insert) head is already stored — a
  // stabilize run would be a no-op. Blocked instances or restarts break
  // the argument (a blocked grounding could re-fire in a fresh run).
  stable_ = static_eligible_ && conflict_free;
}

bool FixpointMaintainer::Admits(const Program& program,
                                const std::vector<Update>& updates,
                                const ParkOptions& options) {
  Analyze(program);
  if (!stable_ || !static_eligible_) return false;
  // Options gate: the seeded closure produces no trace, provenance, or
  // per-step observer events, and its governance would charge the cone
  // alone — when any of those is armed the commit needs the full run.
  if (options.trace_level != TraceLevel::kNone || options.record_provenance ||
      options.observer != nullptr || options.deadline_ms > 0 ||
      options.cancel != nullptr || options.max_memory_bytes > 0 ||
      options.max_derivations > 0) {
    return false;
  }
  // Dynamic gate over U: (3) no atom updated with both signs (that is a
  // guaranteed conflict — let the policy machinery handle it); (4) no
  // delete of a predicate some head writes (the closure would have to
  // re-derive into the deletion — exactly the degenerate DRed case,
  // docs/INCREMENTAL.md). Inserts into negated predicates need no gate:
  // the static gate keeps them off head predicates, and the proof in
  // docs/INCREMENTAL.md shows the full run's extra firings are inert.
  std::unordered_set<GroundAtom, GroundAtomHash> plus_seen;
  std::unordered_set<GroundAtom, GroundAtomHash> minus_seen;
  for (const Update& u : updates) {
    const bool insert = u.action == ActionKind::kInsert;
    if ((insert ? minus_seen : plus_seen).count(u.atom) > 0) return false;
    (insert ? plus_seen : minus_seen).insert(u.atom);
    if (!insert && head_preds_.count(u.atom.predicate()) > 0) return false;
  }
  return true;
}

void FixpointMaintainer::RecordCommit(bool maintained,
                                      const std::vector<Update>& updates,
                                      const RuleDependencyGraph& graph,
                                      size_t deleted,
                                      ParkStats& stats) const {
  stats.maintenance_mode = MaintenanceMode::kIncremental;
  if (!maintained) {
    stats.maint_full_recompute_fallbacks = 1;
    return;
  }
  std::unordered_set<GroundAtom, GroundAtomHash> plus_seen;
  std::unordered_set<GroundAtom, GroundAtomHash> minus_seen;
  std::vector<PredicateId> plus_preds;
  std::vector<PredicateId> minus_preds;
  for (const Update& u : updates) {
    const bool insert = u.action == ActionKind::kInsert;
    if ((insert ? plus_seen : minus_seen).insert(u.atom).second) {
      (insert ? plus_preds : minus_preds).push_back(u.atom.predicate());
    }
  }
  stats.maint_commits = 1;
  // The closure counts U's own marks in derived_marks; the rest it
  // derived.
  stats.maint_atoms_rederived =
      stats.derived_marks - (plus_seen.size() + minus_seen.size());
  stats.maint_atoms_overdeleted = deleted;
  stats.maint_cone_rules = graph.ConeRules(plus_preds, minus_preds).size();
}

}  // namespace park

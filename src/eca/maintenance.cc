#include "eca/maintenance.h"

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
                                const UpdateSet& updates,
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
  // U is duplicate-free per sign, so an atom with both signs is a delete
  // that U also inserts.
  for (const Update& u : updates.updates()) {
    if (u.action == ActionKind::kInsert) continue;
    if (head_preds_.count(u.atom.predicate()) > 0) return false;
    if (updates.Contains(ActionKind::kInsert, u.atom)) return false;
  }
  return true;
}

void FixpointMaintainer::RecordCommit(bool maintained,
                                      const UpdateSet& updates,
                                      const RuleDependencyGraph& graph,
                                      size_t deleted,
                                      ParkStats& stats) const {
  stats.maintenance_mode = MaintenanceMode::kIncremental;
  if (!maintained) {
    stats.maint_full_recompute_fallbacks = 1;
    return;
  }
  std::vector<PredicateId> plus_preds;
  std::vector<PredicateId> minus_preds;
  for (const Update& u : updates.updates()) {
    (u.action == ActionKind::kInsert ? plus_preds : minus_preds)
        .push_back(u.atom.predicate());
  }
  stats.maint_commits = 1;
  // The closure counts U's own marks in derived_marks; the rest it
  // derived. U is duplicate-free per sign, and a maintained U has no
  // atom with both signs, so each update is one mark.
  stats.maint_atoms_rederived = stats.derived_marks - updates.size();
  stats.maint_atoms_overdeleted = deleted;
  stats.maint_cone_rules = graph.ConeRules(plus_preds, minus_preds).size();
}

}  // namespace park

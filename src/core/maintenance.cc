#include "core/maintenance.h"

#include <memory>

#include "core/run_stats.h"
#include "core/stepper.h"
#include "util/thread_pool.h"

namespace park {

void FixpointMaintainer::Invalidate() {
  stable_ = false;
  bound_program_ = nullptr;
  bound_rule_count_ = 0;
  graph_.reset();
  plans_.reset();
  parallel_.reset();
  static_eligible_ = false;
  head_preds_.clear();
  negated_preds_.clear();
}

void FixpointMaintainer::EnsureBound(const Program& program,
                                     const ParkOptions& options) {
  const bool program_changed =
      bound_program_ != &program || bound_rule_count_ != program.size();
  if (program_changed) {
    // A program identity change without an Invalidate() call (e.g. the
    // owning ActiveDatabase was moved) drops INV too: the flag describes
    // a (database, program) pair, and we can no longer vouch for it.
    Invalidate();
    bound_program_ = &program;
    bound_rule_count_ = program.size();

    // Static gate (docs/INCREMENTAL.md): (1) every head inserts — delete
    // heads make the stabilized instance a moving target; (2) no event or
    // negated body literal reads a predicate some head writes — those
    // literal kinds are satisfied by MARKS, and a from-scratch run marks
    // every derived atom while the seeded closure marks only the cone, so
    // feedback through them could fire rules the closure never sees.
    static_eligible_ = true;
    for (const Rule& rule : program.rules()) {
      if (rule.head().action != ActionKind::kInsert) {
        static_eligible_ = false;
      }
      head_preds_.insert(rule.head().atom.predicate);
    }
    for (const Rule& rule : program.rules()) {
      for (const BodyLiteral& lit : rule.body()) {
        if (lit.kind == LiteralKind::kNegated) {
          negated_preds_.insert(lit.atom.predicate);
        }
        if (lit.kind != LiteralKind::kPositive &&
            head_preds_.count(lit.atom.predicate) > 0) {
          static_eligible_ = false;
        }
      }
    }
  }
  if (!graph_.has_value()) graph_.emplace(program);
  if (!plans_.has_value()) plans_.emplace(program);
  const int threads = ResolveNumThreads(options.num_threads);
  if (threads > 1) {
    if (parallel_ == nullptr || bound_threads_ != threads ||
        bound_slice_ != options.min_slice_size) {
      parallel_ =
          std::make_unique<ParallelGamma>(threads, options.min_slice_size);
      bound_threads_ = threads;
      bound_slice_ = options.min_slice_size;
    }
    // Follows each commit's options: a pool kept across commits must not
    // keep the timing setting of the commit that built it.
    parallel_->SetTiming(options.collect_timings);
  } else {
    parallel_.reset();
    bound_threads_ = 1;
  }
}

void FixpointMaintainer::NoteFullCommit(const Program& program,
                                        const ParkOptions& options,
                                        bool conflict_free) {
  EnsureBound(program, options);
  // INV holds after a conflict-free full run of a gated program: the run
  // ended at a Γ fixpoint, so every rule body valid over the pure result
  // instance had fired and its (insert) head is already stored — a
  // stabilize run would be a no-op. Blocked instances or restarts break
  // the argument (a blocked grounding could re-fire in a fresh run).
  stable_ = static_eligible_ && conflict_free;
}

std::optional<ParkDiffResult> FixpointMaintainer::TryCommit(
    const Database& db, const Program& program,
    const std::vector<Update>& updates, const ParkOptions& options) {
  EnsureBound(program, options);
  if (!stable_ || !static_eligible_) return std::nullopt;
  // Options gate: the incremental path produces no trace, provenance, or
  // per-step observer events, and skips governance polling — when any of
  // those is armed the caller needs the full evaluator's behavior.
  if (options.trace_level != TraceLevel::kNone || options.record_provenance ||
      options.observer != nullptr || options.deadline_ms > 0 ||
      options.cancel != nullptr || options.max_memory_bytes > 0 ||
      options.max_derivations > 0) {
    return std::nullopt;
  }

  // Dynamic gate over U: (3) no atom updated with both signs (that is a
  // guaranteed conflict — let the policy machinery handle it); (4) no
  // delete of a predicate some head writes (the closure would have to
  // re-derive into the deletion — exactly the degenerate DRed case,
  // docs/INCREMENTAL.md); (5) no insert into a negated predicate (a
  // from-scratch run may fire a !p(...) body in the same step the seed
  // lands; the proof keeps that window closed by gating it out).
  std::unordered_set<GroundAtom, GroundAtomHash> plus_seen;
  std::unordered_set<GroundAtom, GroundAtomHash> minus_seen;
  for (const Update& u : updates) {
    const bool insert = u.action == ActionKind::kInsert;
    if ((insert ? minus_seen : plus_seen).count(u.atom) > 0) {
      return std::nullopt;
    }
    (insert ? plus_seen : minus_seen).insert(u.atom);
    if (!insert && head_preds_.count(u.atom.predicate()) > 0) {
      return std::nullopt;
    }
    if (insert && negated_preds_.count(u.atom.predicate()) > 0) {
      return std::nullopt;
    }
  }

  // The warm caches outlive this commit, so their counters are reported
  // as this commit's deltas over their lifetime totals.
  ParallelGamma* parallel = parallel_.get();
  ParkStats before;
  RecordPlannerStats(*plans_, before);
  if (parallel != nullptr) RecordParallelStats(*parallel, before);

  // Semi-naive closure seeded from U over the stable base. Rules untouched
  // by the delta never re-fire — INV says their heads are already stored.
  // The first clash inside the cone, max_steps, or any other error ends
  // the closure: the full evaluator owns conflicts and SELECT policies.
  ParkStepper closure(program, db, options, updates,
                      ParkStepper::WarmState{&*plans_, &*graph_, parallel});
  if (!closure.Run().ok()) return std::nullopt;

  // The commit's diff, read straight off the marks in O(|marks|) and
  // sorted like the full path's, so CommitReports are bit-identical.
  ParkDiffResult outcome;
  outcome.diff = closure.interpretation().MarkDiff();
  ParkStats stats = closure.stats();
  stats.maint_atoms_rederived =
      stats.derived_marks - (plus_seen.size() + minus_seen.size());
  stats.plans_compiled -= before.plans_compiled;
  stats.plan_cache_hits -= before.plan_cache_hits;
  stats.plan_replans -= before.plan_replans;
  stats.planner_estimated_rows -= before.planner_estimated_rows;
  stats.planner_actual_rows -= before.planner_actual_rows;
  stats.parallel_sections -= before.parallel_sections;
  stats.parallel_tasks -= before.parallel_tasks;
  stats.parallel_sliced_units -= before.parallel_sliced_units;
  stats.parallel_slices -= before.parallel_slices;
  stats.timings.parallel_match_ns -= before.timings.parallel_match_ns;
  stats.timings.parallel_merge_ns -= before.timings.parallel_merge_ns;
  stats.timings.pool_busy_ns -= before.timings.pool_busy_ns;

  stats.maintenance_mode = MaintenanceMode::kIncremental;
  stats.maint_commits = 1;
  stats.maint_atoms_overdeleted = outcome.diff.only_in_other.size();
  {
    std::vector<PredicateId> plus_preds;
    std::vector<PredicateId> minus_preds;
    for (const GroundAtom& atom : plus_seen) {
      plus_preds.push_back(atom.predicate());
    }
    for (const GroundAtom& atom : minus_seen) {
      minus_preds.push_back(atom.predicate());
    }
    stats.maint_cone_rules = graph_->ConeRules(plus_preds, minus_preds).size();
  }
  outcome.stats = std::move(stats);
  // The applied commit preserves INV (docs/INCREMENTAL.md): the closure
  // ended at a fixpoint, so the new instance is rule-stable too. stable_
  // simply stays true; the caller's journal-failure rollback restores the
  // previous (also stable) instance, so no post-hook is needed.
  return outcome;
}

}  // namespace park

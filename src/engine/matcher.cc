#include "engine/matcher.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <sstream>
#include <utility>

#include "storage/relation.h"
#include "util/arena.h"
#include "util/cancellation.h"
#include "util/logging.h"

namespace park {
namespace {

/// Replan when a consulted store's row count moves past a factor of
/// kDriftFactor (with kDriftSlack absolute slack so tiny relations do not
/// trigger replan storms while growing 0 -> 1 -> 2...). See docs/PLANNER.md.
constexpr size_t kDriftFactor = 2;
constexpr size_t kDriftSlack = 8;

bool IsBindingKind(LiteralKind kind) {
  return kind == LiteralKind::kPositive ||
         kind == LiteralKind::kEventInsert ||
         kind == LiteralKind::kEventDelete;
}

/// True if every variable of `atom` is in `bound`.
bool FullyBound(const AtomPattern& atom, const std::vector<bool>& bound) {
  for (const Term& t : atom.terms) {
    if (t.is_variable() && !bound[static_cast<size_t>(t.var_index())]) {
      return false;
    }
  }
  return true;
}

/// The stores a literal kind draws candidates from. kPositive enumerates
/// unmarked base atoms and +marked atoms; +event only plus; -event only
/// minus. Entries may be null (relation not created yet).
struct LiteralStores {
  const Relation* base = nullptr;
  const Relation* plus = nullptr;
  const Relation* minus = nullptr;
};

LiteralStores StoresFor(LiteralKind kind, PredicateId pred,
                        const IInterpretation& interp) {
  LiteralStores s;
  switch (kind) {
    case LiteralKind::kPositive:
      s.base = interp.base().GetRelation(pred);
      s.plus = interp.plus().GetRelation(pred);
      break;
    case LiteralKind::kEventInsert:
      s.plus = interp.plus().GetRelation(pred);
      break;
    case LiteralKind::kEventDelete:
      s.minus = interp.minus().GetRelation(pred);
      break;
    case LiteralKind::kNegated:
      break;  // never a generator
  }
  return s;
}

template <typename Fn>
void ForEachStore(const LiteralStores& stores, Fn fn) {
  if (stores.base != nullptr) fn(*stores.base);
  if (stores.plus != nullptr) fn(*stores.plus);
  if (stores.minus != nullptr) fn(*stores.minus);
}

/// Cost estimate for enumerating `lit` next, given the current bound set:
/// the size of its candidate stream, summed over the stores it reads.
/// With a bound position, an equality probe on column c visits about
/// rows / distinct(c) tuples per store; the probe column minimizing that
/// sum is returned alongside (ties to the lowest column, for determinism).
struct StreamEstimate {
  double rows = 0;
  int probe_column = -1;
};

StreamEstimate EstimateStream(const BodyLiteral& lit,
                              const std::vector<bool>& bound,
                              const IInterpretation& interp) {
  LiteralStores stores = StoresFor(lit.kind, lit.atom.predicate, interp);
  StreamEstimate best;
  bool have_bound_column = false;
  for (size_t i = 0; i < lit.atom.terms.size(); ++i) {
    const Term& t = lit.atom.terms[i];
    bool is_bound =
        t.is_constant() || bound[static_cast<size_t>(t.var_index())];
    if (!is_bound) continue;
    double col_rows = 0;
    ForEachStore(stores, [&](const Relation& rel) {
      col_rows += rel.stats().SelectivityRows(static_cast<int>(i));
    });
    if (!have_bound_column || col_rows < best.rows) {
      have_bound_column = true;
      best.rows = col_rows;
      best.probe_column = static_cast<int>(i);
    }
  }
  if (!have_bound_column) {
    ForEachStore(stores, [&](const Relation& rel) {
      best.rows += static_cast<double>(rel.size());
    });
  }
  return best;
}

/// Greedy cost-based ordering: filters first (a fully bound literal is a
/// constant-time check), then repeatedly the
/// binding literal with the smallest estimated candidate stream. Ties
/// break to source order, so for a fixed statistics snapshot the order is
/// a pure function of the rule.
std::vector<int> CostBasedOrder(const Rule& rule, int pre_bound,
                                const IInterpretation& interp) {
  const auto& body = rule.body();
  std::vector<int> order;
  order.reserve(body.size());
  std::vector<bool> scheduled(body.size(), false);
  std::vector<bool> bound(static_cast<size_t>(rule.num_variables()), false);
  size_t to_schedule = body.size();
  if (pre_bound >= 0) {
    scheduled[static_cast<size_t>(pre_bound)] = true;
    for (const Term& t : body[static_cast<size_t>(pre_bound)].atom.terms) {
      if (t.is_variable()) bound[static_cast<size_t>(t.var_index())] = true;
    }
    --to_schedule;
  }

  for (size_t n = 0; n < to_schedule; ++n) {
    int chosen = -1;
    for (size_t i = 0; i < body.size(); ++i) {
      if (!scheduled[i] && FullyBound(body[i].atom, bound)) {
        chosen = static_cast<int>(i);
        break;
      }
    }
    if (chosen < 0) {
      double best_rows = 0;
      for (size_t i = 0; i < body.size(); ++i) {
        if (scheduled[i] || !IsBindingKind(body[i].kind)) continue;
        double rows = EstimateStream(body[i], bound, interp).rows;
        if (chosen < 0 || rows < best_rows) {
          best_rows = rows;
          chosen = static_cast<int>(i);
        }
      }
    }
    PARK_CHECK_GE(chosen, 0)
        << "no schedulable literal (unsafe rule slipped past validation)";
    scheduled[static_cast<size_t>(chosen)] = true;
    for (const Term& t : body[static_cast<size_t>(chosen)].atom.terms) {
      if (t.is_variable()) bound[static_cast<size_t>(t.var_index())] = true;
    }
    order.push_back(chosen);
  }
  return order;
}

/// Records the row count of (`store`, `pred`) into the plan's drift
/// snapshot (deduplicated).
void SnapshotStore(uint8_t store, PredicateId pred, const Relation* rel,
                   CompiledPlan& plan) {
  for (const auto& entry : plan.stats_snapshot) {
    if (entry.store == store && entry.predicate == pred) return;
  }
  plan.stats_snapshot.push_back(CompiledPlan::StoreRows{
      store, pred, rel != nullptr ? rel->size() : 0});
}

// --- Flattened plan execution ---

/// Per-thread scratch for plan execution: the substitution frame, one
/// query pattern per step, per-step candidate cursors, and the arena the
/// candidate buffers live in. Reused across calls (Arena::Reset keeps its
/// chunks), so steady-state matching does not touch the heap. The rare
/// reentrant call (a match callback that matches again) falls back to a
/// heap-allocated scratch.
struct StepState {
  ArenaVec<const Value*> cands;
  size_t next = 0;
  Arena::Mark mark;
};

/// Pre-resolved stores for a filter step — the relations a fully bound
/// literal consults, fetched once per step instead of once per row, by
/// MarkStore. With the relations in hand a filter row is one set probe in
/// the common case, not two or three predicate-map lookups first.
using FilterStores = std::array<const Relation*, 3>;

FilterStores ResolveFilterStores(const CompiledStep& st,
                                 const IInterpretation& interp) {
  FilterStores out;
  for (MarkStore store :
       {MarkStore::kUnmarked, MarkStore::kPlus, MarkStore::kMinus}) {
    out[static_cast<size_t>(store)] =
        interp.Store(store).GetRelation(st.predicate);
  }
  return out;
}

/// LiteralHolds over pre-resolved stores.
bool FilterValid(const FilterStores& fs, LiteralKind kind, const Value* args,
                 size_t n) {
  return LiteralHolds(kind, [&](MarkStore store) {
    const Relation* r = fs[static_cast<size_t>(store)];
    return r != nullptr && r->Contains({args, n});
  });
}

struct MatchScratch {
  Arena arena;
  std::vector<Value> binding;
  std::vector<Value> filter_args;  // reused per filter evaluation
  // filter_stores[s]: lazily resolved stores for filter step s (the
  // `resolved` flag distinguishes "not yet fetched" from "no relations").
  struct ResolvedFilter {
    bool resolved = false;
    FilterStores stores;
  };
  std::vector<ResolvedFilter> filter_stores;
  std::vector<TuplePattern> patterns;
  std::vector<StepState> states;
  bool in_use = false;
};

MatchScratch& ThreadScratch() {
  thread_local MatchScratch scratch;
  return scratch;
}

/// The seed binding program: grounds body literal `plan.seed_index` by
/// `seed`, writing the seed's free variables into `binding` (sized for the
/// rule's variables). Returns false when `seed` cannot ground the literal
/// (another predicate, or a constant / repeated variable disagrees). An
/// unseeded plan binds nothing.
bool BindSeed(const CompiledPlan& plan, const Rule& rule,
              const AtomView* seed, std::vector<Value>& binding) {
  if (plan.seed_index < 0) return true;
  const AtomPattern& pattern =
      rule.body()[static_cast<size_t>(plan.seed_index)].atom;
  if (pattern.predicate != seed->predicate) return false;
  for (size_t i = 0; i < plan.seed_slots.size(); ++i) {
    const CompiledStep::Slot& slot = plan.seed_slots[i];
    const Value& value = seed->args[i];
    switch (slot.kind) {
      case CompiledStep::Slot::Kind::kConst:
        if (slot.constant != value) return false;
        break;
      case CompiledStep::Slot::Kind::kFree:
        binding[static_cast<size_t>(slot.var)] = value;
        break;
      case CompiledStep::Slot::Kind::kBoundVar:  // repeated seed variable
        if (binding[static_cast<size_t>(slot.var)] != value) return false;
        break;
    }
  }
  return true;
}

/// Shared executor for seeded and unseeded plans (see ExecutePlan).
/// Returns the number of step-0 stream candidates.
/// `cancel` (may be null) is polled every kCheckStride visited tuples —
/// candidate materialization and the join loop both stop early once it
/// fires, so a deadline interrupts even one giant stream within a bounded
/// number of tuples.
size_t RunPlan(const CompiledPlan& plan, const Rule& rule,
               const IInterpretation& interp, const AtomView* seed_atom,
               FunctionRef<void(std::span<const Value>)> fn,
               CancellationToken* cancel) {
  MatchScratch* scratch_ptr = &ThreadScratch();
  std::unique_ptr<MatchScratch> fallback;
  if (scratch_ptr->in_use) {
    fallback = std::make_unique<MatchScratch>();
    scratch_ptr = fallback.get();
  }
  MatchScratch& scratch = *scratch_ptr;
  scratch.in_use = true;
  struct InUseGuard {
    bool& flag;
    ~InUseGuard() { flag = false; }
  } guard{scratch.in_use};

  const size_t nvars = static_cast<size_t>(rule.num_variables());
  if (scratch.binding.size() < nvars) scratch.binding.resize(nvars);

  if (!BindSeed(plan, rule, seed_atom, scratch.binding)) return 0;

  auto emit = [&]() {
    fn(std::span<const Value>(scratch.binding.data(), nvars));
  };

  const size_t nsteps = plan.steps.size();
  if (nsteps == 0) {
    emit();
    return 0;
  }

  scratch.arena.Reset();
  if (scratch.states.size() < nsteps) scratch.states.resize(nsteps);
  if (scratch.patterns.size() < nsteps) scratch.patterns.resize(nsteps);
  scratch.filter_stores.assign(nsteps, {});

  size_t claimed = 0;

  // Cooperative cancellation + memory accounting. `poll` trips at most
  // once per kCheckStride visited tuples; when it reports the token fired,
  // both materialization and the join loop bail out. Memory is charged as
  // the growth of this thread's scratch arena over the call's baseline
  // (retained chunks from earlier calls are already-paid-for memory, not
  // this run's growth); the scope is released on exit.
  const size_t arena_baseline = scratch.arena.bytes_reserved();
  CancellationToken::MemoryScope mem_scope;
  struct MemGuard {
    CancellationToken* cancel;
    CancellationToken::MemoryScope& scope;
    ~MemGuard() {
      if (cancel != nullptr) cancel->CloseScope(scope);
    }
  } mem_guard{cancel, mem_scope};
  bool interrupted = false;
  uint64_t poll_countdown = CancellationToken::kCheckStride;
  auto poll = [&]() -> bool {
    if (cancel == nullptr || interrupted) return interrupted;
    if (--poll_countdown != 0) return false;
    poll_countdown = CancellationToken::kCheckStride;
    size_t reserved = scratch.arena.bytes_reserved();
    cancel->UpdateScope(mem_scope,
                        reserved > arena_baseline ? reserved - arena_baseline
                                                  : 0);
    interrupted = cancel->Check();
    return interrupted;
  };

  // Fills step `s`'s query pattern from the current binding. Called once
  // per step entry — the bindings a pattern reads come from earlier steps
  // only, and stay fixed while the step iterates.
  auto fill_pattern = [&](const CompiledStep& st, size_t s) -> TuplePattern& {
    TuplePattern& pattern = scratch.patterns[s];
    pattern.resize(st.slots.size());
    for (size_t i = 0; i < st.slots.size(); ++i) {
      const CompiledStep::Slot& slot = st.slots[i];
      switch (slot.kind) {
        case CompiledStep::Slot::Kind::kConst:
          pattern[i] = slot.constant;
          break;
        case CompiledStep::Slot::Kind::kBoundVar:
          pattern[i] = scratch.binding[static_cast<size_t>(slot.var)];
          break;
        case CompiledStep::Slot::Kind::kFree:
          pattern[i] = std::nullopt;
          break;
      }
    }
    return pattern;
  };

  // Collects step `s`'s candidate tuples into an arena buffer. Step 0
  // counts every stream candidate (BEFORE the positive-literal base/plus
  // dedup skip, so the count is a property of the stores alone).
  auto materialize = [&](const CompiledStep& st, size_t s) {
    StepState& state = scratch.states[s];
    state.mark = scratch.arena.mark();
    state.cands = ArenaVec<const Value*>(&scratch.arena);
    state.next = 0;
    const TuplePattern& pattern = fill_pattern(st, s);
    const bool first = s == 0;
    auto claim = [&]() -> bool {
      // A fired token stops materialization: remaining candidates are
      // dropped (the whole result is discarded by the caller anyway).
      if (poll()) return false;
      if (first) ++claimed;
      return true;
    };
    const Relation* base = nullptr;
    switch (st.kind) {
      case LiteralKind::kPositive:
        // Valid sources: unmarked base atoms and +marked atoms. An atom in
        // both would be enumerated twice; skip base duplicates in the plus
        // scan (after the claim).
        base = interp.base().GetRelation(st.predicate);
        if (base != nullptr) {
          base->ForEachMatchingProbe(pattern, st.probe_column,
                                     [&](std::span<const Value> t) {
                                       if (!claim()) return;
                                       state.cands.push_back(t.data());
                                     });
        }
        if (const Relation* plus = interp.plus().GetRelation(st.predicate)) {
          plus->ForEachMatchingProbe(
              pattern, st.probe_column, [&](std::span<const Value> t) {
                if (!claim()) return;
                if (base != nullptr && base->Contains(t)) return;
                state.cands.push_back(t.data());
              });
        }
        break;
      case LiteralKind::kEventInsert:
        if (const Relation* plus = interp.plus().GetRelation(st.predicate)) {
          plus->ForEachMatchingProbe(pattern, st.probe_column,
                                     [&](std::span<const Value> t) {
                                       if (!claim()) return;
                                       state.cands.push_back(t.data());
                                     });
        }
        break;
      case LiteralKind::kEventDelete:
        if (const Relation* minus =
                interp.minus().GetRelation(st.predicate)) {
          minus->ForEachMatchingProbe(pattern, st.probe_column,
                                      [&](std::span<const Value> t) {
                                        if (!claim()) return;
                                        state.cands.push_back(t.data());
                                      });
        }
        break;
      case LiteralKind::kNegated:
        PARK_CHECK(false) << "unreachable: negated literal as generator";
    }
  };

  // Binds the step's free variables from row `t`; false iff a repeated
  // free variable within the literal disagrees (the pattern already
  // guaranteed constants and earlier-bound variables).
  auto try_bind = [&](const CompiledStep& st, const Value* t) -> bool {
    for (const auto& [pos, var] : st.binds) {
      scratch.binding[static_cast<size_t>(var)] = t[pos];
    }
    for (const auto& [pos, var] : st.checks) {
      if (scratch.binding[static_cast<size_t>(var)] != t[pos]) return false;
    }
    return true;
  };

  // Grounds a fully bound literal (into a reused span — no per-candidate
  // Tuple allocation) and checks its validity in I through the step's
  // lazily resolved stores.
  auto filter_passes = [&](const CompiledStep& st, size_t step) -> bool {
    MatchScratch::ResolvedFilter& rf = scratch.filter_stores[step];
    if (!rf.resolved) {
      rf.stores = ResolveFilterStores(st, interp);
      rf.resolved = true;
    }
    scratch.filter_args.clear();
    for (const CompiledStep::Slot& slot : st.slots) {
      scratch.filter_args.push_back(
          slot.kind == CompiledStep::Slot::Kind::kConst
              ? slot.constant
              : scratch.binding[static_cast<size_t>(slot.var)]);
    }
    return FilterValid(rf.stores, st.kind, scratch.filter_args.data(),
                       scratch.filter_args.size());
  };

  // The flattened loop replacing per-literal recursive descent: walk the
  // compiled steps forward while candidates bind, backward when a step
  // exhausts. `entering` distinguishes the first visit of a step (evaluate
  // the filter / materialize the candidates) from a backtrack into it.
  int s = 0;
  bool entering = true;
  while (s >= 0) {
    if (poll()) break;
    const CompiledStep& st = plan.steps[static_cast<size_t>(s)];
    bool advanced = false;
    if (st.filter) {
      if (entering) advanced = filter_passes(st, static_cast<size_t>(s));
    } else {
      if (entering) materialize(st, static_cast<size_t>(s));
      StepState& state = scratch.states[static_cast<size_t>(s)];
      while (state.next < state.cands.size()) {
        if (try_bind(st, state.cands[state.next++])) {
          advanced = true;
          break;
        }
      }
      // Exhausted: reclaim this step's candidate buffer (allocations are
      // properly nested by step, so the rewind frees exactly it).
      if (!advanced) scratch.arena.Rewind(state.mark);
    }
    if (advanced) {
      if (static_cast<size_t>(s) + 1 == nsteps) {
        emit();
        entering = false;  // continue with this step's next candidate
      } else {
        ++s;
        entering = true;
      }
    } else {
      --s;
      entering = false;
    }
  }
  return claimed;
}

PlanExplanation ExplainFromPlan(const CompiledPlan& plan, bool replan) {
  PlanExplanation out;
  out.rule_index = plan.rule_index;
  out.seed_index = plan.seed_index;
  out.replan = replan;
  out.estimated_candidates = plan.estimated_candidates;
  out.steps.reserve(plan.steps.size());
  for (const CompiledStep& st : plan.steps) {
    out.steps.push_back(PlanExplanation::Step{st.literal_index, st.filter,
                                              st.probe_column,
                                              st.estimated_rows});
  }
  return out;
}

}  // namespace

PlanExplanation ExplainPlan(const CompiledPlan& plan, bool replan) {
  return ExplainFromPlan(plan, replan);
}

CompiledPlan CompilePlan(const Rule& rule, int seed_index,
                         const IInterpretation& interp) {
  CompiledPlan plan;
  plan.rule_index = rule.index();
  plan.seed_index = seed_index;

  const auto& body = rule.body();
  std::vector<bool> bound(static_cast<size_t>(rule.num_variables()), false);

  // Seed binding program: one slot per seed-literal position. A repeated
  // variable's later occurrences become kBoundVar checks.
  if (seed_index >= 0) {
    const AtomPattern& seed = body[static_cast<size_t>(seed_index)].atom;
    plan.seed_slots.reserve(seed.terms.size());
    for (const Term& t : seed.terms) {
      CompiledStep::Slot slot;
      if (t.is_constant()) {
        slot.kind = CompiledStep::Slot::Kind::kConst;
        slot.constant = t.constant();
      } else {
        size_t var = static_cast<size_t>(t.var_index());
        slot.var = t.var_index();
        slot.kind = bound[var] ? CompiledStep::Slot::Kind::kBoundVar
                               : CompiledStep::Slot::Kind::kFree;
        bound[var] = true;
      }
      plan.seed_slots.push_back(slot);
    }
  }

  std::vector<int> order = CostBasedOrder(rule, seed_index, interp);

  plan.steps.reserve(order.size());
  for (int literal_index : order) {
    const BodyLiteral& lit = body[static_cast<size_t>(literal_index)];
    CompiledStep step;
    step.literal_index = literal_index;
    step.kind = lit.kind;
    step.predicate = lit.atom.predicate;
    step.filter = FullyBound(lit.atom, bound);
    PARK_CHECK(step.filter || IsBindingKind(lit.kind))
        << "planner scheduled an unbound negated literal";

    step.slots.reserve(lit.atom.terms.size());
    for (size_t i = 0; i < lit.atom.terms.size(); ++i) {
      const Term& t = lit.atom.terms[i];
      CompiledStep::Slot slot;
      if (t.is_constant()) {
        slot.kind = CompiledStep::Slot::Kind::kConst;
        slot.constant = t.constant();
      } else {
        size_t var = static_cast<size_t>(t.var_index());
        slot.var = t.var_index();
        if (bound[var]) {
          slot.kind = CompiledStep::Slot::Kind::kBoundVar;
        } else {
          slot.kind = CompiledStep::Slot::Kind::kFree;
          // First occurrence binds; later occurrences within this literal
          // check (note `bound` is only updated after the slot loop).
          bool repeated = false;
          for (const auto& [pos, v] : step.binds) {
            (void)pos;
            if (v == t.var_index()) {
              repeated = true;
              break;
            }
          }
          if (repeated) {
            step.checks.emplace_back(static_cast<int>(i), t.var_index());
          } else {
            step.binds.emplace_back(static_cast<int>(i), t.var_index());
          }
        }
      }
      step.slots.push_back(slot);
    }

    if (!step.filter) {
      // Probe column: the most selective bound column per the statistics.
      StreamEstimate est = EstimateStream(lit, bound, interp);
      step.probe_column = est.probe_column;
      step.estimated_rows = est.rows;
    }

    // The drift snapshot covers every store whose size the ordering can
    // depend on (all binding-kind literals, scheduled or not as
    // generators).
    if (IsBindingKind(lit.kind)) {
      LiteralStores stores = StoresFor(lit.kind, lit.atom.predicate, interp);
      switch (lit.kind) {
        case LiteralKind::kPositive:
          SnapshotStore(0, lit.atom.predicate, stores.base, plan);
          SnapshotStore(1, lit.atom.predicate, stores.plus, plan);
          break;
        case LiteralKind::kEventInsert:
          SnapshotStore(1, lit.atom.predicate, stores.plus, plan);
          break;
        case LiteralKind::kEventDelete:
          SnapshotStore(2, lit.atom.predicate, stores.minus, plan);
          break;
        case LiteralKind::kNegated:
          break;
      }
    }

    for (const Term& t : lit.atom.terms) {
      if (t.is_variable()) bound[static_cast<size_t>(t.var_index())] = true;
    }
    plan.steps.push_back(std::move(step));
  }

  // Safety backstop: every variable must be bound by the seed or some step
  // before emission. The language's safety validation guarantees this;
  // check at compile time so execution can skip per-match checks.
  for (size_t v = 0; v < bound.size(); ++v) {
    PARK_CHECK(bound[v])
        << "variable '" << rule.variable_names()[v]
        << "' unbound at plan end (safety should prevent this)";
  }

  if (!plan.steps.empty() && !plan.steps[0].filter) {
    plan.estimated_candidates = plan.steps[0].estimated_rows;
  }
  return plan;
}

size_t ExecutePlan(const CompiledPlan& plan, const Rule& rule,
                   const IInterpretation& interp, const AtomView* seed,
                   FunctionRef<void(std::span<const Value> binding)> fn,
                   CancellationToken* cancel) {
  PARK_CHECK_EQ(plan.seed_index >= 0, seed != nullptr)
      << "seed atom and plan.seed_index disagree";
  return RunPlan(plan, rule, interp, seed, fn, cancel);
}

void AddPlanRequirements(const CompiledPlan& plan, IndexRequirements& out) {
  auto add = [](IndexRequirements::ColumnsByPredicate& columns,
                PredicateId pred, int column) {
    std::vector<int>& cols = columns[pred];
    if (std::find(cols.begin(), cols.end(), column) == cols.end()) {
      cols.push_back(column);
    }
  };
  for (const CompiledStep& step : plan.steps) {
    if (step.filter || step.probe_column < 0) continue;
    switch (step.kind) {
      case LiteralKind::kPositive:
        add(out.base, step.predicate, step.probe_column);
        add(out.plus, step.predicate, step.probe_column);
        break;
      case LiteralKind::kEventInsert:
        add(out.plus, step.predicate, step.probe_column);
        break;
      case LiteralKind::kEventDelete:
        add(out.minus, step.predicate, step.probe_column);
        break;
      case LiteralKind::kNegated:
        PARK_CHECK(false) << "negated literal scheduled unbound";
    }
  }
}

PlanCache::PlanCache(const Program& program) : plans_(program.size()) {
  for (size_t r = 0; r < program.size(); ++r) {
    plans_[r].resize(program.rules()[r].body().size() + 1);
  }
}

const CompiledPlan& PlanCache::Get(const Rule& rule, int seed_index,
                                   const IInterpretation& interp) {
  size_t r = static_cast<size_t>(rule.index());
  PARK_CHECK_LT(r, plans_.size()) << "rule outside the cache's program";
  auto& slot = plans_[r][static_cast<size_t>(seed_index + 1)];
  if (slot == nullptr) {
    return Install(slot, rule, seed_index, interp, /*replan=*/false);
  }
  if (Drifted(*slot, interp)) {
    return Install(slot, rule, seed_index, interp, /*replan=*/true);
  }
  ++cache_hits_;
  return *slot;
}

bool PlanCache::Drifted(const CompiledPlan& plan,
                        const IInterpretation& interp) const {
  for (const CompiledPlan::StoreRows& entry : plan.stats_snapshot) {
    const Database& db = entry.store == 0   ? interp.base()
                         : entry.store == 1 ? interp.plus()
                                            : interp.minus();
    const Relation* rel = db.GetRelation(entry.predicate);
    size_t now = rel != nullptr ? rel->size() : 0;
    if (now > kDriftFactor * entry.rows + kDriftSlack ||
        entry.rows > kDriftFactor * now + kDriftSlack) {
      return true;
    }
  }
  return false;
}

const CompiledPlan& PlanCache::Install(std::unique_ptr<CompiledPlan>& slot,
                                       const Rule& rule, int seed_index,
                                       const IInterpretation& interp,
                                       bool replan) {
  slot = std::make_unique<CompiledPlan>(
      CompilePlan(rule, seed_index, interp));
  AddPlanRequirements(*slot, requirements_);
  ++plans_compiled_;
  if (replan) ++replans_;
  if (listener_) listener_(ExplainFromPlan(*slot, replan));
  return *slot;
}

uint64_t PlanCache::estimated_rows() const {
  return estimated_rows_ <= 0
             ? 0
             : static_cast<uint64_t>(std::llround(estimated_rows_));
}

std::string ExplainPlanLine(const PlanExplanation& explanation) {
  std::ostringstream out;
  out << "plan rule=" << explanation.rule_index;
  if (explanation.seed_index >= 0) {
    out << " seed=" << explanation.seed_index;
  }
  if (explanation.replan) out << " (replan)";
  out << ":";
  if (explanation.steps.empty()) {
    // No step left to run: the seed literal alone covers a one-literal
    // body; only a body-less rule is truly empty.
    if (explanation.seed_index >= 0) {
      out << " lit" << explanation.seed_index << "[seed]";
    } else {
      out << " <empty body>";
    }
  }
  for (size_t i = 0; i < explanation.steps.size(); ++i) {
    const PlanExplanation::Step& step = explanation.steps[i];
    if (i > 0) out << " ->";
    out << " lit" << step.literal_index;
    if (step.filter) {
      out << "[filter]";
    } else {
      out << "[";
      if (step.probe_column >= 0) {
        out << "probe c" << step.probe_column;
      } else {
        out << "scan";
      }
      out << " ~" << static_cast<uint64_t>(std::llround(step.estimated_rows))
          << " rows]";
    }
  }
  return out.str();
}

}  // namespace park

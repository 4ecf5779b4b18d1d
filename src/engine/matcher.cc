#include "engine/matcher.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <optional>
#include <sstream>
#include <unordered_map>
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

/// Below this many rows (summed over the stores a join step reads) a
/// sorted-merge join cannot beat per-binding probes — the batch sort and
/// per-distinct-key dictionary lookups dominate — so the compiled step
/// keeps JoinAlgo::kProbe. See docs/STORAGE.md for the crossover argument.
constexpr size_t kMergeJoinMinRows = 64;

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

// --- Batch-at-a-time execution (ExecMode::kBatch) ---
//
// The batch executor replaces the per-candidate backtracking walk with
// whole-batch transformations against the storage layer's columnar segments
// (storage/segment.h). A batch is a flat Value array of binding rows with
// stride nvars. Step 0 materializes its candidate stream from the probe
// column's sorted equal range, and every later generator step maps the batch
// through a probe or sorted-merge join chosen at compile time
// (CompiledStep::join). Joins emit in binding-major order with candidates in
// segment-row order per binding, which is exactly the depth-first order of the
// tuple executor over the same candidate sequences; only the per-step candidate
// order differs between the modes (sorted segment order here vs. hash-index
// order there), so the two modes are set-identical and each is bit-identical
// for a fixed configuration (docs/STORAGE.md).

/// The stores one generator step reads, in stream order, each
/// with the store to dedup against: a positive literal enumerates base
/// then plus, and a tuple present in both must be enumerated once, so
/// the plus entry skips tuples contained in base.
struct BatchStores {
  struct Entry {
    const Relation* rel = nullptr;
    const Relation* dedup = nullptr;  // skip candidates contained here
  };
  std::array<Entry, 3> entries;
  int count = 0;
};

BatchStores BatchStoresFor(const CompiledStep& st,
                           const IInterpretation& interp) {
  BatchStores out;
  LiteralStores stores = StoresFor(st.kind, st.predicate, interp);
  if (stores.base != nullptr) {
    out.entries[static_cast<size_t>(out.count++)] = {stores.base, nullptr};
  }
  if (stores.plus != nullptr) {
    out.entries[static_cast<size_t>(out.count++)] = {stores.plus, stores.base};
  }
  if (stores.minus != nullptr) {
    out.entries[static_cast<size_t>(out.count++)] = {stores.minus, nullptr};
  }
  return out;
}

/// Per-thread batch-execution scratch, reused across calls like
/// MatchScratch (with the same reentrancy fallback).
struct BatchScratch {
  std::vector<Value> cur;   // step-0 output (and the seed row), stride nvars
  std::vector<Value> pipe;  // current chunk's batch inside the pipeline
  std::vector<Value> next;  // batch the running step builds
  std::vector<Value> filter_args;  // reused per filter evaluation
  // merge join: probe ranges per distinct key, memoized per step for the
  // whole RunPlanBatch call (segments are stable while matching runs, so
  // a resolved range stays valid across pipeline chunks).
  struct MergeCache {
    std::vector<std::array<std::pair<uint32_t, uint32_t>, 3>> ranges;
    std::unordered_map<Value, uint32_t, ValueHash> memo;  // key -> ranges idx
  };
  std::vector<MergeCache> merge_cache;  // indexed by step
  bool in_use = false;
};

BatchScratch& ThreadBatchScratch() {
  thread_local BatchScratch scratch;
  return scratch;
}

/// Batch counterpart of RunPlan; same contract (candidate count, cancel
/// semantics), plus local row counters flushed into `exec_stats` (may be
/// null) at the end. Relations touched must be columnar-compact when
/// frozen (the batch evaluator compacts at every Γ-section boundary);
/// unfrozen relations compact lazily inside Relation::Columnar().
size_t RunPlanBatch(const CompiledPlan& plan, const Rule& rule,
                    const IInterpretation& interp,
                    const AtomView* seed_atom,
                    FunctionRef<void(std::span<const Value>)> fn,
                    CancellationToken* cancel, ExecStats* exec_stats) {
  BatchScratch* scratch_ptr = &ThreadBatchScratch();
  std::unique_ptr<BatchScratch> fallback;
  if (scratch_ptr->in_use) {
    fallback = std::make_unique<BatchScratch>();
    scratch_ptr = fallback.get();
  }
  BatchScratch& scratch = *scratch_ptr;
  scratch.in_use = true;
  struct InUseGuard {
    bool& flag;
    ~InUseGuard() { flag = false; }
  } guard{scratch.in_use};

  const size_t nvars = static_cast<size_t>(rule.num_variables());
  scratch.cur.assign(nvars, Value());
  size_t nrows = 1;

  if (!BindSeed(plan, rule, seed_atom, scratch.cur)) return 0;

  if (plan.steps.empty()) {
    fn(std::span<const Value>(scratch.cur.data(), nvars));
    return 0;
  }

  // Cooperative cancellation + memory accounting, mirroring RunPlan:
  // poll at most once per kCheckStride visited rows, charge the growth of
  // the batch buffers over this call's baseline.
  auto reserved_bytes = [&scratch]() {
    size_t bytes = (scratch.cur.capacity() + scratch.pipe.capacity() +
                    scratch.next.capacity()) *
                   sizeof(Value);
    for (const BatchScratch::MergeCache& cache : scratch.merge_cache) {
      bytes += cache.ranges.capacity() * sizeof(cache.ranges[0]) +
               cache.memo.bucket_count() * sizeof(void*);
    }
    return bytes;
  };
  const size_t mem_baseline = reserved_bytes();
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
    size_t reserved = reserved_bytes();
    cancel->UpdateScope(mem_scope, reserved > mem_baseline
                                       ? reserved - mem_baseline
                                       : 0);
    interrupted = cancel->Check();
    return interrupted;
  };

  size_t claimed = 0;
  size_t next_rows = 0;
  uint64_t batch_rows = 0;
  uint64_t probe_rows = 0;
  uint64_t merge_rows = 0;

  // Appends (binding row `brow` extended by candidate row `t`, a flat
  // Value[arity] span from the segment) to the next batch if the
  // candidate agrees with every pre-resolved slot. Constants and
  // earlier-bound variables are checked up front (the batch scan is a
  // probe-column superset, unlike the tuple executor's full-pattern index
  // probe), dedup filters a doubly-stored tuple via a span lookup (no
  // Tuple materialized), then the new row is appended with this
  // step's binds applied and intra-literal repeats verified against it
  // (pop on disagreement).
  // `skip_col` (< 0: none) marks a column already equality-matched by the
  // caller's equal-range probe, so its slot check would always pass.
  auto try_append = [&](const CompiledStep& st, const Value* t,
                        const Value* brow, const Relation* dedup,
                        int skip_col) {
    for (size_t j = 0; j < st.slots.size(); ++j) {
      if (static_cast<int>(j) == skip_col) continue;
      const CompiledStep::Slot& slot = st.slots[j];
      if (slot.kind == CompiledStep::Slot::Kind::kConst) {
        if (t[j] != slot.constant) return;
      } else if (slot.kind == CompiledStep::Slot::Kind::kBoundVar) {
        if (t[j] != brow[static_cast<size_t>(slot.var)]) {
          return;
        }
      }
    }
    if (dedup != nullptr && dedup->Contains({t, st.slots.size()})) return;
    size_t base_off = scratch.next.size();
    scratch.next.insert(scratch.next.end(), brow, brow + nvars);
    Value* out = scratch.next.data() + base_off;
    for (const auto& [pos, var] : st.binds) {
      out[static_cast<size_t>(var)] = t[static_cast<size_t>(pos)];
    }
    for (const auto& [pos, var] : st.checks) {
      if (out[static_cast<size_t>(var)] != t[static_cast<size_t>(pos)]) {
        scratch.next.resize(base_off);
        return;
      }
    }
    ++next_rows;
  };

  auto probe_value = [&](const CompiledStep& st,
                         const Value* brow) -> const Value& {
    const CompiledStep::Slot& slot =
        st.slots[static_cast<size_t>(st.probe_column)];
    return slot.kind == CompiledStep::Slot::Kind::kConst
               ? slot.constant
               : brow[static_cast<size_t>(slot.var)];
  };

  // Step 0. The candidate stream is the concatenation of the stores'
  // probe ranges (or whole segments when unprobed), in store order, so
  // `claimed` is range arithmetic with no per-tuple work.
  auto run_scan = [&](const CompiledStep& st) {
    BatchStores stores = BatchStoresFor(st, interp);
    const Value* brow = scratch.cur.data();
    for (int i = 0; i < stores.count && !interrupted; ++i) {
      const BatchStores::Entry& entry =
          stores.entries[static_cast<size_t>(i)];
      Relation::ColumnarView view = entry.rel->Columnar();
      const Column* col = nullptr;
      uint32_t lo = 0;
      uint32_t hi = view.segment->num_rows();
      if (st.probe_column >= 0) {
        col = &view.segment->column(st.probe_column);
        std::pair<uint32_t, uint32_t> range =
            col->EqualRange(probe_value(st, brow));
        lo = range.first;
        hi = range.second;
      }
      claimed += hi - lo;
      for (uint32_t pos = lo; pos < hi && !poll(); ++pos) {
        uint32_t row = col != nullptr ? col->RowAt(pos) : pos;
        try_append(st, view.segment->row(row), brow, entry.dedup,
                   col != nullptr ? st.probe_column : -1);
      }
    }
  };

  // Probe join: per binding row, binary-search the probe column's equal
  // range in each store (full segment scan when unprobed).
  auto run_probe = [&](const CompiledStep& st, const Value* src,
                       size_t src_rows) {
    BatchStores stores = BatchStoresFor(st, interp);
    std::array<Relation::ColumnarView, 3> views;
    for (int i = 0; i < stores.count; ++i) {
      views[static_cast<size_t>(i)] =
          stores.entries[static_cast<size_t>(i)].rel->Columnar();
    }
    for (size_t r = 0; r < src_rows && !interrupted; ++r) {
      const Value* brow = src + r * nvars;
      for (int i = 0; i < stores.count; ++i) {
        const Relation::ColumnarView& view = views[static_cast<size_t>(i)];
        const Relation* dedup =
            stores.entries[static_cast<size_t>(i)].dedup;
        if (st.probe_column >= 0) {
          const Column& col = view.segment->column(st.probe_column);
          std::pair<uint32_t, uint32_t> range =
              col.EqualRange(probe_value(st, brow));
          for (uint32_t p = range.first; p < range.second && !poll(); ++p) {
            try_append(st, view.segment->row(col.RowAt(p)), brow, dedup,
                       st.probe_column);
          }
        } else {
          for (uint32_t row = 0;
               row < view.segment->num_rows() && !poll(); ++row) {
            try_append(st, view.segment->row(row), brow, dedup, -1);
          }
        }
      }
    }
  };

  // Sorted-merge join: the inner side is the segment itself, whose rows
  // sort by the probe column, so each DISTINCT key resolves to one
  // contiguous run via a dictionary binary search. The resolved runs are
  // memoized per batch (a last-key fast path catches clustered
  // duplicates, the memo table catches scattered ones), so duplicate-
  // heavy outer keys pay one search per distinct key instead of one per
  // binding row. Rows are emitted in the original binding-major order —
  // byte-identical output to run_probe.
  auto run_merge = [&](const CompiledStep& st, size_t step,
                       const Value* src, size_t src_rows) {
    BatchStores stores = BatchStoresFor(st, interp);
    std::array<Relation::ColumnarView, 3> views;
    for (int i = 0; i < stores.count; ++i) {
      views[static_cast<size_t>(i)] =
          stores.entries[static_cast<size_t>(i)].rel->Columnar();
    }
    BatchScratch::MergeCache& cache = scratch.merge_cache[step];
    const Value* last_key = nullptr;
    uint32_t last_idx = 0;
    for (size_t r = 0; r < src_rows && !interrupted; ++r) {
      const Value* brow = src + r * nvars;
      const Value& key = probe_value(st, brow);
      uint32_t idx;
      if (last_key != nullptr && key == *last_key) {
        idx = last_idx;
      } else {
        auto [it, inserted] = cache.memo.try_emplace(
            key, static_cast<uint32_t>(cache.ranges.size()));
        if (inserted) {
          std::array<std::pair<uint32_t, uint32_t>, 3> rg{};
          for (int i = 0; i < stores.count; ++i) {
            rg[static_cast<size_t>(i)] =
                views[static_cast<size_t>(i)]
                    .segment->column(st.probe_column)
                    .EqualRange(key);
          }
          cache.ranges.push_back(rg);
        }
        idx = it->second;
      }
      last_key = &key;
      last_idx = idx;
      for (int i = 0; i < stores.count; ++i) {
        const Relation::ColumnarView& view = views[static_cast<size_t>(i)];
        const Column& col = view.segment->column(st.probe_column);
        const Relation* dedup =
            stores.entries[static_cast<size_t>(i)].dedup;
        auto [lo, hi] = cache.ranges[idx][static_cast<size_t>(i)];
        for (uint32_t p = lo; p < hi && !poll(); ++p) {
          try_append(st, view.segment->row(col.RowAt(p)), brow, dedup,
                     st.probe_column);
        }
      }
    }
  };

  // Filter step: ground the literal per row (into a reused span — no
  // per-row Tuple allocation) and keep rows valid in I. Membership goes
  // through the segments' flat whole-row indexes instead of the
  // node-based tuple sets, block-at-a-time: a block is grounded and
  // hashed first (prefetching every probe slot), then resolved — so the
  // probe cache misses overlap instead of serializing. That overlap is
  // structural to batching; the tuple executor checks one candidate at a
  // time and eats the full miss latency per row.
  auto run_filter = [&](const CompiledStep& st, const Value* src,
                        size_t src_rows) {
    const FilterStores stores = ResolveFilterStores(st, interp);
    std::array<const Segment*, 3> segs;
    for (size_t i = 0; i < segs.size(); ++i) {
      segs[i] = stores[i] != nullptr ? stores[i]->Columnar().segment : nullptr;
    }
    const size_t nargs = st.slots.size();
    constexpr size_t kBlock = 32;
    scratch.filter_args.resize(kBlock * nargs);
    std::array<size_t, kBlock> hashes;
    for (size_t r0 = 0; r0 < src_rows && !interrupted; r0 += kBlock) {
      const size_t bn = std::min(kBlock, src_rows - r0);
      for (size_t i = 0; i < bn; ++i) {
        const Value* brow = src + (r0 + i) * nvars;
        Value* args = scratch.filter_args.data() + i * nargs;
        for (size_t j = 0; j < nargs; ++j) {
          const CompiledStep::Slot& slot = st.slots[j];
          args[j] = slot.kind == CompiledStep::Slot::Kind::kConst
                        ? slot.constant
                        : brow[static_cast<size_t>(slot.var)];
        }
        const size_t h = TupleHash{}(TupleSpan{args, nargs});
        hashes[i] = h;
        for (const Segment* seg : segs) {
          if (seg != nullptr) seg->PrefetchRow(h);
        }
      }
      for (size_t i = 0; i < bn && !poll(); ++i) {
        const Value* brow = src + (r0 + i) * nvars;
        const Value* args = scratch.filter_args.data() + i * nargs;
        const size_t h = hashes[i];
        const bool pass = LiteralHolds(st.kind, [&](MarkStore store) {
          const Segment* seg = segs[static_cast<size_t>(store)];
          return seg != nullptr && seg->ContainsRow(args, nargs, h);
        });
        if (pass) {
          scratch.next.insert(scratch.next.end(), brow, brow + nvars);
          ++next_rows;
        }
      }
    }
  };

  // Step 0 materializes its full output and everything downstream runs
  // morsel-at-a-time: each kChunk-row chunk of the step-0 batch is pushed
  // through the whole remaining pipeline before the next chunk starts. Joins
  // fan out by the duplicate factor per step, so full intermediate batches can
  // be orders of magnitude larger than their inputs; chunking keeps every
  // intermediate cache-resident instead of streaming hundreds of megabytes
  // through memory. Chunks run in step-0 order and each step preserves row
  // order, so the emission sequence is byte-identical to the unchunked
  // execution.
  scratch.merge_cache.resize(plan.steps.size());
  for (BatchScratch::MergeCache& cache : scratch.merge_cache) {
    cache.ranges.clear();
    cache.memo.clear();
  }

  {
    const CompiledStep& st = plan.steps[0];
    scratch.next.clear();
    next_rows = 0;
    if (st.filter) {
      run_filter(st, scratch.cur.data(), nrows);
    } else {
      run_scan(st);
      batch_rows += next_rows;
    }
    std::swap(scratch.cur, scratch.next);
  }
  const size_t total0 = next_rows;

  constexpr size_t kChunk = 256;
  for (size_t c0 = 0; c0 < total0 && !interrupted; c0 += kChunk) {
    const Value* src = scratch.cur.data() + c0 * nvars;
    size_t src_rows = std::min(kChunk, total0 - c0);
    for (size_t s = 1; s < plan.steps.size() && src_rows > 0 && !interrupted;
         ++s) {
      const CompiledStep& st = plan.steps[s];
      scratch.next.clear();
      next_rows = 0;
      if (st.filter) {
        run_filter(st, src, src_rows);
      } else if (st.join == JoinAlgo::kMerge && st.probe_column >= 0) {
        run_merge(st, s, src, src_rows);
        merge_rows += next_rows;
      } else {
        run_probe(st, src, src_rows);
        probe_rows += next_rows;
      }
      std::swap(scratch.pipe, scratch.next);
      src = scratch.pipe.data();
      src_rows = next_rows;
    }
    if (interrupted) break;
    for (size_t r = 0; r < src_rows && !poll(); ++r) {
      fn(std::span<const Value>(src + r * nvars, nvars));
    }
  }

  if (exec_stats != nullptr) {
    exec_stats->batch_rows.fetch_add(batch_rows, std::memory_order_relaxed);
    exec_stats->probe_rows.fetch_add(probe_rows, std::memory_order_relaxed);
    exec_stats->merge_rows.fetch_add(merge_rows, std::memory_order_relaxed);
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
                                              st.estimated_rows, st.join});
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
  bool have_generator = false;
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

      // Batch-mode join operator: a probed join step (not the plan's
      // first generator — that is the step-0 scan) over enough store
      // rows amortizes its per-distinct-key range resolution, so pick
      // sorted-merge; everything else keeps per-binding probes. Tuple
      // execution ignores this.
      if (have_generator && step.probe_column >= 0) {
        LiteralStores stores = StoresFor(step.kind, step.predicate, interp);
        size_t rows = 0;
        ForEachStore(stores, [&](const Relation& rel) { rows += rel.size(); });
        if (rows >= kMergeJoinMinRows) step.join = JoinAlgo::kMerge;
      }
      have_generator = true;
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
                   CancellationToken* cancel, ExecMode exec,
                   ExecStats* exec_stats) {
  PARK_CHECK_EQ(plan.seed_index >= 0, seed != nullptr)
      << "seed atom and plan.seed_index disagree";
  if (exec == ExecMode::kBatch) {
    return RunPlanBatch(plan, rule, interp, seed, fn, cancel, exec_stats);
  }
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
        out << (step.join == JoinAlgo::kMerge ? "merge c" : "probe c")
            << step.probe_column;
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

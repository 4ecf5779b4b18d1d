#include "engine/consequence.h"

#include <algorithm>
#include <span>
#include <unordered_set>
#include <utility>

#include "engine/rule_graph.h"
#include "storage/atom_table.h"
#include "util/cancellation.h"
#include "util/metrics.h"

namespace park {
namespace {

/// A set of derived atoms as views into a section's arena: nothing is
/// copied until an atom clashes.
using AtomViewSet = std::unordered_set<AtomView, GroundAtomHash, GroundAtomEq>;

/// What a thread keeps from one Γ section for the next, so a warm Δ loop
/// allocates nothing per section: the spare derivation list (the one the
/// last GammaResult held), the per-task lists of a parallel section, and
/// the clash test's atom table. Within kRetainedSectionBytes in total.
struct SectionSpare {
  Derivations section;
  std::vector<Derivations> tasks;
  AtomTable clash_atoms;
  std::vector<uint8_t> clash_signs;  // SignBit mask per clash_atoms id

  size_t RetainedBytes() const {
    size_t bytes = section.capacity_bytes() + clash_atoms.capacity_bytes() +
                   clash_signs.capacity();
    for (const Derivations& task : tasks) bytes += task.capacity_bytes();
    return bytes;
  }

  /// Frees buffers, the per-task lists first, until the spare is within
  /// kRetainedSectionBytes.
  void TrimToCap() {
    size_t bytes = RetainedBytes();
    while (bytes > kRetainedSectionBytes && !tasks.empty()) {
      bytes -= tasks.back().capacity_bytes();
      tasks.pop_back();
    }
    if (bytes > kRetainedSectionBytes) {
      bytes -= clash_atoms.capacity_bytes() + clash_signs.capacity();
      clash_atoms.Release();
      clash_signs = {};
    }
    if (bytes > kRetainedSectionBytes) section = Derivations();
  }
};

SectionSpare& ThreadSpare() {
  thread_local SectionSpare spare;
  return spare;
}

/// Fills consistent / clashing_atoms of `result` from its derivation list
/// against `interp`. Only derivations in the clash scope are read: no
/// other head can meet a mark of the opposite sign (docs/SEMANTICS.md
/// "Γ"). Their head atoms are grouped in the thread's flat atom table,
/// which ORs together each atom's signs.
void AnalyzeClashes(const IInterpretation& interp, GammaResult& result) {
  const Derivations& derived = result.derivations;
  SectionSpare& spare = ThreadSpare();
  AtomTable& atoms = spare.clash_atoms;
  std::vector<uint8_t>& signs = spare.clash_signs;
  atoms.Clear();
  signs.clear();
  for (const Derivations::Record& r : derived) {
    if (!r.can_clash) continue;
    const uint32_t id = atoms.Insert(derived.atom(r));
    if (id == signs.size()) signs.push_back(0);
    signs[id] |= SignBit(r.action);
  }
  for (uint32_t id = 0; id < atoms.size(); ++id) {
    const AtomView atom = atoms.atom(id);
    const uint8_t mask = signs[id];
    const bool clash =
        mask == kBothSigns ||
        (mask == SignBit(ActionKind::kInsert) ? interp.minus() : interp.plus())
            .Contains(atom);
    if (clash) result.clashing_atoms.emplace_back(atom);
  }
  std::sort(result.clashing_atoms.begin(), result.clashing_atoms.end());
  result.consistent = result.clashing_atoms.empty();
  spare.TrimToCap();
}

/// `scope`, or the scope of every predicate when null.
const DerivationScope& ScopeOrAll(const DerivationScope* scope) {
  static const DerivationScope kEveryPredicate;
  return scope != nullptr ? *scope : kEveryPredicate;
}

// --- Semi-naive seed ownership ---

/// True for the literal kinds seeded by (and owning through) Δ⁺ —
/// positive and +event literals; negated and -event literals go with Δ⁻.
bool SeededByPlus(LiteralKind kind) {
  return kind == LiteralKind::kPositive || kind == LiteralKind::kEventInsert;
}

/// True iff every atom that can satisfy `lit` in I is one of the
/// `delta_count` Δ atoms of its predicate and class — its pre-Δ store
/// (base ∪ plus for a positive literal, plus for +event, minus for
/// -event) lies inside Δ, which holds those atoms. O(1): relation sizes
/// only. Negated literals hold by absence, so never.
bool StoreInsideDelta(const BodyLiteral& lit, const IInterpretation& interp,
                      size_t delta_count) {
  auto rows = [&](const Database& db) -> size_t {
    const Relation* rel = db.GetRelation(lit.atom.predicate);
    return rel != nullptr ? rel->size() : 0;
  };
  switch (lit.kind) {
    case LiteralKind::kPositive:
      return rows(interp.base()) == 0 && rows(interp.plus()) == delta_count;
    case LiteralKind::kEventInsert:
      return rows(interp.plus()) == delta_count;
    case LiteralKind::kEventDelete:
      return rows(interp.minus()) == delta_count;
    case LiteralKind::kNegated:
      return false;
  }
  return false;
}

/// An earlier body literal j of a seed group whose predicate has Δ atoms
/// of j's class: a completion g with lit_j(g) among those atoms, which
/// `atoms` holds, is also a completion of the earlier seed
/// (r, j, lit_j(g)), which owns it.
struct OwnerProbe {
  const AtomPattern* atom;
  const AtomTable* atoms;
};

/// True iff some owner probe claims the completion `binding` (`key` is
/// reused scratch).
bool OwnedByEarlierSeed(std::span<const OwnerProbe> owners,
                        std::span<const Value> binding,
                        std::vector<Value>& key) {
  for (const OwnerProbe& owner : owners) {
    key.clear();
    for (const Term& term : owner.atom->terms) {
      key.push_back(term.is_constant() ? term.constant()
                                       : binding[static_cast<size_t>(
                                             term.var_index())]);
    }
    const AtomView atom{owner.atom->predicate, key};
    if (owner.atoms->Find(atom) != AtomTable::kAbsent) return true;
  }
  return false;
}

/// The Δ atoms of one sign class, bucketed by predicate: `views` holds
/// them sorted by predicate, in Δ order within one, and `buckets` holds
/// one [begin, end) range of `views` per predicate, ascending. `owned`
/// holds the atoms of the buckets an ownership probe reads, filled on
/// first use: a program whose seed literals never follow a literal over
/// a changed predicate (every one-literal rule, for one) fills none.
struct DeltaClass {
  struct Bucket {
    PredicateId predicate;
    uint32_t begin;
    uint32_t end;
    bool owned;  // its atoms are in `owned`
  };

  std::vector<const AtomView*> views;
  std::vector<Bucket> buckets;
  AtomTable owned;

  /// Buckets `atoms` and sets `changed` to their predicates.
  void Build(const std::vector<AtomView>& atoms,
             std::vector<PredicateId>& changed) {
    views.clear();
    buckets.clear();
    owned.Clear();
    changed.clear();
    for (const AtomView& atom : atoms) views.push_back(&atom);
    // The views point into `atoms`, so ordering equal predicates by
    // address keeps Δ order: a stable sort that allocates nothing. A Δ of
    // one predicate, the common case, is sorted already.
    auto less = [](const AtomView* a, const AtomView* b) {
      return a->predicate != b->predicate ? a->predicate < b->predicate
                                          : std::less<>()(a, b);
    };
    if (!std::is_sorted(views.begin(), views.end(), less)) {
      std::sort(views.begin(), views.end(), less);
    }
    for (uint32_t i = 0; i < views.size(); ++i) {
      const PredicateId pred = views[i]->predicate;
      if (buckets.empty() || buckets.back().predicate != pred) {
        buckets.push_back(Bucket{pred, i, i, false});
        changed.push_back(pred);
      }
      buckets.back().end = i + 1;
    }
  }

  /// The bucket of `predicate`, or null.
  Bucket* Find(PredicateId predicate) {
    auto it = std::lower_bound(
        buckets.begin(), buckets.end(), predicate,
        [](const Bucket& b, PredicateId p) { return b.predicate < p; });
    return it != buckets.end() && it->predicate == predicate ? &*it
                                                              : nullptr;
  }

  std::span<const AtomView* const> Atoms(const Bucket& bucket) const {
    return {views.data() + bucket.begin, views.data() + bucket.end};
  }

  /// `owned`, holding `bucket`'s atoms.
  const AtomTable* Owned(Bucket& bucket) {
    if (!bucket.owned) {
      bucket.owned = true;
      for (const AtomView* atom : Atoms(bucket)) owned.Insert(*atom);
    }
    return &owned;
  }

  size_t capacity_bytes() const {
    return views.capacity() * sizeof(const AtomView*) +
           buckets.capacity() * sizeof(Bucket) + owned.capacity_bytes();
  }
};

// --- Γ units and their one runner ---

/// One Γ evaluation unit: `rule` matched through its cached `plan`, either
/// whole (`seed` null: full Γ) or from one Δ atom at the plan's seed
/// literal (semi-naive), dropping the completions `owners` assign to an
/// earlier seed. Plans are fetched on the coordinator before any parallel
/// freeze: compiling can grow the cache's index requirements, which the
/// freeze's prewarm must already include.
struct GammaUnit {
  const Rule* rule;
  const CompiledPlan* plan;
  const AtomView* seed;
  std::span<const OwnerProbe> owners;
};

/// Chunk tasks per pool thread: enough that an uneven chunk leaves the
/// other threads work to steal, few enough that per-task dispatch and
/// buffer overhead stay in the noise.
constexpr size_t kChunksPerThread = 4;

/// One pool task: the whole units [begin, end).
struct UnitTask {
  size_t begin;
  size_t end;
};

/// Partitions [0, units) into at most kChunksPerThread * threads
/// contiguous chunks balanced by `weight(unit)`, one task per chunk. One
/// pool task per (often tiny) unit would pay per-task dispatch and buffer
/// overhead that can swamp the matching itself — the regression profile
/// of fine-grained ECA workloads. Chunks preserve unit order, so the
/// merged buffers still concatenate to the sequential enumeration.
template <typename WeightFn>
std::vector<UnitTask> ChunkTasks(size_t units, int threads, WeightFn weight) {
  const size_t num_chunks = kChunksPerThread * static_cast<size_t>(threads);
  double total_weight = 0;
  for (size_t i = 0; i < units; ++i) total_weight += weight(i);
  std::vector<UnitTask> out;
  size_t begin = 0;
  double acc = 0;
  for (size_t i = 0; i < units; ++i) {
    acc += weight(i);
    bool cut = out.size() + 1 < num_chunks &&
               acc >= total_weight * static_cast<double>(out.size() + 1) /
                          static_cast<double>(num_chunks);
    if (cut || i + 1 == units) {
      out.push_back(UnitTask{begin, i + 1});
      begin = i + 1;
    }
  }
  return out;
}

/// Builds the index for every (predicate, column) of `columns` whose
/// relation exists in `db` (later-created relations can't be probed in
/// this section: matching only reads what exists now).
void PrewarmDatabase(const Database& db,
                     const IndexRequirements::ColumnsByPredicate& columns) {
  for (const auto& [pred, cols] : columns) {
    if (const Relation* rel = db.GetRelation(pred)) {
      for (int c : cols) rel->BuildIndex(c);
    }
  }
}

/// RAII guard for a parallel read-only matching section: builds every
/// index the program's plans can probe, then freezes I's three databases
/// so a missed prewarm fails loudly instead of racing on a lazy build.
class FrozenInterpretation {
 public:
  FrozenInterpretation(const IInterpretation& interp,
                       const IndexRequirements& requirements)
      : interp_(interp) {
    PrewarmDatabase(interp_.base(), requirements.base);
    PrewarmDatabase(interp_.plus(), requirements.plus);
    PrewarmDatabase(interp_.minus(), requirements.minus);
    interp_.base().FreezeIndexes();
    interp_.plus().FreezeIndexes();
    interp_.minus().FreezeIndexes();
  }

  ~FrozenInterpretation() {
    interp_.base().ThawIndexes();
    interp_.plus().ThawIndexes();
    interp_.minus().ThawIndexes();
  }

  FrozenInterpretation(const FrozenInterpretation&) = delete;
  FrozenInterpretation& operator=(const FrozenInterpretation&) = delete;

 private:
  const IInterpretation& interp_;
};

/// Appends the derivations of `units` to `out` in unit order and feeds
/// the cache's actual-rows counter. Sequentially, the units run one after
/// another. With `parallel`, contiguous chunks of whole units fan out over
/// the pool, and the per-task buffers are concatenated in task order,
/// which is exactly the sequential order: ownership is decided per
/// completion, never per buffer.
void RunUnits(const std::vector<GammaUnit>& units, const BlockedSet& blocked,
              const IInterpretation& interp, PlanCache& plans,
              ParallelGamma* parallel, CancellationToken* cancel,
              const DerivationScope& scope, Derivations& out) {
  // Matches one unit into `buffer`; returns its step-0 candidates (the
  // planner's actual-rows counter). B is probed with the matcher's binding
  // in place, and the buffer copies the head's values (plus the binding,
  // where the scope keeps the grounding) into its arena. Governance: each
  // derivation is charged to the token's work budget and the buffer's
  // bytes to its memory budget (UpdateScope is a no-op branch while the
  // capacity is unchanged). A fired token stops emission — the evaluator
  // discards the partial Γ.
  auto run = [&](const GammaUnit& unit, Derivations& buffer) -> size_t {
    const Rule& rule = *unit.rule;
    const PredicateId head = rule.head().atom.predicate;
    const bool can_clash = scope.CanClash(head);
    const bool keep_grounding = scope.KeepsGrounding(head);
    std::vector<Value> key;  // ownership probe scratch
    CancellationToken::MemoryScope mem_scope;
    auto emit = [&](std::span<const Value> binding) {
      if (cancel != nullptr && cancel->fired()) return;
      if (OwnedByEarlierSeed(unit.owners, binding, key)) return;
      if (!blocked.empty() &&
          blocked.Contains(GroundingView(rule.index(), binding))) {
        return;
      }
      buffer.Add(rule, binding, can_clash, keep_grounding);
      if (cancel != nullptr) {
        cancel->ChargeWork(1);
        cancel->UpdateScope(mem_scope, buffer.bytes());
      }
    };
    const size_t claimed =
        ExecutePlan(*unit.plan, rule, interp, unit.seed, emit, cancel);
    if (cancel != nullptr) cancel->CloseScope(mem_scope);
    return claimed;
  };

  if (parallel == nullptr || units.empty()) {
    size_t claimed = 0;
    for (const GammaUnit& unit : units) {
      if (cancel != nullptr && cancel->fired()) break;
      claimed += run(unit, out);
    }
    plans.AddActualRows(claimed);
    return;
  }

  const std::vector<UnitTask> tasks =
      ChunkTasks(units.size(), parallel->num_threads(), [&](size_t i) {
        return 1.0 + units[i].plan->estimated_candidates;
      });
  // The per-task lists are the thread's retained ones, emptied after the
  // merge: a warm section allocates none.
  SectionSpare& spare = ThreadSpare();
  if (spare.tasks.size() < tasks.size()) spare.tasks.resize(tasks.size());
  std::vector<Derivations>& buffers = spare.tasks;
  std::vector<size_t> claimed(tasks.size(), 0);
  {
    FrozenInterpretation frozen(interp, plans.requirements());
    const int64_t match_start =
        parallel->timing_enabled() ? MonotonicNanos() : 0;
    parallel->pool().ParallelFor(tasks.size(), [&](size_t i) {
      // A queued task whose token already fired starts no work at all —
      // the sticky flag drains the remaining section promptly.
      if (cancel != nullptr && cancel->fired()) return;
      size_t task_claimed = 0;
      for (size_t u = tasks[i].begin; u < tasks[i].end; ++u) {
        task_claimed += run(units[u], buffers[i]);
      }
      claimed[i] = task_claimed;
    });
    if (parallel->timing_enabled()) {
      parallel->RecordMatchNs(
          static_cast<uint64_t>(MonotonicNanos() - match_start));
    }
  }
  size_t total_claimed = 0;
  for (size_t c : claimed) total_claimed += c;
  plans.AddActualRows(total_claimed);
  const int64_t merge_start =
      parallel->timing_enabled() ? MonotonicNanos() : 0;
  size_t records = 0;
  size_t values = 0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    records += buffers[i].size();
    values += buffers[i].num_values();
  }
  out.Reserve(records, values);
  for (size_t i = 0; i < tasks.size(); ++i) {
    out.Append(buffers[i]);
    buffers[i].Clear();
  }
  spare.TrimToCap();
  if (parallel->timing_enabled()) {
    parallel->RecordMergeNs(
        static_cast<uint64_t>(MonotonicNanos() - merge_start));
  }
}

/// The thread's spare derivation list, empty, for a new section.
Derivations TakeSpareSection() {
  return std::exchange(ThreadSpare().section, Derivations());
}

/// One (rule, seed literal) group of a semi-naive section: its seeds,
/// and its owner probes as the range [owners_begin, owners_end) of the
/// section's probes.
struct SeedGroup {
  const Rule* rule;
  const CompiledPlan* plan;
  std::span<const AtomView* const> seeds;
  size_t owners_begin;
  size_t owners_end;
};

/// What a thread keeps from one semi-naive section for the next, so a
/// warm Δ step builds no container: Δ bucketed by sign class, the changed
/// predicates, the affected rules, the seed groups with their owner
/// probes, and the units. Within kRetainedSectionBytes.
struct DeltaSpare {
  DeltaClass plus;
  DeltaClass minus;
  DeltaState changed;
  std::vector<int> affected;
  std::vector<SeedGroup> groups;
  std::vector<OwnerProbe> owners;
  std::vector<GammaUnit> units;

  size_t RetainedBytes() const {
    return plus.capacity_bytes() + minus.capacity_bytes() +
           (changed.plus_changed.capacity() +
            changed.minus_changed.capacity()) *
               sizeof(PredicateId) +
           affected.capacity() * sizeof(int) +
           groups.capacity() * sizeof(SeedGroup) +
           owners.capacity() * sizeof(OwnerProbe) +
           units.capacity() * sizeof(GammaUnit);
  }
};

/// Lends the thread's DeltaSpare to one semi-naive section, emptied of
/// the last section's groups and units, and takes it back at scope exit
/// (freed past kRetainedSectionBytes). Lent by move: a section nested in
/// this one, as an observer's plan-compile callback could start, finds
/// an empty spare rather than this section's live buffers.
class LentDeltaSpare {
 public:
  LentDeltaSpare() : spare_(std::exchange(Retained(), DeltaSpare())) {
    spare_.groups.clear();
    spare_.owners.clear();
    spare_.units.clear();
  }
  ~LentDeltaSpare() {
    if (spare_.RetainedBytes() <= kRetainedSectionBytes) {
      Retained() = std::move(spare_);
    }
  }

  LentDeltaSpare(const LentDeltaSpare&) = delete;
  LentDeltaSpare& operator=(const LentDeltaSpare&) = delete;

  DeltaSpare& spare() { return spare_; }

 private:
  static DeltaSpare& Retained() {
    thread_local DeltaSpare spare;
    return spare;
  }

  DeltaSpare spare_;
};

}  // namespace

GammaResult::~GammaResult() {
  // Keep the larger list: the spare is empty unless two results were
  // alive at once.
  if (derivations.capacity_bytes() == 0) return;  // moved from, or empty
  SectionSpare& spare = ThreadSpare();
  if (derivations.capacity_bytes() <= spare.section.capacity_bytes()) return;
  derivations.Clear();
  spare.section = std::move(derivations);
  spare.TrimToCap();
}

GammaResult ComputeGamma(const Program& program, const BlockedSet& blocked,
                         const IInterpretation& interp, PlanCache& plans,
                         ParallelGamma* parallel, CancellationToken* cancel,
                         const DerivationScope* scope) {
  GammaResult result;
  result.derivations = TakeSpareSection();
  // One unseeded unit per rule, in program order. Γ never mutates I, so
  // fetching every plan up front gives the plans (and planner counters)
  // that fetching them one by one would. A body-less rule (an update of
  // P_U) has nothing to plan: it takes the empty plan, which emits its
  // one empty binding, and never asks the cache — so a cache sized to P
  // serves every P_U.
  static const CompiledPlan kBodyless;
  std::vector<GammaUnit> units;
  units.reserve(program.size());
  for (const Rule& rule : program.rules()) {
    const CompiledPlan& plan =
        rule.body().empty() ? kBodyless
                            : plans.Get(rule, /*seed_index=*/-1, interp);
    plans.AddEstimatedRows(plan.estimated_candidates);
    units.push_back(GammaUnit{&rule, &plan, nullptr, {}});
  }
  RunUnits(units, blocked, interp, plans, parallel, cancel, ScopeOrAll(scope),
           result.derivations);
  result.rules_evaluated = program.size();
  result.rules_considered = program.size();
  AnalyzeClashes(interp, result);
  return result;
}

bool RuleIsAffected(const Rule& rule, const DeltaState& delta) {
  if (delta.initial) return true;
  auto changed = [&](const std::vector<PredicateId>& preds,
                     PredicateId pred) {
    return std::binary_search(preds.begin(), preds.end(), pred);
  };
  for (const BodyLiteral& lit : rule.body()) {
    switch (lit.kind) {
      case LiteralKind::kPositive:
      case LiteralKind::kEventInsert:
        if (changed(delta.plus_changed, lit.atom.predicate)) return true;
        break;
      case LiteralKind::kNegated:
      case LiteralKind::kEventDelete:
        if (changed(delta.minus_changed, lit.atom.predicate)) return true;
        break;
    }
  }
  return false;
}

GammaResult ComputeGammaSemiNaive(const Program& program,
                                  const BlockedSet& blocked,
                                  const IInterpretation& interp,
                                  const DeltaAtoms& delta,
                                  const RuleDependencyGraph& graph,
                                  PlanCache& plans, ParallelGamma* parallel,
                                  CancellationToken* cancel,
                                  const DerivationScope* scope) {
  if (delta.initial) {
    return ComputeGamma(program, blocked, interp, plans, parallel, cancel,
                        scope);
  }
  GammaResult result;

  // Bucket the delta atoms by predicate (in Δ order) and let the watcher
  // index name the rules that can hold a seed — task building then
  // iterates those rules only (in program order), instead of crossing
  // every rule's body with the delta. Everything below lives in the
  // thread's retained DeltaSpare.
  LentDeltaSpare lent;
  DeltaSpare& spare = lent.spare();
  spare.changed.initial = false;
  spare.plus.Build(delta.plus, spare.changed.plus_changed);
  spare.minus.Build(delta.minus, spare.changed.minus_changed);
  graph.Schedule(spare.changed, spare.affected);
  result.rules_considered = spare.affected.size();
  if (spare.affected.empty()) {
    // Quick exit: no watched predicate changed, so no literal holds a
    // seed — an O(1) no-op step that never touches the pool, the plan
    // cache, or the derivation analysis (stepper_test pins this with the
    // scheduler counters).
    result.rules_skipped = program.size();
    result.consistent = true;
    return result;
  }

  // The Δ class a literal can be seeded by, and its bucket there (null:
  // none).
  auto delta_class = [&](const BodyLiteral& lit) -> DeltaClass& {
    return SeededByPlus(lit.kind) ? spare.plus : spare.minus;
  };
  auto seeds_of = [&](const BodyLiteral& lit) {
    return delta_class(lit).Find(lit.atom.predicate);
  };

  // The (rule, seed literal) groups of the affected rules, in program
  // then literal order; each group's owner probes are a range of
  // spare.owners.
  for (int r : spare.affected) {
    const Rule& rule = program.rule(r);
    const std::vector<BodyLiteral>& body = rule.body();
    bool evaluated = false;
    for (size_t i = 0; i < body.size(); ++i) {
      const DeltaClass::Bucket* seeds = seeds_of(body[i]);
      if (seeds == nullptr) continue;
      // An earlier literal that only Δ atoms can satisfy owns every
      // completion of this group.
      bool owned = false;
      for (size_t j = 0; j < i && !owned; ++j) {
        const DeltaClass::Bucket* earlier = seeds_of(body[j]);
        owned = earlier != nullptr &&
                StoreInsideDelta(body[j], interp,
                                 earlier->end - earlier->begin);
      }
      if (owned) continue;
      SeedGroup group{&rule, nullptr, delta_class(body[i]).Atoms(*seeds),
                      spare.owners.size(), 0};
      for (size_t j = 0; j < i; ++j) {
        if (DeltaClass::Bucket* earlier = seeds_of(body[j])) {
          spare.owners.push_back(OwnerProbe{
              &body[j].atom, delta_class(body[j]).Owned(*earlier)});
        }
      }
      group.owners_end = spare.owners.size();
      // One plan fetch per group: Γ never mutates I, so every seed of the
      // group would get the same plan.
      group.plan = &plans.Get(rule, static_cast<int>(i), interp);
      spare.groups.push_back(group);
      evaluated = true;
    }
    if (evaluated) ++result.rules_evaluated;
  }
  result.rules_skipped = program.size() - result.rules_evaluated;

  // One unit per (group, seed atom), in nested-loop order; the estimate
  // is fed per unit, like the actual rows.
  result.derivations = TakeSpareSection();
  const std::span<const OwnerProbe> owners = spare.owners;
  for (const SeedGroup& group : spare.groups) {
    for (const AtomView* atom : group.seeds) {
      spare.units.push_back(GammaUnit{
          group.rule, group.plan, atom,
          owners.subspan(group.owners_begin,
                         group.owners_end - group.owners_begin)});
      plans.AddEstimatedRows(group.plan->estimated_candidates);
    }
  }
  RunUnits(spare.units, blocked, interp, plans, parallel, cancel,
           ScopeOrAll(scope), result.derivations);
  AnalyzeClashes(interp, result);
  return result;
}

DerivationScope::DerivationScope(const std::vector<uint8_t>* signs,
                                 std::vector<PredicateId> extra,
                                 Groundings groundings)
    : signs_(signs), extra_(std::move(extra)), groundings_(groundings) {
  std::sort(extra_.begin(), extra_.end());
}

bool DerivationScope::CanClash(PredicateId predicate) const {
  if (signs_ == nullptr) return true;
  if (predicate < signs_->size() && (*signs_)[predicate] == kBothSigns) {
    return true;
  }
  return std::binary_search(extra_.begin(), extra_.end(), predicate);
}

bool DerivationScope::KeepsGrounding(PredicateId predicate) const {
  switch (groundings_) {
    case Groundings::kAll:
      return true;
    case Groundings::kClashScope:
      return CanClash(predicate);
    case Groundings::kNone:
      return false;
  }
  return true;
}

void Derivations::Add(const Rule& rule, std::span<const Value> binding,
                      bool can_clash, bool keep_grounding) {
  const AtomPattern& head = rule.head().atom;
  records_.push_back(Record{
      arena_.size(), rule.index(), head.predicate,
      static_cast<uint32_t>(head.terms.size()),
      keep_grounding ? static_cast<uint32_t>(binding.size()) : 0u,
      rule.head().action, can_clash, keep_grounding});
  for (const Term& term : head.terms) {
    arena_.push_back(term.is_constant()
                         ? term.constant()
                         : binding[static_cast<size_t>(term.var_index())]);
  }
  if (keep_grounding) {
    arena_.insert(arena_.end(), binding.begin(), binding.end());
  }
}

void Derivations::Append(const Derivations& other) {
  const size_t base = arena_.size();
  arena_.insert(arena_.end(), other.arena_.begin(), other.arena_.end());
  for (Record r : other.records_) {
    r.offset += base;
    records_.push_back(r);
  }
}

size_t ApplyDerivations(const Derivations& derivations,
                        IInterpretation& interp, DeltaAtoms* next_atoms) {
  if (next_atoms != nullptr) {
    next_atoms->initial = false;
    next_atoms->plus.clear();
    next_atoms->minus.clear();
  }
  size_t added = 0;
  bool groundings = false;
  for (const Derivations::Record& r : derivations) {
    groundings = groundings || r.has_grounding;
    auto [stored, is_new] =
        interp.Mark(r.action, derivations.atom(r), r.can_clash);
    if (!is_new) continue;
    ++added;
    if (next_atoms != nullptr) {
      (r.action == ActionKind::kInsert ? next_atoms->plus : next_atoms->minus)
          .push_back(AtomView{r.predicate, stored});
    }
  }
  // Provenance only once the section is known to add a mark: a section
  // that adds none is the fixpoint's, and leaves I as it was.
  if (added > 0 && groundings) {
    for (const Derivations::Record& r : derivations) {
      if (!r.has_grounding) continue;
      interp.RecordProvenance(r.action, derivations.atom(r),
                              derivations.grounding(r));
    }
  }
  return added;
}

size_t CountNewMarks(const Derivations& derivations,
                     const IInterpretation& interp) {
  AtomViewSet plus_seen;
  AtomViewSet minus_seen;
  size_t count = 0;
  for (const Derivations::Record& r : derivations) {
    const AtomView atom = derivations.atom(r);
    const bool insert = r.action == ActionKind::kInsert;
    if ((insert ? plus_seen : minus_seen).insert(atom).second &&
        !(insert ? interp.plus() : interp.minus()).Contains(atom)) {
      ++count;
    }
  }
  return count;
}

}  // namespace park

// The immediate consequence operator Γ(P,B) of paper §4.2.
//
// ComputeGamma enumerates every non-blocked rule grounding whose body is
// valid in I — i.e. exactly the marked atoms Γ(P,B)(I) would add — without
// mutating I. The Δ operator then either applies the derivations (the
// consistent case) or hands them to conflict construction (the
// inconsistent case).
//
// Both Γ evaluators list their work as one kind of unit — a rule matched
// through its cached plan, either unseeded (ComputeGamma: one unit per
// rule, in program order) or seeded by one Δ atom (ComputeGammaSemiNaive:
// (rule, literal, seed-atom) triples in nested loop order) — and hand the
// list to one runner, optionally on a thread pool (see ParallelGamma
// below). Parallel evaluation is an implementation detail, never a
// semantic one: matching is read-only (the storage layer's lazy index
// builds are hoisted out and the relations frozen for the section), every
// task runs a contiguous chunk of whole units into its own buffer, and the
// buffers are merged in task order — which is exactly the sequential unit
// order. The resulting derivation list, and hence every downstream
// artifact (traces, conflicts, provenance, the fixpoint itself), is
// bit-identical to the sequential engine's. docs/PARALLELISM.md spells
// out the argument.

#ifndef PARK_ENGINE_CONSEQUENCE_H_
#define PARK_ENGINE_CONSEQUENCE_H_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "engine/interpretation.h"
#include "engine/matcher.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace park {

class RuleDependencyGraph;  // engine/rule_graph.h

/// The sign bit of a head action in per-predicate sign masks; a predicate
/// whose mask is kBothSigns has heads of both signs.
inline uint8_t SignBit(ActionKind action) {
  return action == ActionKind::kInsert ? 1 : 2;
}
inline constexpr uint8_t kBothSigns = 3;

/// What the Δ loop reads of a Γ section's derivations beyond their head
/// atoms, per head predicate (docs/SEMANTICS.md "Γ"):
///  - the clash test runs over the predicates that can clash: those on
///    which the run can place marks of both signs, i.e. with heads of
///    both signs in P_U, or in P plus the seeds of a seeded closure;
///  - a derivation keeps its grounding only where something reads it:
///    conflict sides and provenance of an unseeded run read the clash
///    scope's, record_provenance every predicate's, a seeded closure
///    none (its first clash aborts it before any conflict is built).
/// The default scope puts every predicate in both, which is what a bare
/// evaluation (tests, the inflationary baseline) needs.
class DerivationScope {
 public:
  enum class Groundings { kAll, kClashScope, kNone };

  DerivationScope() = default;
  /// `signs` maps a predicate id to the SignBit mask of P's heads on it
  /// (ids past its end have none) and must outlive the scope; `extra`
  /// lists the predicates the run's updates or seeds make both-signed.
  DerivationScope(const std::vector<uint8_t>* signs,
                  std::vector<PredicateId> extra, Groundings groundings);

  bool CanClash(PredicateId predicate) const;
  bool KeepsGrounding(PredicateId predicate) const;

 private:
  const std::vector<uint8_t>* signs_ = nullptr;  // null: all can clash
  std::vector<PredicateId> extra_;                // sorted
  Groundings groundings_ = Groundings::kAll;
};

/// The firings of one Γ section, flat, the way VLog's SemiNaiver keeps
/// derivations as tables of values rather than objects per row: one
/// Record per firing (the rule, the head action and predicate, an offset)
/// over a single Value arena, so a firing allocates nothing of its own.
/// A record's head arguments sit at [offset, offset + arity) of the
/// arena; its grounding's binding follows them only where the section's
/// DerivationScope keeps it.
class Derivations {
 public:
  struct Record {
    size_t offset;
    int rule;               // index of the firing rule in its program
    PredicateId predicate;  // of the head
    uint32_t arity;         // of the head
    uint32_t binding_size;  // 0 without a grounding
    ActionKind action;
    bool can_clash;         // the head predicate is in the clash scope
    bool has_grounding;
  };
  using const_iterator = std::vector<Record>::const_iterator;

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const Record& operator[](size_t i) const { return records_[i]; }
  const_iterator begin() const { return records_.begin(); }
  const_iterator end() const { return records_.end(); }

  /// The ground head atom, a view into the arena.
  AtomView atom(const Record& r) const {
    return AtomView{r.predicate, {arena_.data() + r.offset, r.arity}};
  }
  /// The grounding (r, θ); the record must have one.
  GroundingView grounding(const Record& r) const {
    PARK_CHECK(r.has_grounding) << "derivation of rule " << r.rule
                                << " kept no grounding";
    return GroundingView{
        r.rule, {arena_.data() + r.offset + r.arity, r.binding_size}};
  }

  /// What the memory budget charges for the list: the bytes its records
  /// and values use, each rounded up to a power of two — the capacity a
  /// list grown from empty by doubling would hold. It depends on the
  /// list alone, never on the capacity a reused buffer brought along, and
  /// moves only when a size crosses a power of two.
  size_t bytes() const {
    return PowerOfTwoCharge(arena_.size() * sizeof(Value)) +
           PowerOfTwoCharge(records_.size() * sizeof(Record));
  }
  /// Bytes held: the arena's and the records' capacity.
  size_t capacity_bytes() const {
    return arena_.capacity() * sizeof(Value) +
           records_.capacity() * sizeof(Record);
  }
  /// Empties the list and keeps its capacity.
  void Clear() {
    records_.clear();
    arena_.clear();
  }

  /// Appends the firing of `rule` under `binding` (indexed by variable).
  void Add(const Rule& rule, std::span<const Value> binding, bool can_clash,
           bool keep_grounding);

  /// Appends `other`'s records after this list's, offsets rebased.
  void Append(const Derivations& other);

  /// Reserves room for `records` more records over `values` more values.
  void Reserve(size_t records, size_t values) {
    records_.reserve(records_.size() + records);
    arena_.reserve(arena_.size() + values);
  }
  size_t num_values() const { return arena_.size(); }

 private:
  static size_t PowerOfTwoCharge(size_t used) {
    return used == 0 ? 0 : std::bit_ceil(used);
  }

  std::vector<Record> records_;
  std::vector<Value> arena_;
};

/// The outcome of one Γ(P,B)(I) evaluation.
///
/// Its derivation list lives in a buffer the thread keeps between
/// sections: a Γ evaluation takes the thread's spare list (empty, with
/// the capacity of earlier sections), and the GammaResult hands it back
/// when it dies, within kRetainedSectionBytes. A warm Δ loop thus
/// allocates no derivation storage, whichever driver runs it.
struct GammaResult {
  GammaResult() = default;
  GammaResult(const GammaResult&) = default;
  GammaResult(GammaResult&&) = default;
  GammaResult& operator=(const GammaResult&) = default;
  GammaResult& operator=(GammaResult&&) = default;
  ~GammaResult();

  /// Every firable, non-blocked rule instance (including those whose head
  /// atom is already marked in I).
  Derivations derivations;

  /// True iff I ∪ {derived marks} contains no +a/-a pair. Only derivations
  /// in the clash scope are tested; no other can clash.
  bool consistent = true;

  /// The atoms that would be marked both + and -, sorted and de-duplicated
  /// (non-empty iff !consistent).
  std::vector<GroundAtom> clashing_atoms;

  /// Number of rules whose bodies were actually matched (= program size
  /// for ComputeGamma; possibly fewer for ComputeGammaSemiNaive).
  size_t rules_evaluated = 0;

  // Scheduler counters (docs/SCHEDULER.md). `rules_considered` counts
  // rules this Γ call examined for affectedness: the whole program on a
  // full Γ (ComputeGamma), only the watcher hits on a scheduled call, and
  // 0 on a quick-exited empty schedule. `rules_skipped` is the complement
  // of the rules matched (program size - rules_evaluated). Both are
  // schedule properties, invariant across thread counts.
  size_t rules_considered = 0;
  size_t rules_skipped = 0;
};

/// Shared state for parallel Γ evaluation: the worker pool plus its
/// timing counters. A ParkStepper's warm state (one run's,
/// or an ActiveDatabase's across commits) owns at most one and threads it
/// through every ComputeGamma* call; passing nullptr selects the
/// sequential path. The indexes a parallel section prewarms come from
/// the PlanCache's requirements().
class ParallelGamma {
 public:
  /// `num_threads` must be >= 2 (1 thread IS the sequential path; callers
  /// simply don't construct a ParallelGamma for it).
  explicit ParallelGamma(int num_threads) : pool_(num_threads) {}

  int num_threads() const { return pool_.num_threads(); }
  ThreadPool& pool() { return pool_; }
  const ThreadPool& pool() const { return pool_; }

  /// Switches wall-clock instrumentation of the parallel sections (see
  /// ParkOptions::collect_timings): fan-out time vs. merge time, plus the
  /// pool's own busy clock. Off by default; while off the sections read
  /// no clocks and the totals below stop advancing.
  void SetTiming(bool enabled) {
    timing_enabled_ = enabled;
    pool_.set_collect_timing(enabled);
  }
  bool timing_enabled() const { return timing_enabled_; }
  /// Coordinator wall time inside pool fan-outs / merging the per-task
  /// buffers back into sequential order, across all sections so far.
  uint64_t match_ns() const { return match_ns_; }
  uint64_t merge_ns() const { return merge_ns_; }
  void RecordMatchNs(uint64_t ns) { match_ns_ += ns; }
  void RecordMergeNs(uint64_t ns) { merge_ns_ += ns; }

 private:
  bool timing_enabled_ = false;
  uint64_t match_ns_ = 0;
  uint64_t merge_ns_ = 0;
  ThreadPool pool_;
};

/// Evaluates Γ(P,B)(I) as a derivation list; does not modify `interp`
/// (with `parallel`, rule matching fans out over the pool). `scope` (null:
/// every predicate) decides which derivations the clash test reads and
/// which keep their groundings.
///
/// Matching runs through the compiled plans of `plans` (ExecutePlan), and
/// the frozen parallel sections prewarm from the cache's accumulated
/// requirements. Body-less rules take the empty plan without a fetch, so
/// `plans` need only cover the rules with a body. The enumeration ORDER (hence derivation order) follows
/// the cached plan's literal order — see docs/PLANNER.md. The cache's
/// plan/row counters are advanced by the coordinator only, in unit order,
/// so they are thread-count invariant.
///
/// `cancel` (here and on the other ComputeGamma* entry points) is the
/// run's cooperative CancellationToken, forwarded into every ExecutePlan
/// call and polled by every worker; nullptr disables governance. Once the
/// token fires the returned GammaResult is PARTIAL and must be discarded
/// — the evaluator checks the token after each Γ and converts its cause
/// into the run's error status. Derivations are charged to the token's
/// work budget and the per-task buffers' bytes (Derivations::bytes) to
/// its memory budget as they grow.
GammaResult ComputeGamma(const Program& program, const BlockedSet& blocked,
                         const IInterpretation& interp, PlanCache& plans,
                         ParallelGamma* parallel = nullptr,
                         CancellationToken* cancel = nullptr,
                         const DerivationScope* scope = nullptr);

// --- Semi-naive evaluation (per-literal delta joins) ---
//
// Between two Γ applications of the same round, a rule can only produce a
// NEW derivation through a body literal that gained satisfying atoms since
// the last step: positive and +event literals gain from new `+` marks of
// their predicate, -event and negated literals from new `-` marks
// (validity by absence can only be lost as I grows). So each new mark
// SEEDS the body literals it can satisfy and only the completions of
// those seeds are enumerated (ExecutePlan with a seed atom) — seeding is
// complete.
// The result omits re-derivations that need no Δ atom. Each of those
// fired at an earlier step of the round and sits in the provenance, which
// is why conflicts built from the section are still maximal (DESIGN.md
// §2).
//
// A grounding g whose body holds Δ atoms at several literals is reachable
// from several seeds. It belongs to the FIRST such literal: the task
// (r, i, a) drops g when some earlier literal j < i has lit_j(g) in the Δ
// of j's sign class (Δ⁺ for positive and +event literals, Δ⁻ for negated
// and -event ones), because the task (r, j, lit_j(g)) — earlier in task
// order — emits g too. Each completion is thus derived exactly once, at
// its first occurrence in task order, with no grounding set.

/// Which predicates gained +/- marks in the previous Γ application — the
/// scheduler's changed-predicate key. `initial` marks a full evaluation
/// (start of a round / after restart).
struct DeltaState {
  bool initial = true;
  /// Ascending, without duplicates.
  std::vector<PredicateId> plus_changed;
  std::vector<PredicateId> minus_changed;
};

/// True if `rule` may produce a new derivation given `delta`. The
/// reference definition of the affected set: RuleDependencyGraph::Schedule
/// returns exactly {r : RuleIsAffected(r, delta)}, in program order
/// (rule_graph_test).
bool RuleIsAffected(const Rule& rule, const DeltaState& delta);

/// The actual atoms newly marked by the previous Γ application (each at
/// most once), as views of their tuples stored in I⁺ / I⁻: valid until
/// the marks are cleared.
struct DeltaAtoms {
  bool initial = true;
  std::vector<AtomView> plus;
  std::vector<AtomView> minus;

  void Reset() {
    initial = true;
    plus.clear();
    minus.clear();
  }
};

/// Γ(P,B)(I) as the set of seed-completions of `delta`. With
/// `delta.initial`, identical to ComputeGamma. Derivations are
/// duplicate-free, each at its first occurrence in (rule, literal,
/// Δ-atom) task order. With `parallel`, the (rule, seed) completions fan
/// out over the pool.
///
/// `graph` is the program's dependency analysis (engine/rule_graph.h):
/// the rules that can hold a seed come from its watcher index in
/// O(|changed predicates|), and an empty schedule quick-exits without
/// touching the pool or the plan cache. Each (rule, seed literal) group
/// fetches its plan once; a group whose earlier literal can only be
/// satisfied by Δ atoms (its pre-Δ store lies inside Δ) owns no
/// completion and is skipped whole.
GammaResult ComputeGammaSemiNaive(const Program& program,
                                  const BlockedSet& blocked,
                                  const IInterpretation& interp,
                                  const DeltaAtoms& delta,
                                  const RuleDependencyGraph& graph,
                                  PlanCache& plans,
                                  ParallelGamma* parallel = nullptr,
                                  CancellationToken* cancel = nullptr,
                                  const DerivationScope* scope = nullptr);

/// Applies `derivations` to `interp` in one pass, one IInterpretation::Mark
/// per derivation, and returns the number of marked atoms that were new.
/// The caller must have checked `consistent`. When given, `next_atoms` is
/// reset to the newly marked atoms — the delta the next semi-naive step
/// reads. The groundings a derivation keeps go into the provenance, but
/// only when some mark was new: a section that adds nothing (the
/// fixpoint's) leaves `interp` exactly as it was.
size_t ApplyDerivations(const Derivations& derivations,
                        IInterpretation& interp,
                        DeltaAtoms* next_atoms = nullptr);

/// The number of distinct marks among `derivations` not already in
/// `interp`: what ApplyDerivations would return, without applying.
size_t CountNewMarks(const Derivations& derivations,
                     const IInterpretation& interp);

}  // namespace park

#endif  // PARK_ENGINE_CONSEQUENCE_H_

// Body matching: enumerating the ground substitutions that make a rule
// body valid in an i-interpretation.
//
// Matching is plan-driven. A rule (or a (rule, Δ-seed-literal) variant) is
// compiled once into a CompiledPlan: a literal order, one CompiledStep per
// body literal with pre-resolved pattern slots, bind/check ops, and the
// index column each generator probes. The planner is cost-based: greedy
// smallest-estimated-candidate-stream ordering driven by live storage
// statistics (RelationStats: row counts and per-column distinct
// estimates), with the probe column chosen as the most selective bound
// column. See docs/PLANNER.md for the cost model and the determinism
// argument.
//
// Plans are cached per (rule, seed literal) in a PlanCache and invalidated
// only when the statistics they were computed from drift past a threshold,
// so steady-state evaluation compiles nothing. Execution is a flattened
// iterative loop over the compiled steps with arena-backed candidate
// buffers (util/arena.h) — no per-literal recursion and zero steady-state
// heap allocation.
//
// Matching never mutates the interpretation, with one historical
// exception: the storage layer's lazy column-index build. The
// requirements() of a PlanCache are derived from the compiled plans
// themselves (a monotone union over every plan ever compiled), so the
// parallel evaluator can build exactly the indexes any cached plan probes
// and freeze the relations for the duration of the parallel section.

#ifndef PARK_ENGINE_MATCHER_H_
#define PARK_ENGINE_MATCHER_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "engine/interpretation.h"
#include "util/function_ref.h"

namespace park {

class CancellationToken;

/// How compiled plans execute (ParkOptions::exec_mode). kTuple is the
/// classic tuple-at-a-time backtracking executor over per-column hash
/// indexes. kBatch is batch-at-a-time: steps consume and produce whole
/// binding batches against the storage layer's sorted, dictionary-encoded
/// columnar segments (storage/segment.h), with per-step probe or
/// sorted-merge joins.
/// The two modes enumerate the same match SET for every plan — the batch
/// candidate stream is the canonical sorted segment order instead of hash
/// order — and each mode is bit-identical across thread counts
/// (docs/STORAGE.md; differential_test sweeps exec_mode).
enum class ExecMode {
  kTuple,
  kBatch,
};

/// Physical join operator of one batch-mode generator step, chosen at
/// plan-compile time from estimated cardinalities (tuple mode always
/// probes). kMerge sorts the incoming batch by its probe-key and walks
/// the segment's sorted column once per distinct key; kProbe binary-
/// searches the segment per binding (or hash-probes in tuple mode).
enum class JoinAlgo : uint8_t {
  kProbe,
  kMerge,
};

/// Batch-execution row counters, accumulated atomically by worker threads
/// (each counter is a sum over a partition of the same row multiset, so
/// the totals are thread-count invariant; surfaced as the park-stats-v1
/// "exec" block). All stay 0 in tuple mode.
struct ExecStats {
  std::atomic<uint64_t> batch_rows{0};  // step-0 bindings materialized
  std::atomic<uint64_t> probe_rows{0};  // bindings emitted by probe joins
  std::atomic<uint64_t> merge_rows{0};  // bindings emitted by merge joins
};

/// One body literal of a compiled plan, in execution order, with every
/// per-candidate decision pre-resolved at compile time. Variable boundness
/// at a given step is static (it depends only on the literal order and the
/// seed), so execution needs no dynamic bound-flag array: a slot is
/// constant, bound-variable, or free once and for all.
struct CompiledStep {
  /// A pattern position of the literal.
  struct Slot {
    enum class Kind : uint8_t {
      kConst,     // constant term: pattern gets `constant`
      kBoundVar,  // variable bound by the seed or an earlier step
      kFree,      // variable this step binds (or re-checks, see checks)
    };
    Kind kind = Kind::kFree;
    int var = -1;    // variable index (kBoundVar / kFree)
    Value constant;  // (kConst)
  };

  int literal_index = 0;  // index into rule.body()
  LiteralKind kind = LiteralKind::kPositive;
  PredicateId predicate = 0;
  /// True when every slot is kConst/kBoundVar: the step grounds the
  /// literal and checks validity (a constant-time filter, never a
  /// candidate generator).
  bool filter = false;
  /// Pattern position whose column index the candidate scan probes; -1
  /// means full scan (no bound position). Generator steps only.
  int probe_column = -1;
  std::vector<Slot> slots;
  /// (position, var): first occurrence of each free variable — bound from
  /// the candidate tuple.
  std::vector<std::pair<int, int>> binds;
  /// (position, var): repeated occurrence of a free variable within this
  /// literal — checked against the binding made by its first occurrence
  /// (the TuplePattern cannot express intra-literal equality).
  std::vector<std::pair<int, int>> checks;
  /// Planner's estimate of this step's candidate stream size given the
  /// statistics at compile time (for EXPLAIN; 0 for filter steps).
  double estimated_rows = 0;
  /// Physical join operator when the plan executes in batch mode (see
  /// JoinAlgo); tuple mode ignores it. Chosen at compile time so the
  /// choice replays bit-identically with the plan.
  JoinAlgo join = JoinAlgo::kProbe;
};

/// A rule body compiled against one statistics snapshot. Pure function of
/// (rule, seed_index, stats snapshot) — recompiling with unchanged
/// statistics yields an identical plan, which is what makes fixed-config
/// runs bit-identical across repeats.
struct CompiledPlan {
  int rule_index = 0;
  int seed_index = -1;  // body literal pre-bound by a Δ seed; -1 = none
  std::vector<CompiledStep> steps;
  /// Seed literal binding program (seed plans only): how to bind/check the
  /// rule's variables against the seed atom.
  std::vector<CompiledStep::Slot> seed_slots;
  /// Estimate of the first generator step's candidate stream (the
  /// planner's predicted `actual_rows` per execution; 0 when the first
  /// step is a filter or the body is empty).
  double estimated_candidates = 0;

  /// Row counts of every store the plan's cost depends on, at compile
  /// time. PlanCache::Get replans when the live counts drift past a
  /// threshold (see docs/PLANNER.md).
  struct StoreRows {
    uint8_t store = 0;  // 0 = base, 1 = plus, 2 = minus
    PredicateId predicate = 0;
    size_t rows = 0;
  };
  std::vector<StoreRows> stats_snapshot;
};

/// Compile-time summary of one plan, for the EXPLAIN output and the
/// RunObserver::OnPlanCompiled hook.
struct PlanExplanation {
  int rule_index = 0;
  int seed_index = -1;
  bool replan = false;  // recompile triggered by statistics drift
  double estimated_candidates = 0;
  struct Step {
    int literal_index = 0;
    bool filter = false;
    int probe_column = -1;
    double estimated_rows = 0;
    JoinAlgo join = JoinAlgo::kProbe;
  };
  std::vector<Step> steps;
};

// --- Compiled-plan interface ---

/// Compiles `rule` (with `seed_index` pre-bound; -1 for unseeded) against
/// the statistics of `interp`.
CompiledPlan CompilePlan(const Rule& rule, int seed_index,
                         const IInterpretation& interp);

/// Executes `plan` over `interp`; `fn` is invoked once per match with the
/// binding (indexed by variable), a view of the executor's scratch valid
/// only during the call.
/// Returns the number of step-0 candidates (pre-dedup; the planner's
/// actual-rows counter). `rule` must be the rule the plan was compiled
/// from. A rule with an empty body yields exactly one (empty) binding.
///
/// `seed` is non-null exactly when the plan is seeded (`plan.seed_index`
/// >= 0), the semi-naive building block: only the matches in which body
/// literal `plan.seed_index` is grounded by exactly `*seed` are
/// enumerated. The seed literal is bound against the atom first
/// (returning 0 matches if constants / repeated variables disagree); the
/// caller guarantees the atom makes the literal valid (it came from the
/// engine's delta of new marks).
///
/// `cancel` is the run's cooperative cancellation token, polled every
/// CancellationToken::kCheckStride visited tuples; nullptr disables
/// polling. Once the token fires, enumeration stops early: the candidate
/// count and emitted matches are partial and MUST be discarded by the
/// caller — the evaluator converts the token's cause into the run's error
/// status.
///
/// `exec` picks the executor (see ExecMode); in batch mode `exec_stats`
/// (optional) accumulates the batch row counters.
size_t ExecutePlan(const CompiledPlan& plan, const Rule& rule,
                   const IInterpretation& interp, const AtomView* seed,
                   FunctionRef<void(std::span<const Value> binding)> fn,
                   CancellationToken* cancel = nullptr,
                   ExecMode exec = ExecMode::kTuple,
                   ExecStats* exec_stats = nullptr);

/// The column indexes that evaluating a program's bodies can probe, per
/// predicate, split by which part of the i-interpretation the matcher
/// reads them from (kPositive literals probe base AND plus; +event plus;
/// -event minus; negated literals are never generators). Derived from the
/// compiled plans themselves, so it is exact for the plans it was
/// collected from, never an over-approximation of a different planner.
struct IndexRequirements {
  using ColumnsByPredicate =
      std::unordered_map<PredicateId, std::vector<int>>;
  ColumnsByPredicate base;
  ColumnsByPredicate plus;
  ColumnsByPredicate minus;
};

/// Adds the probes of `plan` into `out` (dedup'd).
void AddPlanRequirements(const CompiledPlan& plan, IndexRequirements& out);

/// Per-(program, schema) plan cache: one CompiledPlan per (rule, Δ-seed
/// literal) slot, compiled on first use against the live statistics and
/// recompiled only when those statistics drift past a threshold
/// (docs/PLANNER.md). Single-threaded by design: the evaluator
/// coordinator calls Get before fanning a parallel section out, and
/// workers only execute the returned plans. The cache is sized to the
/// program it is built from and keeps no reference to it, so it outlives
/// one evaluation and also serves P_U, P extended with body-less update
/// rules: those take the empty plan and never ask the cache for one.
class PlanCache {
 public:
  explicit PlanCache(const Program& program);

  /// The plan for (`rule`, `seed_index`), compiling or replanning as
  /// needed. The reference stays valid until the next Get for the same
  /// slot. `rule` must be one of the rules the cache was sized for.
  const CompiledPlan& Get(const Rule& rule, int seed_index,
                          const IInterpretation& interp);

  /// Union of the probes of every plan ever compiled by this cache —
  /// monotone, so a plan obtained from Get never probes an index outside
  /// requirements(), even across replans.
  const IndexRequirements& requirements() const { return requirements_; }

  /// Called after each compile (initial or replan) with the new plan's
  /// explanation — the evaluator forwards this to RunObserver /
  /// the EXPLAIN output.
  using CompileListener = std::function<void(const PlanExplanation&)>;
  void set_compile_listener(CompileListener listener) {
    listener_ = std::move(listener);
  }

  // --- planner counters (surfaced as ParkStats "planner" block) ---
  uint64_t plans_compiled() const { return plans_compiled_; }
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t replans() const { return replans_; }
  /// Accumulators the evaluator feeds per evaluation unit: the compiled
  /// plan's estimated first-step candidates vs. the candidates actually
  /// claimed by execution.
  void AddEstimatedRows(double rows) { estimated_rows_ += rows; }
  void AddActualRows(uint64_t rows) { actual_rows_ += rows; }
  uint64_t estimated_rows() const;
  uint64_t actual_rows() const { return actual_rows_; }

 private:
  bool Drifted(const CompiledPlan& plan, const IInterpretation& interp) const;
  const CompiledPlan& Install(std::unique_ptr<CompiledPlan>& slot,
                              const Rule& rule, int seed_index,
                              const IInterpretation& interp, bool replan);

  // plans_[rule][seed_index + 1]; null = not compiled yet.
  std::vector<std::vector<std::unique_ptr<CompiledPlan>>> plans_;
  IndexRequirements requirements_;
  CompileListener listener_;
  uint64_t plans_compiled_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t replans_ = 0;
  double estimated_rows_ = 0;
  uint64_t actual_rows_ = 0;
};

/// Flattens a compiled plan into its explanation record (what the
/// PlanCache hands to its compile listener). For ad-hoc EXPLAIN dumps
/// outside a cache — parkcli compiles and explains per rule.
PlanExplanation ExplainPlan(const CompiledPlan& plan, bool replan = false);

/// Renders a one-line summary ("plan rule=2 seed=1: lit3[probe c0 ~12
/// rows] -> lit1[filter]") for traces and EXPLAIN. A seeded plan with no
/// step left renders its seed literal ("lit0[seed]").
std::string ExplainPlanLine(const PlanExplanation& explanation);

}  // namespace park

#endif  // PARK_ENGINE_MATCHER_H_

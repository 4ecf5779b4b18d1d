// The PARK semantics (paper §4.2/§4.3): the Δ transition operator on
// bi-structures, its fixpoint ω, and the top-level entry points
//
//   PARK(P, D)     = incorp(int(ω_P(⟨∅, D⟩)))            (condition-action)
//   PARK(D, P, U)  = incorp(int(ω_{P_U}(⟨∅, D⟩)))        (full ECA)
//
// where P_U = P ∪ { → ±a | ±a ∈ U } seeds the transaction's updates as
// body-less rules, so update/rule conflicts are handled uniformly and the
// updates survive restarts.
//
// Park() is a driver over ParkStepper (core/stepper.h), the one
// implementation of the Δ loop: it constructs a stepper, runs it to its
// fixpoint, and finishes the run; ActiveDatabase commits run the same
// stepper. differential_test checks every configuration of both against
// ReferencePark, a definition-level evaluator (docs/SEMANTICS.md,
// "Reference evaluator").

#ifndef PARK_CORE_PARK_EVALUATOR_H_
#define PARK_CORE_PARK_EVALUATOR_H_

#include "core/conflict.h"
#include "core/observer.h"
#include "core/policy.h"
#include "core/trace.h"

namespace park {

class CancellationToken;

/// One transaction update ±a (paper §4.3).
struct Update {
  ActionKind action = ActionKind::kInsert;
  GroundAtom atom;

  friend bool operator==(const Update& a, const Update& b) {
    return a.action == b.action && a.atom == b.atom;
  }
};

/// Whether ActiveDatabase commits maintain the materialized PARK
/// fixpoint incrementally across commits (docs/INCREMENTAL.md). With
/// kIncremental, a commit whose program and update set pass the
/// eligibility gates re-derives only the cone seeded from U over the
/// already-stable database instead of recomputing PARK(D, P, U) from
/// scratch — bit-identical results (differential_test), commit
/// cost proportional to |U| and its cone. Ineligible commits (conflicts,
/// event/negation feedback, derived-predicate deletes, governance or
/// tracing armed) fall back to the full evaluator transparently and are
/// counted in ParkStats::maint_full_recompute_fallbacks. Consulted only
/// by ActiveDatabase/Session; a bare Park() call ignores it.
enum class MaintenanceMode {
  kOff,
  kIncremental,
};

/// Kept only so ParkOptions::exec_mode still compiles for callers that set
/// it (park_bench's traced `--exec` diagnostic). Every value runs the same
/// tuple-at-a-time plan executor (engine/matcher.h); kBatch is ignored.
enum class ExecMode {
  kTuple,
  kBatch,
};

/// Evaluation parameters. Default-constructed options use the principle
/// of inertia and no tracing.
struct ParkOptions {
  /// The SELECT policy. If null, MakeInertiaPolicy() is used.
  PolicyPtr policy;
  BlockGranularity block_granularity = BlockGranularity::kAllConflicts;
  /// Upper bound on Γ applications across all restarts; exceeding it
  /// returns kResourceExhausted. PARK terminates on every input, so this
  /// only guards against misconfigured gigantic workloads.
  size_t max_steps = 1'000'000;
  /// Wall-clock budget for one evaluation in milliseconds; 0 means
  /// unlimited. Exceeding it returns kDeadlineExceeded with the stored
  /// database untouched. Enforced cooperatively INSIDE Γ steps (every
  /// CancellationToken::kCheckStride tuples, on every worker thread), so
  /// even one giant candidate stream is interrupted promptly.
  int64_t deadline_ms = 0;
  /// External cancel source. When non-null and fired (its
  /// RequestCancel(), or any of its own budgets), the evaluation stops at
  /// the next poll and returns kCancelled. Not owned; must outlive the
  /// call. The run still gets its own internal token — this one is
  /// chained, so a caller-held token can cancel many runs.
  CancellationToken* cancel = nullptr;
  /// Evaluation memory budget in bytes across all worker scratch arenas
  /// and derivation buffers; 0 means unlimited. Exceeding it returns
  /// kResourceExhausted (cooperatively — polled at the same stride as the
  /// deadline, so overshoot is bounded) instead of OOM-ing the process.
  size_t max_memory_bytes = 0;
  /// Upper bound on derivations produced across all Γ steps and restarts;
  /// 0 means unlimited. A deterministic, clock-free budget (useful where
  /// deadline tests would be flaky): exceeding it returns
  /// kResourceExhausted.
  uint64_t max_derivations = 0;
  /// Commit-pipeline I/O fault tolerance (used by ActiveDatabase, not by
  /// Park itself): a journal append/flush/sync that fails with a
  /// TRANSIENT error (kUnavailable) is retried up to `io_max_retries`
  /// times with capped exponential backoff starting at `io_backoff_ms`
  /// (0 = retry immediately, no sleep). Permanent errors never retry.
  int io_max_retries = 3;
  int64_t io_backoff_ms = 0;
  TraceLevel trace_level = TraceLevel::kNone;
  /// When set, ParkResult::provenance explains every surviving marked
  /// atom: which rule groundings derived it in the final round.
  bool record_provenance = false;
  /// Threads used to evaluate Γ. 1 (default) is the sequential path; 0
  /// means one per hardware thread; N > 1 runs body matching on a pool of
  /// N threads (clamped to 4x hardware concurrency). Results are
  /// bit-identical across all settings — parallel Γ preserves PARK's
  /// determinism (see docs/PARALLELISM.md).
  int num_threads = 1;
  /// Ignored: compiled plans always run tuple-at-a-time. Kept because
  /// park_bench's traced `--exec` diagnostic still sets it; stepper_test
  /// pins that kBatch changes no result, trace or counter.
  ExecMode exec_mode = ExecMode::kTuple;
  /// Incremental fixpoint maintenance across commits (see MaintenanceMode
  /// above and docs/INCREMENTAL.md). Default off until a deployment has
  /// been oracle-swept; `parkcli --maintenance on|off` exposes it and
  /// park_bench's kilorule_commit measures it. Never affects results —
  /// ineligible commits fall back to the full evaluator.
  MaintenanceMode maintenance_mode = MaintenanceMode::kOff;
  /// Observation hooks at the loop's structural points (see
  /// core/observer.h). Not owned; must outlive the evaluation. Null means
  /// no observation (each hook site is then a single branch). A free
  /// knob: observers receive read-only views and cannot change results —
  /// a throwing observer is detached and logged, never propagated.
  RunObserver* observer = nullptr;
  /// Collect wall-clock phase timings into ParkStats::timings. Off by
  /// default: when on, the evaluator reads the clock a few times per Γ
  /// step (and the thread pool once per section); when off, the cost is
  /// one branch per step and every timing field stays 0.
  bool collect_timings = false;
};

/// Validates an options bundle before use. Rejects (kInvalidArgument):
/// negative num_threads, max_steps == 0, negative
/// deadline_ms, negative io_max_retries, negative io_backoff_ms.
/// ActiveDatabase::Configure and parkcli call this at the boundary;
/// Configure is the only way options reach an ActiveDatabase, so its
/// commits never re-check.
Status ValidateOptions(const ParkOptions& options);

/// Wall-clock decomposition of one evaluation, collected only when
/// ParkOptions::collect_timings is set (every field stays 0 otherwise;
/// `collected` says which case this is). All values are nanoseconds of
/// coordinator wall time; phases overlap-free except as noted.
struct PhaseTimings {
  bool collected = false;
  uint64_t total_ns = 0;           // whole evaluation, entry to result
  uint64_t gamma_ns = 0;           // Γ sections, one per step
  uint64_t apply_ns = 0;           // ApplyDerivations* after consistent Γ
  uint64_t conflict_ns = 0;        // conflict build + policy loop
  uint64_t policy_ns = 0;          // SELECT calls (subset of conflict_ns)
  // Parallel split of gamma_ns (0 on sequential runs): time inside the
  // pool fan-out vs. concatenating the per-task buffers afterwards.
  uint64_t parallel_match_ns = 0;  // inside ThreadPool::ParallelFor
  uint64_t parallel_merge_ns = 0;  // task-ordered buffer merge
  /// The pool's own section clock (ThreadPool::busy_ns); divided by
  /// parallel_tasks it bounds mean task latency from above.
  uint64_t pool_busy_ns = 0;
};

/// Counters describing one evaluation.
struct ParkStats {
  size_t gamma_steps = 0;         // consistent Γ applications
  size_t restarts = 0;            // conflict-resolution rounds
  size_t conflicts_resolved = 0;  // individual conflicts decided
  size_t blocked_instances = 0;   // rule groundings in the final B
  size_t derived_marks = 0;       // marked-atom insertions (all rounds)
  size_t policy_invocations = 0;  // SELECT calls
  size_t rule_evaluations = 0;    // rule-body matchings across all steps
  // Parallel-Γ counters (see ParkOptions::num_threads). `parallel_tasks`
  // counts pool tasks: each runs a contiguous chunk of whole units
  // (rules or Δ-seeds), so it never exceeds the units evaluated.
  size_t num_threads = 1;         // resolved thread count for the run
  size_t parallel_sections = 0;   // non-empty Γ fan-outs on the pool
  size_t parallel_tasks = 0;      // matching tasks queued across sections
  /// Largest single ParallelFor section of the run — the peak "queue
  /// depth" the pool saw (0 on sequential runs).
  size_t parallel_max_queue_depth = 0;
  // Join-planner counters (see docs/PLANNER.md). Deterministic for a
  // fixed configuration and invariant across thread counts: the
  // coordinator fetches plans and accumulates rows in unit order on both
  // the sequential and parallel paths (asserted in differential_test).
  size_t plans_compiled = 0;   // plan compilations, replans included
  size_t plan_cache_hits = 0;  // Get() calls served from the cache
  size_t plan_replans = 0;     // recompiles triggered by stats drift
  /// Σ estimated first-step stream rows across evaluation units vs. the Σ
  /// of actually enumerated stream rows — the cost model's calibration.
  size_t planner_estimated_rows = 0;
  size_t planner_actual_rows = 0;
  // Scheduler counters (see docs/SCHEDULER.md), summed over every Γ call
  // of the run. Thread-invariant: the affected set is a property of the
  // delta, never of the pool. `sched_rules_considered` counts rules
  // examined for affectedness (the whole program on a full Γ, watcher
  // hits on a scheduled step, 0 on quick-exited steps);
  // `sched_rules_skipped` counts rules not matched.
  size_t sched_rules_considered = 0;
  size_t sched_rules_skipped = 0;
  // Resource-governance counters (see ParkOptions::{deadline_ms,
  // max_memory_bytes, max_derivations, cancel} and docs/ROBUSTNESS.md).
  // The limits echo the options; peak_memory_bytes is the high-water mark
  // of the run token's cooperative byte accounting (0 when no memory
  // budget was armed — accounting is then skipped entirely);
  // derivations_charged counts derivations reported to the work budget.
  size_t memory_limit_bytes = 0;
  size_t peak_memory_bytes = 0;
  uint64_t derivation_limit = 0;
  uint64_t derivations_charged = 0;
  // Commit-pipeline I/O retry counters (docs/ROBUSTNESS.md). Zero for a
  // pure evaluation; ActiveDatabase::CommitUpdates folds the journal's
  // per-commit numbers into the report's stats. `io_attempts` counts
  // journal append attempts (>= 1 per journaled commit), `io_retries` the
  // re-attempts after a transient failure, `io_backoff_ms_total` the
  // backoff slept between them, and `io_retries_exhausted` is 1 when the
  // commit still failed after the last allowed retry.
  uint64_t io_attempts = 0;
  uint64_t io_retries = 0;
  uint64_t io_backoff_ms_total = 0;
  uint64_t io_retries_exhausted = 0;
  // Always 0, in no stats block: park_bench's harness still reads them.
  size_t storage_compactions = 0;
  size_t storage_segment_rows = 0;
  // Serving-layer counters (docs/SERVING.md). Zero for a bare evaluation;
  // serve::Session fills them in the stats it exposes and in the reports
  // handed back from group commits. `batch_size_hist` buckets completed
  // batch sizes as 1 / 2 / 3-4 / 5-8 / 9-16 / 17+.
  struct ServingCounters {
    uint64_t batches = 0;           // group commits (journal records)
    uint64_t batched_txns = 0;      // transactions folded into them
    uint64_t max_batch_size = 0;    // largest batch committed
    uint64_t batch_size_hist[6] = {0, 0, 0, 0, 0, 0};
    uint64_t poisoned_batches = 0;  // batches that fell back to retry
    uint64_t individual_retries = 0;  // member txns retried solo
    uint64_t snapshots_opened = 0;    // Snapshot() calls, lifetime
    uint64_t snapshots_pinned = 0;    // snapshots currently alive
    uint64_t segment_generations_retained = 0;  // distinct pinned gens

    void RecordBatch(uint64_t size) {
      ++batches;
      batched_txns += size;
      if (size > max_batch_size) max_batch_size = size;
      int b = size <= 1 ? 0
              : size == 2 ? 1
              : size <= 4 ? 2
              : size <= 8 ? 3
              : size <= 16 ? 4
                           : 5;
      ++batch_size_hist[b];
    }
  };
  ServingCounters serving;
  // Maintenance counters (see ParkOptions::maintenance_mode and
  // docs/INCREMENTAL.md). Zero for a bare evaluation and under
  // maintenance off; ActiveDatabase fills them per commit. Deterministic
  // for a fixed configuration and invariant across thread counts: the
  // seed set, the cone, and the fallback decision are properties of
  // (D, P, U), never of the pool. `maint_commits` is 1 when the commit
  // was served incrementally; `maint_atoms_overdeleted` counts stored
  // atoms removed by the commit's over-delete phase;
  // `maint_atoms_rederived` counts marks produced by the seeded
  // re-derivation closure; `maint_cone_rules` is the number of rules in
  // the dependency cone reachable from U's predicates; and
  // `maint_full_recompute_fallbacks` is 1 when maintenance was on but
  // the commit fell back to the from-scratch evaluator.
  MaintenanceMode maintenance_mode = MaintenanceMode::kOff;
  uint64_t maint_commits = 0;
  uint64_t maint_atoms_overdeleted = 0;
  uint64_t maint_atoms_rederived = 0;
  uint64_t maint_cone_rules = 0;
  uint64_t maint_full_recompute_fallbacks = 0;
  /// Phase timers (see ParkOptions::collect_timings).
  PhaseTimings timings;

  /// Renders the documented stats schema (docs/OBSERVABILITY.md):
  ///   {"schema": "park-stats-v1",
  ///    "counters": {...},   // deterministic: identical across threads
  ///    "parallel": {...},   // partitioning-dependent pool counters
  ///    "planner": {...},    // join-planner counters (deterministic)
  ///    "scheduler": {...},  // Γ-scheduler counters (docs/SCHEDULER.md)
  ///    "resource": {...},   // budgets armed + peaks (docs/ROBUSTNESS.md)
  ///    "io_retry": {...},   // commit-pipeline retry counters
  ///    "serving": {...},    // group-commit + snapshot counters
  ///    "maintenance": {...},// incremental-fixpoint counters
  ///    "timings": {"collected": bool, <phase>_ns...}}
  /// The "counters" object is invariant across num_threads settings
  /// (asserted in stats_invariance_test);
  /// "parallel" and "timings" are explicitly not. "planner" is invariant
  /// across thread counts too (differential_test).
  std::string ToJson() const;
};

/// Why one update survived into the result: the marked atom (with its
/// sign) and every rule grounding that derived it in the final round.
struct AtomProvenance {
  std::string atom;                     // e.g. "+q(a)" or "-payroll(jo, 5)"
  std::vector<std::string> derived_by;  // rendered RuleGroundings, sorted
};

/// Everything PARK(P, D) produces.
struct ParkResult {
  /// The result database instance.
  Database database;
  ParkStats stats;
  Trace trace;
  /// The final blocked set B, rendered and sorted (e.g. {"(r2)", "(r5)"}).
  std::vector<std::string> blocked;
  /// Populated iff options.record_provenance: one entry per marked atom
  /// of the final fixpoint, sorted by rendered atom. Unmarked atoms come
  /// from D and have no provenance.
  std::vector<AtomProvenance> provenance;
};

/// Computes PARK(P, D). `program` and `db` must share a symbol table.
/// Runs a ParkStepper to its fixpoint I and returns incorp(I) as a new
/// Database, which costs one copy of `db` (O(|D|)); the commit path
/// (ActiveDatabase) reads what changed off the marks instead
/// (IInterpretation::MarkDiff).
/// Errors: kAborted if the policy abstains or makes no progress,
/// kResourceExhausted past options.max_steps / max_memory_bytes /
/// max_derivations, kDeadlineExceeded past options.deadline_ms,
/// kCancelled via options.cancel, plus any policy failure. On every
/// error the input database is untouched (evaluation is copy-on-write).
Result<ParkResult> Park(const Program& program, const Database& db,
                        const ParkOptions& options = {});

/// Computes PARK(D, P, U) — full ECA form with transaction updates.
Result<ParkResult> Park(const Database& db, const Program& program,
                        const std::vector<Update>& updates,
                        const ParkOptions& options = {});

/// Builds P_U: a clone of `program` extended with a body-less seed rule
/// `-> ±a` per update, appended after P's rules. Park(db, P, U) and the
/// unseeded commit run evaluate it.
Result<Program> ProgramWithUpdates(const Program& program,
                                   const std::vector<Update>& updates);

}  // namespace park

#endif  // PARK_CORE_PARK_EVALUATOR_H_

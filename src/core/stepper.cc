#include "core/stepper.h"

#include <set>
#include <unordered_map>

#include "core/run_stats.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace park {
namespace {

/// Arms the run's CancellationToken from the options (deadline, memory /
/// derivation budgets, chained external cancel). Returns nullptr when no
/// governance is configured — the matcher and Γ workers then skip polling
/// entirely, keeping the ungoverned fast path free of even the stride
/// counters' branches.
CancellationToken* ArmRunToken(CancellationToken& token,
                               const ParkOptions& options,
                               std::chrono::steady_clock::time_point start) {
  if (options.deadline_ms <= 0 && options.cancel == nullptr &&
      options.max_memory_bytes == 0 && options.max_derivations == 0) {
    return nullptr;
  }
  if (options.deadline_ms > 0) {
    token.SetDeadline(start + std::chrono::milliseconds(options.deadline_ms));
  }
  if (options.max_memory_bytes > 0) {
    token.SetMemoryLimit(options.max_memory_bytes);
  }
  if (options.max_derivations > 0) {
    token.SetWorkLimit(options.max_derivations);
  }
  token.ChainParent(options.cancel);
  return &token;
}

/// Adds the wall time from construction to destruction to `*total`, on
/// every exit from the scope; a null `total` (timings off) reads no clock.
class ElapsedNs {
 public:
  explicit ElapsedNs(uint64_t* total)
      : total_(total), start_ns_(total != nullptr ? MonotonicNanos() : 0) {}
  ~ElapsedNs() {
    if (total_ != nullptr) {
      *total_ += static_cast<uint64_t>(MonotonicNanos() - start_ns_);
    }
  }

  ElapsedNs(const ElapsedNs&) = delete;
  ElapsedNs& operator=(const ElapsedNs&) = delete;

 private:
  uint64_t* total_;
  int64_t start_ns_;
};

/// Renders I ∪ {Γ-derived marks} — the inconsistent interpretation the
/// paper prints as a numbered step before resolving, never applied to I.
std::vector<std::string> RenderWithDerivations(
    const IInterpretation& interp, const Derivations& derived,
    const SymbolTable& symbols) {
  auto marked = [&](char sign, const GroundAtom& atom) {
    std::string out(1, sign);
    out += atom.ToString(symbols);
    return out;
  };
  std::set<std::string> unmarked;
  std::set<std::string> plus;
  std::set<std::string> minus;
  interp.base().ForEach([&](const GroundAtom& atom) {
    unmarked.insert(atom.ToString(symbols));
  });
  interp.plus().ForEach(
      [&](const GroundAtom& atom) { plus.insert(marked('+', atom)); });
  interp.minus().ForEach(
      [&](const GroundAtom& atom) { minus.insert(marked('-', atom)); });
  for (const Derivations::Record& r : derived) {
    const GroundAtom atom(derived.atom(r));
    if (r.action == ActionKind::kInsert) {
      plus.insert(marked('+', atom));
    } else {
      minus.insert(marked('-', atom));
    }
  }
  std::vector<std::string> out;
  out.reserve(unmarked.size() + plus.size() + minus.size());
  out.insert(out.end(), unmarked.begin(), unmarked.end());
  out.insert(out.end(), plus.begin(), plus.end());
  out.insert(out.end(), minus.begin(), minus.end());
  return out;
}

}  // namespace

void ParkStepper::WarmState::Bind(const Program& program,
                                  const ParkOptions& options) {
  if (bound()) return;
  graph_.emplace(program);
  for (const Rule& rule : program.rules()) {
    const PredicateId pred = rule.head().atom.predicate;
    if (pred >= head_signs_.size()) head_signs_.resize(pred + 1, 0);
    head_signs_[pred] |= SignBit(rule.head().action);
  }
  plans_.emplace(program);
  const int threads = ResolveNumThreads(options.num_threads);
  if (threads > 1) {
    parallel_ = std::make_unique<ParallelGamma>(threads);
    parallel_->SetTiming(options.collect_timings);
  }
}

DerivationScope ParkStepper::WarmState::Scope(
    const Program& program, const std::vector<Update>* seeds,
    bool record_provenance) const {
  std::unordered_map<PredicateId, uint8_t> update_signs;
  for (size_t r = num_rules(); r < program.size(); ++r) {
    const RuleHead& head = program.rule(r).head();
    update_signs[head.atom.predicate] |= SignBit(head.action);
  }
  if (seeds != nullptr) {
    for (const Update& u : *seeds) {
      update_signs[u.atom.predicate()] |= SignBit(u.action);
    }
  }
  std::vector<PredicateId> extra;
  for (const auto& [pred, signs] : update_signs) {
    const uint8_t in_p = pred < head_signs_.size() ? head_signs_[pred] : 0;
    if (in_p != kBothSigns && (signs | in_p) == kBothSigns) {
      extra.push_back(pred);
    }
  }
  using Groundings = DerivationScope::Groundings;
  const Groundings groundings = record_provenance ? Groundings::kAll
                                : seeds != nullptr ? Groundings::kNone
                                                   : Groundings::kClashScope;
  return DerivationScope(&head_signs_, std::move(extra), groundings);
}

ParkStepper::ParkStepper(const Program& program, const Database& db,
                         ParkOptions options)
    : ParkStepper(program, db, std::move(options), nullptr,
                  /*seeds=*/nullptr) {
  Start();
}

ParkStepper::ParkStepper(const Program& program, const Database& db,
                         ParkOptions options, WarmState& state,
                         const std::vector<Update>* seeds)
    : ParkStepper(program, db, std::move(options), &state, seeds) {
  // P_U is P followed by body-less rules, which watch nothing and take
  // the empty plan: the state built over P serves it unchanged.
  PARK_CHECK(state.bound() && state.num_rules() <= program.size())
      << "the warm state must be bound over a prefix of the program";
  for (size_t r = state.num_rules(); r < program.size(); ++r) {
    PARK_CHECK(program.rule(r).body().empty())
        << "rule " << r << " is past the warm state's rules but has a body";
  }
  if (seeds != nullptr) {
    // The seeds' marks: exactly what the body-less update rules of P_U
    // would produce in a full run's first step. Only record_provenance
    // reads a seeded closure's provenance.
    const GroundingView seed{-1, {}};  // "seeded by the transaction"
    delta_atoms_.initial = false;
    for (const Update& u : *seeds) {
      auto [stored, added] = interp_.Mark(u.action, u.atom.view());
      if (options_.record_provenance) {
        interp_.RecordProvenance(u.action, u.atom.view(), seed);
      }
      if (added) {
        (u.action == ActionKind::kInsert ? delta_atoms_.plus
                                         : delta_atoms_.minus)
            .push_back(AtomView{u.atom.predicate(), stored});
        ++stats_.derived_marks;
      }
    }
  }
  Start();
}

ParkStepper::ParkStepper(const Program& program, const Database& db,
                         ParkOptions options, WarmState* state,
                         const std::vector<Update>* seeds)
    : program_(program),
      db_(db),
      options_(std::move(options)),
      policy_(options_.policy ? options_.policy : MakeInertiaPolicy()),
      seeded_(seeds != nullptr),
      interp_(&db),
      observer_(options_.observer),
      trace_(options_.trace_level),
      start_time_(std::chrono::steady_clock::now()) {
  PARK_CHECK(program.symbols() == db.symbols())
      << "program and database must share a symbol table";
  if (state == nullptr) {
    own_state_.emplace();
    own_state_->Bind(program_, options_);
    state = &*own_state_;
  }
  state_ = state;
  scope_ = state_->Scope(program_, seeds, options_.record_provenance);
  interp_.ReserveMarks(state_->plus_relations(), state_->minus_relations());
}

ParkStepper::~ParkStepper() {
  if (options_.observer != nullptr) {
    state_->plans().set_compile_listener(nullptr);
  }
}

void ParkStepper::Start() {
  ParallelGamma* parallel = state_->parallel();
  const int num_threads = parallel != nullptr ? parallel->num_threads() : 1;
  stats_.num_threads = static_cast<size_t>(num_threads);
  stats_.exec_mode = options_.exec_mode;
  // Echoed so one-shot stats reports show the configured mode; a commit's
  // maintenance counters are filled by FixpointMaintainer::RecordCommit.
  stats_.maintenance_mode = options_.maintenance_mode;
  stats_.memory_limit_bytes = options_.max_memory_bytes;
  stats_.derivation_limit = options_.max_derivations;
  stats_.timings.collected = options_.collect_timings;
  // The state outlives the run: its planner and pool counters are read
  // as differences from here, and the pool's peak section restarts.
  RecordPlannerStats(state_->plans(), ParkStats(), baseline_);
  if (parallel != nullptr) {
    RecordParallelStats(*parallel, ParkStats(), baseline_);
    parallel->pool().ResetMaxSectionTasks();
  }
  if (options_.observer != nullptr) {
    state_->plans().set_compile_listener(
        [this](const PlanExplanation& explanation) {
          observer_.Notify(
              [&](RunObserver& o) { o.OnPlanCompiled(explanation); });
        });
  }
  cancel_ = ArmRunToken(token_, options_, start_time_);
  if (options_.collect_timings) run_start_ns_ = MonotonicNanos();
  trace_.RecordInitial(interp_, 0);
  observer_.Notify([&](RunObserver& o) {
    o.OnRunStart(RunStartInfo{program_.size(), num_threads});
  });
}

GammaResult ParkStepper::ComputeSection() {
  return ComputeGammaSemiNaive(program_, blocked_, interp_, delta_atoms_,
                               state_->graph(), state_->plans(),
                               state_->parallel(), cancel_,
                               options_.exec_mode, &exec_stats_, &scope_);
}

Result<GammaResult> ParkStepper::GammaSection() {
  const bool timed = options_.collect_timings;
  const int64_t gamma_start_ns = timed ? MonotonicNanos() : 0;
  GammaResult gamma = ComputeSection();
  if (timed) {
    stats_.timings.gamma_ns +=
        static_cast<uint64_t>(MonotonicNanos() - gamma_start_ns);
  }
  if (cancel_ != nullptr) {
    // The merged derivation list lives on the coordinator until applied.
    // A fired token makes the Γ result partial: discard it and surface
    // the cause (the input database is untouched — evaluation mutates
    // only the copy-on-write interpretation).
    cancel_->UpdateScope(gamma_scope_, gamma.derivations.bytes());
    if (cancel_->Check()) return cancel_->ToStatus();
  }
  RecordGammaSection(gamma, stats_);
  return gamma;
}

void ParkStepper::NotifySection(int step, const GammaResult& gamma,
                                size_t newly_marked) {
  observer_.Notify([&](RunObserver& o) {
    o.OnGammaSection(GammaSectionInfo{step, gamma.rules_evaluated,
                                      gamma.derivations.size(), newly_marked,
                                      gamma.consistent});
  });
}

Result<StepOutcome> ParkStepper::Step() {
  if (done_) return StepOutcome{};  // kFixpoint
  if (steps_taken_ >= options_.max_steps) {
    return ResourceExhaustedError(StrFormat(
        "PARK evaluation exceeded max_steps=%zu", options_.max_steps));
  }
  if (cancel_ != nullptr && cancel_->Check()) return cancel_->ToStatus();
  const int step = static_cast<int>(steps_taken_++);
  observer_.Notify([&](RunObserver& o) { o.OnStepStart(step); });
  PARK_ASSIGN_OR_RETURN(GammaResult gamma, GammaSection());

  if (!gamma.consistent) {
    // Only an observer reads an unapplied section's count of new marks.
    NotifySection(step, gamma,
                  options_.observer != nullptr
                      ? CountNewMarks(gamma.derivations, interp_)
                      : 0);
    if (seeded_) {
      // A clash inside the cone means the commit has real conflicts; the
      // full evaluator owns conflict construction and SELECT policies.
      return AbortedError("conflict inside a seeded closure");
    }
    return Resolve(std::move(gamma), step);
  }
  // A consistent section is applied in one pass, which counts its new
  // marks; with none it left I as it was: Γ(P,B)(I) = I.
  const bool timed = options_.collect_timings;
  const int64_t apply_start_ns = timed ? MonotonicNanos() : 0;
  const size_t new_marks =
      ApplyDerivations(gamma.derivations, interp_, &delta_atoms_);
  if (timed) {
    stats_.timings.apply_ns +=
        static_cast<uint64_t>(MonotonicNanos() - apply_start_ns);
  }
  NotifySection(step, gamma, new_marks);
  if (new_marks == 0) {
    // Γ(P,B)(I) = I: the bi-structure is a fixpoint of Δ.
    done_ = true;
    state_->NoteMarkStores(interp_);
    FoldRunStats(stats_);
    if (timed) {
      stats_.timings.total_ns =
          static_cast<uint64_t>(MonotonicNanos() - run_start_ns_);
    }
    trace_.RecordFixpoint(interp_, step);
    observer_.Notify([&](RunObserver& o) { o.OnFixpoint(step); });
    observer_.Notify([&](RunObserver& o) { o.OnRunEnd(stats_); });
    return StepOutcome{};  // kFixpoint
  }
  StepOutcome outcome;
  outcome.kind = StepOutcome::Kind::kGamma;
  outcome.new_marks = new_marks;
  stats_.derived_marks += new_marks;
  ++stats_.gamma_steps;
  trace_.RecordGammaStep(interp_, step + 1);
  return outcome;
}

Result<StepOutcome> ParkStepper::Resolve(GammaResult gamma, int step) {
  // Inconsistent: this Γ application is counted and shown as a step (the
  // paper's traces include it) but never applied; instead conflicts are
  // resolved, B is extended, and the computation restarts from I°.
  //
  // The triples are built from this step's semi-naive section: every
  // firable instance it omits fired at an earlier step of the round, and
  // BuildConflicts adds it back from the provenance (DESIGN.md §2).
  const int shown = step + 1;
  const SymbolTable& symbols = *program_.symbols();
  const bool tracing = trace_.level() != TraceLevel::kNone;
  if (trace_.level() == TraceLevel::kFull) {
    trace_.RecordInconsistentStep(
        RenderWithDerivations(interp_, gamma.derivations, symbols), shown);
  }
  const bool timed = options_.collect_timings;
  StepOutcome outcome;
  outcome.kind = StepOutcome::Kind::kResolution;
  std::vector<std::string> resolution_notes;
  {
    // Conflict building and the SELECT loop, timed on every exit.
    ElapsedNs conflict_time(timed ? &stats_.timings.conflict_ns : nullptr);
    outcome.conflicts = BuildConflicts(std::move(gamma), interp_,
                                       options_.block_granularity);
    const std::vector<Conflict>& conflicts = outcome.conflicts;
    if (tracing) {
      std::vector<std::string> descriptions;
      descriptions.reserve(conflicts.size());
      for (const Conflict& c : conflicts) {
        descriptions.push_back(c.ToString(program_, symbols));
      }
      trace_.RecordConflict(std::move(descriptions), shown);
    }

    PolicyContext context{db_, program_, interp_,
                          static_cast<int>(stats_.restarts)};
    for (const Conflict& conflict : conflicts) {
      ++stats_.policy_invocations;
      Vote vote = Vote::kAbstain;
      {
        ElapsedNs policy_time(timed ? &stats_.timings.policy_ns : nullptr);
        PARK_ASSIGN_OR_RETURN(vote, policy_->Select(context, conflict));
      }
      if (vote == Vote::kAbstain) {
        return AbortedError(StrFormat(
            "policy '%s' abstained on conflict over %s; wrap it in a "
            "composite with a complete fallback (e.g. inertia)",
            std::string(policy_->name()).c_str(),
            conflict.atom.ToString(symbols).c_str()));
      }
      ++stats_.conflicts_resolved;
      observer_.Notify(
          [&](RunObserver& o) { o.OnPolicyDecision(conflict, vote); });
      const ConflictSide losing =
          vote == Vote::kInsert ? conflict.deleters() : conflict.inserters();
      for (GroundingView g : losing) {
        if (blocked_.Insert(g)) ++outcome.newly_blocked;
      }
      if (tracing) {
        resolution_notes.push_back(StrFormat(
            "%s on %s: block %zu instance(s)", VoteToString(vote),
            conflict.atom.ToString(symbols).c_str(), losing.size()));
      }
    }
    observer_.Notify([&](RunObserver& o) {
      o.OnConflictRound(ConflictRoundInfo{stats_.restarts, conflicts.size(),
                                          outcome.newly_blocked});
    });
  }
  if (outcome.newly_blocked == 0) {
    return AbortedError(
        "conflict resolution made no progress (no new blocked "
        "instances); the policy decisions are cyclic");
  }
  trace_.RecordResolution(std::move(resolution_notes), shown);
  interp_.ClearMarks();
  delta_atoms_.Reset();
  ++stats_.restarts;
  observer_.Notify([&](RunObserver& o) { o.OnRestart(stats_.restarts); });
  trace_.RecordRestart(shown);
  trace_.RecordInitial(interp_, shown);
  return outcome;
}

void ParkStepper::FoldRunStats(ParkStats& stats) const {
  stats.blocked_instances = blocked_.size();
  if (cancel_ != nullptr) {
    stats.peak_memory_bytes = cancel_->peak_bytes();
    stats.derivations_charged = cancel_->work_charged();
  }
  RecordStorageStats(interp_, exec_stats_, stats);
  RecordPlannerStats(state_->plans(), baseline_, stats);
  if (const ParallelGamma* parallel = state_->parallel()) {
    RecordParallelStats(*parallel, baseline_, stats);
  }
}

ParkStats ParkStepper::stats() const {
  if (done_) return stats_;
  ParkStats stats = stats_;
  FoldRunStats(stats);
  return stats;
}

Status ParkStepper::Run() {
  while (!done_) PARK_RETURN_IF_ERROR(Step().status());
  return Status::OK();
}

Result<Database> ParkStepper::Finish() {
  PARK_RETURN_IF_ERROR(Run());
  return std::move(interp_).Incorporate();
}

}  // namespace park

// ParkStepper: the engine's one Δ loop. Park() and ActiveDatabase commits
// drive it to its fixpoint, so a hand-stepped stepper must agree with both
// on every observable: result bytes, stats, trace, observer events, and
// errors.

#include "core/stepper.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "eca/active_database.h"
#include "test_util.h"
#include "util/random.h"
#include "util/string_util.h"
#include "workload/conflict_gen.h"
#include "workload/graph_gen.h"

namespace park {
namespace {

using ::park::testing_util::MustParseDatabase;
using ::park::testing_util::MustParseProgram;

TEST(StepperTest, WalksTheSection5Example) {
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram(
      "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
      symbols);
  Database db = MustParseDatabase("p.", symbols);
  ParkStepper stepper(program, db);

  // Step 1: Γ adds +a, +q.
  auto s1 = stepper.Step();
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(s1->kind, StepOutcome::Kind::kGamma);
  EXPECT_EQ(s1->new_marks, 2u);
  EXPECT_EQ(stepper.interpretation().ToString(), "{p, +a, +q}");

  // Step 2: the q conflict; r2 blocked, restart.
  auto s2 = stepper.Step();
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2->kind, StepOutcome::Kind::kResolution);
  EXPECT_EQ(s2->newly_blocked, 1u);
  ASSERT_EQ(s2->conflicts.size(), 1u);
  EXPECT_NE(s2->conflicts[0].ToString(program, *symbols).find("q:"),
            std::string::npos);
  EXPECT_EQ(stepper.interpretation().ToString(), "{p}");

  // Continue to completion.
  auto final_db = stepper.Finish();
  ASSERT_TRUE(final_db.ok());
  EXPECT_EQ(final_db->ToString(), "{a, b, p}");
  EXPECT_TRUE(stepper.done());
  EXPECT_EQ(stepper.stats().restarts, 2u);
}

TEST(StepperTest, StepAfterFixpointIsFixpoint) {
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram("p -> +q.", symbols);
  Database db = MustParseDatabase("p.", symbols);
  ParkStepper stepper(program, db);
  ASSERT_TRUE(stepper.Step().ok());   // gamma
  auto fix = stepper.Step();          // fixpoint
  ASSERT_TRUE(fix.ok());
  EXPECT_EQ(fix->kind, StepOutcome::Kind::kFixpoint);
  EXPECT_TRUE(stepper.done());
  auto again = stepper.Step();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->kind, StepOutcome::Kind::kFixpoint);
}

TEST(StepperTest, SnapshotsGrowPerTheorem41) {
  Workload w = MakeConflictPairsWorkload(20, 0.4, 7);
  ParkStepper stepper(w.program, w.database);
  BiStructureSnapshot previous = stepper.Snapshot();
  while (!stepper.done()) {
    ASSERT_TRUE(stepper.Step().ok());
    BiStructureSnapshot current = stepper.Snapshot();
    EXPECT_TRUE(BiStructureLeq(previous, current));
    previous = current;
  }
}

// --- One loop: Park(), a commit and a hand-stepped ParkStepper ---

/// Records every Δ-loop observer event, with its payload, as one line.
class RecordingObserver : public RunObserver {
 public:
  explicit RecordingObserver(const Program& program) : program_(program) {}

  void OnRunStart(const RunStartInfo& info) override {
    Add(StrFormat("run_start rules=%zu threads=%d", info.num_rules,
                  info.num_threads));
  }
  void OnStepStart(int step) override { Add(StrFormat("step %d", step)); }
  void OnGammaSection(const GammaSectionInfo& info) override {
    Add(StrFormat("gamma step=%d rules=%zu derivations=%zu new=%zu %s",
                  info.step, info.rules_evaluated, info.derivations,
                  info.newly_marked,
                  info.consistent ? "consistent" : "clash"));
  }
  void OnPlanCompiled(const PlanExplanation& explanation) override {
    Add(ExplainPlanLine(explanation));
  }
  void OnPolicyDecision(const Conflict& conflict, Vote vote) override {
    Add(StrFormat("decide %s %s",
                  conflict.ToString(program_, *program_.symbols()).c_str(),
                  VoteToString(vote)));
  }
  void OnConflictRound(const ConflictRoundInfo& info) override {
    Add(StrFormat("round restart=%zu conflicts=%zu blocked=%zu",
                  info.restart, info.conflicts, info.newly_blocked));
  }
  void OnRestart(size_t restart) override {
    Add(StrFormat("restart %zu", restart));
  }
  void OnFixpoint(int step) override { Add(StrFormat("fixpoint %d", step)); }
  void OnRunEnd(const ParkStats& stats) override {
    Add(StrFormat("run_end steps=%zu restarts=%zu marks=%zu",
                  stats.gamma_steps, stats.restarts, stats.derived_marks));
  }

  const std::vector<std::string>& events() const { return events_; }

 private:
  void Add(std::string event) { events_.push_back(std::move(event)); }

  const Program& program_;
  std::vector<std::string> events_;
};

/// Everything one evaluation exposes, rendered to bytes.
struct LoopOutcome {
  std::string status;
  std::string database;
  std::string diff;
  std::string stats;
  std::string trace;
  std::vector<std::string> events;

  friend bool operator==(const LoopOutcome&, const LoopOutcome&) = default;
};

std::string RenderDiff(const Database::Diff& diff, const SymbolTable& symbols) {
  std::string out = "+{";
  for (const GroundAtom& atom : diff.only_in_this) {
    out += atom.ToString(symbols) + " ";
  }
  out += "} -{";
  for (const GroundAtom& atom : diff.only_in_other) {
    out += atom.ToString(symbols) + " ";
  }
  return out + "}";
}

/// Stats bytes. The memory high-water mark of a parallel run depends on
/// how the pool's tasks overlap in time, so it is compared on sequential
/// runs only.
std::string RenderStats(ParkStats stats) {
  if (stats.num_threads > 1) stats.peak_memory_bytes = 0;
  return stats.ToJson();
}

/// Runs `fn` on a thread of its own. Matching charges the growth of the
/// thread's retained scratch arena to the memory budget, so every
/// evaluation starts from a cold arena to make peak_memory_bytes a
/// property of the evaluation alone.
template <typename Fn>
void OnFreshThread(Fn fn) {
  std::thread thread(fn);
  thread.join();
}

enum class Driver { kPark, kCommit, kStepped };

LoopOutcome RunLoop(Driver driver, const Program& program,
                    const Database& db, const std::vector<Update>& updates,
                    ParkOptions options) {
  const SymbolTable& symbols = *program.symbols();
  auto extended = ProgramWithUpdates(program, updates);
  EXPECT_TRUE(extended.ok());
  RecordingObserver observer(*extended);
  options.observer = &observer;
  LoopOutcome out;
  OnFreshThread([&] {
    switch (driver) {
      case Driver::kPark: {
        auto result = Park(*extended, db, options);
        out.status = result.status().ToString();
        if (!result.ok()) return;
        out.database = result->database.ToString();
        out.diff = RenderDiff(result->database.DiffWith(db), symbols);
        out.stats = RenderStats(result->stats);
        out.trace = result->trace.ToString();
        break;
      }
      case Driver::kCommit: {
        // A fresh ActiveDatabase over P and D commits U: the one commit
        // path, with maintenance off.
        ActiveDatabase active(program.symbols());
        for (const Rule& rule : program.rules()) {
          ASSERT_TRUE(active.AddRule(rule).ok());
        }
        std::string facts;
        for (const std::string& atom : db.SortedAtomStrings()) {
          facts += atom + ". ";
        }
        ASSERT_TRUE(active.LoadFacts(facts).ok());
        ASSERT_TRUE(active.Configure(options).ok());
        Transaction tx = active.Begin();
        for (const Update& u : updates) {
          if (u.action == ActionKind::kInsert) {
            tx.Insert(u.atom);
          } else {
            tx.Delete(u.atom);
          }
        }
        auto report = std::move(tx).Commit();
        out.status = report.status().ToString();
        if (!report.ok()) return;
        out.database = active.database().ToString();
        out.diff = RenderDiff(
            Database::Diff{report->inserted, report->deleted}, symbols);
        out.stats = RenderStats(report->stats);
        out.trace = report->trace.ToString();
        break;
      }
      case Driver::kStepped: {
        ParkStepper stepper(*extended, db, options);
        Status status = Status::OK();
        while (!stepper.done() && status.ok()) {
          status = stepper.Step().status();
        }
        out.status = status.ToString();
        if (!status.ok()) return;
        out.diff = RenderDiff(stepper.interpretation().MarkDiff(), symbols);
        out.stats = RenderStats(stepper.stats());
        out.trace = stepper.trace().ToString();
        auto database = stepper.Finish();
        ASSERT_TRUE(database.ok());
        out.database = database->ToString();
        break;
      }
    }
  });
  out.events = observer.events();
  return out;
}

/// A random ±-headed propositional program over a0..a7 (with negated
/// bodies), facts over the same atoms, and one or two updates — dense
/// enough that most trials hit genuine conflicts and restarts.
struct RandomCase {
  std::shared_ptr<SymbolTable> symbols = MakeSymbolTable();
  Program program{symbols};
  Database db{symbols};
  std::vector<Update> updates;
};

RandomCase MakeRandomCase(Rng& rng) {
  RandomCase c;
  auto name = [](int i) { return StrFormat("a%d", i); };
  auto atom = [&] { return name(static_cast<int>(rng.UniformInt(0, 7))); };
  std::string rules;
  std::string facts;
  for (int i = 0; i < 8; ++i) {
    if (rng.Bernoulli(0.5)) facts += name(i) + ". ";
  }
  for (int r = 0; r < 14; ++r) {
    rules += rng.Bernoulli(0.2) ? "!" : "";
    rules += atom();
    if (rng.Bernoulli(0.3)) rules += ", " + atom();
    rules += rng.Bernoulli(0.5) ? " -> +" : " -> -";
    rules += atom() + ".\n";
  }
  c.program = MustParseProgram(rules, c.symbols);
  c.db = MustParseDatabase(facts, c.symbols);
  for (int u = 0; u < 1 + static_cast<int>(rng.UniformInt(0, 1)); ++u) {
    auto parsed = ParseGroundAtom(atom(), c.symbols);
    EXPECT_TRUE(parsed.ok());
    c.updates.push_back(Update{
        rng.Bernoulli(0.5) ? ActionKind::kInsert : ActionKind::kDelete,
        *parsed});
  }
  return c;
}

void ExpectOneLoop(const Program& program, const Database& db,
                   const std::vector<Update>& raw_updates,
                   const ParkOptions& options) {
  // A transaction drops repeated updates; every driver evaluates that U.
  UpdateSet set;
  for (const Update& u : raw_updates) set.Add(u.action, u.atom);
  const std::vector<Update>& updates = set.updates();
  const LoopOutcome park =
      RunLoop(Driver::kPark, program, db, updates, options);
  const LoopOutcome commit =
      RunLoop(Driver::kCommit, program, db, updates, options);
  const LoopOutcome stepped =
      RunLoop(Driver::kStepped, program, db, updates, options);
  for (const LoopOutcome* other : {&commit, &stepped}) {
    const char* name = other == &commit ? "commit" : "stepped";
    EXPECT_EQ(park.status, other->status) << name;
    EXPECT_EQ(park.database, other->database) << name;
    EXPECT_EQ(park.diff, other->diff) << name;
    EXPECT_EQ(park.stats, other->stats) << name;
    EXPECT_EQ(park.trace, other->trace) << name;
    EXPECT_EQ(park.events, other->events) << name;
  }
}

TEST(StepperTest, ParkCommitAndSteppingAreOneLoop) {
  Rng rng(99);
  size_t with_restarts = 0;
  for (int trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE(StrFormat("trial %d", trial));
    RandomCase c = MakeRandomCase(rng);
    for (ExecMode exec : {ExecMode::kTuple, ExecMode::kBatch}) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE(StrFormat("exec=%d threads=%d", static_cast<int>(exec),
                               threads));
        ParkOptions options;
        options.exec_mode = exec;
        options.num_threads = threads;
        options.trace_level = TraceLevel::kFull;
        options.max_memory_bytes = size_t{1} << 32;
        ExpectOneLoop(c.program, c.db, c.updates, options);
      }
    }
    auto run = Park(c.db, c.program, c.updates);
    if (run.ok() && run->stats.restarts > 0) ++with_restarts;
  }
  EXPECT_GE(with_restarts, 3u) << "too few trials had genuine conflicts";
}

TEST(StepperTest, OneLoopOnTheConflictWorkload) {
  // The paper's irreflexive-graph program: conflicts, SELECT, and
  // restarts dominate, with a custom policy.
  Workload w = MakeIrreflexiveGraphWorkload(8);
  ParkOptions options;
  options.policy = MakeIrreflexiveGraphPolicy();
  options.trace_level = TraceLevel::kFull;
  options.max_memory_bytes = size_t{1} << 32;
  ExpectOneLoop(w.program, w.database, {}, options);
}

/// Counts the Δ loop's steps, Γ sections and section derivations.
class SectionCounter : public RunObserver {
 public:
  void OnStepStart(int) override { ++steps; }
  void OnGammaSection(const GammaSectionInfo& info) override {
    ++sections;
    derivations += info.derivations;
  }

  size_t steps = 0;
  size_t sections = 0;
  size_t derivations = 0;
};

TEST(StepperTest, OneGammaSectionPerStepOnTheConflictWorkload) {
  // A work gate in counts, on park_bench's conflict_eval program: an
  // inconsistent step builds its conflicts from the section that found
  // the clash (DESIGN.md §2), so every step runs exactly one Γ section,
  // and no full Γ is recomputed for conflicts. The pinned counts are the
  // deterministic work of one sequential Park().
  Workload w = MakeIrreflexiveGraphWorkload(24);
  SectionCounter counter;
  ParkOptions options;
  options.policy = MakeIrreflexiveGraphPolicy();
  options.observer = &counter;
  auto result = Park(w.database, w.program, w.updates.updates(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(counter.sections, counter.steps);
  EXPECT_EQ(counter.steps, 4u);
  EXPECT_EQ(counter.derivations, 14470u);
  EXPECT_EQ(result->stats.restarts, 1u);
  EXPECT_EQ(result->stats.rule_evaluations, 10u);
}

// --- Provenance scope: recorded only where a conflict can read it ---

constexpr char kClosureRules[] =
    "tc1: edge(X, Y) -> +path(X, Y). "
    "tc2: path(X, Y), edge(Y, Z) -> +path(X, Z).";

TEST(StepperTest, ProvenanceOnlyForBothSignedPredicates) {
  // path has only insert heads: no conflict can be built on it, so a run
  // records none of its provenance unless record_provenance asks.
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram(kClosureRules, symbols);
  Database db = MustParseDatabase("edge(a, b). edge(b, c).", symbols);
  const GroundAtom path_ac = ParseGroundAtom("path(a, c)", symbols).value();
  for (bool record : {false, true}) {
    SCOPED_TRACE(record ? "record_provenance" : "default");
    ParkOptions options;
    options.record_provenance = record;
    ParkStepper stepper(program, db, options);
    ASSERT_TRUE(stepper.Run().ok());
    ASSERT_TRUE(stepper.interpretation().HasPlus(path_ac));
    const ProvenanceRange prov =
        stepper.interpretation().Provenance(ActionKind::kInsert, path_ac);
    EXPECT_EQ(prov.size(), record ? 1u : 0u);
  }
}

TEST(StepperTest, ConflictPredicatesKeepTheirProvenance) {
  // The irreflexive-graph program inserts and deletes q: every marked q
  // atom of the fixpoint has its provenance.
  Workload w = MakeIrreflexiveGraphWorkload(4);
  ParkOptions options;
  options.policy = MakeIrreflexiveGraphPolicy();
  ParkStepper stepper(w.program, w.database, options);
  ASSERT_TRUE(stepper.Run().ok());
  ASSERT_GT(stepper.stats().restarts, 0u);
  const IInterpretation& interp = stepper.interpretation();
  size_t marked = 0;
  for (ActionKind action : {ActionKind::kInsert, ActionKind::kDelete}) {
    const Database& store =
        action == ActionKind::kInsert ? interp.plus() : interp.minus();
    store.ForEach([&](const GroundAtom& atom) {
      ++marked;
      EXPECT_FALSE(interp.Provenance(action, atom).empty())
          << ActionKindSign(action) << atom.ToString(*w.symbols);
    });
  }
  EXPECT_GT(marked, 0u);
}

TEST(StepperTest, UpdateRulesWidenTheProvenanceScope) {
  // P inserts path only; U deletes the derivable path(a, b), so under P_U
  // path carries both signs and its provenance is recorded — by a
  // one-shot run over P_U and by a run over a warm state bound to P,
  // which adds its own update rules to P's scope. The seeded closure
  // over the same state builds no conflicts and records nothing.
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram(kClosureRules, symbols);
  Database db = MustParseDatabase("edge(a, b). edge(b, c).", symbols);
  auto atom = [&](std::string_view text) {
    return ParseGroundAtom(text, symbols).value();
  };
  auto p_u = ProgramWithUpdates(
      program, {Update{ActionKind::kDelete, atom("path(a, b)")}});
  ASSERT_TRUE(p_u.ok());
  ParkOptions options;
  ParkStepper::WarmState state;
  state.Bind(program, options);
  ParkStepper one_shot(*p_u, db, options);
  ParkStepper warm(*p_u, db, options, state);
  for (ParkStepper* stepper : {&one_shot, &warm}) {
    ASSERT_TRUE(stepper->Run().ok());
    const IInterpretation& interp = stepper->interpretation();
    // Inertia deleted path(a, b), which is not in D; path(b, c) stays.
    ASSERT_TRUE(interp.HasMinus(atom("path(a, b)")));
    ASSERT_TRUE(interp.HasPlus(atom("path(b, c)")));
    EXPECT_FALSE(
        interp.Provenance(ActionKind::kDelete, atom("path(a, b)")).empty());
    EXPECT_FALSE(
        interp.Provenance(ActionKind::kInsert, atom("path(b, c)")).empty());
  }

  const std::vector<Update> seeds = {
      Update{ActionKind::kInsert, atom("edge(c, d)")}};
  ParkStepper seeded(program, db, options, state, &seeds);
  ASSERT_TRUE(seeded.Run().ok());
  ASSERT_TRUE(seeded.interpretation().HasPlus(atom("path(c, d)")));
  EXPECT_TRUE(seeded.interpretation()
                  .Provenance(ActionKind::kInsert, atom("path(c, d)"))
                  .empty());
  EXPECT_TRUE(seeded.interpretation()
                  .Provenance(ActionKind::kInsert, atom("edge(c, d)"))
                  .empty());
}

TEST(StepperTest, UpdatesWidenTheClashScope) {
  // P inserts path only, so P alone puts path outside the clash scope;
  // only the updates delete it. The clash on path(a, b) must still be
  // found: through P_U with U = {-path(a, b)}, by a one-shot run and by a
  // run over a warm state bound to P, and by the seeded closure of that
  // state, whose seeds +edge(a, b) and -path(a, b) make tc1 derive
  // +path(a, b) against the seeded -path(a, b).
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram(kClosureRules, symbols);
  auto atom = [&](std::string_view text) {
    return ParseGroundAtom(text, symbols).value();
  };
  Database db = MustParseDatabase("edge(a, b). edge(b, c).", symbols);
  auto p_u = ProgramWithUpdates(
      program, {Update{ActionKind::kDelete, atom("path(a, b)")}});
  ASSERT_TRUE(p_u.ok());
  ParkOptions options;
  ParkStepper::WarmState state;
  state.Bind(program, options);
  ParkStepper one_shot(*p_u, db, options);
  ParkStepper warm(*p_u, db, options, state);
  for (ParkStepper* stepper : {&one_shot, &warm}) {
    std::vector<std::string> clashes;
    while (!stepper->done()) {
      auto outcome = stepper->Step();
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      for (const Conflict& conflict : outcome->conflicts) {
        clashes.push_back(conflict.atom.ToString(*symbols));
      }
    }
    EXPECT_EQ(clashes, std::vector<std::string>{"path(a, b)"});
  }

  Database without_ab = MustParseDatabase("edge(b, c).", symbols);
  const std::vector<Update> seeds = {
      Update{ActionKind::kInsert, atom("edge(a, b)")},
      Update{ActionKind::kDelete, atom("path(a, b)")}};
  ParkStepper seeded(program, without_ab, options, state, &seeds);
  const Status status = seeded.Run();
  EXPECT_EQ(status.code(), StatusCode::kAborted) << status.ToString();
}

/// The last Γ section's counts.
class LastSection : public RunObserver {
 public:
  void OnGammaSection(const GammaSectionInfo& info) override { last = info; }
  GammaSectionInfo last;
};

TEST(StepperTest, FixpointSectionLeavesProvenanceAlone) {
  // Over a 3-cycle the closure's last section re-derives marked paths
  // (tc2 seeded by the self-loops the step before added) and adds no
  // mark. It is the fixpoint's section and must leave I as it was, the
  // provenance recorded under record_provenance included.
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram(kClosureRules, symbols);
  Database db =
      MustParseDatabase("edge(a, b). edge(b, c). edge(c, a).", symbols);
  LastSection sections;
  ParkOptions options;
  options.record_provenance = true;
  options.observer = &sections;
  ParkStepper stepper(program, db, options);
  auto provenance = [&] {
    std::vector<std::string> out;
    stepper.interpretation().plus().ForEach([&](const GroundAtom& atom) {
      std::string line = atom.ToString(*symbols) + ":";
      for (GroundingView g :
           stepper.interpretation().Provenance(ActionKind::kInsert, atom)) {
        line += " ";
        AppendGrounding(line, g, program, *symbols);
      }
      out.push_back(std::move(line));
    });
    std::sort(out.begin(), out.end());
    return out;
  };
  std::vector<std::string> before;
  while (!stepper.done()) {
    before = provenance();
    ASSERT_TRUE(stepper.Step().ok());
  }
  EXPECT_GT(sections.last.derivations, 0u);
  EXPECT_EQ(sections.last.newly_marked, 0u);
  EXPECT_EQ(before.size(), 9u);
  EXPECT_EQ(provenance(), before);
}

TEST(StepperTest, OneLoopErrors) {
  // Abstention, max_steps, and an exhausted derivation budget: the same
  // code and message from every driver.
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram("p -> +a. p -> -a. a -> +b.", symbols);
  Database db = MustParseDatabase("p.", symbols);
  ParkOptions abstain;
  abstain.policy = MakeSpecificityPolicy();  // abstains on this tie
  ParkOptions steps;
  steps.max_steps = 1;
  ParkOptions budget;
  budget.max_derivations = 1;
  for (const ParkOptions& options : {abstain, steps, budget}) {
    const LoopOutcome park = RunLoop(Driver::kPark, program, db, {}, options);
    EXPECT_NE(park.status, "OK");
    ExpectOneLoop(program, db, {}, options);
  }
}

TEST(StepperTest, EmptyWatchedDeltaQuickExits) {
  // The last Γ step of any terminating chain has a delta nobody watches
  // (the chain tip appears in no rule body). The dependency scheduler
  // makes that step an O(1) no-op: the watcher lookup comes back empty
  // and Γ returns before scanning, matching, or touching the plan
  // cache — pinned here via sched_rules_considered, which must not grow
  // on the quick-exited step.
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram(
      "r1: a0 -> +a1. r2: a1 -> +a2. r3: a2 -> +a3.", symbols);
  Database db = MustParseDatabase("a0.", symbols);
  ParkStepper stepper(program, db);
  std::vector<size_t> considered;
  while (!stepper.done()) {
    ASSERT_TRUE(stepper.Step().ok());
    considered.push_back(stepper.stats().sched_rules_considered);
  }
  ASSERT_GE(considered.size(), 2u);
  EXPECT_EQ(considered.back(), considered[considered.size() - 2])
      << "fixpoint-detecting step must consider zero rules";
  // Every step still skipped the rest of the program.
  EXPECT_GT(stepper.stats().sched_rules_skipped, 0u);
}

TEST(StepperTest, ErrorsMatchBatchSemantics) {
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram("p -> +a. p -> -a.", symbols);
  Database db = MustParseDatabase("p.", symbols);
  ParkOptions options;
  options.policy = MakeSpecificityPolicy();  // abstains on this tie
  ParkStepper stepper(program, db, options);
  auto outcome = stepper.Step();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kAborted);
  EXPECT_NE(outcome.status().ToString().find("wrap it in a composite"),
            std::string::npos);
}

TEST(StepperTest, AbstentionKeepsTheConflictClock) {
  // The round's clock stops on every exit, an abstention included, and
  // the SELECT clock runs inside it.
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram("p -> +a. p -> -a.", symbols);
  Database db = MustParseDatabase("p.", symbols);
  ParkOptions options;
  options.policy = MakeSpecificityPolicy();  // abstains on this tie
  options.collect_timings = true;
  ParkStepper stepper(program, db, options);
  ASSERT_FALSE(stepper.Step().ok());
  const PhaseTimings timings = stepper.stats().timings;
  EXPECT_EQ(stepper.stats().policy_invocations, 1u);
  EXPECT_GT(timings.conflict_ns, 0u);
  EXPECT_LE(timings.policy_ns, timings.conflict_ns);
}

TEST(StepperTest, MaxStepsGuard) {
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram("a0 -> +a1. a1 -> +a2. a2 -> +a3.",
                                     symbols);
  Database db = MustParseDatabase("a0.", symbols);
  ParkOptions options;
  options.max_steps = 2;
  ParkStepper stepper(program, db, options);
  ASSERT_TRUE(stepper.Step().ok());
  ASSERT_TRUE(stepper.Step().ok());
  auto third = stepper.Step();
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
}

TEST(StepperTest, DeadlineIsCheckedAgainstConstructionTime) {
  // The budget covers the whole stepped evaluation, so sleeping past it
  // between construction and the first Step() already exhausts it.
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram("p -> +a.", symbols);
  Database db = MustParseDatabase("p.", symbols);
  ParkOptions options;
  options.deadline_ms = 1;
  ParkStepper stepper(program, db, options);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  auto step = stepper.Step();
  ASSERT_FALSE(step.ok());
  EXPECT_EQ(step.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(step.status().ToString().find("deadline"),
            std::string::npos);
}

}  // namespace
}  // namespace park

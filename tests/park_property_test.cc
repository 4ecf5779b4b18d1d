// Property-based suites: randomized programs checked against the
// requirements of §3 (unambiguous semantics, termination/tractability) and
// Theorem 4.1 (Δ is growing on bi-structures; ω is a fixpoint).

#include <gtest/gtest.h>

#include <algorithm>

#include "core/bistructure.h"
#include "test_util.h"
#include "util/random.h"
#include "util/string_util.h"
#include "workload/conflict_gen.h"
#include "workload/graph_gen.h"

namespace park {
namespace {

using ::park::testing_util::FreshGamma;
using ::park::testing_util::MustParseDatabase;
using ::park::testing_util::MustParseProgram;

/// Builds a random propositional active-rule program over `num_atoms`
/// atoms with `num_rules` rules; bodies mix positive and negated literals,
/// heads are random ±atom. Deterministic in `seed`.
struct RandomScenario {
  std::string program_text;
  std::string facts_text;
};

RandomScenario MakeRandomScenario(uint64_t seed, int num_atoms,
                                  int num_rules) {
  Rng rng(seed);
  RandomScenario scenario;
  auto atom_name = [](int i) { return "a" + std::to_string(i); };
  for (int i = 0; i < num_atoms; ++i) {
    if (rng.Bernoulli(0.4)) {
      scenario.facts_text += atom_name(i) + ". ";
    }
  }
  for (int r = 0; r < num_rules; ++r) {
    int body_len = static_cast<int>(rng.UniformInt(1, 3));
    std::vector<std::string> body;
    for (int b = 0; b < body_len; ++b) {
      std::string lit = atom_name(
          static_cast<int>(rng.UniformInt(0, num_atoms - 1)));
      if (rng.Bernoulli(0.25)) lit = "!" + lit;
      body.push_back(lit);
    }
    const char* sign = rng.Bernoulli(0.5) ? "+" : "-";
    scenario.program_text +=
        Join(body, ", ") + " -> " + sign +
        atom_name(static_cast<int>(rng.UniformInt(0, num_atoms - 1))) +
        ".\n";
  }
  return scenario;
}

class RandomProgramTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomProgramTest, TerminatesAndIsDeterministic) {
  RandomScenario scenario = MakeRandomScenario(GetParam(), 12, 24);
  auto run = [&]() -> std::string {
    auto symbols = MakeSymbolTable();
    Program program = MustParseProgram(scenario.program_text, symbols);
    Database db = MustParseDatabase(scenario.facts_text, symbols);
    auto result = Park(program, db);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->database.ToString() : "<error>";
  };
  std::string first = run();
  // Requirement "Unambiguous Semantics": re-evaluation yields the same
  // unique database state.
  EXPECT_EQ(run(), first);
  EXPECT_EQ(run(), first);
}

TEST_P(RandomProgramTest, InertiaResultIsRuleOrderIndependent) {
  RandomScenario scenario = MakeRandomScenario(GetParam(), 10, 18);
  // Shuffle the rule lines; under inertia (which never looks at rule
  // identity) the PARK result must not change.
  std::vector<std::string> lines = Split(scenario.program_text, '\n');
  lines.erase(std::remove(lines.begin(), lines.end(), std::string()),
              lines.end());
  auto run = [&](const std::vector<std::string>& rule_lines) {
    auto symbols = MakeSymbolTable();
    Program program = MustParseProgram(Join(rule_lines, "\n"), symbols);
    Database db = MustParseDatabase(scenario.facts_text, symbols);
    auto result = Park(program, db);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->database.ToString() : "<error>";
  };
  std::string baseline = run(lines);
  Rng rng(GetParam() ^ 0xabcdef);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<std::string> shuffled = lines;
    rng.Shuffle(shuffled);
    EXPECT_EQ(run(shuffled), baseline);
  }
}

TEST_P(RandomProgramTest, StatsRespectTractabilityBounds) {
  RandomScenario scenario = MakeRandomScenario(GetParam() * 31 + 7, 10, 20);
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram(scenario.program_text, symbols);
  Database db = MustParseDatabase(scenario.facts_text, symbols);
  auto result = Park(program, db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Propositional: each rule has exactly one grounding, so the number of
  // resolution rounds is bounded by |P| (the paper's termination
  // argument) and the blocked set by |P| as well.
  EXPECT_LE(result->stats.restarts, program.size());
  EXPECT_LE(result->stats.blocked_instances, program.size());
  // Each inflationary round adds ≥1 mark out of ≤ 2*num_atoms possible.
  EXPECT_LE(result->stats.gamma_steps,
            (program.size() + 1) * 2 * 12);
}

TEST_P(RandomProgramTest, ResultAtomsComeFromDOrInsertHeads) {
  RandomScenario scenario = MakeRandomScenario(GetParam() * 97 + 5, 10, 20);
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram(scenario.program_text, symbols);
  Database db = MustParseDatabase(scenario.facts_text, symbols);
  auto result = Park(program, db);
  ASSERT_TRUE(result.ok());
  std::unordered_set<PredicateId> insertable;
  for (const Rule& rule : program.rules()) {
    if (rule.head().action == ActionKind::kInsert) {
      insertable.insert(rule.head().atom.predicate);
    }
  }
  result->database.ForEach([&](const GroundAtom& atom) {
    EXPECT_TRUE(db.Contains(atom) || insertable.contains(atom.predicate()))
        << atom.ToString(*symbols) << " appeared from nowhere";
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range<uint64_t>(1, 13));

// --- Theorem 4.1: Δ is growing; ω(A) is a fixpoint of Δ ---

/// A manual Δ loop mirroring the evaluator, snapshotting every
/// bi-structure it passes through.
class DeltaHarness {
 public:
  DeltaHarness(const Program& program, const Database& db, PolicyPtr policy)
      : program_(program), db_(db), policy_(std::move(policy)),
        interp_(&db_) {}

  /// Applies Δ once; returns false when a fixpoint is reached.
  bool Step() {
    GammaResult gamma = FreshGamma(program_, blocked_, interp_);
    if (gamma.consistent) {
      // No new mark: the fixpoint, and the section left I as it was.
      return ApplyDerivations(gamma.derivations, interp_) > 0;
    }
    std::vector<Conflict> conflicts = BuildConflicts(gamma, interp_);
    PolicyContext context{db_, program_, interp_, 0};
    for (const Conflict& conflict : conflicts) {
      Vote vote = policy_->Select(context, conflict).value();
      for (GroundingView g :
           vote == Vote::kInsert ? conflict.deleters() : conflict.inserters()) {
        blocked_.Insert(g);
      }
    }
    interp_.ClearMarks();
    return true;
  }

  BiStructureSnapshot Snapshot() const {
    return SnapshotBiStructure(blocked_, interp_, program_);
  }

 private:
  const Program& program_;
  const Database& db_;
  PolicyPtr policy_;
  BlockedSet blocked_;
  IInterpretation interp_;
};

TEST_P(RandomProgramTest, DeltaIsGrowingAndOmegaIsFixpoint) {
  RandomScenario scenario = MakeRandomScenario(GetParam() * 13 + 3, 8, 16);
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram(scenario.program_text, symbols);
  Database db = MustParseDatabase(scenario.facts_text, symbols);
  DeltaHarness harness(program, db, MakeInertiaPolicy());

  BiStructureSnapshot previous = harness.Snapshot();
  int steps = 0;
  while (harness.Step()) {
    BiStructureSnapshot current = harness.Snapshot();
    // Theorem 4.1 (1): A ⊑ Δ(A).
    EXPECT_TRUE(BiStructureLeq(previous, current))
        << "Δ not growing at step " << steps << ":\n  " << previous.ToString()
        << "\n  " << current.ToString();
    previous = current;
    ASSERT_LT(++steps, 10'000) << "runaway Δ iteration";
  }
  // Theorem 4.1 (2): ω(A) is a fixpoint — one more Step() changes nothing.
  BiStructureSnapshot at_fixpoint = harness.Snapshot();
  harness.Step();
  BiStructureSnapshot after = harness.Snapshot();
  EXPECT_EQ(at_fixpoint.blocked, after.blocked);
  EXPECT_EQ(at_fixpoint.interpretation, after.interpretation);
}

// --- Conflict-free programs: PARK ≡ inflationary fixpoint (claim C4) ---

class ClosureEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(ClosureEquivalenceTest, ParkEqualsInflationaryOnConflictFree) {
  auto [nodes, seed] = GetParam();
  Workload w = MakeTransitiveClosureWorkload(GraphShape::kRandom, nodes,
                                             nodes * 2, seed);
  auto park_result = Park(w.program, w.database);
  ASSERT_TRUE(park_result.ok()) << park_result.status().ToString();
  auto inflationary = InflationaryFixpoint(w.program, w.database);
  ASSERT_TRUE(inflationary.ok());
  EXPECT_TRUE(inflationary->consistent);
  EXPECT_TRUE(park_result->database.SameAtoms(inflationary->database));
  EXPECT_EQ(park_result->stats.restarts, 0u);
  // And the naive baseline coincides too (no conflicting pairs to cancel).
  auto naive = NaiveCancelSemantics(w.program, w.database);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->cancelled_pairs, 0u);
  EXPECT_TRUE(park_result->database.SameAtoms(naive->database));
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, ClosureEquivalenceTest,
    ::testing::Combine(::testing::Values(4, 8, 16),
                       ::testing::Values<uint64_t>(1, 2, 3)));

// --- Conflict workloads: every conflicted pair resolved exactly once ---

class ConflictDensityTest
    : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(ConflictDensityTest, ResolutionCountsMatchWorkload) {
  auto [fraction, seed] = GetParam();
  Workload w = MakeConflictPairsWorkload(40, fraction, seed);
  ParkOptions options;
  options.trace_level = TraceLevel::kSummary;
  auto result = Park(w.program, w.database, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Count conflicted targets directly from the generated program: targets
  // with both an inserter and a deleter.
  size_t conflicted = (w.program.size() - 40);
  EXPECT_EQ(result->stats.conflicts_resolved, conflicted);
  // Inertia: every conflicted target is absent from D, so none survive;
  // every unconflicted target is inserted.
  size_t targets_present = 0;
  result->database.ForEach([&](const GroundAtom& atom) {
    if (w.symbols->PredicateName(atom.predicate()) == "t") {
      ++targets_present;
    }
  });
  EXPECT_EQ(targets_present, 40 - conflicted);
}

INSTANTIATE_TEST_SUITE_P(
    Densities, ConflictDensityTest,
    ::testing::Combine(::testing::Values(0.0, 0.1, 0.5, 1.0),
                       ::testing::Values<uint64_t>(11, 22)));

}  // namespace
}  // namespace park

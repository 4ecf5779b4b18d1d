// Equivalence of the two Γ evaluation modes: semi-naive evaluation is an
// optimization, never a semantic change. Every scenario must produce the
// identical database, blocked set, restart count, and trace under both
// modes, while semi-naive performs at most as many rule-body matchings.
// The seeded Γ itself is pinned against a definition-level reference:
// every (rule, literal, Δ-atom) completion, de-duplicated by grounding.

#include <gtest/gtest.h>

#include <cctype>
#include <optional>
#include <unordered_set>

#include "engine/consequence.h"
#include "engine/matcher.h"
#include "engine/rule_graph.h"
#include "test_util.h"
#include "util/random.h"
#include "util/string_util.h"
#include "workload/conflict_gen.h"
#include "workload/graph_gen.h"
#include "workload/payroll_gen.h"

namespace park {
namespace {

using ::park::testing_util::MustParseDatabase;
using ::park::testing_util::MustParseProgram;

struct ModeOutcome {
  std::string database;
  std::vector<std::string> blocked;
  size_t restarts;
  size_t gamma_steps;
  size_t rule_evaluations;
  std::vector<std::vector<std::string>> history;
};

ModeOutcome RunMode(const Program& program, const Database& db,
                    GammaMode mode, PolicyPtr policy = nullptr) {
  ParkOptions options;
  options.gamma_mode = mode;
  options.policy = std::move(policy);
  options.trace_level = TraceLevel::kFull;
  auto result = Park(program, db, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  return ModeOutcome{result->database.ToString(),
                     result->blocked,
                     result->stats.restarts,
                     result->stats.gamma_steps,
                     result->stats.rule_evaluations,
                     result->trace.InterpretationHistory()};
}

void ExpectModesAgree(const Program& program, const Database& db,
                      PolicyPtr policy = nullptr) {
  ModeOutcome naive = RunMode(program, db, GammaMode::kNaive, policy);
  ModeOutcome semi = RunMode(program, db, GammaMode::kSemiNaive, policy);
  EXPECT_EQ(naive.database, semi.database);
  EXPECT_EQ(naive.blocked, semi.blocked);
  EXPECT_EQ(naive.restarts, semi.restarts);
  EXPECT_EQ(naive.gamma_steps, semi.gamma_steps);
  EXPECT_EQ(naive.history, semi.history);
  // Semi-naive saves rule-body matchings, except that each clash forces
  // one full-Γ recompute (for maximal conflict sides) of at most |P| rules.
  EXPECT_LE(semi.rule_evaluations,
            naive.rule_evaluations + semi.restarts * program.size());
}

TEST(GammaModeTest, PaperExamplesAgree) {
  const char* programs[] = {
      "r1: p -> +q. r2: p -> -a. r3: q -> +a.",
      "r1: p -> +q. r2: p -> -a. r3: q -> +a. r4: !a -> +r. r5: a -> +s.",
      "r1: p -> +q. r2: p -> -q. r3: q -> +a. r4: q -> -a. r5: p -> +a.",
      "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
      "r1: a -> +b. r2: a -> +d. r3: b -> +c. r4: b -> -d. r5: c -> -b.",
  };
  const char* facts[] = {"p.", "p.", "p.", "p.", "a."};
  for (int i = 0; i < 5; ++i) {
    auto symbols = MakeSymbolTable();
    Program program = MustParseProgram(programs[i], symbols);
    Database db = MustParseDatabase(facts[i], symbols);
    ExpectModesAgree(program, db);
  }
}

TEST(GammaModeTest, RecursiveClosureAgrees) {
  Workload w =
      MakeTransitiveClosureWorkload(GraphShape::kRandom, 12, 30, 3);
  ExpectModesAgree(w.program, w.database);
}

TEST(GammaModeTest, SemiNaiveAvoidsRederivationOnClosure) {
  // On a deep path closure, naive Γ re-derives every known path at every
  // step; semi-naive only extends the frontier. The derivation counts
  // differ drastically while the results agree.
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram(
      "edge(X, Y) -> +path(X, Y). path(X, Y), edge(Y, Z) -> +path(X, Z).",
      symbols);
  std::string facts;
  for (int i = 0; i < 24; ++i) {
    facts += StrFormat("edge(%d, %d). ", i, i + 1);
  }
  Database db = MustParseDatabase(facts, symbols);
  ParkOptions naive_options;
  naive_options.gamma_mode = GammaMode::kNaive;
  ParkOptions semi_options;
  semi_options.gamma_mode = GammaMode::kSemiNaive;
  naive_options.max_derivations = semi_options.max_derivations = 1'000'000;
  auto naive = Park(program, db, naive_options);
  auto semi = Park(program, db, semi_options);
  ASSERT_TRUE(naive.ok() && semi.ok());
  EXPECT_EQ(naive->database.ToString(), semi->database.ToString());
  EXPECT_EQ(naive->stats.gamma_steps, semi->stats.gamma_steps);
  // Each path is derived exactly once: one per node pair i < j.
  EXPECT_EQ(semi->stats.derivations_charged, 25u * 24u / 2u);
  EXPECT_GT(naive->stats.derivations_charged,
            4 * semi->stats.derivations_charged);
}

TEST(GammaModeTest, SemiNaiveSkipsRulesOnClosure) {
  // On a deep path closure with extra never-firing rules, the scheduler
  // must actually save work, not just tie.
  auto symbols = MakeSymbolTable();
  std::string rules =
      "edge(X, Y) -> +path(X, Y). path(X, Y), edge(Y, Z) -> +path(X, Z).";
  for (int i = 0; i < 20; ++i) {
    rules += StrFormat(" never%d(X) -> +dead%d(X).", i, i);
  }
  Program program = MustParseProgram(rules, symbols);
  std::string facts;
  for (int i = 0; i < 16; ++i) {
    facts += StrFormat("edge(%d, %d). ", i, i + 1);
  }
  Database db = MustParseDatabase(facts, symbols);
  ModeOutcome naive = RunMode(program, db, GammaMode::kNaive);
  ModeOutcome semi = RunMode(program, db, GammaMode::kSemiNaive);
  EXPECT_EQ(naive.database, semi.database);
  EXPECT_LT(semi.rule_evaluations, naive.rule_evaluations / 2);
}

TEST(GammaModeTest, ConflictWorkloadsAgree) {
  for (double fraction : {0.0, 0.3, 1.0}) {
    Workload w = MakeConflictPairsWorkload(25, fraction, 77);
    ExpectModesAgree(w.program, w.database);
  }
}

TEST(GammaModeTest, RestartChainAgrees) {
  Workload w = MakeRestartChainWorkload(20, 4);
  ExpectModesAgree(w.program, w.database);
}

TEST(GammaModeTest, GraphPolicyWorkloadAgrees) {
  Workload w = MakeIrreflexiveGraphWorkload(4);
  ExpectModesAgree(w.program, w.database, MakeIrreflexiveGraphPolicy());
}

TEST(GammaModeTest, PayrollEcaAgrees) {
  PayrollParams params;
  params.num_employees = 60;
  params.inactive_fraction = 0.2;
  params.num_deactivations = 6;
  params.seed = 5;
  Workload w = MakePayrollWorkload(params);
  auto extended = ProgramWithUpdates(w.program, w.updates.updates());
  ASSERT_TRUE(extended.ok());
  ExpectModesAgree(*extended, w.database);
}

class GammaModeRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GammaModeRandomTest, RandomProgramsAgree) {
  Rng rng(GetParam());
  std::string rules;
  std::string facts;
  auto atom = [](int i) { return "a" + std::to_string(i); };
  for (int i = 0; i < 10; ++i) {
    if (rng.Bernoulli(0.4)) facts += atom(i) + ". ";
  }
  for (int r = 0; r < 20; ++r) {
    int len = static_cast<int>(rng.UniformInt(1, 3));
    for (int b = 0; b < len; ++b) {
      if (b > 0) rules += ", ";
      if (rng.Bernoulli(0.3)) rules += "!";
      rules += atom(static_cast<int>(rng.UniformInt(0, 9)));
    }
    rules += rng.Bernoulli(0.5) ? " -> +" : " -> -";
    rules += atom(static_cast<int>(rng.UniformInt(0, 9)));
    rules += ".\n";
  }
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram(rules, symbols);
  Database db = MustParseDatabase(facts, symbols);
  ExpectModesAgree(program, db);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GammaModeRandomTest,
                         ::testing::Range<uint64_t>(100, 120));

// --- Seeded Γ exactness ---
//
// ComputeGammaSemiNaive against a test-local reference that shares only
// the plan executor with it: every (rule, literal, Δ-atom) completion in
// nested-loop order, de-duplicated by grounding, first occurrence kept.
// Its unseeded case (a `delta.initial` section) must equal FreshGamma,
// and at 4 threads the sweep must split seeded units into slices, so both
// unit kinds run through the parallel fan-out.
// The programs self-join changed predicates (r3-style), and put negated,
// +event and -event literals over changed predicates; `p3` has no base
// facts, so after the seed step its groups' pre-Δ stores lie inside Δ.

std::vector<Derivation> ReferenceSeededGamma(const Program& program,
                                             const BlockedSet& blocked,
                                             const IInterpretation& interp,
                                             const DeltaAtoms& delta,
                                             PlanCache& plans, ExecMode exec) {
  std::vector<Derivation> out;
  std::unordered_set<RuleGrounding, RuleGroundingHash> seen;
  for (const Rule& rule : program.rules()) {
    for (size_t i = 0; i < rule.body().size(); ++i) {
      const BodyLiteral& lit = rule.body()[i];
      const bool plus_class = lit.kind == LiteralKind::kPositive ||
                              lit.kind == LiteralKind::kEventInsert;
      for (const GroundAtom& atom : plus_class ? delta.plus : delta.minus) {
        if (atom.predicate() != lit.atom.predicate) continue;
        const CompiledPlan& plan =
            plans.Get(rule, static_cast<int>(i), interp);
        ExecutePlan(
            plan, rule, interp, &atom, CandidateSlice{},
            [&](const Tuple& binding) {
              RuleGrounding grounding(rule.index(), binding);
              if (blocked.contains(grounding)) return;
              if (!seen.insert(grounding).second) return;
              out.push_back(Derivation{
                  grounding, rule.head().action,
                  rule.head().atom.Ground(binding.values())});
            },
            nullptr, exec);
      }
    }
  }
  return out;
}

std::string RandomSeededProgram(Rng& rng) {
  const char* vars[] = {"X", "Y", "Z"};
  auto pred = [&] { return "p" + std::to_string(rng.UniformInt(0, 3)); };
  auto arg = [&](bool allow_const) -> std::string {
    if (allow_const && rng.Bernoulli(0.15)) {
      return std::to_string(rng.UniformInt(0, 3));
    }
    return vars[rng.UniformInt(0, 2)];
  };
  // r3-style self-join over a predicate every seed step changes.
  std::string rules = "p0(X, Y), p0(X, Z), p0(Z, Y) -> -p1(X, Y).\n";
  for (int r = 0; r < 8; ++r) {
    std::vector<std::string> body;
    std::vector<std::string> bound;
    const int binders = static_cast<int>(rng.UniformInt(1, 3));
    for (int b = 0; b < binders; ++b) {
      std::string a1 = arg(true);
      std::string a2 = arg(true);
      for (const std::string& a : {a1, a2}) {
        if (!std::isdigit(static_cast<unsigned char>(a[0]))) {
          bound.push_back(a);
        }
      }
      const double kind = rng.UniformDouble();
      std::string sign = kind < 0.2 ? "+" : kind < 0.35 ? "-" : "";
      body.push_back(sign + pred() + "(" + a1 + ", " + a2 + ")");
    }
    if (bound.empty()) {  // all-constant binders: bind X too
      bound.push_back("X");
      body.push_back("p0(X, X)");
    }
    auto bound_var = [&] {
      return bound[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(bound.size()) - 1))];
    };
    if (rng.Bernoulli(0.4)) {
      body.push_back("!" + pred() + "(" + bound_var() + ", " + bound_var() +
                     ")");
    }
    rng.Shuffle(body);
    for (size_t b = 0; b < body.size(); ++b) {
      rules += (b > 0 ? ", " : "") + body[b];
    }
    rules += rng.Bernoulli(0.6) ? " -> +" : " -> -";
    rules += pred() + "(" + bound_var() + ", " + bound_var() + ").\n";
  }
  return rules;
}

struct SeededCase {
  ExecMode exec;
  int threads;
};

void PrintTo(const SeededCase& c, std::ostream* os) {
  *os << (c.exec == ExecMode::kTuple ? "tuple" : "batch") << " x "
      << c.threads << " thread(s)";
}

class SeededGammaExactnessTest
    : public ::testing::TestWithParam<SeededCase> {};

TEST_P(SeededGammaExactnessTest, MatchesFirstOccurrenceReference) {
  const SeededCase c = GetParam();
  std::optional<ParallelGamma> parallel;
  if (c.threads > 1) parallel.emplace(c.threads, /*min_slice_size=*/2);
  auto expect_same = [](const std::vector<Derivation>& got,
                        const std::vector<Derivation>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(got[k].grounding, want[k].grounding) << k;
      EXPECT_EQ(got[k].action, want[k].action) << k;
      EXPECT_EQ(got[k].atom, want[k].atom) << k;
    }
  };
  size_t compared = 0;
  uint64_t seeded_sliced_units = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(StrFormat("seed %llu", static_cast<unsigned long long>(seed)));
    Rng rng(seed);
    auto symbols = MakeSymbolTable();
    Program program = MustParseProgram(RandomSeededProgram(rng), symbols);
    std::string facts;
    for (int p = 0; p < 3; ++p) {  // p3 stays base-empty
      for (int x = 0; x < 4; ++x) {
        for (int y = 0; y < 4; ++y) {
          if (rng.Bernoulli(0.3)) facts += StrFormat("p%d(%d, %d). ", p, x, y);
        }
      }
    }
    Database db = MustParseDatabase(facts, symbols);
    IInterpretation interp(&db);
    // The seed step: random marks over every predicate, as a transaction
    // U would place them (never +a and -a together).
    DeltaAtoms delta;
    delta.initial = false;
    for (int p = 0; p < 4; ++p) {
      for (int x = 0; x < 4; ++x) {
        for (int y = 0; y < 4; ++y) {
          const double roll = rng.UniformDouble();
          if (roll >= 0.35) continue;
          const ActionKind action =
              roll < 0.25 ? ActionKind::kInsert : ActionKind::kDelete;
          GroundAtom atom(symbols->InternPredicate("p" + std::to_string(p), 2),
                          Tuple{Value::Int(x), Value::Int(y)});
          if (interp.AddMarked(action, atom, RuleGrounding())) {
            (action == ActionKind::kInsert ? delta.plus : delta.minus)
                .push_back(atom);
          }
        }
      }
    }
    RuleDependencyGraph graph(program);
    PlanCache plans(program);
    BlockedSet blocked;
    for (int step = 0; step < 4; ++step) {
      SCOPED_TRACE(StrFormat("step %d", step));
      // Block a random fifth of the currently firable instances.
      for (const Derivation& d :
           testing_util::FreshGamma(program, blocked, interp).derivations) {
        if (rng.Bernoulli(0.2)) blocked.insert(d.grounding);
      }
      ExecStats exec_stats;
      // The unseeded section through a fresh cache, like FreshGamma: the
      // enumeration order follows the plans, which `plans` compiled
      // against an earlier I.
      const DeltaAtoms initial;
      PlanCache fresh_plans(program);
      GammaResult full = ComputeGammaSemiNaive(
          program, blocked, interp, initial, graph, fresh_plans,
          parallel ? &*parallel : nullptr, nullptr, c.exec, &exec_stats);
      expect_same(full.derivations,
                  testing_util::FreshGamma(program, blocked, interp, c.exec)
                      .derivations);
      // One seeded section against the reference; returns its result and
      // counts the seeded units the fan-out split into slices.
      auto seeded_section = [&](const DeltaAtoms& d) {
        const uint64_t sliced_before =
            parallel ? parallel->sliced_units() : 0;
        GammaResult got = ComputeGammaSemiNaive(
            program, blocked, interp, d, graph, plans,
            parallel ? &*parallel : nullptr, nullptr, c.exec, &exec_stats);
        if (parallel) {
          seeded_sliced_units += parallel->sliced_units() - sliced_before;
        }
        std::vector<Derivation> want =
            ReferenceSeededGamma(program, blocked, interp, d, plans, c.exec);
        expect_same(got.derivations, want);
        return std::make_pair(std::move(got), want.size());
      };
      // A thin Δ (the step's first + and first - atom) keeps the section
      // below the pool's chunking threshold, where seeded units can split.
      DeltaAtoms thin;
      thin.initial = false;
      if (!delta.plus.empty()) thin.plus.push_back(delta.plus.front());
      if (!delta.minus.empty()) thin.minus.push_back(delta.minus.front());
      seeded_section(thin);
      auto [got, num_compared] = seeded_section(delta);
      compared += num_compared;
      if (!got.consistent || got.newly_marked == 0) break;
      ApplyDerivations(got.derivations, interp, &delta);
    }
  }
  EXPECT_GT(compared, 500u);  // the sweep must exercise real completions
  if (parallel) {
    EXPECT_GT(seeded_sliced_units, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ExecAndThreads, SeededGammaExactnessTest,
    ::testing::Values(SeededCase{ExecMode::kTuple, 1},
                      SeededCase{ExecMode::kTuple, 4},
                      SeededCase{ExecMode::kBatch, 1},
                      SeededCase{ExecMode::kBatch, 4}),
    [](const ::testing::TestParamInfo<SeededCase>& info) {
      return std::string(info.param.exec == ExecMode::kTuple ? "Tuple"
                                                             : "Batch") +
             std::to_string(info.param.threads) + "Threads";
    });

}  // namespace
}  // namespace park

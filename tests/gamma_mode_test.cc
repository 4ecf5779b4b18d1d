// Semi-naive Γ, the engine's one Γ mode: absolute work counts on deep
// closures, and the seeded Γ pinned against a definition-level reference —
// every (rule, literal, Δ-atom) completion, de-duplicated by grounding.
// Whole-run results are checked against ReferencePark in
// differential_test.

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

namespace park {
namespace {

using ::park::testing_util::MustParseDatabase;
using ::park::testing_util::MustParseProgram;

TEST(GammaModeTest, SemiNaiveAvoidsRederivationOnClosure) {
  // On a deep path closure, semi-naive Γ only extends the frontier: each
  // path is derived exactly once.
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram(
      "edge(X, Y) -> +path(X, Y). path(X, Y), edge(Y, Z) -> +path(X, Z).",
      symbols);
  std::string facts;
  for (int i = 0; i < 24; ++i) {
    facts += StrFormat("edge(%d, %d). ", i, i + 1);
  }
  Database db = MustParseDatabase(facts, symbols);
  ParkOptions options;
  options.max_derivations = 1'000'000;
  auto semi = Park(program, db, options);
  ASSERT_TRUE(semi.ok()) << semi.status().ToString();
  // One per node pair i < j.
  EXPECT_EQ(semi->stats.derivations_charged, 25u * 24u / 2u);
}

TEST(GammaModeTest, SemiNaiveSkipsRulesOnClosure) {
  // On a deep path closure with extra never-firing rules, the scheduler
  // must actually save work: fewer than half the rule matchings of a Γ
  // that matches every rule at every step.
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
  auto semi = Park(program, db);
  ASSERT_TRUE(semi.ok()) << semi.status().ToString();
  const size_t match_all = program.size() * (semi->stats.gamma_steps + 1);
  EXPECT_LT(semi->stats.rule_evaluations, match_all / 2);
}

// --- Seeded Γ exactness ---
//
// ComputeGammaSemiNaive against a test-local reference that shares only
// the plan executor with it: every (rule, literal, Δ-atom) completion in
// nested-loop order, de-duplicated by grounding, first occurrence kept.
// Its unseeded case (a `delta.initial` section) must equal FreshGamma,
// and at 4 threads both unit kinds run through the parallel fan-out.
// The programs self-join changed predicates (r3-style), and put negated,
// +event and -event literals over changed predicates; `p3` has no base
// facts, so after the seed step its groups' pre-Δ stores lie inside Δ.

/// One firing, materialized: the grounding, its head action and atom.
struct Firing {
  RuleGrounding grounding;
  ActionKind action;
  GroundAtom atom;
};

/// The firings of a Γ section, materialized in order.
std::vector<Firing> Firings(const Derivations& derivations) {
  std::vector<Firing> out;
  for (const Derivations::Record& r : derivations) {
    const GroundingView g = derivations.grounding(r);
    out.push_back(Firing{RuleGrounding(g),
                         r.action, GroundAtom(derivations.atom(r))});
  }
  return out;
}

std::vector<Firing> ReferenceSeededGamma(const Program& program,
                                         const BlockedSet& blocked,
                                         const IInterpretation& interp,
                                         const DeltaAtoms& delta,
                                         PlanCache& plans) {
  std::vector<Firing> out;
  std::unordered_set<RuleGrounding, RuleGroundingHash> seen;
  for (const Rule& rule : program.rules()) {
    for (size_t i = 0; i < rule.body().size(); ++i) {
      const BodyLiteral& lit = rule.body()[i];
      const bool plus_class = lit.kind == LiteralKind::kPositive ||
                              lit.kind == LiteralKind::kEventInsert;
      for (const AtomView& atom : plus_class ? delta.plus : delta.minus) {
        if (atom.predicate != lit.atom.predicate) continue;
        const CompiledPlan& plan =
            plans.Get(rule, static_cast<int>(i), interp);
        ExecutePlan(
            plan, rule, interp, &atom,
            [&](std::span<const Value> binding) {
              RuleGrounding grounding(rule.index(), Tuple(binding));
              if (blocked.Contains(grounding)) return;
              if (!seen.insert(grounding).second) return;
              out.push_back(Firing{
                  grounding, rule.head().action,
                  rule.head().atom.Ground({binding.begin(), binding.end()})});
            });
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

class SeededGammaExactnessTest : public ::testing::TestWithParam<int> {};

TEST_P(SeededGammaExactnessTest, MatchesFirstOccurrenceReference) {
  const int threads = GetParam();
  std::optional<ParallelGamma> parallel;
  if (threads > 1) parallel.emplace(threads);
  auto expect_same = [](const Derivations& derivations,
                        const std::vector<Firing>& want) {
    const std::vector<Firing> got = Firings(derivations);
    ASSERT_EQ(got.size(), want.size());
    for (size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(got[k].grounding, want[k].grounding) << k;
      EXPECT_EQ(got[k].action, want[k].action) << k;
      EXPECT_EQ(got[k].atom, want[k].atom) << k;
    }
  };
  size_t compared = 0;
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
          auto [stored, added] = interp.Mark(action, atom.view());
          if (added) {
            (action == ActionKind::kInsert ? delta.plus : delta.minus)
                .push_back(AtomView{atom.predicate(), stored});
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
      for (const Firing& f :
           Firings(testing_util::FreshGamma(program, blocked, interp)
                       .derivations)) {
        if (rng.Bernoulli(0.2)) blocked.Insert(f.grounding);
      }
      // The unseeded section through a fresh cache, like FreshGamma: the
      // enumeration order follows the plans, which `plans` compiled
      // against an earlier I.
      const DeltaAtoms initial;
      PlanCache fresh_plans(program);
      GammaResult full = ComputeGammaSemiNaive(
          program, blocked, interp, initial, graph, fresh_plans,
          parallel ? &*parallel : nullptr);
      expect_same(
          full.derivations,
          Firings(testing_util::FreshGamma(program, blocked, interp)
                      .derivations));
      // One seeded section against the reference; returns its result and
      // the reference's size.
      auto seeded_section = [&](const DeltaAtoms& d) {
        GammaResult got = ComputeGammaSemiNaive(
            program, blocked, interp, d, graph, plans,
            parallel ? &*parallel : nullptr);
        std::vector<Firing> want =
            ReferenceSeededGamma(program, blocked, interp, d, plans);
        expect_same(got.derivations, want);
        return std::make_pair(std::move(got), want.size());
      };
      // A thin Δ (the step's first + and first - atom) gives a section of
      // a few units, fewer than the pool has chunks.
      DeltaAtoms thin;
      thin.initial = false;
      if (!delta.plus.empty()) thin.plus.push_back(delta.plus.front());
      if (!delta.minus.empty()) thin.minus.push_back(delta.minus.front());
      seeded_section(thin);
      auto [got, num_compared] = seeded_section(delta);
      compared += num_compared;
      if (!got.consistent) break;
      if (ApplyDerivations(got.derivations, interp, &delta) == 0) break;
    }
  }
  EXPECT_GT(compared, 500u);  // the sweep must exercise real completions
  if (parallel) {
    EXPECT_GT(parallel->pool().tasks_executed(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Threads, SeededGammaExactnessTest, ::testing::Values(1, 4),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::to_string(info.param) + "Threads";
    });

}  // namespace
}  // namespace park

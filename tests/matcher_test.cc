#include "engine/matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "lang/parser.h"

namespace park {
namespace {

/// Enumerates `rule`'s matches through its compiled plan, each binding
/// copied into a Tuple; returns ExecutePlan's step-0 candidate count.
size_t ForEachMatch(const Rule& rule, const IInterpretation& interp,
                    FunctionRef<void(const Tuple&)> fn) {
  return ExecutePlan(
      CompilePlan(rule, /*seed_index=*/-1, interp), rule, interp,
      /*seed=*/nullptr,
      [&](std::span<const Value> binding) { fn(Tuple(binding)); });
}

/// Seeded enumeration through the rule's seeded plan; returns the step-0
/// candidate count.
size_t ForEachSeededMatch(const Rule& rule, const IInterpretation& interp,
                          int seed_index, const GroundAtom& seed,
                          FunctionRef<void(const Tuple&)> fn) {
  const AtomView view = seed.view();
  return ExecutePlan(
      CompilePlan(rule, seed_index, interp), rule, interp, &view,
      [&](std::span<const Value> binding) { fn(Tuple(binding)); });
}

/// The planned literal order of `rule` over `interp`'s statistics.
std::vector<int> PlannedOrder(const Rule& rule,
                              const IInterpretation& interp) {
  std::vector<int> order;
  for (const CompiledStep& step :
       CompilePlan(rule, /*seed_index=*/-1, interp).steps) {
    order.push_back(step.literal_index);
  }
  return order;
}

size_t CountCandidates(const Rule& rule, const IInterpretation& interp) {
  return ForEachMatch(rule, interp, [](const Tuple&) {});
}

class MatcherTest : public ::testing::Test {
 protected:
  MatcherTest() : symbols_(MakeSymbolTable()) {}

  Rule MustRule(std::string_view text) {
    auto rule = ParseRule(text, symbols_);
    EXPECT_TRUE(rule.ok()) << rule.status().ToString();
    return rule.ok() ? std::move(rule).value() : Rule();
  }

  Database MustDb(std::string_view facts) {
    return ParseDatabase(facts, symbols_).value();
  }

  /// Collects bindings rendered as "X=a,Y=b" (sorted for determinism).
  std::vector<std::string> Matches(const Rule& rule,
                                   const IInterpretation& interp) {
    std::vector<std::string> out;
    ForEachMatch(rule, interp, [&](const Tuple& binding) {
      std::string s;
      for (int i = 0; i < binding.arity(); ++i) {
        if (i > 0) s += ",";
        s += rule.variable_names()[static_cast<size_t>(i)] + "=" +
             binding[i].ToString(*symbols_);
      }
      out.push_back(s);
    });
    std::sort(out.begin(), out.end());
    return out;
  }

  std::shared_ptr<SymbolTable> symbols_;
};

TEST_F(MatcherTest, SinglePositiveLiteral) {
  Database db = MustDb("p(a). p(b).");
  IInterpretation interp(&db);
  Rule rule = MustRule("p(X) -> +q(X).");
  EXPECT_EQ(Matches(rule, interp),
            (std::vector<std::string>{"X=a", "X=b"}));
}

TEST_F(MatcherTest, EmptyBodyYieldsOneEmptyMatch) {
  Database db = MustDb("");
  IInterpretation interp(&db);
  Rule rule = MustRule("-> +q(c).");
  EXPECT_EQ(Matches(rule, interp), (std::vector<std::string>{""}));
}

TEST_F(MatcherTest, JoinAcrossLiterals) {
  Database db = MustDb("edge(a, b). edge(b, c). edge(c, d).");
  IInterpretation interp(&db);
  Rule rule = MustRule("edge(X, Y), edge(Y, Z) -> +path(X, Z).");
  EXPECT_EQ(Matches(rule, interp),
            (std::vector<std::string>{"X=a,Y=b,Z=c", "X=b,Y=c,Z=d"}));
}

TEST_F(MatcherTest, RepeatedVariableWithinLiteral) {
  Database db = MustDb("q(a, a). q(a, b). q(b, b).");
  IInterpretation interp(&db);
  Rule rule = MustRule("q(X, X) -> -q(X, X).");
  EXPECT_EQ(Matches(rule, interp),
            (std::vector<std::string>{"X=a", "X=b"}));
}

TEST_F(MatcherTest, ConstantsFilter) {
  Database db = MustDb("q(a, a). q(b, a). q(b, c).");
  IInterpretation interp(&db);
  Rule rule = MustRule("q(X, a) -> -q(X, a).");
  EXPECT_EQ(Matches(rule, interp),
            (std::vector<std::string>{"X=a", "X=b"}));
}

TEST_F(MatcherTest, NegationFiltersBindings) {
  Database db = MustDb("emp(a). emp(b). active(a).");
  IInterpretation interp(&db);
  Rule rule = MustRule("emp(X), !active(X) -> -emp(X).");
  EXPECT_EQ(Matches(rule, interp), (std::vector<std::string>{"X=b"}));
}

TEST_F(MatcherTest, NegationFirstInSourceOrderStillWorks) {
  Database db = MustDb("emp(a). emp(b). active(a).");
  IInterpretation interp(&db);
  // The planner must reorder: !active(X) cannot generate bindings.
  Rule rule = MustRule("!active(X), emp(X) -> -emp(X).");
  EXPECT_EQ(Matches(rule, interp), (std::vector<std::string>{"X=b"}));
}

TEST_F(MatcherTest, PositiveSeesBaseAndPlusWithoutDuplicates) {
  Database db = MustDb("p(a).");
  IInterpretation interp(&db);
  RuleGrounding g(0, Tuple{});
  interp.AddMarked(ActionKind::kInsert,
                   ParseGroundAtom("p(a)", symbols_).value(), g);  // dup
  interp.AddMarked(ActionKind::kInsert,
                   ParseGroundAtom("p(b)", symbols_).value(), g);
  Rule rule = MustRule("p(X) -> +q(X).");
  EXPECT_EQ(Matches(rule, interp),
            (std::vector<std::string>{"X=a", "X=b"}));
}

TEST_F(MatcherTest, MinusMarkDoesNotHidePositive) {
  Database db = MustDb("p(a).");
  IInterpretation interp(&db);
  interp.AddMarked(ActionKind::kDelete,
                   ParseGroundAtom("p(a)", symbols_).value(),
                   RuleGrounding(0, Tuple{}));
  Rule rule = MustRule("p(X) -> +q(X).");
  // Pending deletion: p(a) still valid positively (paper §4.2).
  EXPECT_EQ(Matches(rule, interp), (std::vector<std::string>{"X=a"}));
}

TEST_F(MatcherTest, EventInsertMatchesOnlyPlus) {
  Database db = MustDb("r(a).");
  IInterpretation interp(&db);
  interp.AddMarked(ActionKind::kInsert,
                   ParseGroundAtom("r(b)", symbols_).value(),
                   RuleGrounding(0, Tuple{}));
  Rule rule = MustRule("+r(X) -> -s(X).");
  EXPECT_EQ(Matches(rule, interp), (std::vector<std::string>{"X=b"}));
}

TEST_F(MatcherTest, EventDeleteMatchesOnlyMinus) {
  Database db = MustDb("r(a). r(b).");
  IInterpretation interp(&db);
  interp.AddMarked(ActionKind::kDelete,
                   ParseGroundAtom("r(b)", symbols_).value(),
                   RuleGrounding(0, Tuple{}));
  Rule rule = MustRule("-r(X) -> +log(X).");
  EXPECT_EQ(Matches(rule, interp), (std::vector<std::string>{"X=b"}));
}

TEST_F(MatcherTest, CartesianProduct) {
  Database db = MustDb("p(a). p(b). p(c).");
  IInterpretation interp(&db);
  Rule rule = MustRule("p(X), p(Y) -> +q(X, Y).");
  EXPECT_EQ(Matches(rule, interp).size(), 9u);
}

TEST_F(MatcherTest, AnonymousVariablesEnumerate) {
  Database db = MustDb("q(a, b). q(a, c). q(d, e).");
  IInterpretation interp(&db);
  Rule rule = MustRule("q(X, _) -> +seen(X).");
  // One match per tuple (the anonymous column is unconstrained).
  EXPECT_EQ(Matches(rule, interp).size(), 3u);
}

TEST_F(MatcherTest, PlanPutsGroundFilterFirst) {
  Database db = MustDb("");
  IInterpretation interp(&db);
  Rule rule = MustRule("p(X), q(a), r(X) -> +s(X).");
  std::vector<int> order = PlannedOrder(rule, interp);
  // q(a) is fully bound from the start: scheduled first.
  EXPECT_EQ(order[0], 1);
}

TEST_F(MatcherTest, PlanDefersNegationUntilBound) {
  Database db = MustDb("");
  IInterpretation interp(&db);
  Rule rule = MustRule("!q(X), p(X) -> +s(X).");
  std::vector<int> order = PlannedOrder(rule, interp);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // p(X) binds X
  EXPECT_EQ(order[1], 0);  // then the negation filters
}

TEST_F(MatcherTest, PlanPrefersSelectiveProbes) {
  // After edge(X, Y) binds X and Y, edge(Y, Z) is a probe on a bound
  // column (~1 row per key) while edge(W, V) is a full scan (4 rows):
  // the planner must pick edge(Y, Z) next.
  Database db = MustDb("edge(a, b). edge(b, c). edge(c, d). edge(d, a).");
  IInterpretation interp(&db);
  Rule rule = MustRule("edge(X, Y), edge(W, V), edge(Y, Z) -> +t(X, Z, W, V).");
  std::vector<int> order = PlannedOrder(rule, interp);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 1);
}

TEST_F(MatcherTest, NoMatchesOnEmptyRelation) {
  Database db = MustDb("");
  IInterpretation interp(&db);
  Rule rule = MustRule("p(X) -> +q(X).");
  EXPECT_TRUE(Matches(rule, interp).empty());
}

/// Seeded enumeration helper for the semi-naive tests below.
std::vector<std::string> SeededMatches(const Rule& rule,
                                       const IInterpretation& interp,
                                       int seed_index,
                                       const GroundAtom& seed_atom,
                                       const SymbolTable& symbols) {
  std::vector<std::string> out;
  ForEachSeededMatch(rule, interp, seed_index, seed_atom,
                     [&](const Tuple& binding) {
                       std::string s;
                       for (int i = 0; i < binding.arity(); ++i) {
                         if (i > 0) s += ",";
                         s += binding[i].ToString(symbols);
                       }
                       out.push_back(s);
                     });
  std::sort(out.begin(), out.end());
  return out;
}

TEST_F(MatcherTest, SeededMatchBindsTheSeedLiteral) {
  Database db = MustDb("edge(a, b). edge(b, c). edge(c, d).");
  IInterpretation interp(&db);
  Rule rule = MustRule("edge(X, Y), edge(Y, Z) -> +path(X, Z).");
  // Seed literal 0 with edge(b, c): only X=b, Y=c completions.
  auto seed = ParseGroundAtom("edge(b, c)", symbols_).value();
  EXPECT_EQ(SeededMatches(rule, interp, 0, seed, *symbols_),
            (std::vector<std::string>{"b,c,d"}));
  // Seed literal 1 with the same atom: Y=b, Z=c, completions over X.
  EXPECT_EQ(SeededMatches(rule, interp, 1, seed, *symbols_),
            (std::vector<std::string>{"a,b,c"}));
}

TEST_F(MatcherTest, SeededMatchRejectsConstantMismatch) {
  Database db = MustDb("q(a, a). p(a).");
  IInterpretation interp(&db);
  Rule rule = MustRule("q(X, a), p(X) -> +r(X).");
  // Seed atom disagrees with the literal's constant second position.
  auto wrong = ParseGroundAtom("q(a, b)", symbols_).value();
  EXPECT_TRUE(SeededMatches(rule, interp, 0, wrong, *symbols_).empty());
  auto right = ParseGroundAtom("q(a, a)", symbols_).value();
  EXPECT_EQ(SeededMatches(rule, interp, 0, right, *symbols_),
            (std::vector<std::string>{"a"}));
}

TEST_F(MatcherTest, SeededMatchRejectsRepeatedVariableMismatch) {
  Database db = MustDb("");
  IInterpretation interp(&db);
  Rule rule = MustRule("q(X, X) -> -q(X, X).");
  auto mismatched = ParseGroundAtom("q(a, b)", symbols_).value();
  EXPECT_TRUE(SeededMatches(rule, interp, 0, mismatched, *symbols_).empty());
  auto matched = ParseGroundAtom("q(c, c)", symbols_).value();
  EXPECT_EQ(SeededMatches(rule, interp, 0, matched, *symbols_),
            (std::vector<std::string>{"c"}));
}

TEST_F(MatcherTest, SeededMatchOnNegatedLiteral) {
  // Semi-naive seeds a negated literal with a new `-` mark: the binding
  // comes from the deleted atom and the rest of the body filters.
  Database db = MustDb("emp(a). emp(b). active(a). active(b).");
  IInterpretation interp(&db);
  interp.AddMarked(ActionKind::kDelete,
                   ParseGroundAtom("active(b)", symbols_).value(),
                   RuleGrounding(0, Tuple{}));
  Rule rule = MustRule("emp(X), !active(X) -> -emp(X).");
  auto seed = ParseGroundAtom("active(b)", symbols_).value();
  EXPECT_EQ(SeededMatches(rule, interp, 1, seed, *symbols_),
            (std::vector<std::string>{"b"}));
}

// --- Step-0 candidate count (the planner's actual-rows counter) ---

TEST_F(MatcherTest, CountsBaseAndPlusStreams) {
  // Positive literals draw from base AND plus; the count is raw (the
  // base-duplicate skip happens per candidate, after it is counted).
  Database db = MustDb("p(a). p(b).");
  IInterpretation interp(&db);
  RuleGrounding g(0, Tuple{});
  interp.AddMarked(ActionKind::kInsert,
                   ParseGroundAtom("p(c)", symbols_).value(), g);
  interp.AddMarked(ActionKind::kInsert,
                   ParseGroundAtom("p(a)", symbols_).value(), g);  // dup
  Rule rule = MustRule("p(X) -> +q(X).");
  EXPECT_EQ(CountCandidates(rule, interp), 4u);
  // The duplicate is still enumerated exactly once.
  EXPECT_EQ(Matches(rule, interp),
            (std::vector<std::string>{"X=a", "X=b", "X=c"}));
}

TEST_F(MatcherTest, GeneratorlessRulesCountZero) {
  Database db = MustDb("p(a).");
  IInterpretation interp(&db);
  // Empty body: no candidate stream.
  EXPECT_EQ(CountCandidates(MustRule("-> +q(c)."), interp), 0u);
  // Fully ground first literal: a constant-time filter, not a generator.
  EXPECT_EQ(CountCandidates(MustRule("p(a) -> +q(c)."), interp), 0u);
}

TEST_F(MatcherTest, SeededCountIsTheProbedStream) {
  Database db = MustDb("e(a, b). e(b, c). e(b, d). e(b, f). e(c, a).");
  IInterpretation interp(&db);
  Rule rule = MustRule("e(X, Y), e(Y, Z) -> +r(X, Z).");
  GroundAtom seed = ParseGroundAtom("e(a, b)", symbols_).value();
  // Seeding literal 0 with e(a, b) binds X=a, Y=b; literal 1's stream is
  // the index probe for e(b, _).
  size_t matches = 0;
  EXPECT_EQ(ForEachSeededMatch(rule, interp, 0, seed,
                               [&](const Tuple&) { ++matches; }),
            3u);
  EXPECT_EQ(matches, 3u);
}

TEST_F(MatcherTest, SeededCountZeroOnSeedMismatch) {
  Database db = MustDb("e(a, b).");
  IInterpretation interp(&db);
  Rule rule = MustRule("e(X, X), e(X, Y) -> +r(X, Y).");
  GroundAtom seed = ParseGroundAtom("e(a, b)", symbols_).value();
  // Seed literal requires a repeated variable; e(a, b) cannot bind it.
  EXPECT_EQ(ForEachSeededMatch(rule, interp, 0, seed, [](const Tuple&) {}),
            0u);
}

}  // namespace
}  // namespace park

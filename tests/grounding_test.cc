// RuleGrounding identity/rendering and the logging control surface that the
// rest of the engine relies on for diagnostics.

#include "engine/rule_grounding.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lang/parser.h"
#include "util/logging.h"

namespace park {
namespace {

class GroundingTest : public ::testing::Test {
 protected:
  GroundingTest() : symbols_(MakeSymbolTable()) {}

  Program MustProgram(std::string_view text) {
    auto program = ParseProgram(text, symbols_);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    return program.ok() ? std::move(program).value()
                        : Program(MakeSymbolTable());
  }

  std::shared_ptr<SymbolTable> symbols_;
};

TEST_F(GroundingTest, EqualityAndHashing) {
  SymbolId a = symbols_->InternSymbol("a");
  SymbolId b = symbols_->InternSymbol("b");
  RuleGrounding g1(0, Tuple{Value::Symbol(a)});
  RuleGrounding g2(0, Tuple{Value::Symbol(a)});
  RuleGrounding g3(0, Tuple{Value::Symbol(b)});
  RuleGrounding g4(1, Tuple{Value::Symbol(a)});
  EXPECT_EQ(g1, g2);
  EXPECT_EQ(g1.Hash(), g2.Hash());
  EXPECT_NE(g1, g3);
  EXPECT_NE(g1, g4);
  EXPECT_LT(g1, g4);  // rule index dominates
  EXPECT_LT(g1, g3);  // then binding
}

TEST_F(GroundingTest, BlockedSetMembership) {
  SymbolId a = symbols_->InternSymbol("a");
  BlockedSet blocked;
  EXPECT_TRUE(blocked.empty());
  EXPECT_TRUE(blocked.Insert(RuleGrounding(2, Tuple{Value::Symbol(a)})));
  EXPECT_FALSE(blocked.Insert(RuleGrounding(2, Tuple{Value::Symbol(a)})));
  EXPECT_TRUE(blocked.Contains(RuleGrounding(2, Tuple{Value::Symbol(a)})));
  EXPECT_FALSE(blocked.Contains(RuleGrounding(3, Tuple{Value::Symbol(a)})));
  EXPECT_EQ(blocked.size(), 1u);
}

TEST_F(GroundingTest, GroundingSetCopiesBindingsAndKeepsInsertionOrder) {
  const Value a = Value::Symbol(symbols_->InternSymbol("a"));
  const Value b = Value::Symbol(symbols_->InternSymbol("b"));
  GroundingSet set;
  std::vector<Value> scratch = {a, b};
  // The probe's binding is copied: the set does not read the scratch again.
  EXPECT_EQ(set.Emplace(GroundingView(1, scratch)),
            std::make_pair(0u, true));
  scratch = {b, a};
  EXPECT_EQ(set.Emplace(GroundingView(1, scratch)),
            std::make_pair(1u, true));
  EXPECT_EQ(set.Emplace(GroundingView(0, {})), std::make_pair(2u, true));
  EXPECT_EQ(set.Emplace(GroundingView(1, scratch)),
            std::make_pair(1u, false));
  // Rule -1 (a transaction's seed) and a one-value binding of rule 1 are
  // other groundings.
  EXPECT_EQ(set.Emplace(GroundingView(-1, {})), std::make_pair(3u, true));
  EXPECT_EQ(set.Emplace(GroundingView(1, std::span<const Value>(&a, 1))),
            std::make_pair(4u, true));
  scratch = {a, a};
  std::vector<RuleGrounding> seen;
  for (GroundingView g : set) seen.emplace_back(g);
  EXPECT_EQ(seen, (std::vector<RuleGrounding>{
                      RuleGrounding(1, Tuple{a, b}),
                      RuleGrounding(1, Tuple{b, a}), RuleGrounding(0, Tuple{}),
                      RuleGrounding(-1, Tuple{}), RuleGrounding(1, Tuple{a})}));
  EXPECT_EQ(set.Find(RuleGrounding(1, Tuple{b, a})), 1u);
  EXPECT_EQ(set.Find(RuleGrounding(1, Tuple{a, a})), GroundingSet::kAbsent);

  // Clear forgets every grounding; the set refills from id 0.
  set.Clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.Contains(RuleGrounding(0, Tuple{})));
  EXPECT_EQ(set.Emplace(RuleGrounding(1, Tuple{b, b})),
            std::make_pair(0u, true));
  EXPECT_EQ(set[0], RuleGrounding(1, Tuple{b, b}).view());
}

TEST_F(GroundingTest, GroundingSetGrowsPastManyChunks) {
  GroundingSet set;
  for (int i = 0; i < 5000; ++i) {
    const Value binding[3] = {Value::Int(i), Value::Int(i % 7),
                              Value::Int(-i)};
    ASSERT_TRUE(set.Insert(GroundingView(i % 3, binding)));
  }
  ASSERT_EQ(set.size(), 5000u);
  int i = 0;
  for (GroundingView g : set) {
    const Value binding[3] = {Value::Int(i), Value::Int(i % 7),
                              Value::Int(-i)};
    ASSERT_EQ(g, GroundingView(i % 3, binding)) << i;
    ASSERT_TRUE(set.Contains(GroundingView(i % 3, binding)));
    ++i;
  }
}

TEST_F(GroundingTest, SortedRenderingAppendsEachGroundingOnce) {
  Program program = MustProgram("r1: p(X) -> +q(X). r2: p(Y) -> -q(Y).");
  const Value a = Value::Symbol(symbols_->InternSymbol("a"));
  const Value b = Value::Symbol(symbols_->InternSymbol("b"));
  BlockedSet blocked;
  blocked.Insert(RuleGrounding(1, Tuple{a}));
  blocked.Insert(RuleGrounding(0, Tuple{b}));
  blocked.Insert(RuleGrounding(0, Tuple{a}));
  EXPECT_EQ(RenderSortedGroundings(blocked, program),
            (std::vector<std::string>{"(r1, [X <- a])", "(r1, [X <- b])",
                                      "(r2, [Y <- a])"}));
  std::string out = "prefix ";
  AppendGrounding(out, RuleGrounding(1, Tuple{b}), program, *symbols_);
  EXPECT_EQ(out, "prefix (r2, [Y <- b])");
}

TEST_F(GroundingTest, RenderingUsesLabelsAndVariableNames) {
  Program program = MustProgram(
      "named: p(X, Y) -> +q(X, Y). p(A, B) -> +r(A, B).");
  SymbolId a = symbols_->InternSymbol("a");
  SymbolId b = symbols_->InternSymbol("b");
  Tuple binding{Value::Symbol(a), Value::Symbol(b)};
  EXPECT_EQ(RuleGrounding(0, binding).ToString(program, *symbols_),
            "(named, [X <- a, Y <- b])");
  // Unlabeled rules render by program position.
  EXPECT_EQ(RuleGrounding(1, binding).ToString(program, *symbols_),
            "(r#1, [A <- a, B <- b])");
}

TEST_F(GroundingTest, PropositionalRendering) {
  Program program = MustProgram("r1: p -> +q.");
  EXPECT_EQ(RuleGrounding(0, Tuple{}).ToString(program, *symbols_), "(r1)");
}

TEST(LoggingTest, MinLevelRoundTrip) {
  LogLevel original = GetMinLogLevel();
  LogLevel previous = SetMinLogLevel(LogLevel::kError);
  EXPECT_EQ(previous, original);
  EXPECT_EQ(GetMinLogLevel(), LogLevel::kError);
  SetMinLogLevel(original);
  EXPECT_EQ(GetMinLogLevel(), original);
}

TEST(LoggingTest, ChecksPassSilently) {
  PARK_CHECK(true) << "never evaluated";
  PARK_CHECK_EQ(1, 1);
  PARK_CHECK_NE(1, 2);
  PARK_CHECK_LT(1, 2);
  PARK_CHECK_LE(1, 1);
  PARK_CHECK_GT(2, 1);
  PARK_CHECK_GE(2, 2);
}

TEST(LoggingDeathTest, FailedCheckAborts) {
  EXPECT_DEATH(PARK_CHECK(false) << "boom", "Check failed: false boom");
  EXPECT_DEATH(PARK_CHECK_EQ(1, 2), "Check failed");
}

}  // namespace
}  // namespace park

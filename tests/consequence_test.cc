#include "engine/consequence.h"

#include <gtest/gtest.h>

#include "lang/parser.h"
#include "test_util.h"

namespace park {
namespace {

using ::park::testing_util::FreshGamma;

class ConsequenceTest : public ::testing::Test {
 protected:
  ConsequenceTest() : symbols_(MakeSymbolTable()) {}

  Program MustProgram(std::string_view text) {
    auto program = ParseProgram(text, symbols_);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    return program.ok() ? std::move(program).value()
                        : Program(MakeSymbolTable());
  }

  Database MustDb(std::string_view facts) {
    return ParseDatabase(facts, symbols_).value();
  }

  std::shared_ptr<SymbolTable> symbols_;
};

TEST_F(ConsequenceTest, DerivationsFromValidBodies) {
  Program program = MustProgram("p -> +q. p -> -a. q -> +b.");
  Database db = MustDb("p.");
  IInterpretation interp(&db);
  BlockedSet blocked;
  GammaResult gamma = FreshGamma(program, blocked, interp);
  EXPECT_TRUE(gamma.consistent);
  EXPECT_EQ(gamma.derivations.size(), 2u);  // q not valid yet
  EXPECT_EQ(CountNewMarks(gamma.derivations, interp), 2u);
}

TEST_F(ConsequenceTest, BlockedInstancesDoNotFire) {
  Program program = MustProgram("p -> +q.");
  Database db = MustDb("p.");
  IInterpretation interp(&db);
  BlockedSet blocked;
  blocked.Insert(RuleGrounding(0, Tuple{}));
  GammaResult gamma = FreshGamma(program, blocked, interp);
  EXPECT_TRUE(gamma.derivations.empty());
  EXPECT_EQ(CountNewMarks(gamma.derivations, interp), 0u);
}

TEST_F(ConsequenceTest, InconsistencyWithinOneStep) {
  Program program = MustProgram("p -> +q. p -> -q.");
  Database db = MustDb("p.");
  IInterpretation interp(&db);
  GammaResult gamma = FreshGamma(program, {}, interp);
  EXPECT_FALSE(gamma.consistent);
  ASSERT_EQ(gamma.clashing_atoms.size(), 1u);
  EXPECT_EQ(gamma.clashing_atoms[0].ToString(*symbols_), "q");
}

TEST_F(ConsequenceTest, InconsistencyAgainstExistingMark) {
  Program program = MustProgram("p -> -q.");
  Database db = MustDb("p.");
  IInterpretation interp(&db);
  interp.AddMarked(ActionKind::kInsert,
                   ParseGroundAtom("q", symbols_).value(),
                   RuleGrounding(7, Tuple{}));
  GammaResult gamma = FreshGamma(program, {}, interp);
  EXPECT_FALSE(gamma.consistent);
  ASSERT_EQ(gamma.clashing_atoms.size(), 1u);
}

TEST_F(ConsequenceTest, RederivationIsNotNew) {
  Program program = MustProgram("p -> +q.");
  Database db = MustDb("p.");
  IInterpretation interp(&db);
  GammaResult first = FreshGamma(program, {}, interp);
  ApplyDerivations(first.derivations, interp);
  GammaResult second = FreshGamma(program, {}, interp);
  EXPECT_EQ(second.derivations.size(), 1u);  // still fires
  EXPECT_EQ(CountNewMarks(second.derivations, interp), 0u);  // nothing new
}

TEST_F(ConsequenceTest, ApplyDerivationsCountsNewMarks) {
  Program program = MustProgram("p -> +q. p -> +q.");  // two rules, one atom
  Database db = MustDb("p.");
  IInterpretation interp(&db);
  GammaResult gamma = FreshGamma(program, {}, interp);
  EXPECT_EQ(gamma.derivations.size(), 2u);
  EXPECT_EQ(CountNewMarks(gamma.derivations, interp), 1u);
  EXPECT_EQ(ApplyDerivations(gamma.derivations, interp), 1u);
  // Provenance keeps both groundings.
  const ProvenanceRange prov = interp.Provenance(
      ActionKind::kInsert, ParseGroundAtom("q", symbols_).value());
  EXPECT_EQ(prov.size(), 2u);
}

TEST_F(ConsequenceTest, FirstOrderGroundingsCarryBindings) {
  Program program = MustProgram("p(X) -> +q(X).");
  Database db = MustDb("p(a). p(b).");
  IInterpretation interp(&db);
  GammaResult gamma = FreshGamma(program, {}, interp);
  ASSERT_EQ(gamma.derivations.size(), 2u);
  for (const Derivations::Record& r : gamma.derivations) {
    const GroundingView grounding = gamma.derivations.grounding(r);
    EXPECT_EQ(grounding.rule_index(), 0);
    ASSERT_EQ(grounding.binding().size(), 1u);
    EXPECT_EQ(gamma.derivations.atom(r).args[0], grounding.binding()[0]);
  }
}

TEST_F(ConsequenceTest, BlockingOneGroundingKeepsOthers) {
  Program program = MustProgram("p(X) -> +q(X).");
  Database db = MustDb("p(a). p(b).");
  IInterpretation interp(&db);
  SymbolId a = symbols_->InternSymbol("a");
  BlockedSet blocked;
  blocked.Insert(RuleGrounding(0, Tuple{Value::Symbol(a)}));
  GammaResult gamma = FreshGamma(program, blocked, interp);
  ASSERT_EQ(gamma.derivations.size(), 1u);
  EXPECT_EQ(GroundAtom(gamma.derivations.atom(gamma.derivations[0]))
                .ToString(*symbols_),
            "q(b)");
}

TEST_F(ConsequenceTest, ClashingAtomsSortedAndUnique) {
  Program program = MustProgram(R"(
    p -> +x. p -> -x. p -> +x.
    p -> +a. p -> -a.
  )");
  Database db = MustDb("p.");
  IInterpretation interp(&db);
  GammaResult gamma = FreshGamma(program, {}, interp);
  ASSERT_EQ(gamma.clashing_atoms.size(), 2u);
  EXPECT_LT(gamma.clashing_atoms[0], gamma.clashing_atoms[1]);
}

}  // namespace
}  // namespace park

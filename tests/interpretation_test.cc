// The i-interpretation's stores, marks and provenance, and the validity
// table (LiteralHolds) that IsValid and both executors' filters share.

#include "engine/interpretation.h"

#include <gtest/gtest.h>

#include "lang/parser.h"

namespace park {
namespace {

class InterpretationTest : public ::testing::Test {
 protected:
  InterpretationTest()
      : symbols_(MakeSymbolTable()),
        base_(ParseDatabase("p(a). s(a).", symbols_).value()) {}

  GroundAtom Atom(std::string_view text) {
    return ParseGroundAtom(text, symbols_).value();
  }

  RuleGrounding G(int rule) { return RuleGrounding(rule, Tuple{}); }

  std::shared_ptr<SymbolTable> symbols_;
  Database base_;
};

TEST_F(InterpretationTest, PositiveValidity) {
  IInterpretation interp(&base_);
  // a ∈ I° → valid.
  EXPECT_TRUE(interp.IsValid(Atom("p(a)"), LiteralKind::kPositive));
  // absent everywhere → invalid.
  EXPECT_FALSE(interp.IsValid(Atom("p(b)"), LiteralKind::kPositive));
  // +a ∈ I⁺ → valid.
  interp.AddMarked(ActionKind::kInsert, Atom("p(b)"), G(0));
  EXPECT_TRUE(interp.IsValid(Atom("p(b)"), LiteralKind::kPositive));
  // NOTE: -a ∈ I⁻ does NOT invalidate a positive literal whose atom is
  // still in I° (the deletion is pending, not applied) — §4.2 verbatim.
  interp.AddMarked(ActionKind::kDelete, Atom("p(a)"), G(1));
  EXPECT_TRUE(interp.IsValid(Atom("p(a)"), LiteralKind::kPositive));
}

TEST_F(InterpretationTest, NegatedValidity) {
  IInterpretation interp(&base_);
  // Neither b nor +b present → ¬b valid (negation as failure).
  EXPECT_TRUE(interp.IsValid(Atom("p(b)"), LiteralKind::kNegated));
  // b ∈ I° → ¬b invalid.
  EXPECT_FALSE(interp.IsValid(Atom("p(a)"), LiteralKind::kNegated));
  // +b ∈ I⁺ → ¬b invalid.
  interp.AddMarked(ActionKind::kInsert, Atom("p(b)"), G(0));
  EXPECT_FALSE(interp.IsValid(Atom("p(b)"), LiteralKind::kNegated));
  // -b ∈ I⁻ → ¬b valid even though b ∈ I°.
  interp.AddMarked(ActionKind::kDelete, Atom("s(a)"), G(1));
  EXPECT_TRUE(interp.IsValid(Atom("s(a)"), LiteralKind::kNegated));
}

TEST_F(InterpretationTest, EventValidity) {
  IInterpretation interp(&base_);
  EXPECT_FALSE(interp.IsValid(Atom("p(a)"), LiteralKind::kEventInsert));
  EXPECT_FALSE(interp.IsValid(Atom("p(a)"), LiteralKind::kEventDelete));
  interp.AddMarked(ActionKind::kInsert, Atom("q(a)"), G(0));
  interp.AddMarked(ActionKind::kDelete, Atom("s(a)"), G(1));
  EXPECT_TRUE(interp.IsValid(Atom("q(a)"), LiteralKind::kEventInsert));
  EXPECT_FALSE(interp.IsValid(Atom("q(a)"), LiteralKind::kEventDelete));
  EXPECT_TRUE(interp.IsValid(Atom("s(a)"), LiteralKind::kEventDelete));
  // An unmarked base atom is not an event.
  EXPECT_FALSE(interp.IsValid(Atom("p(a)"), LiteralKind::kEventInsert));
}

TEST_F(InterpretationTest, ConsistencyTracking) {
  IInterpretation interp(&base_);
  EXPECT_TRUE(interp.IsConsistent());
  interp.AddMarked(ActionKind::kInsert, Atom("q(a)"), G(0));
  EXPECT_TRUE(interp.IsConsistent());
  interp.AddMarked(ActionKind::kDelete, Atom("q(a)"), G(1));
  EXPECT_FALSE(interp.IsConsistent());
  interp.ClearMarks();
  EXPECT_TRUE(interp.IsConsistent());
  EXPECT_EQ(interp.num_plus(), 0u);
  EXPECT_EQ(interp.num_minus(), 0u);
}

TEST_F(InterpretationTest, AddMarkedReturnsNewness) {
  IInterpretation interp(&base_);
  EXPECT_TRUE(interp.AddMarked(ActionKind::kInsert, Atom("q(a)"), G(0)));
  EXPECT_FALSE(interp.AddMarked(ActionKind::kInsert, Atom("q(a)"), G(1)));
  EXPECT_EQ(interp.num_plus(), 1u);
}

TEST_F(InterpretationTest, ProvenanceAccumulates) {
  IInterpretation interp(&base_);
  interp.AddMarked(ActionKind::kInsert, Atom("q(a)"), G(0));
  interp.AddMarked(ActionKind::kInsert, Atom("q(a)"), G(2));
  interp.AddMarked(ActionKind::kInsert, Atom("q(a)"), G(0));  // duplicate
  const auto* prov = interp.Provenance(ActionKind::kInsert, Atom("q(a)"));
  ASSERT_NE(prov, nullptr);
  EXPECT_EQ(prov->size(), 2u);
  EXPECT_EQ(interp.Provenance(ActionKind::kDelete, Atom("q(a)")), nullptr);
  interp.ClearMarks();
  EXPECT_EQ(interp.Provenance(ActionKind::kInsert, Atom("q(a)")), nullptr);
}

TEST_F(InterpretationTest, IncorporateAppliesMarks) {
  IInterpretation interp(&base_);
  interp.AddMarked(ActionKind::kInsert, Atom("q(b)"), G(0));
  interp.AddMarked(ActionKind::kDelete, Atom("s(a)"), G(1));
  Database result = interp.Incorporate();
  EXPECT_EQ(result.ToString(), "{p(a), q(b)}");
  // The base is untouched.
  EXPECT_EQ(base_.ToString(), "{p(a), s(a)}");
}

TEST_F(InterpretationTest, IncorporateOfDeleteAbsentAtomIsNoop) {
  IInterpretation interp(&base_);
  interp.AddMarked(ActionKind::kDelete, Atom("ghost(x)"), G(0));
  EXPECT_EQ(interp.Incorporate().ToString(), "{p(a), s(a)}");
}

TEST_F(InterpretationTest, RenderingOrdersUnmarkedPlusMinus) {
  IInterpretation interp(&base_);
  interp.AddMarked(ActionKind::kInsert, Atom("z(z)"), G(0));
  interp.AddMarked(ActionKind::kInsert, Atom("a(a)"), G(0));
  interp.AddMarked(ActionKind::kDelete, Atom("s(a)"), G(1));
  EXPECT_EQ(interp.SortedLiteralStrings(),
            (std::vector<std::string>{"p(a)", "s(a)", "+a(a)", "+z(z)",
                                      "-s(a)"}));
  EXPECT_EQ(interp.ToString(), "{p(a), s(a), +a(a), +z(z), -s(a)}");
}

}  // namespace
}  // namespace park

// The i-interpretation's stores, marks and provenance, and the validity
// table (LiteralHolds) that IsValid and the executor's filter steps share.

#include "engine/interpretation.h"

#include <vector>

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

  /// Marks a fixed set of atoms of several predicates and arities, with
  /// provenance, both signs included.
  void MarkAll(IInterpretation& interp) {
    interp.AddMarked(ActionKind::kInsert, Atom("q(b)"), G(0));
    interp.AddMarked(ActionKind::kInsert, Atom("q(c)"), G(0));
    interp.AddMarked(ActionKind::kInsert, Atom("p(b)"), G(1));
    interp.AddMarked(ActionKind::kInsert, Atom("r(a, b)"), G(2));
    interp.AddMarked(ActionKind::kDelete, Atom("s(a)"), G(3));
    interp.AddMarked(ActionKind::kDelete, Atom("t(a, a, a)"), G(4));
  }

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
  std::vector<RuleGrounding> prov;
  for (GroundingView g : interp.Provenance(ActionKind::kInsert, Atom("q(a)"))) {
    prov.emplace_back(g);
  }
  EXPECT_EQ(prov, (std::vector<RuleGrounding>{G(0), G(2)}));  // as recorded
  EXPECT_TRUE(interp.Provenance(ActionKind::kDelete, Atom("q(a)")).empty());
  interp.ClearMarks();
  EXPECT_TRUE(interp.Provenance(ActionKind::kInsert, Atom("q(a)")).empty());
}

TEST_F(InterpretationTest, OneGroundingListedForEachAtomItDerived) {
  // Only a transaction's head-less seed grounding derives several atoms;
  // it is listed once under each.
  IInterpretation interp(&base_);
  interp.AddMarked(ActionKind::kInsert, Atom("q(a)"), G(0));
  interp.AddMarked(ActionKind::kInsert, Atom("q(b)"), G(0));
  interp.AddMarked(ActionKind::kInsert, Atom("q(b)"), G(1));
  interp.AddMarked(ActionKind::kInsert, Atom("q(b)"), G(0));  // duplicate
  EXPECT_EQ(interp.Provenance(ActionKind::kInsert, Atom("q(a)")).size(), 1u);
  EXPECT_EQ(interp.Provenance(ActionKind::kInsert, Atom("q(b)")).size(), 2u);
}

TEST_F(InterpretationTest, ProvenanceNeedsAMark) {
  IInterpretation interp(&base_);
  EXPECT_DEATH(interp.RecordProvenance(ActionKind::kInsert,
                                       Atom("q(a)").view(), G(0)),
               "unmarked");
}

TEST_F(InterpretationTest, IncorporateAppliesMarks) {
  IInterpretation interp(&base_);
  interp.AddMarked(ActionKind::kInsert, Atom("q(b)"), G(0));
  interp.AddMarked(ActionKind::kDelete, Atom("s(a)"), G(1));
  Database result = std::move(interp).Incorporate();
  EXPECT_EQ(result.ToString(), "{p(a), q(b)}");
  // The base is untouched.
  EXPECT_EQ(base_.ToString(), "{p(a), s(a)}");
}

TEST_F(InterpretationTest, IncorporateOfDeleteAbsentAtomIsNoop) {
  IInterpretation interp(&base_);
  interp.AddMarked(ActionKind::kDelete, Atom("ghost(x)"), G(0));
  EXPECT_EQ(std::move(interp).Incorporate().ToString(), "{p(a), s(a)}");
}

/// incorp(I) built by inserting I⁺'s and erasing I⁻'s atoms one by one
/// into a copy of the base: what the consuming Incorporate must equal.
Database IncorporateOneByOne(const IInterpretation& interp) {
  Database result = interp.base().Clone();
  interp.plus().ForEach([&](const GroundAtom& atom) { result.Insert(atom); });
  interp.minus().ForEach([&](const GroundAtom& atom) { result.Erase(atom); });
  return result;
}

/// Same atoms, the same per-relation stats, and relations that accept
/// writes (not frozen).
void ExpectSameIncorporation(Database got, const Database& want) {
  EXPECT_EQ(got.SortedAtomStrings(), want.SortedAtomStrings());
  EXPECT_EQ(got.size(), want.size());
  want.ForEachRelation([&](PredicateId pred, const Relation& expected) {
    const Relation* rel = got.GetRelation(pred);
    ASSERT_NE(rel, nullptr);
    EXPECT_EQ(rel->stats().rows(), expected.stats().rows());
    for (int c = 0; c < expected.arity(); ++c) {
      EXPECT_EQ(rel->stats().DistinctEstimate(c),
                expected.stats().DistinctEstimate(c));
    }
    EXPECT_FALSE(rel->frozen());
  });
  // Writable: every relation takes an insert and an erase.
  std::vector<GroundAtom> atoms;
  got.ForEach([&](const GroundAtom& atom) { atoms.push_back(atom); });
  for (const GroundAtom& atom : atoms) {
    EXPECT_TRUE(got.Erase(atom));
    EXPECT_TRUE(got.Insert(atom));
  }
}

TEST_F(InterpretationTest, IncorporateMovesOrMergesPlusRelations) {
  IInterpretation interp(&base_);
  // q is absent from D: its I⁺ relation moves whole.
  interp.AddMarked(ActionKind::kInsert, Atom("q(b)"), G(0));
  interp.AddMarked(ActionKind::kInsert, Atom("q(c)"), G(0));
  // p is in D: merged.
  interp.AddMarked(ActionKind::kInsert, Atom("p(b)"), G(1));
  // s is in D and carries a `-` mark: merged, then erased.
  interp.AddMarked(ActionKind::kInsert, Atom("s(b)"), G(2));
  interp.AddMarked(ActionKind::kDelete, Atom("s(a)"), G(3));
  // The I⁺ relations are frozen; the result must thaw them.
  interp.plus().FreezeIndexes();
  const Database want = IncorporateOneByOne(interp);
  EXPECT_EQ(want.ToString(), "{p(a), p(b), q(b), q(c), s(b)}");
  Database got = std::move(interp).Incorporate();
  ExpectSameIncorporation(std::move(got), want);
  // Incorporate consumed the marks.
  EXPECT_EQ(interp.num_plus(), 0u);
  EXPECT_EQ(interp.num_minus(), 0u);
  EXPECT_TRUE(interp.Provenance(ActionKind::kInsert, Atom("q(b)")).empty());
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

TEST_F(InterpretationTest, RecycledMarkStoresReadLikeColdOnes) {
  IInterpretation cold(&base_);
  MarkAll(cold);

  // Fill the thread's relation pool with relations of other predicates
  // and arities, then mark through it, clear, and mark again.
  IInterpretation warm(&base_);
  {
    IInterpretation earlier(&base_);
    earlier.AddMarked(ActionKind::kInsert, Atom("u(a, b, c)"), G(9));
    earlier.AddMarked(ActionKind::kDelete, Atom("v(a)"), G(9));
  }
  MarkAll(warm);
  warm.AddMarked(ActionKind::kInsert, Atom("w(a)"), G(9));
  warm.ClearMarks();
  EXPECT_EQ(warm.num_plus(), 0u);
  EXPECT_TRUE(warm.Provenance(ActionKind::kInsert, Atom("q(b)")).empty());
  MarkAll(warm);

  EXPECT_EQ(warm.SortedLiteralStrings(), cold.SortedLiteralStrings());
  EXPECT_EQ(warm.num_plus(), cold.num_plus());
  EXPECT_EQ(warm.num_minus(), cold.num_minus());
  EXPECT_EQ(warm.Provenance(ActionKind::kInsert, Atom("r(a, b)")).size(), 1u);
  const Database::Diff warm_diff = warm.MarkDiff();
  const Database::Diff cold_diff = cold.MarkDiff();
  EXPECT_EQ(warm_diff.only_in_this, cold_diff.only_in_this);
  EXPECT_EQ(warm_diff.only_in_other, cold_diff.only_in_other);
  const Database want = IncorporateOneByOne(cold);
  ExpectSameIncorporation(std::move(warm).Incorporate(), want);
  ExpectSameIncorporation(std::move(cold).Incorporate(), want);
}

}  // namespace
}  // namespace park

#include "core/conflict.h"

#include <gtest/gtest.h>

#include "lang/parser.h"
#include "test_util.h"

namespace park {
namespace {

using ::park::testing_util::FreshGamma;

class ConflictTest : public ::testing::Test {
 protected:
  ConflictTest() : symbols_(MakeSymbolTable()) {}

  Program MustProgram(std::string_view text) {
    auto program = ParseProgram(text, symbols_);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    return program.ok() ? std::move(program).value()
                        : Program(MakeSymbolTable());
  }

  std::shared_ptr<SymbolTable> symbols_;
};

TEST_F(ConflictTest, PaperExampleTwoSidedConflict) {
  // The §4.2 illustration: P = {r1: p(x) -> +q(x), r2: p(x) -> -q(x)},
  // I = {p(a)} gives conflicts(P, I) =
  // {(q(a), {(r1, [x <- a])}, {(r2, [x <- a])})}.
  Program program = MustProgram("r1: p(X) -> +q(X). r2: p(X) -> -q(X).");
  Database db = ParseDatabase("p(a).", symbols_).value();
  IInterpretation interp(&db);
  GammaResult gamma = FreshGamma(program, {}, interp);
  ASSERT_FALSE(gamma.consistent);
  std::vector<Conflict> conflicts = BuildConflicts(gamma, interp);
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0].atom.ToString(*symbols_), "q(a)");
  ASSERT_EQ(conflicts[0].inserters().size(), 1u);
  ASSERT_EQ(conflicts[0].deleters().size(), 1u);
  EXPECT_EQ(conflicts[0].inserters()[0].rule_index(), 0);
  EXPECT_EQ(conflicts[0].deleters()[0].rule_index(), 1);
  EXPECT_EQ(conflicts[0].ToString(program, *symbols_),
            "q(a): ins={(r1, [X <- a])} del={(r2, [X <- a])}");
}

TEST_F(ConflictTest, MaximalityAllGroundingsIncluded) {
  // Three inserters and two deleters for the same atom: the conflict
  // triple must contain them all (the paper requires maximal triples).
  Program program = MustProgram(R"(
    a -> +x. b -> +x. c -> +x.
    a -> -x. b -> -x.
  )");
  Database db = ParseDatabase("a. b. c.", symbols_).value();
  IInterpretation interp(&db);
  GammaResult gamma = FreshGamma(program, {}, interp);
  std::vector<Conflict> conflicts = BuildConflicts(gamma, interp);
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0].inserters().size(), 3u);
  EXPECT_EQ(conflicts[0].deleters().size(), 2u);
}

TEST_F(ConflictTest, ProvenanceCompletesStaleSide) {
  // +x entered I earlier (rule 0); now only -x is derivable. The conflict
  // must still have a non-empty insert side, via provenance.
  Program program = MustProgram("p -> -x.");
  Database db = ParseDatabase("p.", symbols_).value();
  IInterpretation interp(&db);
  RuleGrounding stale(/*rule_index=*/99, Tuple{});
  interp.AddMarked(ActionKind::kInsert,
                   ParseGroundAtom("x", symbols_).value(), stale);
  GammaResult gamma = FreshGamma(program, {}, interp);
  ASSERT_FALSE(gamma.consistent);
  std::vector<Conflict> conflicts = BuildConflicts(gamma, interp);
  ASSERT_EQ(conflicts.size(), 1u);
  ASSERT_EQ(conflicts[0].inserters().size(), 1u);
  EXPECT_EQ(conflicts[0].inserters()[0].rule_index(), 99);
  ASSERT_EQ(conflicts[0].deleters().size(), 1u);
  EXPECT_EQ(conflicts[0].deleters()[0].rule_index(), 0);
}

TEST_F(ConflictTest, CurrentAndProvenanceSidesDeduplicate) {
  // The same grounding appears both as a current derivation and in the
  // provenance of the existing mark; it must be listed once.
  Program program = MustProgram("p -> +x. q -> -x.");
  Database db = ParseDatabase("p. q.", symbols_).value();
  IInterpretation interp(&db);
  interp.AddMarked(ActionKind::kInsert,
                   ParseGroundAtom("x", symbols_).value(),
                   RuleGrounding(0, Tuple{}));
  GammaResult gamma = FreshGamma(program, {}, interp);
  std::vector<Conflict> conflicts = BuildConflicts(gamma, interp);
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0].inserters().size(), 1u);
}

TEST_F(ConflictTest, ConflictsSortedByAtom) {
  Program program = MustProgram(R"(
    p -> +z. p -> -z.
    p -> +m. p -> -m.
    p -> +a. p -> -a.
  )");
  Database db = ParseDatabase("p.", symbols_).value();
  IInterpretation interp(&db);
  GammaResult gamma = FreshGamma(program, {}, interp);
  std::vector<Conflict> conflicts = BuildConflicts(gamma, interp);
  ASSERT_EQ(conflicts.size(), 3u);
  EXPECT_LT(conflicts[0].atom, conflicts[1].atom);
  EXPECT_LT(conflicts[1].atom, conflicts[2].atom);
}

TEST_F(ConflictTest, FirstConflictOnlyBuildsTheSmallestAtomsTriple) {
  Program program = MustProgram(R"(
    p -> +z. p -> -z.
    p -> +m. q -> +m. p -> -m.
    p -> +a. p -> -a.
  )");
  Database db = ParseDatabase("p. q.", symbols_).value();
  IInterpretation interp(&db);
  GammaResult gamma = FreshGamma(program, {}, interp);
  std::vector<Conflict> all = BuildConflicts(gamma, interp);
  ASSERT_EQ(all.size(), 3u);
  std::vector<Conflict> first =
      BuildConflicts(gamma, interp, BlockGranularity::kFirstConflictOnly);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0], all[0]);
}

TEST_F(ConflictTest, NoConflictNoTriples) {
  Program program = MustProgram("p -> +x. p -> +y.");
  Database db = ParseDatabase("p.", symbols_).value();
  IInterpretation interp(&db);
  GammaResult gamma = FreshGamma(program, {}, interp);
  EXPECT_TRUE(gamma.consistent);
  EXPECT_TRUE(BuildConflicts(gamma, interp).empty());
}

}  // namespace
}  // namespace park

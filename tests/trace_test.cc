// The Trace event log and bi-structure snapshots/ordering.

#include "core/trace.h"

#include <gtest/gtest.h>

#include "lang/parser.h"

namespace park {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  TraceTest()
      : symbols_(MakeSymbolTable()),
        db_(ParseDatabase("p.", symbols_).value()) {}

  std::shared_ptr<SymbolTable> symbols_;
  Database db_;
};

TEST_F(TraceTest, NoneLevelRecordsNothing) {
  Trace trace(TraceLevel::kNone);
  IInterpretation interp(&db_);
  trace.RecordInitial(interp, 0);
  trace.RecordGammaStep(interp, 1);
  trace.RecordConflict({"c"}, 1);
  trace.RecordResolution({"r"}, 1);
  trace.RecordRestart(1);
  trace.RecordFixpoint(interp, 1);
  EXPECT_TRUE(trace.events().empty());
  EXPECT_TRUE(trace.ToString().empty());
}

TEST_F(TraceTest, SummaryLevelSkipsSnapshots) {
  Trace trace(TraceLevel::kSummary);
  IInterpretation interp(&db_);
  trace.RecordInitial(interp, 0);
  trace.RecordGammaStep(interp, 1);  // full-only: dropped
  trace.RecordInconsistentStep({"p", "+a", "-a"}, 2);  // full-only: dropped
  trace.RecordConflict({"conflict on a"}, 2);
  trace.RecordRestart(2);
  ASSERT_EQ(trace.events().size(), 3u);
  EXPECT_TRUE(trace.events()[0].interpretation.empty());
  EXPECT_TRUE(trace.InterpretationHistory().empty());
}

TEST_F(TraceTest, FullLevelKeepsEverything) {
  Trace trace(TraceLevel::kFull);
  IInterpretation interp(&db_);
  trace.RecordInitial(interp, 0);
  trace.RecordGammaStep(interp, 1);
  trace.RecordInconsistentStep({"p", "+a", "-a"}, 2);
  trace.RecordFixpoint(interp, 2);
  auto history = trace.InterpretationHistory();
  ASSERT_EQ(history.size(), 2u);  // gamma + inconsistent, not initial
  EXPECT_EQ(history[0], (std::vector<std::string>{"p"}));
  EXPECT_EQ(history[1], (std::vector<std::string>{"p", "+a", "-a"}));
  std::string rendered = trace.ToString();
  EXPECT_NE(rendered.find("initial"), std::string::npos);
  EXPECT_NE(rendered.find("gamma"), std::string::npos);
  EXPECT_NE(rendered.find("clash"), std::string::npos);
  EXPECT_NE(rendered.find("fixpoint"), std::string::npos);
}

TEST_F(TraceTest, EventKindNames) {
  EXPECT_STREQ(TraceEventKindName(TraceEvent::Kind::kInitial), "initial");
  EXPECT_STREQ(TraceEventKindName(TraceEvent::Kind::kGammaStep), "gamma");
  EXPECT_STREQ(TraceEventKindName(TraceEvent::Kind::kInconsistent),
               "clash");
  EXPECT_STREQ(TraceEventKindName(TraceEvent::Kind::kConflict), "conflict");
  EXPECT_STREQ(TraceEventKindName(TraceEvent::Kind::kResolution),
               "resolution");
  EXPECT_STREQ(TraceEventKindName(TraceEvent::Kind::kRestart), "restart");
  EXPECT_STREQ(TraceEventKindName(TraceEvent::Kind::kFixpoint), "fixpoint");
}

class BiStructureTest : public ::testing::Test {
 protected:
  BiStructureSnapshot Make(std::vector<std::string> blocked,
                           std::vector<std::string> interp) {
    return BiStructureSnapshot{std::move(blocked), std::move(interp)};
  }
};

TEST_F(BiStructureTest, LeqIsReflexive) {
  auto a = Make({"(r1)"}, {"p", "+q"});
  EXPECT_TRUE(BiStructureLeq(a, a));
}

TEST_F(BiStructureTest, EqualBlockedComparesInterpretations) {
  auto small = Make({"(r1)"}, {"p"});
  auto large = Make({"(r1)"}, {"p", "+q"});
  EXPECT_TRUE(BiStructureLeq(small, large));
  EXPECT_FALSE(BiStructureLeq(large, small));
}

TEST_F(BiStructureTest, BlockedGrowthDominatesInterpretation) {
  // B ⊂ B' makes A ⊑ A' even when the interpretation SHRINKS — exactly
  // the restart situation.
  auto before = Make({"(r1)"}, {"p", "+q", "+r"});
  auto after_restart = Make({"(r1)", "(r2)"}, {"p"});
  EXPECT_TRUE(BiStructureLeq(before, after_restart));
  EXPECT_FALSE(BiStructureLeq(after_restart, before));
}

TEST_F(BiStructureTest, IncomparableBlockedSets) {
  auto a = Make({"(r1)"}, {"p"});
  auto b = Make({"(r2)"}, {"p"});
  EXPECT_FALSE(BiStructureLeq(a, b));
  EXPECT_FALSE(BiStructureLeq(b, a));
}

TEST_F(BiStructureTest, NonSubsetInterpretationsIncomparable) {
  auto a = Make({}, {"p", "+q"});
  auto b = Make({}, {"p", "+r"});
  EXPECT_FALSE(BiStructureLeq(a, b));
  EXPECT_FALSE(BiStructureLeq(b, a));
}

TEST_F(BiStructureTest, SnapshotRendering) {
  auto snapshot = Make({"(r1)"}, {"p", "+q"});
  EXPECT_EQ(snapshot.ToString(), "<{(r1)}, {p, +q}>");
}

TEST_F(BiStructureTest, SnapshotFromLiveState) {
  auto symbols = MakeSymbolTable();
  auto program =
      ParseProgram("r1: p -> +q.", symbols);
  ASSERT_TRUE(program.ok());
  Database db = ParseDatabase("p.", symbols).value();
  IInterpretation interp(&db);
  interp.AddMarked(ActionKind::kInsert,
                   ParseGroundAtom("q", symbols).value(),
                   RuleGrounding(0, Tuple{}));
  BlockedSet blocked;
  blocked.Insert(RuleGrounding(0, Tuple{}));
  BiStructureSnapshot snapshot =
      SnapshotBiStructure(blocked, interp, *program);
  EXPECT_EQ(snapshot.ToString(), "<{(r1)}, {p, +q}>");
}

}  // namespace
}  // namespace park

// The transactional ActiveDatabase facade.

#include "eca/active_database.h"

#include <gtest/gtest.h>

#include "lang/parser.h"

namespace park {
namespace {

TEST(ActiveDatabaseTest, LoadRulesAndFacts) {
  ActiveDatabase db;
  ASSERT_TRUE(db.LoadRules("r1: p(X) -> +q(X).").ok());
  ASSERT_TRUE(db.LoadFacts("p(a). p(b).").ok());
  EXPECT_EQ(db.program().size(), 1u);
  EXPECT_EQ(db.database().size(), 2u);
  // LoadFacts is a bulk load: rules have not fired yet.
  EXPECT_EQ(db.database().ToString(), "{p(a), p(b)}");
}

TEST(ActiveDatabaseTest, StabilizeRunsRulesWithoutUpdates) {
  ActiveDatabase db;
  ASSERT_TRUE(db.LoadRules("p(X) -> +q(X).").ok());
  ASSERT_TRUE(db.LoadFacts("p(a).").ok());
  auto report = db.Stabilize();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(db.database().ToString(), "{p(a), q(a)}");
  ASSERT_EQ(report->inserted.size(), 1u);
  EXPECT_EQ(report->inserted[0].ToString(*db.symbols()), "q(a)");
  EXPECT_TRUE(report->deleted.empty());
}

TEST(ActiveDatabaseTest, TransactionCommitFiresRules) {
  ActiveDatabase db;
  ASSERT_TRUE(db.LoadRules(R"(
    cleanup: emp(X), !active(X), payroll(X, S) -> -payroll(X, S).
  )").ok());
  ASSERT_TRUE(db.LoadFacts(
      "emp(jo). active(jo). payroll(jo, 5000).").ok());

  Transaction tx = db.Begin();
  tx.Delete("active", {"jo"});
  auto report = std::move(tx).Commit();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(db.database().ToString(), "{emp(jo)}");
  EXPECT_EQ(report->deleted.size(), 2u);  // active(jo) and payroll(jo, _)
}

TEST(ActiveDatabaseTest, TransactionStagesParsedUpdates) {
  ActiveDatabase db;
  ASSERT_TRUE(db.LoadFacts("p(a).").ok());
  Transaction tx = db.Begin();
  ASSERT_TRUE(tx.Stage("+q(b)").ok());
  ASSERT_TRUE(tx.Stage("-p(a)").ok());
  EXPECT_FALSE(tx.Stage("nonsense").ok());
  EXPECT_EQ(tx.pending().size(), 2u);
  auto report = std::move(tx).Commit();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(db.database().ToString(), "{q(b)}");
}

TEST(ActiveDatabaseTest, ManyStagedUpdatesDedupInInsertionOrder) {
  // 20,000 stagings of 10,000 distinct atoms: each atom is staged again
  // right after its successor. The set keeps the first staging of each,
  // in order; +p(0) and -p(0) stay distinct updates.
  constexpr int kAtoms = 10000;
  ActiveDatabase db;
  Transaction tx = db.Begin();
  for (int i = 0; i < kAtoms; ++i) {
    tx.Insert("p", {std::to_string(i)});
    if (i > 0) tx.Insert("p", {std::to_string(i - 1)});
  }
  tx.Insert("p", {std::to_string(kAtoms - 1)});
  tx.Delete("p", {"0"});
  const std::vector<Update>& updates = tx.pending().updates();
  ASSERT_EQ(updates.size(), static_cast<size_t>(kAtoms) + 1);
  for (int i = 0; i < kAtoms; ++i) {
    ASSERT_EQ(updates[static_cast<size_t>(i)].action, ActionKind::kInsert);
    ASSERT_EQ(updates[static_cast<size_t>(i)].atom.args()[0], Value::Int(i))
        << "at position " << i;
  }
  EXPECT_EQ(updates.back().action, ActionKind::kDelete);
  EXPECT_EQ(updates.back().atom.ToString(*db.symbols()), "p(0)");
  EXPECT_TRUE(tx.pending().Contains(ActionKind::kInsert,
                                    updates[kAtoms - 1].atom));
}

TEST(ActiveDatabaseTest, ApplyConvenience) {
  ActiveDatabase db;
  ASSERT_TRUE(db.LoadRules("+p(X) -> +echo(X).").ok());
  auto symbols = db.symbols();
  auto report =
      db.Apply(ActionKind::kInsert, ParseGroundAtom("p(a)", symbols).value());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(db.database().ToString(), "{echo(a), p(a)}");
}

TEST(ActiveDatabaseTest, CommitReportCountsConflicts) {
  ActiveDatabase db;
  ASSERT_TRUE(db.LoadRules("+x -> -y. +x -> +y.").ok());
  auto symbols = db.symbols();
  Transaction tx = db.Begin();
  tx.Insert(ParseGroundAtom("x", symbols).value());
  auto report = std::move(tx).Commit();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->stats.restarts, 1u);
  EXPECT_EQ(report->stats.conflicts_resolved, 1u);
}

TEST(ActiveDatabaseTest, FailedCommitLeavesDatabaseUntouched) {
  ActiveDatabase db;
  ASSERT_TRUE(db.LoadRules("p -> +a. p -> -a.").ok());
  ASSERT_TRUE(db.LoadFacts("p.").ok());
  // An abstaining policy makes the commit fail...
  {
    ParkOptions options;
    options.policy = MakeLambdaPolicy(
        "abstain", [](const PolicyContext&, const Conflict&) -> Result<Vote> {
          return Vote::kAbstain;
        });
    ASSERT_TRUE(db.Configure(std::move(options)).ok());
  }
  auto report = db.Stabilize();
  EXPECT_FALSE(report.ok());
  // ... and the stored database is unchanged.
  EXPECT_EQ(db.database().ToString(), "{p}");
  // The failure detail also rides on the result itself.
  ASSERT_TRUE(report.failure().has_value());
  EXPECT_EQ(report.failure()->stage, CommitFailure::Stage::kEvaluate);
  // Switching to a complete policy, the same commit succeeds.
  {
    ParkOptions options;
    options.policy = MakeInertiaPolicy();
    ASSERT_TRUE(db.Configure(std::move(options)).ok());
  }
  EXPECT_TRUE(db.Stabilize().ok());
}

TEST(ActiveDatabaseTest, PolicyAndOptionsAreConfigurable) {
  ActiveDatabase db;
  {
    ParkOptions options;
    options.policy = MakeAlwaysInsertPolicy();
    options.block_granularity = BlockGranularity::kFirstConflictOnly;
    options.trace_level = TraceLevel::kFull;
    ASSERT_TRUE(db.Configure(std::move(options)).ok());
  }
  ASSERT_TRUE(db.LoadRules("p -> +a. p -> -a.").ok());
  ASSERT_TRUE(db.LoadFacts("p.").ok());
  auto report = db.Stabilize();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(db.database().ToString(), "{a, p}");  // insert won
  EXPECT_FALSE(report->trace.InterpretationHistory().empty());
}

TEST(ActiveDatabaseTest, SequentialTransactions) {
  ActiveDatabase db;
  ASSERT_TRUE(db.LoadRules(R"(
    +emp(X) -> +active(X).
    -emp(X), payroll(X, S) -> -payroll(X, S).
  )").ok());
  {
    Transaction tx = db.Begin();
    tx.Insert("emp", {"a"});
    ASSERT_TRUE(std::move(tx).Commit().ok());
  }
  EXPECT_EQ(db.database().ToString(), "{active(a), emp(a)}");
  {
    Transaction tx = db.Begin();
    tx.Insert("payroll", {"a", "x"});
    ASSERT_TRUE(std::move(tx).Commit().ok());
  }
  {
    Transaction tx = db.Begin();
    tx.Delete("emp", {"a"});
    ASSERT_TRUE(std::move(tx).Commit().ok());
  }
  // The deletion event cascaded to payroll; active remains (no rule).
  EXPECT_EQ(db.database().ToString(), "{active(a)}");
}

TEST(ActiveDatabaseTest, AddRuleProgrammatically) {
  ActiveDatabase db;
  auto rule = RuleBuilder(db.symbols())
                  .Name("r")
                  .When("p", {"X"})
                  .Insert("q", {"X"})
                  .Build();
  ASSERT_TRUE(rule.ok());
  ASSERT_TRUE(db.AddRule(std::move(rule).value()).ok());
  ASSERT_TRUE(db.LoadFacts("p(a).").ok());
  ASSERT_TRUE(db.Stabilize().ok());
  EXPECT_TRUE(db.Contains(ParseGroundAtom("q(a)", db.symbols()).value()));
}

TEST(ActiveDatabaseTest, LoadRulesRejectsDuplicateLabelAcrossCalls) {
  ActiveDatabase db;
  ASSERT_TRUE(db.LoadRules("r: p -> +q.").ok());
  EXPECT_FALSE(db.LoadRules("r: q -> +p.").ok());
}

TEST(ActiveDatabaseTest, ExternalSymbolTableIsShared) {
  auto symbols = MakeSymbolTable();
  ActiveDatabase db(symbols);
  EXPECT_EQ(db.symbols(), symbols);
}

}  // namespace
}  // namespace park

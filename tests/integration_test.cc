// Whole-stack integration: one scenario driving every subsystem together —
// parsing with all annotations, ECA transactions, conflict resolution with
// a composite policy, tracing, provenance, queries, analysis, and
// crash recovery from a checkpoint plus the journal.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "park/park.h"

namespace park {
namespace {

constexpr char kInventoryRules[] = R"(
  # Stock management for a small warehouse.
  # Reordering: low stock triggers a purchase order...
  reorder [src=1]:  stock(I, 0), !on_order(I) -> +on_order(I).
  # ...and receiving goods clears it.
  received [src=1]: +stock(I, 100), on_order(I) -> -on_order(I).

  # Quality control: recalled items must not be sellable...
  recall [prio=10, src=2]:  recalled(I), sellable(I) -> -sellable(I).
  # ...but the sales team keeps marking stocked items sellable.
  sales [prio=1, src=3]:    stock(I, 100) -> +sellable(I).

  # Audit every de-listing event.
  audit: -sellable(I) -> +delisted(I).
)";

class IntegrationTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : created_) {
      std::filesystem::remove_all(path);
    }
  }

  std::string TempPath(const std::string& name) {
    std::string path = ::testing::TempDir() + "park_integration_" + name;
    std::filesystem::remove_all(path);
    created_.push_back(path);
    return path;
  }

  std::vector<std::string> created_;
};

/// The recall rule outranks sales; their fight resolves by priority.
/// The same parameters open the directory every time, as replay requires.
ActiveDatabase::OpenParams WarehouseParams() {
  ActiveDatabase::OpenParams params;
  params.rules = kInventoryRules;
  params.sync_mode = JournalSyncMode::kFlush;
  params.options.policy = MakeCompositePolicy(
      {MakeRulePriorityPolicy(), MakeInertiaPolicy()});
  params.options.trace_level = TraceLevel::kSummary;
  return params;
}

TEST_F(IntegrationTest, WarehouseLifecycle) {
  const std::string dir = TempPath("db");
  std::string expected;
  {
    auto opened = ActiveDatabase::Open(dir, WarehouseParams());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ActiveDatabase& db = *opened;
    // Bulk-loaded facts are not journaled; a checkpoint makes them
    // durable, and every commit after it goes to the journal.
    ASSERT_TRUE(db.LoadFacts(R"(
      stock(widget, 100). sellable(widget).
      stock(gizmo, 0).
      stock(doohickey, 100). sellable(doohickey). recalled(doohickey).
    )").ok());
    ASSERT_TRUE(db.Checkpoint().ok());

    // Static analysis sees both tug-of-wars: on_order (reorder/received)
    // and sellable (recall/sales).
    ProgramAnalysis analysis = AnalyzeProgram(db.program());
    std::vector<std::string> conflict_preds;
    for (PredicateId pred : analysis.potentially_conflicting_predicates) {
      conflict_preds.push_back(db.symbols()->PredicateName(pred));
    }
    std::sort(conflict_preds.begin(), conflict_preds.end());
    EXPECT_EQ(conflict_preds,
              (std::vector<std::string>{"on_order", "sellable"}));
    EXPECT_TRUE(analysis.uses_events);

    // Stabilize: gizmo (stock 0) goes on order; doohickey is de-listed
    // and audited despite `sales` re-asserting it (priority 10 beats 1).
    auto report = db.Stabilize();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GE(report->stats.conflicts_resolved, 1u);
    EXPECT_EQ(report->journal_seq, 1u);
    EXPECT_TRUE(DatabaseMatches(db.database(), "on_order(gizmo)",
                                db.symbols()).value());
    EXPECT_FALSE(DatabaseMatches(db.database(), "sellable(doohickey)",
                                 db.symbols()).value());
    EXPECT_TRUE(DatabaseMatches(db.database(), "delisted(doohickey)",
                                db.symbols()).value());
    // widget untouched.
    EXPECT_TRUE(DatabaseMatches(db.database(), "sellable(widget)",
                                db.symbols()).value());

    // Receive the gizmo shipment transactionally.
    {
      Transaction tx = db.Begin();
      tx.Delete("stock", {"gizmo", "0"});
      tx.Insert("stock", {"gizmo", "100"});
      auto commit = std::move(tx).Commit();
      ASSERT_TRUE(commit.ok()) << commit.status().ToString();
      EXPECT_EQ(commit->journal_seq, 2u);
    }
    // The +stock event cleared the order and sales made it sellable.
    EXPECT_FALSE(DatabaseMatches(db.database(), "on_order(gizmo)",
                                 db.symbols()).value());
    EXPECT_TRUE(DatabaseMatches(db.database(), "sellable(gizmo)",
                                db.symbols()).value());
    expected = db.database().ToString();
  }

  // Crash-recover into a fresh instance: the checkpoint's facts, then
  // both journaled commits replayed on top, conflict resolution included.
  auto recovered = ActiveDatabase::Open(dir, WarehouseParams());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->database().ToString(), expected);
  EXPECT_EQ(recovered->durable_seq(), 2u);

  // Query the audit trail through the pattern API.
  auto delisted = QueryDatabase(recovered->database(), "delisted(I)",
                                recovered->symbols());
  ASSERT_TRUE(delisted.ok());
  EXPECT_EQ(delisted->ToStrings(*recovered->symbols()),
            (std::vector<std::string>{"I=doohickey"}));
}

TEST_F(IntegrationTest, SourceReliabilityOverridesPriority) {
  // Same warehouse, but resolution by source trust: QC (src=2) outranks
  // sales (src=3) regardless of rule priorities.
  ActiveDatabase db;
  ASSERT_TRUE(db.LoadRules(kInventoryRules).ok());
  ASSERT_TRUE(db.LoadFacts(
      "stock(doohickey, 100). sellable(doohickey). recalled(doohickey).")
                  .ok());
  {
    ParkOptions options;
    options.policy = MakeCompositePolicy(
        {MakeSourceReliabilityPolicy({{2, 100}, {3, 10}, {1, 50}}),
         MakeInertiaPolicy()});
    ASSERT_TRUE(db.Configure(std::move(options)).ok());
  }
  ASSERT_TRUE(db.Stabilize().ok());
  EXPECT_FALSE(DatabaseMatches(db.database(), "sellable(doohickey)",
                               db.symbols()).value());

  // Flip the trust table: sales wins, the item stays sellable.
  ActiveDatabase db2;
  ASSERT_TRUE(db2.LoadRules(kInventoryRules).ok());
  ASSERT_TRUE(db2.LoadFacts(
      "stock(doohickey, 100). sellable(doohickey). recalled(doohickey).")
                  .ok());
  {
    ParkOptions options;
    options.policy = MakeCompositePolicy(
        {MakeSourceReliabilityPolicy({{2, 10}, {3, 100}, {1, 50}}),
         MakeInertiaPolicy()});
    ASSERT_TRUE(db2.Configure(std::move(options)).ok());
  }
  ASSERT_TRUE(db2.Stabilize().ok());
  EXPECT_TRUE(DatabaseMatches(db2.database(), "sellable(doohickey)",
                              db2.symbols()).value());
}

TEST_F(IntegrationTest, ProgramRoundTripsThroughDisk) {
  auto symbols = MakeSymbolTable();
  auto program = ParseProgram(kInventoryRules, symbols);
  ASSERT_TRUE(program.ok());
  std::string path = TempPath("rules");
  ASSERT_TRUE(WriteProgramFile(*program, path).ok());
  auto reloaded = ReadProgramFile(path, MakeSymbolTable());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(ProgramToString(*reloaded), ProgramToString(*program));
  // Annotations survive the round trip.
  EXPECT_EQ(reloaded->rule(2).priority(), 10);
  EXPECT_EQ(reloaded->rule(2).source(), 2);
}

}  // namespace
}  // namespace park
